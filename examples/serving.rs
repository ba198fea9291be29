//! Stand up the concurrent serving runtime over a retail pipeline,
//! replay a seeded request stream, and show what the cache did.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use nlidb::benchdata::{derive_slots, request_stream, retail_database};
use nlidb::core::pipeline::NliPipeline;
use nlidb::serve::{run_closed_loop, Clock, Disposition, ManualClock, Server, ServerConfig};

fn main() {
    // One pipeline, shared immutably by every worker.
    let db = retail_database(42);
    let pipeline = Arc::new(NliPipeline::standard(&db));

    // A deterministic clock: time advances only when we say so.
    let clock = Arc::new(ManualClock::new());
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 64,
        interp_cache: 256,
        ..ServerConfig::default()
    };
    let mut server = Server::start_observed(
        Arc::clone(&pipeline),
        config,
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );

    // A seeded stream: 48 requests, 25% of them multi-turn session turns.
    let slots = derive_slots(&db);
    let stream = request_stream(&slots, 42, 48, 0.25);
    let report = run_closed_loop(&mut server, &clock, &stream, 16);

    for completion in report.completions.iter().take(6) {
        match &completion.disposition {
            Disposition::Answered {
                sql, from_cache, ..
            } => {
                let tag = if *from_cache { "cache" } else { "fresh" };
                println!("[{tag}] {sql}");
            }
            Disposition::SessionReply { response, .. } => println!("[turn ] {response}"),
            other => println!("[other] {other:?}"),
        }
    }

    let metrics = server.shutdown();
    println!("\n{metrics}");
}
