//! Render the perf-drift baseline: per-stage profiles, the
//! clean-vs-faulted diff, the full metric/counter export for the
//! seeded retail stream, the engine's tick totals per complexity
//! rung, and execute-span cost bucketed by plan shape —
//! every number a logical-tick cost, so the output is a pure function
//! of the seed and `scripts/check_perf_drift.py` can compare it
//! byte-for-byte against `scripts/perf_baseline_seed42.txt`. Any
//! mismatch is a semantic change in pipeline work, never noise.
//!
//! ```text
//! cargo run --release -p nlidb-bench --bin perfgate            # seed 42
//! cargo run --release -p nlidb-bench --bin perfgate -- --seed 7
//! ```

use std::env;
use std::process::exit;

use nlidb_bench::experiments::{engine_corpus_pass, faulted_regime_plan, retail_serve_run};
use nlidb_benchdata::FaultPlan;
use nlidb_obs::{attr_cost_breakdown, Profile, ProfileDiff};
use nlidb_serve::ServeObs;
use nlidb_sqlir::ComplexityClass;

const N: usize = 120;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => 42,
        [flag, value] if flag == "--seed" => value.parse().unwrap_or_else(|_| {
            eprintln!("--seed wants an integer, got {value:?}");
            exit(2);
        }),
        _ => {
            eprintln!("usage: perfgate [--seed <u64>]");
            exit(2);
        }
    };

    let plan = faulted_regime_plan(seed, N);
    let (c_obs, f_obs) = (ServeObs::new(N), ServeObs::new(N));
    let (_, c_m) = retail_serve_run(seed, N, 1, FaultPlan::none(), Some(c_obs.clone()));
    let (_, f_m) = retail_serve_run(seed, N, 1, plan, Some(f_obs.clone()));
    let clean = Profile::from_traces(&c_obs.sink.traces());
    let faulted = Profile::from_traces(&f_obs.sink.traces());
    c_m.export_into(&c_obs.registry);
    f_m.export_into(&f_obs.registry);

    let engine = engine_corpus_pass(seed);
    let mut engine_text = String::new();
    for (k, class) in ComplexityClass::all().iter().enumerate() {
        engine_text.push_str(&format!(
            "rung {} queries={} ticks={}\n",
            class.label(),
            engine.queries[k],
            engine.ticks[k]
        ));
    }
    let mut shape_text = String::new();
    for bucket in attr_cost_breakdown(&c_obs.sink.traces(), "execute", "plan_shape") {
        shape_text.push_str(&bucket.export_line());
    }

    print!(
        "perfgate seed={seed} n={N}\n\
         == profile clean ==\n{}\
         == profile faulted ==\n{}\
         == diff faulted-clean ==\n{}\
         == metrics clean ==\n{}\
         == metrics faulted ==\n{}\
         == engine ticks per rung ==\n{engine_text}\
         == execute cost by plan shape ==\n{shape_text}",
        clean.export_text(),
        faulted.export_text(),
        ProfileDiff::between(&clean, &faulted).export_text(),
        c_obs.registry.report().export_text(),
        f_obs.registry.report().export_text()
    );
}
