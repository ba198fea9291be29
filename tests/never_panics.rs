//! Robustness at the front door: whatever bytes a user types, the
//! pipeline answers or refuses — it never panics. A panic here is a
//! worker death in `nlidb-serve`, so this property is what makes crash
//! recovery an *exceptional* path instead of routine traffic.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use nlidb_benchdata::{retail_database, RequestSpec};
use nlidb_core::neural::TrainingExample;
use nlidb_core::pipeline::NliPipeline;
use nlidb_core::InterpreterKind;
use nlidb_dialogue::{ConversationSession, ManagerKind};
use nlidb_serve::{Clock, ManualClock, Server, ServerConfig};

/// A few hand-written pairs over the retail schema: enough to switch
/// on the learned paths an untrained pipeline never runs.
fn training() -> Vec<TrainingExample> {
    [
        ("how many customers", "SELECT COUNT(*) FROM customers"),
        ("count the orders", "SELECT COUNT(*) FROM orders"),
        ("show all products", "SELECT * FROM products"),
        (
            "average price of products",
            "SELECT AVG(price) FROM products",
        ),
        ("orders over 100", "SELECT * FROM orders WHERE amount > 100"),
    ]
    .iter()
    .map(|(q, sql)| TrainingExample {
        question: q.to_string(),
        sql: nlidb_sqlir::parse_query(sql).unwrap(),
    })
    .collect()
}

/// One shared, trained pipeline: building it is the expensive part,
/// and the property under test is about inputs, not construction.
fn pipeline() -> &'static Arc<NliPipeline> {
    static PIPE: OnceLock<Arc<NliPipeline>> = OnceLock::new();
    PIPE.get_or_init(|| {
        let mut p = NliPipeline::standard(&retail_database(7));
        p.train_neural(&training(), 7);
        Arc::new(p)
    })
}

/// Arbitrary Unicode scalar values (surrogate range excluded), joined
/// into a string — covers control characters, emoji, astral-plane
/// text, and every separator the tokenizer might trip on.
fn arbitrary_utf8() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![0u32..0xD800, 0xE000u32..0x0011_0000], 0..200)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ask_never_panics_on_arbitrary_utf8(input in arbitrary_utf8()) {
        // Ok and Err are both acceptable; unwinding is not. Every
        // family, classic and approved, plus `suggest`.
        let p = pipeline();
        for kind in InterpreterKind::all() {
            let _ = p.ask_bounded(&input, kind, None);
            let _ = p.ask_approved(&input, kind, None, None);
        }
        let _ = p.suggest(&input);
    }

    #[test]
    fn turn_never_panics_on_arbitrary_utf8(a in arbitrary_utf8(), b in arbitrary_utf8()) {
        let p = pipeline();
        let mut s = ConversationSession::new(p.database(), p.context(), ManagerKind::Agent);
        // Two turns: the second hits the follow-up path with whatever
        // state (or rejection) the first left behind.
        let _ = s.turn(&a);
        let _ = s.turn(&b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same inputs through a 1-worker server, as standalone
    /// questions and as turns of one session. A panic there does not
    /// unwind into the caller: it kills the worker, and the request
    /// surfaces as a refusal — so the property is that no worker dies
    /// and every submitted request completes exactly once.
    #[test]
    fn server_never_loses_a_request_on_arbitrary_utf8(
        a in arbitrary_utf8(),
        b in arbitrary_utf8(),
    ) {
        let clock = Arc::new(ManualClock::new()) as Arc<dyn Clock>;
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let mut server = Server::start_observed(Arc::clone(pipeline()), config, clock, None, None);
        let turn = |q: &str| RequestSpec {
            question: q.to_string(),
            session: Some(1),
            deadline: None,
        };
        let specs = [
            RequestSpec::single(a.clone()),
            RequestSpec::single(b.clone()),
            turn(&a),
            turn(&b),
        ];
        let submitted: Vec<u64> = specs.iter().map(|s| server.submit(s).id()).collect();
        let completed: Vec<u64> = server.drain().iter().map(|c| c.id).collect();
        prop_assert_eq!(completed, submitted);
        prop_assert_eq!(server.shutdown().worker_deaths, 0);
    }
}

/// The deterministic edge cases worth pinning by name, so a regression
/// fails with a readable test title rather than a proptest seed.
#[test]
fn hostile_inputs_are_survivable() {
    let p = pipeline();
    // `ask` is linear in token count (~1ms/token in release) — the
    // full 10k-token battering ram runs where it costs seconds, debug
    // builds take a shorter (still far-beyond-normal) swing.
    let long_tokens = if cfg!(debug_assertions) { 500 } else { 10_000 };
    let token_flood = "select ".repeat(long_tokens);
    let cases: Vec<String> = vec![
        String::new(),
        " ".to_string(),
        "\u{0}\u{1}\u{2}\u{7f}".to_string(),
        "\n\t\r\n".to_string(),
        token_flood,
        "🙂🙃🦀💥".repeat(50),
        "how many 🦀 are there".to_string(),
        "'; DROP TABLE customers; --".to_string(),
        "\"unclosed quote".to_string(),
        "show customers where name = 'O''Brien'".to_string(),
        "؈؈؈ مرحبا 你好 שלום".to_string(),
        "\u{202e}reversed\u{202c} text".to_string(),
    ];
    for input in &cases {
        let _ = p.ask(input);
        let mut s = ConversationSession::new(p.database(), p.context(), ManagerKind::Agent);
        let _ = s.turn(input);
        let _ = s.turn("what about Boston");
    }
}
