//! Property tests for the key-encoding hazards: over generated data
//! seeded with the traps that once broke hash keys, every hashed path
//! of the engine must agree with a path that compares values directly.
//!
//! The value pool includes integers straddling 2⁵³ (adjacent integers
//! an `f64` cannot tell apart), strings embedding U+001F (a tempting
//! key separator) followed by U+0003 (the string tag of
//! `Value::group_key`), and NULL floats. Each check needs no second
//! engine:
//!
//! * an inner equi-join (hash join on per-column keys) equals, as a
//!   bag, the same join over `ON 1 = 1` with its equalities moved into
//!   `WHERE` — a nested loop comparing with SQL `=`;
//! * `GROUP BY` and `DISTINCT` equal a tally computed here from the
//!   generated rows;
//! * printing a query and parsing it back gives the same answer;
//! * tick counts are deterministic across runs.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use nlidb_engine::{execute, execute_with_stats, ColumnType, Database, TableSchema, Value};
use nlidb_sqlir::parse_query;

const BIG: i64 = 1 << 53;

fn tricky_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -20i64..20,
        prop::sample::select(vec![BIG, BIG + 1, BIG - 1, -BIG, -(BIG + 1)]),
    ]
}

fn tricky_str() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "red",
        "blue",
        "a\u{1f}",
        "\u{1f}b",
        "a\u{1f}b",
        "\u{1f}\u{3}",
        "",
    ])
    .prop_map(str::to_string)
}

#[derive(Debug, Clone)]
struct Dataset {
    t: Vec<(i64, Option<f64>, String, String)>,
    u: Vec<(i64, String)>,
}

fn dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec(
            (
                tricky_int(),
                prop::option::of((-6i32..6).prop_map(|x| x as f64 / 2.0)),
                tricky_str(),
                tricky_str(),
            ),
            0..24,
        ),
        prop::collection::vec((tricky_int(), tricky_str()), 0..12),
    )
        .prop_map(|(t, u)| Dataset { t, u })
}

fn build_db(d: &Dataset) -> Database {
    let mut db = Database::new("prop");
    db.create_table(
        TableSchema::new("t")
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Float)
            .column("c", ColumnType::Text)
            .column("k", ColumnType::Text),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("u")
            .column("a", ColumnType::Int)
            .column("k", ColumnType::Text),
    )
    .unwrap();
    for (a, b, c, k) in &d.t {
        db.insert(
            "t",
            vec![
                Value::Int(*a),
                b.map(Value::Float).unwrap_or(Value::Null),
                Value::Str(c.clone()),
                Value::Str(k.clone()),
            ],
        )
        .unwrap();
    }
    for (a, k) in &d.u {
        db.insert("u", vec![Value::Int(*a), Value::Str(k.clone())])
            .unwrap();
    }
    db
}

/// Every inner equi-join the pool runs, as (select list, FROM/JOIN
/// sources, equalities). The last joins `t` to itself on two text
/// columns, so composite keys of distinct rows can meet at a boundary.
const EQUI_JOINS: [(&str, &str, &str); 3] = [
    ("t.a, u.k", "t JOIN u", "t.a = u.a"),
    ("t.c, u.k", "t JOIN u", "t.k = u.k AND t.c = u.k"),
    ("x.a, y.a", "t AS x JOIN t AS y", "x.c = y.c AND x.k = y.k"),
];

/// SQL covering all four complexity rungs plus the hazards (composite
/// join/group keys, DISTINCT, large-int equality).
fn pool(v: i64) -> Vec<String> {
    let mut qs: Vec<String> = EQUI_JOINS
        .iter()
        .map(|(select, from, on)| format!("SELECT {select} FROM {from} ON {on}"))
        .collect();
    qs.extend([
        format!("SELECT a, c FROM t WHERE a > {v}"),
        "SELECT DISTINCT c, k FROM t".to_string(),
        "SELECT c, COUNT(*), SUM(b) FROM t GROUP BY c ORDER BY c ASC".to_string(),
        "SELECT c, k, COUNT(*) FROM t GROUP BY c, k".to_string(),
        "SELECT a, COUNT(*) FROM t GROUP BY a".to_string(),
        "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a ORDER BY t.a ASC LIMIT 10".to_string(),
        format!(
            "SELECT t.a, u.a FROM t JOIN u ON t.a < u.a WHERE u.a < {}",
            v / 4
        ),
        "SELECT a FROM t WHERE c IN (SELECT k FROM u)".to_string(),
        "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)".to_string(),
        "SELECT a FROM t WHERE b > (SELECT AVG(b) FROM t)".to_string(),
        "SELECT d.c, d.n FROM (SELECT c, COUNT(*) AS n FROM t GROUP BY c) AS d \
         WHERE d.n > 1"
            .to_string(),
        "SELECT c FROM t WHERE b IS NULL OR a BETWEEN -5 AND 5".to_string(),
        "SELECT c FROM t WHERE c LIKE '%a%' AND a <> 3".to_string(),
    ]);
    qs
}

fn run(db: &Database, sql: &str) -> nlidb_engine::ResultSet {
    execute(db, &parse_query(sql).unwrap()).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hash_joins_equal_their_nested_loop_form(d in dataset()) {
        let db = build_db(&d);
        for (select, from, on) in EQUI_JOINS {
            let hashed = run(&db, &format!("SELECT {select} FROM {from} ON {on}"));
            let looped = run(&db, &format!("SELECT {select} FROM {from} ON 1 = 1 WHERE {on}"));
            prop_assert!(
                hashed.unordered_eq(&looped),
                "hash join on {} diverged from its nested loop: {:?} vs {:?}",
                on,
                hashed.rows,
                looped.rows
            );
        }
    }

    #[test]
    fn grouping_and_distinct_match_a_tally(d in dataset()) {
        let db = build_db(&d);
        let mut by_ck: BTreeMap<(String, String), i64> = BTreeMap::new();
        let mut by_a: BTreeMap<i64, i64> = BTreeMap::new();
        for (a, _, c, k) in &d.t {
            *by_ck.entry((c.clone(), k.clone())).or_default() += 1;
            *by_a.entry(*a).or_default() += 1;
        }

        let rs = run(&db, "SELECT c, k, COUNT(*) FROM t GROUP BY c, k");
        let got: BTreeMap<(String, String), i64> = rs
            .rows
            .iter()
            .map(|r| ((text(&r[0]), text(&r[1])), int(&r[2])))
            .collect();
        prop_assert_eq!(rs.rows.len(), got.len(), "a (c, k) group came out twice");
        prop_assert_eq!(&got, &by_ck);

        let rs = run(&db, "SELECT a, COUNT(*) FROM t GROUP BY a");
        let got: BTreeMap<i64, i64> = rs.rows.iter().map(|r| (int(&r[0]), int(&r[1]))).collect();
        prop_assert_eq!(rs.rows.len(), got.len(), "an `a` group came out twice");
        prop_assert_eq!(&got, &by_a);

        let rs = run(&db, "SELECT DISTINCT c, k FROM t");
        let got: BTreeSet<(String, String)> =
            rs.rows.iter().map(|r| (text(&r[0]), text(&r[1]))).collect();
        prop_assert_eq!(rs.rows.len(), got.len(), "DISTINCT kept a duplicate");
        let want: BTreeSet<(String, String)> = by_ck.into_keys().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn printed_queries_answer_like_the_parsed_ones(d in dataset(), v in -20i64..20) {
        let db = build_db(&d);
        for sql in pool(v) {
            let query = parse_query(&sql).unwrap();
            let reparsed = parse_query(&query.to_string()).unwrap();
            prop_assert_eq!(
                execute(&db, &query),
                execute(&db, &reparsed),
                "print → parse changed the answer to: {}",
                sql
            );
        }
    }

    #[test]
    fn ticks_deterministic_across_runs(d in dataset(), v in -20i64..20) {
        let db = build_db(&d);
        for sql in pool(v) {
            let query = parse_query(&sql).unwrap();
            let a = execute_with_stats(&db, &query).unwrap();
            let b = execute_with_stats(&db, &query).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}
