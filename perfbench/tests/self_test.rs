//! Self-test at a tiny request count: every metric prints with its
//! unit, the result line is well formed, and the correctness check
//! notices one altered answer.

use std::path::PathBuf;
use std::time::Duration;

use nlidb_perfbench::closed_loop::{self, answer_digest, Budget};
use nlidb_perfbench::workload::{Trained, Workload};
use nlidb_perfbench::{
    oracle, run_timed, run_traced, Options, END_TO_END, PER_LAYER, PRINTED_ONLY,
};
use nlidb_serve::Disposition;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 4.0,
        trace,
        max_requests: if workload == Workload::Hot { 1024 } else { 12 },
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-test"),
    }
}

/// Every `(name, unit)` appears in the report, in the notes, and in the
/// JSON result line, and nothing else is in the result line.
fn assert_prints(report: &nlidb_perfbench::Report, table: &[(&str, &str)]) {
    let listed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(listed, table);
    let json = report.json();
    for (name, unit) in table {
        assert!(
            report
                .notes
                .iter()
                .any(|l| l.contains(name) && l.contains(unit)),
            "{name} [{unit}] missing from the printed notes"
        );
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from {json}"
        );
    }
    assert_eq!(json.matches("\"value\"").count(), table.len());
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(report.attempted > 0 && report.failed == 0);
}

#[test]
fn every_metric_prints_with_its_unit() {
    for workload in Workload::ALL {
        let timed = run_timed(&options(workload, false));
        assert_prints(&timed, &END_TO_END);
        for (name, unit) in PRINTED_ONLY {
            assert!(
                timed
                    .notes
                    .iter()
                    .any(|l| l.contains(name) && l.contains(unit) && l.contains("samples")),
                "{name} [{unit}] and its sample count missing from the printed notes"
            );
        }
        assert_prints(&run_traced(&options(workload, true)), &PER_LAYER);
    }
}

#[test]
fn the_check_fails_when_one_served_answer_is_altered() {
    let trained = Trained::build(Workload::Novel, 5).0;
    let mut served = trained.start_server(Workload::Novel, None);
    let mut requests = trained.requests(Workload::Novel, 5);
    let mut log = closed_loop::run(
        &mut served,
        &mut requests,
        Workload::Novel.round_size(),
        Budget {
            time: Duration::from_secs(30),
            max_requests: 16,
        },
        Workload::Novel.sample_size(),
        None,
    );
    served.server.shutdown();
    let clean = oracle::verify(&trained, &log);
    assert_eq!(clean.mismatches, 0);
    assert_eq!(clean.sampled, 12);
    assert_eq!(clean.turns, 4);

    let altered = Disposition::Answered {
        sql: "SELECT 1".to_string(),
        rows: vec!["1=1".to_string()],
        from_cache: false,
    };
    let served_answer = std::mem::replace(&mut log.sample[3].1, altered);
    assert_eq!(oracle::verify(&trained, &log).mismatches, 1);

    log.sample[3].1 = served_answer;
    let turn = log
        .dialogues
        .values_mut()
        .next()
        .expect("a dialogue was served");
    turn[0].1 = answer_digest(&Disposition::SessionReply {
        response: "altered".to_string(),
        sql: None,
        accepted: true,
    });
    assert_eq!(oracle::verify(&trained, &log).mismatches, 1);
}

#[test]
fn the_check_fails_when_one_later_cache_hit_is_altered() {
    let trained = Trained::build(Workload::Hot, 5).0;
    let mut served = trained.start_server(Workload::Hot, None);
    let mut requests = trained.requests(Workload::Hot, 5);
    let round = Workload::Hot.round_size();
    let mut log = closed_loop::run(
        &mut served,
        &mut requests,
        round,
        Budget {
            time: Duration::from_secs(30),
            max_requests: 2 * round as u64,
        },
        Workload::Hot.sample_size(),
        None,
    );
    served.server.shutdown();
    assert_eq!(log.completed, 2 * round as u64);
    // Every answer but the first to each question was compared.
    assert_eq!(log.repeats_checked + log.sample.len() as u64, log.completed);
    assert_eq!(oracle::verify(&trained, &log).mismatches, 0);

    // A later hit on a sampled question, served with other rows.
    let (question, first) = log.sample[0].clone();
    let Disposition::Answered { sql, mut rows, .. } = first else {
        panic!("pool questions are answered: {first:?}")
    };
    rows.push("altered=1".to_string());
    let later = Disposition::Answered {
        sql,
        rows,
        from_cache: true,
    };
    log.record_single(question, &later, Workload::Hot.sample_size());
    assert_eq!(oracle::verify(&trained, &log).mismatches, 1);
}
