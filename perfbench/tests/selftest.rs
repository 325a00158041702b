//! Self-tests of the benchmark: every workload emits every metric it
//! promises, a tampered catalog shows up as failed operations, and the
//! counted figures repeat exactly for a fixed seed and operation count.

use std::path::PathBuf;
use tep_perfbench::{run, Config, Outcome, Scale, Workload, END_TO_END, FETCH_LAYER, PER_LAYER};

/// A tiny, fixed-size run: `ops` operations per measured phase.
fn tiny(workload: Workload, seed: u64, trace: bool, ops: u64, name: &str) -> Config {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{name}-{}",
        workload.name(),
        std::process::id()
    ));
    let mut cfg = Config::new(workload, seed, 60.0, trace, scratch);
    cfg.scale = Scale::Tiny;
    cfg.max_ops = Some(ops);
    cfg
}

fn run_ok(cfg: &Config) -> Outcome {
    let outcome = run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.workload.name()));
    assert!(
        !cfg.scratch.exists(),
        "the run must remove its scratch directory"
    );
    outcome
}

fn assert_emits(outcome: &Outcome, expected: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected, "{what}: metric names and units");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
        assert!(!m.unit.is_empty(), "{what}: {} has no unit", m.name);
    }
}

#[test]
fn every_workload_emits_every_metric() {
    for workload in Workload::ALL {
        let what = workload.name();
        let plain = run_ok(&tiny(workload, 7, false, 40, "smoke"));
        assert!(plain.correct && plain.failed == 0, "{what}: {plain:?}");
        assert_eq!(plain.attempted, 40, "{what}");
        assert_emits(&plain, &END_TO_END, what);
        assert_eq!(plain.metric("op_ok_ratio"), Some(1.0), "{what}");
        for (name, _) in END_TO_END {
            let v = plain.metric(name).expect("emitted");
            assert!(v > 0.0, "{what}: end-to-end {name} must not be 0");
        }

        let traced = run_ok(&tiny(workload, 7, true, 40, "trace"));
        assert!(traced.correct && traced.failed == 0, "{what}: {traced:?}");
        assert_eq!(traced.attempted, 80, "{what}: two phases of 40");
        let mut layers = PER_LAYER.to_vec();
        if workload == Workload::Fetch {
            layers.extend(FETCH_LAYER);
        }
        assert_emits(&traced, &layers, what);
        let coverage = traced.metric("trace.coverage").expect("emitted");
        assert!(coverage > 0.0, "{what}: layers account for no time");
    }
}

#[test]
fn tampered_catalog_fails_fetches() {
    let mut cfg = tiny(Workload::Fetch, 11, false, 200, "tamper");
    cfg.tamper = true;
    let outcome = run_ok(&cfg);
    assert!(!outcome.correct, "a tampered record must fail a check");
    assert!(outcome.failed > 0);
    let ok_ratio = outcome.metric("op_ok_ratio").expect("emitted");
    assert!(ok_ratio < 1.0, "op_ok_ratio {ok_ratio}");
}

#[test]
fn same_seed_repeats_counted_figures() {
    let pinned = [
        (Workload::Ingest, false, "bytes_per_record"),
        (Workload::Ingest, true, "core.records_per_op"),
        (Workload::Fetch, false, "bytes_per_record"),
        (Workload::Fetch, true, "core.records_per_op"),
        (Workload::Audit, false, "bytes_per_record"),
        (Workload::Audit, true, "core.records_per_op"),
        (Workload::Audit, true, "query.slice_records"),
    ];
    for (workload, trace, metric) in pinned {
        let figure = |run_name| {
            run_ok(&tiny(workload, 23, trace, 60, run_name))
                .metric(metric)
                .expect("emitted")
        };
        let (first, second) = (figure("a"), figure("b"));
        assert!(first > 0.0, "{} {metric}", workload.name());
        assert_eq!(first, second, "{} {metric}", workload.name());
    }
}
