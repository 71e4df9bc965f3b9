//! Benchmark self-tests, at the tiny size: every workload emits every
//! named metric with its unit, counts repeat exactly, and the seed
//! changes the inputs but not the set of metrics.

use std::path::PathBuf;

use lowvcc_perfbench::report::Outcome;
use lowvcc_perfbench::{cold, layers, restart, run_workload, selected, warm, Args, Scale};

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::tiny(),
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".perfbench"),
    }
}

fn run(workload: &str, seed: u64) -> Outcome {
    run_workload(workload, &args(workload, seed, false)).expect("workload runs")
}

fn names(workload: &str, outcome: &Outcome, trace: bool) -> Vec<(String, &'static str)> {
    selected(workload, outcome, trace)
        .expect("every metric is produced")
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in lowvcc_perfbench::WORKLOADS {
        let out = run(w, 1);
        assert!(out.correct(), "{w}: {:?}", out.mismatches);
        let got = names(w, &out, false);
        let want: Vec<(String, &str)> = lowvcc_perfbench::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(got, want, "{w}");
        for m in selected(w, &out, false).unwrap() {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w} {}: {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let out = layers::run(&args("serve_warm", 1, true)).expect("traced run");
    assert!(out.correct(), "{:?}", out.mismatches);
    let got = names("serve_warm", &out, true);
    assert_eq!(got.len(), layers::PER_LAYER.len());
    for ((name, unit), (want_name, want_unit)) in got.iter().zip(layers::PER_LAYER) {
        assert_eq!((name.as_str(), *unit), (want_name, want_unit));
    }
}

#[test]
fn counts_repeat_exactly() {
    let a = args("paper_cold", 2, false);
    let calls = || {
        let mut ctx = cold::build_context(a.seed, &a.scale).expect("suite");
        let csv = a.scratch("selftest-csv");
        std::fs::create_dir_all(&csv).expect("CSV dir");
        let got = cold::engine_calls(&mut ctx, &a.scratch("selftest-calls"), &csv);
        let _ = std::fs::remove_dir_all(&csv);
        got.expect("engine calls")
    };
    let (records, misses) = calls();
    assert!(records > 0);
    assert_eq!(records, misses, "each miss publishes one record");
    assert_eq!(calls(), (records, misses));
    assert_eq!(
        run("paper_cold", 2).get("store_misses"),
        Some(misses as f64)
    );

    let a = run("fleet_restart", 2);
    let b = run("fleet_restart", 2);
    for name in [
        "restart_misses",
        "persisted_ratio",
        "records",
        "distinct_keys",
    ] {
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
}

#[test]
fn seed_changes_inputs_not_metric_names() {
    let s = Scale::tiny();
    assert_ne!(
        cold::suite_specs(1, s.cold_per_family, s.cold_len),
        cold::suite_specs(2, s.cold_per_family, s.cold_len)
    );
    assert_eq!(
        cold::suite_specs(0, 1, 10_000),
        lowvcc_trace::suite(1, 10_000),
        "seed 0 is the experiments binary's NxLEN suite"
    );
    assert_ne!(warm::schedule(1, 50), warm::schedule(2, 50));
    assert_eq!(warm::schedule(1, 50), warm::schedule(1, 50));
    let lines: Vec<Vec<String>> = (0..8).map(restart::pass_lines).collect();
    assert!(
        lines.windows(2).any(|w| w[0] != w[1]),
        "the seed orders the pass"
    );
    let mut sorted: Vec<Vec<String>> = lines
        .iter()
        .map(|l| {
            let mut l = l.clone();
            l.sort();
            l
        })
        .collect();
    sorted.dedup();
    assert_eq!(sorted.len(), 1, "every seed computes the same keys");

    let a = run("serve_warm", 3);
    let b = run("serve_warm", 4);
    assert_eq!(
        names("serve_warm", &a, false),
        names("serve_warm", &b, false)
    );
}
