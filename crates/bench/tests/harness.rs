//! Integration tests for the experiment harness's core path — the same
//! code the `experiments` binary drives: build a context, run F1 and T1,
//! write CSVs into a temp dir, and check the files are produced and
//! non-empty.

use std::fs;
use std::path::PathBuf;

use lowvcc_bench::experiments::{fig1, table1};
use lowvcc_bench::{ExperimentContext, ExperimentError};

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lowvcc_harness_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn f1_and_t1_produce_nonempty_csvs() {
    let ctx = ExperimentContext::sized(1, 5_000).expect("small suite builds");
    let out = temp_out("f1_t1");

    // F1 — Figure 1 delay curves.
    let f1 = fig1::table(&ctx);
    let f1_path = out.join("fig1.csv");
    f1.write_csv(&f1_path).expect("fig1 CSV writes");

    // T1 — Table 1, qualitative and measured.
    let t1q = table1::qualitative();
    let t1q_path = out.join("table1_qualitative.csv");
    t1q.write_csv(&t1q_path).expect("qualitative CSV writes");

    let t1m = table1::quantitative(&ctx).expect("measured table runs");
    let t1m_path = out.join("table1_quantitative.csv");
    t1m.write_csv(&t1m_path).expect("quantitative CSV writes");

    for (path, min_rows) in [(&f1_path, 13), (&t1q_path, 3), (&t1m_path, 6)] {
        let content =
            fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert!(!content.trim().is_empty(), "{} is empty", path.display());
        let lines = content.lines().count();
        assert!(
            lines > min_rows, // header + data rows
            "{} has {lines} lines, want ≥ {}",
            path.display(),
            min_rows + 1
        );
        assert!(
            content.lines().next().unwrap_or_default().contains(','),
            "{} lacks a CSV header",
            path.display()
        );
    }

    let _ = fs::remove_dir_all(&out);
}

#[test]
fn csv_failure_surfaces_as_typed_io_error() {
    // Writing below a path occupied by a *file* must fail — and the typed
    // error carries the offending path.
    let out = temp_out("io_err");
    fs::create_dir_all(&out).expect("temp dir");
    let blocker = out.join("blocker");
    fs::write(&blocker, b"not a directory").expect("blocker file");

    let t = table1::qualitative();
    let bad_path = blocker.join("nested.csv");
    let err = t
        .write_csv(&bad_path)
        .map_err(ExperimentError::io_at(&bad_path))
        .expect_err("write through a file must fail");
    match err {
        ExperimentError::Io { path, .. } => assert_eq!(path, bad_path),
        other => panic!("expected Io error, got {other}"),
    }

    let _ = fs::remove_dir_all(&out);
}

/// Every run of the `experiments` binary reports its engine runs, not
/// only a cached one: an uncached quick run simulates 7 traces × 25
/// distinct cycle-level projections.
#[test]
fn an_uncached_quick_run_reports_its_engine_runs() {
    let out = temp_out("cli_quick");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--suite", "quick", "--jobs", "2", "--out"])
        .arg(&out)
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(
        stderr.lines().any(|l| l == "engine: 175 simulated"),
        "{stderr}"
    );
    assert!(!stderr.contains("cache:"), "no cache line without --cache");
    let process = stderr.lines().last().unwrap_or_default();
    assert!(
        process.starts_with("process: ")
            && process.contains(" MB peak RSS, ")
            && process.ends_with(" s CPU"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&out);
}
