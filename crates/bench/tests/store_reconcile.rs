//! Reconciliation of the store's counters with the engine work behind
//! them: a cold `run_all` through a fresh on-disk store simulates once
//! per miss — no more, no fewer — and publishes every result it
//! simulates.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use lowvcc_bench::experiments::run_all;
use lowvcc_bench::{ExperimentContext, ResultStore, QUARANTINE_DIR};

/// Distinct cycle-level projections `run_all` simulates per trace: the
/// sweep's 21, Table 1's 4 and the stall split's stall-free reference.
const DISTINCT_CONFIGS_PER_TRACE: u64 = 26;

/// Counts the published records (`*.sim`) under a store directory by
/// walking it, independently of the store's own bookkeeping.
fn records_on_disk(dir: &Path) -> u64 {
    let mut n = 0;
    for shard in fs::read_dir(dir).expect("store listable") {
        let shard = shard.expect("entry").path();
        if !shard.is_dir() || shard.ends_with(QUARANTINE_DIR) {
            continue;
        }
        for entry in fs::read_dir(&shard).expect("shard listable") {
            let p = entry.expect("entry").path();
            if p.extension().is_some_and(|e| e == "sim") {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn store_misses_equal_engine_invocations() {
    const LEN: usize = 2_000;
    let root = std::env::temp_dir().join(format!("lowvcc_reconcile_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let ctx = ExperimentContext::sized(1, LEN).expect("tiny suite builds");
    let traces = ctx.suite.len() as u64;
    let store = Arc::new(ResultStore::open(root.join("store")).expect("fresh store opens"));
    run_all(&ctx.with_cache(Arc::clone(&store)), &root.join("out")).expect("cold run completes");

    let s = store.stats();
    assert!(!s.degraded && s.write_failures == 0, "{s:?}");
    // Every engine invocation ran one whole trace, so the uop counter
    // divides into invocations exactly.
    assert_eq!(s.simulated_uops % LEN as u64, 0, "{s:?}");
    assert_eq!(s.misses, s.simulated_uops / LEN as u64, "{s:?}");
    assert_eq!(s.misses, DISTINCT_CONFIGS_PER_TRACE * traces, "{s:?}");
    // …and each one was published: one record on disk per miss.
    assert_eq!(records_on_disk(&root.join("store")), s.misses, "{s:?}");
    assert_eq!(s.stores, s.misses, "{s:?}");

    let _ = fs::remove_dir_all(&root);
}
