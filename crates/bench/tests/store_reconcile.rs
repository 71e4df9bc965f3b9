//! Reconciliation of the store's counters with the engine work behind
//! them: a cold `run_all` through a fresh on-disk store simulates once
//! per miss — no more, no fewer — and publishes every result it
//! simulates.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use lowvcc_bench::bundle::decode_bundle;
use lowvcc_bench::experiments::run_all;
use lowvcc_bench::{ExperimentContext, ResultStore, SEGMENTS_DIR};

/// Distinct cycle-level projections `run_all` simulates per trace: the
/// sweep's 21, Table 1's 3 and the stall split's stall-free reference.
/// (Table 1's realistic faulty-bits row disables no line at 500 mV, so
/// it is the baseline run.)
const DISTINCT_CONFIGS_PER_TRACE: u64 = 25;

/// Counts the published records under a store directory by decoding
/// every segment file, independently of the store's own bookkeeping.
fn records_on_disk(dir: &Path) -> u64 {
    let mut n = 0;
    for entry in fs::read_dir(dir.join(SEGMENTS_DIR)).expect("segments listable") {
        let p = entry.expect("entry").path();
        if p.extension().is_some_and(|e| e == "lvcb") {
            let bytes = fs::read(&p).expect("segment readable");
            n += decode_bundle(&bytes).expect("segment decodes").len() as u64;
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
    let traces = ctx.specs().len() as u64;
    let store = Arc::new(ResultStore::open(root.join("store")).expect("fresh store opens"));
    run_all(&ctx.with_cache(Arc::clone(&store)), &root.join("out")).expect("cold run completes");

    let s = store.stats();
    assert!(!s.degraded && s.write_failures == 0, "{s:?}");
    // Every engine invocation ran one whole trace, so the uop counter
    // divides into invocations exactly.
    assert_eq!(s.simulated_uops % LEN as u64, 0, "{s:?}");
    assert_eq!(s.misses, s.simulated_uops / LEN as u64, "{s:?}");
    assert_eq!(s.misses, DISTINCT_CONFIGS_PER_TRACE * traces, "{s:?}");
    // …and each one was published: one record on disk per miss, by the
    // segments' contents and by the store's own count.
    assert_eq!(records_on_disk(&root.join("store")), s.misses, "{s:?}");
    assert_eq!(s.stores, s.misses, "{s:?}");
    assert_eq!(s.stores, store.disk_entries(), "{s:?}");

    let _ = fs::remove_dir_all(&root);
}
