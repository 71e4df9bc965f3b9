//! Chaos suite: the paper-artefact pipeline under deterministic disk
//! fault injection.
//!
//! The acceptance gate of the self-healing store: with every injection
//! point exercised — torn writes, rename failures, EIO reads, bit
//! flips, ENOSPC — a cold-then-warm quick-suite run must complete
//! without a panic or a store error, produce CSVs **byte-identical** to
//! a fault-free run, and `verify` + `vacuum` must leave the store
//! scrub-clean within the byte budget. The fault schedule is seeded, so
//! a failure here replays exactly; one fault of each kind is pinned on
//! top of it, so the gate's coverage does not depend on the seed.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use lowvcc_bench::experiments::run_all;
use lowvcc_bench::{
    ExperimentContext, FaultCounts, FaultKind, FaultPlan, FaultyIo, ResultStore, RetryPolicy,
    StoreIo,
};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lowvcc_chaos_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Reads every regular file under `dir` (one level, the CSV layout of
/// `run_all`) into a name → bytes map.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("output dir listable") {
        let path = entry.expect("entry").path();
        if path.is_file() {
            files.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&path).expect("artifact readable"),
            );
        }
    }
    assert!(!files.is_empty(), "run_all wrote artifacts to {dir:?}");
    files
}

fn ctx() -> ExperimentContext {
    ExperimentContext::sized(1, 2_000).expect("tiny suite builds")
}

/// Forwards to a [`FaultyIo`], remembering the op index of the first
/// `write_sync`: where a cold run's first publish begins.
#[derive(Debug)]
struct FirstWrite {
    io: FaultyIo,
    at: OnceLock<u64>,
}

impl StoreIo for FirstWrite {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.io.read(path)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _ = self.at.set(self.io.ops());
        self.io.write_sync(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.io.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.io.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.io.create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.io.remove_file(path)
    }
}

/// Runs the suite once, cold, under `plan` in a throwaway store at
/// `dir`. Returns the op index of the run's first write and its total
/// op count. The suite runs sequentially, so a real run under a plan
/// that pins nothing before an index replays these ops exactly.
fn dry_cold_run(dir: &Path, plan: FaultPlan) -> (u64, u64) {
    let io = Arc::new(FirstWrite {
        io: FaultyIo::new(plan),
        at: OnceLock::new(),
    });
    let store = Arc::new(
        ResultStore::open_with(
            dir.join("store"),
            Arc::clone(&io) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .expect("dry-run store opens"),
    );
    run_all(&ctx().with_cache(store), &dir.join("out")).expect("dry run completes");
    let _ = fs::remove_dir_all(dir);
    let first_write = *io.at.get().expect("a cold run publishes");
    (first_write, io.io.ops())
}

/// The gate's fault plan: the seeded schedule (rate 400/1024 ≈ 39% of
/// every disk operation) plus pins that reach every fault kind whatever
/// the seed draws. Two dry runs locate the pins.
fn chaos_plan(root: &Path, seed: u64) -> FaultPlan {
    let seeded = FaultPlan::seeded(seed, 400);
    // The cold run's first publish (one segment) starts at op `w`. Its
    // first three attempts fail, one per write kind, while retries
    // remain (the rename fails after a clean tempfile write); its
    // fourth attempt and the next two publishes land clean, so the warm
    // run finds three segments on disk.
    let (w, _) = dry_cold_run(&root.join("dry_seeded"), seeded.clone());
    let cold = (w + 4..w + 13).fold(
        seeded
            .with_fault(w, FaultKind::TornWrite)
            .with_fault(w + 1, FaultKind::WriteEnospc)
            .with_clean_op(w + 2)
            .with_fault(w + 3, FaultKind::RenameFail),
        FaultPlan::with_clean_op,
    );
    // The warm run starts at op `s` by indexing those segments in
    // publish order, and each failed read costs one quarantine rename:
    // flip a bit in the first, fail the second with EIO, and read the
    // third clean so a segment survives both runs.
    let (_, s) = dry_cold_run(&root.join("dry_pinned"), cold.clone());
    cold.with_fault(s, FaultKind::ReadBitFlip)
        .with_fault(s + 2, FaultKind::ReadEio)
        .with_clean_op(s + 4)
}

/// The whole gate in one scenario, because its phases feed each other:
/// fault-free baseline → cold+warm chaos runs (byte-identical CSVs,
/// every fault kind injected) → scrub and collect the mauled store back
/// to clean within a byte budget → final run still byte-identical.
#[test]
fn chaos_runs_stay_byte_identical_and_scrub_clean() {
    let root = tmpdir("gate");
    let store_dir = root.join("store");

    // Phase 0 — fault-free baseline: no cache at all.
    let out_clean = root.join("out_clean");
    let clean = run_all(&ctx(), &out_clean).expect("fault-free run");
    let clean_files = dir_bytes(&out_clean);

    // Phase 1 — cold run under an aggressive fault schedule (see
    // `chaos_plan`); the retry policy sleeps zero so the suite stays
    // fast.
    let io = Arc::new(FaultyIo::new(chaos_plan(&root, 0xC4A06)));
    let cold_store = Arc::new(
        ResultStore::open_with(
            &store_dir,
            Arc::clone(&io) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .expect("chaos store opens"),
    );
    let out_cold = root.join("out_cold");
    let cold = run_all(&ctx().with_cache(Arc::clone(&cold_store)), &out_cold)
        .expect("cold chaos run must complete");
    assert_eq!(
        cold.report, clean.report,
        "cold chaos report byte-identical"
    );
    assert_eq!(cold.sweep, clean.sweep, "cold chaos sweep bit-identical");
    assert_eq!(
        dir_bytes(&out_cold),
        clean_files,
        "cold chaos CSVs identical"
    );

    // Phase 2 — warm run: a fresh handle (empty memory) over the same mauled
    // directory and the same fault stream.
    let warm_store = Arc::new(
        ResultStore::open_with(
            &store_dir,
            Arc::clone(&io) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .expect("chaos store reopens"),
    );
    let out_warm = root.join("out_warm");
    let warm = run_all(&ctx().with_cache(Arc::clone(&warm_store)), &out_warm)
        .expect("warm chaos run must complete");
    assert_eq!(
        warm.report, clean.report,
        "warm chaos report byte-identical"
    );
    assert_eq!(
        dir_bytes(&out_warm),
        clean_files,
        "warm chaos CSVs identical"
    );

    // The gate proper: every injection point exercised, and the
    // degradation machinery visibly did work.
    let injected: FaultCounts = io.injected();
    assert!(
        injected.torn_writes > 0,
        "torn write not exercised: {injected:?}"
    );
    assert!(
        injected.rename_fails > 0,
        "rename fail not exercised: {injected:?}"
    );
    assert!(
        injected.read_eio > 0,
        "EIO read not exercised: {injected:?}"
    );
    assert!(
        injected.read_bit_flips > 0,
        "bit flip not exercised: {injected:?}"
    );
    assert!(
        injected.write_enospc > 0,
        "ENOSPC not exercised: {injected:?}"
    );
    let cold_stats = cold_store.stats();
    let warm_stats = warm_store.stats();
    assert!(
        cold_stats.retries + warm_stats.retries > 0,
        "the backoff loop must have engaged (cold {cold_stats:?}, warm {warm_stats:?})"
    );

    // Phase 3 — operability: take a clean handle to the mauled store,
    // corrupt a few surviving segments by hand (injected read faults
    // never corrupt the disk — torn writes always fail before their
    // rename), then scrub and collect.
    let admin = ResultStore::open(&store_dir).expect("clean handle opens");
    let mut flipped = 0u64;
    let segments = store_dir.join(lowvcc_bench::SEGMENTS_DIR);
    for entry in fs::read_dir(&segments).expect("segments listable") {
        let p = entry.expect("entry").path();
        if flipped < 3 && p.extension().is_some_and(|e| e == "lvcb") {
            let mut bytes = fs::read(&p).expect("segment readable");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            fs::write(&p, bytes).expect("segment writable");
            flipped += 1;
        }
    }
    assert!(flipped > 0, "chaos runs left records to corrupt");
    let before = admin.summary().expect("summary");
    let scrub = admin.verify().expect("scrub");
    assert_eq!(scrub.scanned, before.entries);
    assert_eq!(
        scrub.quarantined, flipped,
        "exactly the hand-flipped segments"
    );
    let rescrub = admin.verify().expect("second scrub");
    assert_eq!(rescrub.quarantined, 0, "scrub-clean after one pass");
    assert!(admin.quarantine_purge().expect("purge") >= flipped);

    // Phase 4 — after all that violence, a plain cached run over the
    // same directory still reproduces the baseline byte-for-byte (and
    // heals the store back to full population, in fresh segments).
    let out_final = root.join("out_final");
    let final_store = Arc::new(ResultStore::open(&store_dir).expect("store reopens"));
    let healed = run_all(&ctx().with_cache(final_store), &out_final).expect("final run");
    assert_eq!(healed.report, clean.report, "healed report byte-identical");
    assert_eq!(dir_bytes(&out_final), clean_files, "healed CSVs identical");

    // Phase 5 — collect the repopulated store down to half its bytes;
    // the result must respect the budget and still verify clean.
    let full = admin.verify().expect("post-heal scrub");
    assert_eq!(full.quarantined, 0, "healed segments are valid");
    assert!(full.scanned > 1, "healing repopulated the store");
    let budget = full.ok_bytes / 2;
    let vacuumed = admin.vacuum(budget).expect("vacuum");
    assert!(
        vacuumed.kept_bytes <= budget,
        "{vacuumed:?} over budget {budget}"
    );
    assert!(vacuumed.removed > 0, "half budget must evict something");
    let final_scrub = admin.verify().expect("post-vacuum scrub");
    assert_eq!(
        final_scrub.quarantined, 0,
        "vacuum left only clean segments"
    );
    assert_eq!(final_scrub.ok, vacuumed.kept);

    let _ = fs::remove_dir_all(&root);
}

/// Determinism of the chaos harness itself: the same seed must inject
/// the same faults in the same places, or a chaos failure cannot be
/// replayed for debugging.
#[test]
fn identical_seeds_replay_identical_fault_streams() {
    let counts: Vec<FaultCounts> = (0..2)
        .map(|round| {
            let root = tmpdir(&format!("replay_{round}"));
            let io = Arc::new(FaultyIo::new(FaultPlan::seeded(7, 300)));
            let store = Arc::new(
                ResultStore::open_with(
                    &root,
                    Arc::clone(&io) as Arc<dyn StoreIo>,
                    RetryPolicy::immediate(),
                )
                .expect("store opens"),
            );
            run_all(&ctx().with_cache(Arc::clone(&store)), &root.join("out")).expect("chaos run");
            let injected = io.injected();
            let _ = fs::remove_dir_all(&root);
            injected
        })
        .collect();
    assert_eq!(counts[0], counts[1], "same seed, same fault stream");
    assert!(counts[0].total() > 0, "the schedule really fired");
}
