//! The persistent, content-addressed simulation-result store.
//!
//! A [`ResultStore`] maps [`SimKey`]s (128-bit content addresses over the
//! canonical simulation inputs, see `lowvcc_core::canon`) to canonical
//! [`SimResult`] records. Layers:
//!
//! * an **in-memory LRU** (lock-protected, lazily-compacted recency
//!   queue) so hot keys — a daemon's popular operating points — never
//!   touch the filesystem;
//! * an optional **sharded on-disk map**: `root/<first-2-hex>/<32-hex>.sim`,
//!   written via fsynced tempfile + atomic rename + directory fsync so
//!   concurrent writers, crashes and power loss can never publish a torn
//!   record (every record carries a checksum).
//!
//! Invalidation is by construction: the engine-semantics version is
//! hashed into every key *and* embedded in every record, so results from
//! an older engine simply miss (and fail closed if a record is somehow
//! reached through a colliding path).
//!
//! **The disk is an optimization, never a dependency.** Every byte of
//! disk I/O goes through the [`StoreIo`] seam (injectable for chaos
//! tests), and the lookup/publish paths are *infallible*:
//!
//! * a read failure — corrupt bytes, checksum mismatch, EIO — moves the
//!   offending record into a `quarantine/` sibling directory (counted in
//!   [`StoreStats::quarantined`]) and reports a miss, so the caller
//!   falls back to deterministic re-simulation instead of erroring;
//! * a publish failure retries with bounded exponential backoff and
//!   deterministic jitter ([`RetryPolicy`]); if every attempt fails the
//!   store latches **degraded** (memory-only) mode — experiments still
//!   complete, the daemon keeps answering, and the condition is visible
//!   in [`StoreStats::degraded`].
//!
//! [`StoreError`] remains only for operations where failing is the right
//! answer: opening a store and the admin/scrub surface (`lowvcc-store`).
//!
//! For concurrent callers (the `lowvcc-serve` worker pool, parallel
//! `experiments` runs sharing one store) there is a **single-flight**
//! layer: [`ResultStore::lookup`] hands exactly one caller per key a
//! [`FlightGuard`] (the *leader*, who simulates and publishes) while
//! every other caller gets a [`FlightWaiter`] that blocks until the
//! leader finishes — so N identical concurrent cold queries trigger
//! exactly one engine invocation.

use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lowvcc_core::canon::fnv1a_64;
use lowvcc_core::{decode_sim_result, encode_sim_result, CanonError, SimKey, SimResult};

use crate::lockdep::{OrderedCondvar, OrderedMutex};
use crate::store_io::{RealIo, RetryPolicy, StoreIo};

/// Name of the sibling directory quarantined records are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Failure inside the result store.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// An on-disk record failed validation (bad magic, truncation,
    /// checksum mismatch, foreign version…).
    Corrupt {
        /// Path of the offending record.
        path: PathBuf,
        /// The decoder's verdict.
        source: CanonError,
    },
}

impl StoreError {
    fn io_at(path: &Path) -> impl FnOnce(io::Error) -> Self + '_ {
        |source| Self::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "result store I/O at {}: {source}", path.display())
            }
            Self::Corrupt { path, source } => {
                write!(f, "corrupt store entry {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Corrupt { source, .. } => Some(source),
        }
    }
}

/// Monotonic counters describing store traffic. `misses` is exactly the
/// number of engine invocations a cache-aware experiment performed — the
/// warm-run acceptance check asserts it is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing (each one becomes a simulation).
    pub misses: u64,
    /// Records inserted this session.
    pub stores: u64,
    /// Dynamic uops actually run through the engine on behalf of this
    /// store (cache hits contribute nothing) — the honest numerator for
    /// throughput figures on cached runs.
    pub simulated_uops: u64,
    /// Lookups that found another caller already simulating the same key
    /// and waited for its result instead of re-simulating (the
    /// single-flight layer at work).
    pub coalesced: u64,
    /// Records moved to `quarantine/` after a failed read or decode
    /// (each one became a miss and a re-simulation, not an error).
    pub quarantined: u64,
    /// Publish attempts beyond the first (the backoff loop at work).
    pub retries: u64,
    /// Publishes abandoned after exhausting every retry.
    pub write_failures: u64,
    /// Stale `*.tmp.*` publish leftovers removed at startup.
    pub orphans_swept: u64,
    /// Inserts for keys outside this store's owned slice (sharded
    /// daemons only): kept in memory, never published to disk.
    pub foreign_puts: u64,
    /// Whether the store has latched memory-only (degraded) mode after a
    /// publish exhausted its retries. Sticky until restart.
    pub degraded: bool,
}

/// Predicate deciding whether this store instance *owns* a key's disk
/// slot — the sharded serve tier's consistent-hash ring, closed over a
/// shard index. Stores without one (the default) own every key.
pub type KeyOwnership = Arc<dyn Fn(SimKey) -> bool + Send + Sync>;

thread_local! {
    // Per-thread miss tally across all stores. A serve worker handles a
    // whole request on one thread (simulation fans out, but every
    // store lookup happens here), so a before/after delta answers "did
    // *this* request simulate?" even while other connections miss
    // concurrently — the global counter cannot.
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// One in-flight simulation. Waiters block on `cv` until the leader
/// flips `done` — which its [`FlightGuard`] does on drop, so even a
/// panicking or erroring leader wakes everyone.
#[derive(Debug)]
struct FlightState {
    done: OrderedMutex<bool>,
    cv: OrderedCondvar,
}

/// Leadership of one in-flight key: the holder is the unique caller
/// responsible for simulating it. Publish by calling
/// [`ResultStore::put`] **before** dropping the guard; dropping it
/// (publish, error or panic alike) retires the flight and wakes every
/// [`FlightWaiter`]. A guard dropped without a `put` signals
/// abandonment — waiters re-probe and one of them claims leadership.
pub struct FlightGuard<'a> {
    store: &'a ResultStore,
    key: SimKey,
    state: Arc<FlightState>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self.store.inflight.lock();
        if inflight
            .get(&self.key)
            .is_some_and(|s| Arc::ptr_eq(s, &self.state))
        {
            inflight.remove(&self.key);
        }
        drop(inflight);
        *self.state.done.lock() = true;
        self.state.cv.notify_all();
    }
}

impl fmt::Debug for FlightGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightGuard")
            .field("key", &self.key.to_hex())
            .finish_non_exhaustive()
    }
}

/// A ticket for a simulation some other caller is already running.
/// [`wait`](Self::wait) blocks until that flight retires, after which a
/// fresh [`ResultStore::lookup`] either hits (the leader published) or
/// claims leadership (the leader abandoned).
#[derive(Debug)]
pub struct FlightWaiter {
    state: Arc<FlightState>,
}

impl FlightWaiter {
    /// Blocks until the in-flight simulation retires (publish or
    /// abandon). Re-`lookup` afterwards for the outcome.
    pub fn wait(self) {
        let mut done = self.state.done.lock();
        while !*done {
            done = self.state.cv.wait(done);
        }
    }
}

/// Outcome of a single-flight [`ResultStore::lookup`].
#[derive(Debug)]
pub enum Flight<'a> {
    /// The store had the result (memory or disk). Boxed: the other
    /// variants are small handles, and `Flight` values sit in per-key
    /// arbitration vectors.
    Hit(Box<SimResult>),
    /// This caller is the leader: simulate, [`ResultStore::put`], then
    /// drop the guard.
    Lead(FlightGuard<'a>),
    /// Another caller is simulating this key right now; `wait`, then
    /// `lookup` again.
    Pending(FlightWaiter),
}

/// In-memory LRU over decoded results: `HashMap` for lookup plus a
/// lazily-compacted recency queue (stale queue entries — superseded by a
/// later touch — are skipped at eviction time).
struct Lru {
    map: HashMap<SimKey, (SimResult, u64)>,
    recency: VecDeque<(SimKey, u64)>,
    tick: u64,
    capacity: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            capacity,
        }
    }

    fn touch(&mut self, key: SimKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.1 = tick;
            self.recency.push_back((key, tick));
        }
        // Hit-only workloads (a warmed daemon's steady state) never
        // insert, so the queue bound must apply on touches too.
        self.compact_if_bloated();
    }

    fn get(&mut self, key: SimKey) -> Option<SimResult> {
        let found = self.map.get(&key).map(|(r, _)| r.clone());
        if found.is_some() {
            self.touch(key);
        }
        found
    }

    fn insert(&mut self, key: SimKey, value: SimResult) {
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(key, (value, tick));
        self.recency.push_back((key, tick));
        while self.map.len() > self.capacity {
            match self.recency.pop_front() {
                Some((k, t)) => {
                    // Only evict if this queue entry is the key's most
                    // recent touch; otherwise it is stale — skip it.
                    if self.map.get(&k).is_some_and(|&(_, cur)| cur == t) {
                        self.map.remove(&k);
                    }
                }
                None => break,
            }
        }
        self.compact_if_bloated();
    }

    /// Bounds queue growth independently of capacity: drop every stale
    /// entry (superseded by a later touch of the same key) once the
    /// queue exceeds 4× the live-entry budget.
    fn compact_if_bloated(&mut self) {
        if self.recency.len() > self.capacity.saturating_mul(4).max(64) {
            let map = &self.map;
            self.recency
                .retain(|&(k, t)| map.get(&k).is_some_and(|&(_, cur)| cur == t));
        }
    }
}

/// The layered key→result store. Cheap to share behind an `Arc`; all
/// methods take `&self`.
pub struct ResultStore {
    pub(crate) dir: Option<PathBuf>,
    pub(crate) io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    lru: OrderedMutex<Lru>,
    inflight: OrderedMutex<HashMap<SimKey, Arc<FlightState>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    simulated_uops: AtomicU64,
    coalesced: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    retries: AtomicU64,
    write_failures: AtomicU64,
    pub(crate) orphans_swept: AtomicU64,
    foreign_puts: AtomicU64,
    degraded: AtomicBool,
    /// `None` = this store owns every key (the single-daemon shape).
    owned: Option<KeyOwnership>,
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Default in-memory entry budget. A full paper-artefact regeneration on
/// the standard suite needs 13 voltages × 2 mechanisms × 49 traces plus
/// the Table 1 / stall-study configurations ≈ 1.6k entries; 4096 keeps
/// every figure warm with headroom while bounding a daemon's footprint.
const DEFAULT_LRU_CAPACITY: usize = 4096;

impl ResultStore {
    /// Opens (creating if necessary) an on-disk store rooted at `dir`,
    /// using the real filesystem and the default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(dir, Arc::new(RealIo), RetryPolicy::default())
    }

    /// Opens an on-disk store over an explicit [`StoreIo`] (chaos tests
    /// inject faults here) and [`RetryPolicy`]. Sweeps orphaned `*.tmp.*`
    /// publish leftovers from the shard directories before returning,
    /// counting them in [`StoreStats::orphans_swept`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root cannot be created.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        io.create_dir_all(&dir).map_err(StoreError::io_at(&dir))?;
        let swept = sweep_orphan_tmps(io.as_ref(), &dir);
        let store = Self {
            dir: Some(dir),
            io,
            retry,
            ..Self::ephemeral()
        };
        store.orphans_swept.store(swept, Ordering::Relaxed);
        Ok(store)
    }

    /// An in-memory-only store (no persistence): the LRU layer alone.
    #[must_use]
    pub fn ephemeral() -> Self {
        Self {
            dir: None,
            io: Arc::new(RealIo),
            retry: RetryPolicy::default(),
            lru: OrderedMutex::new("store.lru", Lru::new(DEFAULT_LRU_CAPACITY)),
            inflight: OrderedMutex::new("store.inflight", HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            simulated_uops: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            orphans_swept: AtomicU64::new(0),
            foreign_puts: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            owned: None,
        }
    }

    /// Restricts disk ownership to the keys `owner` accepts (the
    /// sharded serve tier hands each shard its ring slice). Results for
    /// non-owned keys still land in this store's memory tier — they are
    /// valid, just another shard's to persist — and are tallied in
    /// [`StoreStats::foreign_puts`].
    #[must_use]
    pub fn with_key_owner(self, owner: KeyOwnership) -> Self {
        Self {
            owned: Some(owner),
            ..self
        }
    }

    /// Replaces the LRU capacity (entries, not bytes).
    #[must_use]
    pub fn with_lru_capacity(self, capacity: usize) -> Self {
        Self {
            lru: OrderedMutex::new("store.lru", Lru::new(capacity.max(1))),
            ..self
        }
    }

    /// The on-disk root, if this store persists.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Traffic counters so far.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            simulated_uops: self.simulated_uops.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            orphans_swept: self.orphans_swept.load(Ordering::Relaxed),
            foreign_puts: self.foreign_puts.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    /// Whether the store has latched memory-only (degraded) mode.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Misses recorded by the *calling thread* (against any store),
    /// monotone. Snapshot before and after serving a request to tell
    /// whether that request performed a simulation — accurate under
    /// concurrency, where the global `misses` counter mixes every
    /// connection's traffic.
    #[must_use]
    pub fn thread_misses() -> u64 {
        THREAD_MISSES.with(Cell::get)
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        THREAD_MISSES.with(|c| c.set(c.get() + 1));
    }

    /// Records that `uops` dynamic uops were simulated to fill misses
    /// (called by the cache-aware suite runner).
    pub fn note_simulated_uops(&self, uops: u64) {
        self.simulated_uops.fetch_add(uops, Ordering::Relaxed);
    }

    pub(crate) fn entry_path(&self, key: SimKey) -> Option<PathBuf> {
        let hex = key.to_hex();
        self.dir
            .as_ref()
            .map(|d| d.join(&hex[..2]).join(format!("{hex}.sim")))
    }

    /// Moves a record that failed to read or decode into the
    /// `quarantine/` sibling directory (falling back to deletion if even
    /// the rename fails), so the next lookup of its key is a clean miss
    /// that re-simulates and re-publishes. Never fails: quarantine is
    /// the degradation path, not another error source.
    pub(crate) fn quarantine(&self, path: &Path, why: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let moved = self.dir.as_ref().and_then(|dir| {
            let qdir = dir.join(QUARANTINE_DIR);
            let dest = qdir.join(path.file_name()?);
            self.io
                .create_dir_all(&qdir)
                .and_then(|()| self.io.rename(path, &dest))
                .ok()
        });
        if moved.is_none() {
            // Condemn in place: a record we can neither trust nor move
            // aside must not be read again.
            let _ = self.io.remove_file(path);
        }
        // lint: allow(no-print) -- operator-facing store log; also counted in stats
        eprintln!("lowvcc-store: quarantined {}: {why}", path.display());
    }

    /// Counter-free lookup: LRU, then disk (promoting a disk hit into
    /// the LRU). Infallible: every failure mode degrades to a miss.
    fn probe(&self, key: SimKey) -> Option<SimResult> {
        if let Some(hit) = self.lru.lock().get(key) {
            return Some(hit);
        }
        self.probe_disk(key)
    }

    /// Whether this store owns `key`'s disk slot (every key, without a
    /// [`KeyOwnership`] predicate).
    fn owns(&self, key: SimKey) -> bool {
        self.owned.as_ref().map_or(true, |owner| owner(key))
    }

    /// Disk tier of [`probe`](Self::probe). Infallible — a
    /// record that cannot be read or decoded is quarantined and
    /// reported as a miss.
    fn probe_disk(&self, key: SimKey) -> Option<SimResult> {
        let path = self.entry_path(key)?;
        let bytes = match self.io.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.quarantine(&path, &format!("read failed: {e}"));
                return None;
            }
        };
        match decode_sim_result(&bytes) {
            Ok(result) => {
                self.lru.lock().insert(key, result.clone());
                Some(result)
            }
            Err(e) => {
                self.quarantine(&path, &format!("decode failed: {e}"));
                None
            }
        }
    }

    /// Looks `key` up: LRU first, then disk. Infallible: corrupt or
    /// unreadable records are quarantined (see
    /// [`StoreStats::quarantined`]) and reported as misses, so the
    /// caller re-simulates — the engine is deterministic, so the healed
    /// record is byte-identical to what was lost.
    pub fn get(&self, key: SimKey) -> Option<SimResult> {
        match self.probe(key) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.count_miss();
                None
            }
        }
    }

    /// Single-flight lookup: like [`get`](Self::get), but a miss
    /// additionally arbitrates *who simulates*. Exactly one concurrent
    /// caller per key receives [`Flight::Lead`] (and must simulate,
    /// [`put`](Self::put), then drop the guard); everyone else receives
    /// [`Flight::Pending`] and waits for the leader. A leader that
    /// errors or panics retires the flight on guard drop, so a waiter's
    /// retry claims leadership instead of deadlocking.
    ///
    /// Counter semantics: a `Lead` counts one miss (it becomes exactly
    /// one engine invocation), a `Hit` one hit, a `Pending` one
    /// `coalesced` wait (the eventual re-lookup then counts its own
    /// hit) — so N identical concurrent cold queries report 1 miss and
    /// N−1 hits/waits.
    ///
    /// Infallible like [`get`](Self::get): store trouble degrades to a
    /// miss (and a `Lead`), never to an error.
    pub fn lookup(&self, key: SimKey) -> Flight<'_> {
        if let Some(hit) = self.probe(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Flight::Hit(Box::new(hit));
        }
        let mut inflight = self.inflight.lock();
        if let Some(state) = inflight.get(&key) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Flight::Pending(FlightWaiter {
                state: Arc::clone(state),
            });
        }
        // Re-probe under the in-flight lock: an in-process leader
        // publishes into the LRU (in `put`) *before* its guard takes
        // this lock to retire the entry, so any publish that beat us
        // here is visible and we must not claim leadership for a
        // filled key. Memory only — a disk read under this global lock
        // would serialize every cold lookup; the one race it would
        // close (a concurrent *cross-process* publish since the first
        // probe) merely costs one deterministic re-simulation.
        if let Some(hit) = self.lru.lock().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Flight::Hit(Box::new(hit));
        }
        let state = Arc::new(FlightState {
            done: OrderedMutex::new("store.flight", false),
            cv: OrderedCondvar::new(),
        });
        inflight.insert(key, Arc::clone(&state));
        drop(inflight);
        self.count_miss();
        Flight::Lead(FlightGuard {
            store: self,
            key,
            state,
        })
    }

    /// Inserts into the memory tier only — the bundle importer's entry
    /// point for ephemeral stores, where there is no disk slot to
    /// publish into.
    pub(crate) fn insert_memory(&self, key: SimKey, result: &SimResult) {
        self.lru.lock().insert(key, result.clone());
    }

    /// One publish attempt: fsynced tempfile, atomic rename, directory
    /// fsync — all through the [`StoreIo`] seam.
    pub(crate) fn try_publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Entry paths are always `<dir>/<shard>/<key>.sim`, so a parent
        // exists; a path without one degrades like any other publish
        // failure instead of killing the caller.
        let Some(shard) = path.parent() else {
            return Err(io::Error::other("entry path has no shard parent"));
        };
        self.io.create_dir_all(shard)?;
        // Unique per process *and* per call, so concurrent writers of the
        // same key never share a tempfile.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = shard.join(format!(
            ".{}.tmp.{}.{}",
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("entry"),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        self.io.write_sync(&tmp, bytes).inspect_err(|_| {
            let _ = self.io.remove_file(&tmp);
        })?;
        self.io.rename(&tmp, path).inspect_err(|_| {
            let _ = self.io.remove_file(&tmp);
        })?;
        self.io.sync_dir(shard)
    }

    /// Inserts `result` under `key`: always into memory, and onto disk
    /// when persistent and not degraded.
    ///
    /// The disk write goes to an fsynced tempfile in the shard directory,
    /// is published with an atomic rename, and the shard directory is
    /// fsynced after — a reader either sees the full checksummed record
    /// or nothing, even across power loss. Publish failures are retried
    /// per this store's [`RetryPolicy`] (bounded exponential backoff,
    /// deterministic per-key jitter); exhausting every attempt latches
    /// degraded (memory-only) mode rather than failing the caller.
    pub fn put(&self, key: SimKey, result: &SimResult) {
        self.lru.lock().insert(key, result.clone());
        self.stores.fetch_add(1, Ordering::Relaxed);
        if !self.owns(key) {
            // Another shard's slice: the result is valid (and cached in
            // memory above), but the owning shard pays the fsynced
            // publish. Publishing here too would be safe — tempfiles are
            // unique per process and call, the rename is atomic — just
            // a duplicate write.
            self.foreign_puts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Some(path) = self.entry_path(key) else {
            return;
        };
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let bytes = encode_sim_result(result);
        let salt = fnv1a_64(key.to_hex().as_bytes());
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let backoff = self.retry.delay(attempt, salt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            match self.try_publish(&path, &bytes) {
                Ok(()) => return,
                Err(e) => last_err = Some(e),
            }
        }
        self.write_failures.fetch_add(1, Ordering::Relaxed);
        if !self.degraded.swap(true, Ordering::Relaxed) {
            // lint: allow(no-print) -- operator-facing store log; also counted in stats
            eprintln!(
                "lowvcc-store: publish of {} failed after {} attempts ({}); \
                 degrading to memory-only operation",
                path.display(),
                self.retry.attempts.max(1),
                last_err.map_or_else(|| "unknown error".into(), |e| e.to_string()),
            );
        }
    }

    /// Number of records on disk that this store owns (every record
    /// without a [`KeyOwnership`] predicate; 0 for ephemeral stores,
    /// quarantined records excluded). Shards sharing one directory each
    /// count their own slice, so their sum is the directory's total.
    /// Walks the shard directories; best-effort — an unlistable directory
    /// counts as empty. Intended for reporting, not hot paths.
    #[must_use]
    pub fn disk_entries(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        let Ok(shards) = fs::read_dir(dir) else {
            return 0;
        };
        let mut n = 0;
        for shard in shards.flatten() {
            let shard = shard.path();
            if !shard.is_dir() || shard.file_name().is_some_and(|f| f == QUARANTINE_DIR) {
                continue;
            }
            let Ok(entries) = fs::read_dir(&shard) else {
                continue;
            };
            for entry in entries.flatten() {
                let p = entry.path();
                let owned = p.extension().is_some_and(|e| e == "sim")
                    && p.file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(SimKey::from_hex)
                        .is_some_and(|key| self.owns(key));
                if owned {
                    n += 1;
                }
            }
        }
        n
    }
}

/// Removes `*.tmp.*` leftovers a killed process abandoned mid-publish
/// from every shard directory (quarantine excluded). A tempfile whose
/// writer is still alive (see [`tmp_writer_alive`]) is an in-flight
/// publish of another store sharing the directory, and is kept.
/// Best-effort by design — startup must succeed on a half-broken disk.
fn sweep_orphan_tmps(io: &dyn StoreIo, dir: &Path) -> u64 {
    let Ok(shards) = fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for shard in shards.flatten() {
        let shard = shard.path();
        if !shard.is_dir() || shard.file_name().is_some_and(|f| f == QUARANTINE_DIR) {
            continue;
        }
        let Ok(entries) = fs::read_dir(&shard) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let orphan = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp.") && !tmp_writer_alive(n));
            if orphan && io.remove_file(&p).is_ok() {
                swept += 1;
            }
        }
    }
    swept
}

/// Whether the process that named a publish tempfile
/// `.<key>.tmp.<pid>.<seq>` is still running (`/proc/<pid>` exists; this
/// process included). A name without a parsable pid, or a host without
/// `/proc`, reads as dead. A reused pid only keeps a stray file around:
/// tempfiles are never read, so the store stays correct.
fn tmp_writer_alive(name: &str) -> bool {
    name.rsplit_once(".tmp.")
        .and_then(|(_, rest)| rest.split_once('.'))
        .and_then(|(pid, _)| pid.parse::<u32>().ok())
        .is_some_and(|pid| Path::new("/proc").join(pid.to_string()).exists())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_core::{sim_key, CoreConfig, Mechanism, SimConfig, Simulator};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn run_one() -> (SimKey, SimResult) {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        let spec = TraceSpec::new(WorkloadFamily::Kernel, 0, 3_000);
        let result = Simulator::new(cfg.clone())
            .unwrap()
            .run(&spec.build().unwrap())
            .unwrap();
        (sim_key(&cfg, &spec), result)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lowvcc_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_through_disk_and_memory() {
        let dir = tmpdir("roundtrip");
        let (key, result) = run_one();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(key), None);
        store.put(key, &result);
        assert_eq!(store.get(key), Some(result.clone()));

        // A fresh store over the same directory reads it from disk.
        let cold = ResultStore::open(&dir).unwrap();
        assert_eq!(cold.get(key), Some(result));
        assert_eq!(cold.stats().hits, 1);
        assert_eq!(cold.stats().misses, 0);
        assert_eq!(cold.disk_entries(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_store_caches_in_memory_only() {
        let (key, result) = run_one();
        let store = ResultStore::ephemeral();
        assert_eq!(store.get(key), None);
        store.put(key, &result);
        assert_eq!(store.get(key), Some(result));
        assert_eq!(store.dir(), None);
        assert_eq!(store.disk_entries(), 0);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        assert!(!s.degraded);
    }

    #[test]
    fn corrupt_entries_quarantine_and_self_heal() {
        let dir = tmpdir("corrupt");
        let (key, result) = run_one();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(key, &result);
        }
        // Flip one payload byte on disk.
        let hex = key.to_hex();
        let path = dir.join(&hex[..2]).join(format!("{hex}.sim"));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        // The corrupt record reads as a miss, is moved to quarantine/,
        // and the key is free to be re-simulated and re-published.
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(key), None);
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.stats().misses, 1);
        assert!(!path.exists(), "corrupt record must leave the shard");
        assert!(
            dir.join(QUARANTINE_DIR).join(format!("{hex}.sim")).exists(),
            "corrupt record must land in quarantine/"
        );
        assert_eq!(store.disk_entries(), 0, "quarantine is not an entry");

        // Self-heal: publish again, and a cold reopen sees a good record.
        store.put(key, &result);
        let cold = ResultStore::open(&dir).unwrap();
        assert_eq!(cold.get(key), Some(result));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        let (key, result) = run_one();
        let store = ResultStore::ephemeral().with_lru_capacity(2);
        // Three distinct keys from three voltages.
        let timing = CycleTimeModel::silverthorne_45nm();
        let keys: Vec<SimKey> = [450u32, 500, 550]
            .iter()
            .map(|&v| {
                let cfg =
                    SimConfig::at_vcc(CoreConfig::silverthorne(), &timing, mv(v), Mechanism::Iraw);
                sim_key(&cfg, &TraceSpec::new(WorkloadFamily::Kernel, 0, 3_000))
            })
            .collect();
        let _ = key;
        for &k in &keys {
            store.put(k, &result);
        }
        // Capacity 2: the first key fell out, the last two stayed.
        assert_eq!(store.get(keys[0]), None);
        assert!(store.get(keys[1]).is_some());
        assert!(store.get(keys[2]).is_some());
    }

    #[test]
    fn hit_only_traffic_keeps_the_recency_queue_bounded() {
        // A warmed daemon's steady state is gets with no inserts; the
        // recency queue must stay bounded anyway.
        let (key, result) = run_one();
        let mut lru = Lru::new(2);
        lru.insert(key, result);
        for _ in 0..10_000 {
            assert!(lru.get(key).is_some());
        }
        let bound = 2usize.saturating_mul(4).max(64) + 1;
        assert!(
            lru.recency.len() <= bound,
            "queue grew to {} entries on a hit-only workload",
            lru.recency.len()
        );
    }

    #[test]
    fn poisoned_lru_lock_recovers_instead_of_cascading() {
        let (key, result) = run_one();
        let store = ResultStore::ephemeral();
        store.put(key, &result);
        // Poison the inner mutex: panic while holding the guard (the
        // same poisoning a worker-thread panic mid-operation causes).
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.lru.raw().lock().unwrap();
            panic!("worker died mid-operation");
        }));
        assert!(poisoned.is_err());
        assert!(store.lru.raw().lock().is_err(), "lock really is poisoned");
        // Every path over the lock must keep working: the Lru holds
        // only cache state, so it is recovered, not propagated.
        assert_eq!(store.get(key), Some(result.clone()));
        store.put(key, &result);
        assert!(matches!(store.lookup(key), Flight::Hit(_)));
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_queries() {
        let (key, result) = run_one();
        let store = ResultStore::ephemeral();
        let workers = 8;
        let barrier = std::sync::Barrier::new(workers);
        let leads = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    barrier.wait();
                    loop {
                        match store.lookup(key) {
                            Flight::Hit(r) => {
                                assert_eq!(*r, result);
                                break;
                            }
                            Flight::Lead(guard) => {
                                leads.fetch_add(1, Ordering::Relaxed);
                                // Hold the flight open long enough that
                                // every other thread must coalesce.
                                std::thread::sleep(std::time::Duration::from_millis(100));
                                store.put(key, &result);
                                drop(guard);
                                break;
                            }
                            Flight::Pending(waiter) => waiter.wait(),
                        }
                    }
                });
            }
        });
        assert_eq!(leads.load(Ordering::Relaxed), 1, "exactly one leader");
        let s = store.stats();
        assert_eq!(s.misses, 1, "one engine invocation for 8 queries");
        assert_eq!(s.hits, 7, "everyone else reuses the published result");
        assert_eq!(s.coalesced, 7, "everyone else waited on the flight");
    }

    #[test]
    fn abandoned_flight_hands_leadership_to_a_waiter() {
        let (key, result) = run_one();
        let store = ResultStore::ephemeral();
        let Flight::Lead(first) = store.lookup(key) else {
            panic!("cold lookup must lead");
        };
        std::thread::scope(|s| {
            let worker = s.spawn(|| loop {
                match store.lookup(key) {
                    Flight::Hit(r) => break *r,
                    Flight::Lead(guard) => {
                        store.put(key, &result);
                        drop(guard);
                    }
                    Flight::Pending(waiter) => waiter.wait(),
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            // Abandon without publishing — an erroring leader. The
            // waiter must wake, claim leadership and finish the job.
            drop(first);
            assert_eq!(worker.join().unwrap(), result);
        });
        assert_eq!(store.stats().misses, 2, "both leadership claims count");
        assert_eq!(store.get(key), Some(result));
    }

    #[test]
    fn thread_misses_track_only_the_calling_thread() {
        let (key, _) = run_one();
        let store = ResultStore::ephemeral();
        let before = ResultStore::thread_misses();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(store.get(key), None);
            });
        });
        assert_eq!(store.stats().misses, 1, "global counter sees the miss");
        assert_eq!(
            ResultStore::thread_misses(),
            before,
            "another thread's miss must not leak into this thread's tally"
        );
        assert_eq!(store.get(key), None);
        assert_eq!(ResultStore::thread_misses(), before + 1);
    }

    #[test]
    fn concurrent_writers_never_publish_torn_records() {
        let dir = tmpdir("concurrent");
        let (key, result) = run_one();
        let store = ResultStore::open(&dir).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        store.put(key, &result);
                        assert!(store.get(key).is_some());
                    }
                });
            }
        });
        let cold = ResultStore::open(&dir).unwrap();
        assert_eq!(cold.get(key), Some(result));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_sweeps_orphaned_tmp_files() {
        let dir = tmpdir("orphans");
        let (key, result) = run_one();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(key, &result);
        }
        // Simulate a crash mid-publish: leftover tempfiles in a shard.
        let hex = key.to_hex();
        let shard = dir.join(&hex[..2]);
        // u32::MAX is above any Linux pid_max, so its writer is dead.
        let dead = u32::MAX;
        fs::write(shard.join(format!(".{hex}.tmp.{dead}.0")), b"partial").unwrap();
        fs::write(shard.join(format!(".{hex}.tmp.{dead}.1")), b"x").unwrap();
        // An in-flight publish of a live process sharing the directory
        // (this one) is not an orphan.
        let live = shard.join(format!(".{hex}.tmp.{}.0", std::process::id()));
        fs::write(&live, b"partial").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().orphans_swept, 2);
        assert_eq!(store.disk_entries(), 1, "the real record survives");
        assert_eq!(store.get(key), Some(result));
        assert!(!shard.join(format!(".{hex}.tmp.{dead}.0")).exists());
        assert!(live.exists(), "a live writer's tempfile survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried_through() {
        use crate::store_io::{FaultKind, FaultPlan, FaultyIo};
        let dir = tmpdir("retry");
        let (key, result) = run_one();
        // Op 0 = shard-create is unfaulted but counted; plan pins faults
        // onto the first write and the following rename *retry* cycle:
        // attempt 1: write(0 torn) → fail; attempt 2: write(1 ok),
        // rename(2 fail) → fail; attempt 3: write(3), rename(4),
        // sync(5) all clean → published.
        let io = Arc::new(FaultyIo::new(
            FaultPlan::none()
                .with_fault(0, FaultKind::TornWrite)
                .with_fault(2, FaultKind::RenameFail),
        ));
        let store = ResultStore::open_with(
            &dir,
            Arc::clone(&io) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap();
        store.put(key, &result);
        let s = store.stats();
        assert_eq!(s.retries, 2, "two backoff cycles");
        assert_eq!(s.write_failures, 0);
        assert!(!s.degraded);
        assert_eq!(io.injected().torn_writes, 1);
        assert_eq!(io.injected().rename_fails, 1);
        // The record really was published despite the faults.
        let cold = ResultStore::open(&dir).unwrap();
        assert_eq!(cold.get(key), Some(result));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_write_retries_degrade_to_memory_only() {
        use crate::store_io::{FaultPlan, FaultyIo};
        let dir = tmpdir("degrade");
        let (key, result) = run_one();
        // Every operation faults: no publish can ever succeed.
        let io = Arc::new(FaultyIo::new(FaultPlan::seeded(42, 1024)));
        let store = ResultStore::open_with(
            &dir,
            Arc::clone(&io) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap();
        store.put(key, &result);
        let s = store.stats();
        assert!(s.degraded, "exhausted retries must latch degraded mode");
        assert_eq!(s.write_failures, 1);
        assert_eq!(s.retries, 3, "attempts-1 backoff cycles");
        // Memory-only operation continues: the key still answers.
        assert_eq!(store.get(key), Some(result.clone()));
        // Further puts skip the disk entirely (op count stops growing).
        let ops_before = io.ops();
        store.put(key, &result);
        assert_eq!(io.ops(), ops_before, "degraded puts must not touch disk");
        assert_eq!(store.stats().write_failures, 1, "and are not failures");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_reconcile_with_disk_entries_and_foreign_puts() {
        use crate::store_io::{FaultKind, FaultPlan, FaultyIo};
        // Twelve distinct keys over one result; the store owns every key
        // whose index is not a multiple of 3 (8 owned, 4 foreign).
        let (base, result) = run_one();
        let keys: Vec<SimKey> = (0..12u128)
            .map(|i| SimKey::from_value(base.value() ^ i))
            .collect();
        let owner: KeyOwnership = Arc::new(move |k| (k.value() ^ base.value()) % 3 != 0);

        // Clean run: every owned put is a publish, every foreign put is
        // counted instead.
        let dir = tmpdir("reconcile");
        let store = ResultStore::open(&dir)
            .unwrap()
            .with_key_owner(Arc::clone(&owner));
        for &k in &keys {
            store.put(k, &result);
        }
        let s = store.stats();
        assert_eq!((s.stores, s.foreign_puts), (12, 4));
        assert_eq!(s.stores, store.disk_entries() + s.foreign_puts);
        let _ = fs::remove_dir_all(&dir);

        // Faulted run: a clean publish is write, rename, dir sync (3
        // ops); the third owned put fails every one of its attempts.
        let dir = tmpdir("reconcile_faulted");
        let attempts = u64::from(RetryPolicy::immediate().attempts);
        let plan = (6..6 + attempts).fold(FaultPlan::none(), |p, op| {
            p.with_fault(op, FaultKind::WriteEio)
        });
        let store = ResultStore::open_with(
            &dir,
            Arc::new(FaultyIo::new(plan)) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap()
        .with_key_owner(Arc::clone(&owner));
        let mut puts_after_latch = 0;
        for &k in &keys {
            puts_after_latch += u64::from(store.degraded() && owner(k));
            store.put(k, &result);
        }
        let s = store.stats();
        assert!(s.degraded);
        assert_eq!(s.write_failures, 1);
        assert_eq!(store.disk_entries(), 2, "two owned puts beat the fault");
        let missing = s.stores - s.foreign_puts - store.disk_entries();
        assert_eq!(missing, puts_after_latch + s.write_failures);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_faults_quarantine_and_hand_leadership_back() {
        use crate::store_io::{FaultKind, FaultPlan, FaultyIo};
        let dir = tmpdir("readfault");
        let (key, result) = run_one();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(key, &result);
        }
        // Op 0 is the cold read: inject EIO. The quarantine rename that
        // follows is op 1 (clean). The re-simulation path then leads.
        let io = Arc::new(FaultyIo::new(
            FaultPlan::none().with_fault(0, FaultKind::ReadEio),
        ));
        let store = ResultStore::open_with(
            &dir,
            Arc::clone(&io) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap();
        let Flight::Lead(guard) = store.lookup(key) else {
            panic!("a quarantined read must degrade to a leading miss");
        };
        assert_eq!(store.stats().quarantined, 1);
        assert!(
            dir.join(QUARANTINE_DIR).is_dir(),
            "unreadable record must be moved aside"
        );
        // The leader republishes; the store is healed.
        store.put(key, &result);
        drop(guard);
        assert_eq!(store.get(key), Some(result));
        assert!(!store.degraded());
        let _ = fs::remove_dir_all(&dir);
    }
}
