//! The persistent, content-addressed simulation-result store.
//!
//! A [`ResultStore`] maps [`SimKey`]s (128-bit content addresses over the
//! canonical simulation inputs, see `lowvcc_core::canon`) to canonical
//! [`SimResult`] records. Layers:
//!
//! * an **in-memory LRU** (lock-protected, lazily-compacted recency
//!   queue) so hot keys — a daemon's popular operating points — never
//!   touch the filesystem;
//! * an optional **segment log** on disk:
//!   `root/segments/<writer>-<pid>-<seq>.lvcb`. A segment is one
//!   immutable LVCB bundle (see [`crate::bundle`]) holding every record
//!   of one publish — [`ResultStore::put_batch`], which the grid runner
//!   calls once per round of misses. It is written via an fsynced
//!   tempfile, an atomic rename and a directory fsync, so a publish
//!   costs one fsync however many records it carries, and concurrent
//!   writers, crashes and power loss can never give a torn segment its
//!   final name.
//!   `<writer>` is the shard index inside a cluster (0 otherwise);
//!   `<pid>` and `<seq>` make every name unique;
//! * an in-memory **index** of key → segments, extended whenever a key
//!   misses it: the segment directory is re-listed, and each segment
//!   this handle has not seen (another process's publishes, or every
//!   segment after a restart) is read once — checked, decoded, indexed
//!   and promoted into the LRU — so stores in several processes can
//!   share one root.
//!
//! Invalidation is by construction: the engine-semantics version is
//! hashed into every key *and* embedded in every record and segment
//! header, so results from an older engine simply miss (and fail closed
//! if a record is somehow reached through a colliding path).
//!
//! **The disk is an optimization, never a dependency.** Every byte of
//! disk I/O goes through the [`StoreIo`] seam (injectable for chaos
//! tests), and the lookup/publish paths are *infallible*:
//!
//! * the **segment is the integrity unit**: a segment that fails to
//!   read, whose bundle envelope or digest does not check, or whose
//!   records do not decode moves whole into a `quarantine/` sibling
//!   directory (counted in [`StoreStats::quarantined`]); its keys then
//!   miss, so the caller falls back to deterministic re-simulation (into
//!   a fresh segment) instead of erroring;
//! * a publish failure retries with bounded exponential backoff and
//!   deterministic jitter ([`RetryPolicy`]); if every attempt fails the
//!   store latches **degraded** (memory-only) mode — experiments still
//!   complete, the daemon keeps answering, and the condition is visible
//!   in [`StoreStats::degraded`].
//!
//! [`StoreError`] remains only for operations where failing is the right
//! answer: opening a store (including a root still in the per-record
//! layout of earlier releases, [`StoreError::LegacyLayout`]) and the
//! admin/scrub surface (`lowvcc-store`).
//!
//! For concurrent callers (the `lowvcc-serve` worker pool, parallel
//! `experiments` runs sharing one store) there is a **single-flight**
//! layer: [`ResultStore::lookup`] hands exactly one caller per key a
//! [`FlightGuard`] (the *leader*, who simulates and publishes) while
//! every other caller gets a [`FlightWaiter`] that blocks until the
//! leader finishes — so N identical concurrent cold queries trigger
//! exactly one engine invocation.

use std::cell::Cell;
use std::collections::hash_map::Entry;
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

use crate::bundle::{decode_bundle, encode_bundle, BundleRecord};
use crate::lockdep::{OrderedCondvar, OrderedMutex};
use crate::store_io::{RealIo, RetryPolicy, StoreIo};

/// Name of the sibling directory quarantined segments are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Name of the directory under a store root that holds its segments.
pub const SEGMENTS_DIR: &str = "segments";

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
    /// The root holds records in the per-record `<2-hex>/<key>.sim`
    /// layout of earlier releases, which this store no longer reads.
    LegacyLayout {
        /// The store root.
        path: PathBuf,
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
            Self::LegacyLayout { path } => write!(
                f,
                "result store {} holds per-record <2-hex>/<key>.sim files, a layout \
                 this version no longer reads; migrate it by running \
                 `lowvcc-store export --out FILE {}` with the previous release, then \
                 `lowvcc-store import FILE NEW_DIR` with this one",
                path.display(),
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Corrupt { source, .. } => Some(source),
            Self::LegacyLayout { .. } => None,
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
    /// Segments moved to `quarantine/` after a failed read or check
    /// (their keys became misses and re-simulations, not errors).
    pub quarantined: u64,
    /// Publish attempts beyond the first (the backoff loop at work).
    pub retries: u64,
    /// Publishes abandoned after exhausting every retry.
    pub write_failures: u64,
    /// Stale `*.tmp.*` publish leftovers removed at startup.
    pub orphans_swept: u64,
    /// Whether the store has latched memory-only (degraded) mode after a
    /// publish exhausted its retries. Sticky until restart.
    pub degraded: bool,
}

thread_local! {
    // Per-thread miss tally across all stores. A serve worker handles a
    // whole request on one thread (simulation fans out, but every
    // store lookup happens here), so a before/after delta answers "did
    // *this* request simulate?" even while other connections miss
    // concurrently — the global counter cannot.
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Sequence numbers of this process's segments: unique across every
/// store in the process, and raised past any segment an earlier process
/// with the same pid left behind (see [`ResultStore::open_with`]).
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A segment's identity, parsed from its file name
/// `<writer>-<pid>-<seq>.lvcb`. Ordered by writer, then pid, then
/// sequence: within one process, publish order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SegmentId {
    pub(crate) writer: u32,
    pid: u32,
    seq: u64,
}

impl SegmentId {
    /// Parses a segment file name; `None` for anything else (tempfiles
    /// included).
    pub(crate) fn parse(name: &str) -> Option<Self> {
        let mut parts = name.strip_suffix(".lvcb")?.splitn(3, '-');
        Some(Self {
            writer: parts.next()?.parse().ok()?,
            pid: parts.next()?.parse().ok()?,
            seq: parts.next()?.parse().ok()?,
        })
    }

    fn file_name(self) -> String {
        format!("{}-{}-{}.lvcb", self.writer, self.pid, self.seq)
    }
}

/// Why a segment could not be used.
pub(crate) enum SegmentFault {
    /// The file is gone (vacuumed or quarantined by another handle).
    Missing,
    /// The file is damaged; the reason is logged with the quarantine.
    Bad(String),
}

/// Key → segment map over the segments this handle has read or written.
#[derive(Default)]
struct Index {
    /// Indexed segments and the keys each holds.
    segments: HashMap<SegmentId, Vec<SimKey>>,
    /// The indexed segments holding each key, in indexing order. A key
    /// can sit in several (a vacuum's rewrite, a duplicate publish);
    /// their bytes are identical.
    keys: HashMap<SimKey, Vec<SegmentId>>,
}

impl Index {
    /// Indexes segment `id` holding `keys`; a no-op if it already is.
    fn add(&mut self, id: SegmentId, keys: impl Iterator<Item = SimKey>) {
        if self.segments.contains_key(&id) {
            return;
        }
        let keys: Vec<SimKey> = keys.collect();
        for &key in &keys {
            self.keys.entry(key).or_default().push(id);
        }
        self.segments.insert(id, keys);
    }

    /// Drops segment `id`. Its keys stay indexed to every other segment
    /// that holds them.
    fn forget(&mut self, id: SegmentId) {
        for key in self.segments.remove(&id).unwrap_or_default() {
            if let Entry::Occupied(mut holders) = self.keys.entry(key) {
                holders.get_mut().retain(|&seg| seg != id);
                if holders.get().is_empty() {
                    holders.remove();
                }
            }
        }
    }

    /// The segments holding `key`, most recently indexed first.
    fn holders(&self, key: SimKey) -> Vec<SegmentId> {
        self.keys
            .get(&key)
            .map(|ids| ids.iter().rev().copied().collect())
            .unwrap_or_default()
    }
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
/// [`ResultStore::put_batch`] (or [`ResultStore::put`]) **before**
/// dropping the guard; dropping it
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
    /// This caller is the leader: simulate, [`ResultStore::put_batch`],
    /// then drop the guard.
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
    /// The `<writer>` field of the segments this store publishes.
    writer: u32,
    lru: OrderedMutex<Lru>,
    inflight: OrderedMutex<HashMap<SimKey, Arc<FlightState>>>,
    index: OrderedMutex<Index>,
    /// Serializes loading re-listed segments, so two threads never read
    /// (or quarantine) the same new segment twice.
    refresh: OrderedMutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    simulated_uops: AtomicU64,
    coalesced: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    retries: AtomicU64,
    write_failures: AtomicU64,
    pub(crate) orphans_swept: AtomicU64,
    degraded: AtomicBool,
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("writer", &self.writer)
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
    /// Returns [`StoreError::Io`] if the root cannot be created, and
    /// [`StoreError::LegacyLayout`] if it holds per-record files of an
    /// earlier release.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(dir, Arc::new(RealIo), RetryPolicy::default())
    }

    /// Opens an on-disk store over an explicit [`StoreIo`] (chaos tests
    /// inject faults here) and [`RetryPolicy`]. Sweeps orphaned `*.tmp.*`
    /// publish leftovers from the segment directory before returning,
    /// counting them in [`StoreStats::orphans_swept`]. Segments are
    /// indexed on first use, not here, so opening has no other side
    /// effect: an admin scrub sees (and reports) every damaged segment
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root cannot be created, and
    /// [`StoreError::LegacyLayout`] if it holds per-record files of an
    /// earlier release.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        io.create_dir_all(&dir).map_err(StoreError::io_at(&dir))?;
        if holds_legacy_records(&dir) {
            return Err(StoreError::LegacyLayout { path: dir });
        }
        let swept = sweep_segment_dir(io.as_ref(), &dir.join(SEGMENTS_DIR));
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
            writer: 0,
            lru: OrderedMutex::new("store.lru", Lru::new(DEFAULT_LRU_CAPACITY)),
            inflight: OrderedMutex::new("store.inflight", HashMap::new()),
            index: OrderedMutex::new("store.index", Index::default()),
            refresh: OrderedMutex::new("store.refresh", ()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            simulated_uops: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            orphans_swept: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        }
    }

    /// Names this store's segments `<writer>-…` (a cluster passes the
    /// shard index) and scopes [`disk_entries`](Self::disk_entries) to
    /// them, so shards sharing one root count disjoint records.
    #[must_use]
    pub fn with_writer(self, writer: u32) -> Self {
        Self { writer, ..self }
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

    /// The segment directory, if this store persists.
    pub(crate) fn segments_dir(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(SEGMENTS_DIR))
    }

    /// The live segments on disk, in publish order. A missing segment
    /// directory (nothing published yet) lists as empty.
    pub(crate) fn list_segments(&self) -> io::Result<Vec<(SegmentId, PathBuf)>> {
        let Some(segdir) = self.segments_dir() else {
            return Ok(Vec::new());
        };
        let listing = match fs::read_dir(&segdir) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut found = Vec::new();
        for entry in listing {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(SegmentId::parse) {
                found.push((id, entry.path()));
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Reads a segment through the I/O seam and checks its bundle
    /// envelope and digest (record bytes are not decoded here).
    pub(crate) fn read_segment(&self, path: &Path) -> Result<Vec<BundleRecord>, SegmentFault> {
        let bytes = match self.io.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SegmentFault::Missing),
            Err(e) => return Err(SegmentFault::Bad(format!("read failed: {e}"))),
        };
        decode_bundle(&bytes).map_err(|e| SegmentFault::Bad(format!("bundle check failed: {e}")))
    }

    /// Moves a file that failed to read or check into the `quarantine/`
    /// sibling directory (falling back to deletion if even the rename
    /// fails), so its keys become clean misses that re-simulate and
    /// re-publish. Never fails: quarantine is the degradation path, not
    /// another error source.
    pub(crate) fn quarantine(&self, path: &Path, why: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.forget_segment(path);
        let moved = self.dir.as_ref().and_then(|dir| {
            let qdir = dir.join(QUARANTINE_DIR);
            let dest = qdir.join(path.file_name()?);
            self.io
                .create_dir_all(&qdir)
                .and_then(|()| self.io.rename(path, &dest))
                .ok()
        });
        if moved.is_none() {
            // Condemn in place: a segment we can neither trust nor move
            // aside must not be read again.
            let _ = self.io.remove_file(path);
        }
        // lint: allow(no-print) -- operator-facing store log; also counted in stats
        eprintln!("lowvcc-store: quarantined {}: {why}", path.display());
    }

    /// Drops the segment at `path` from the index (its keys then miss
    /// unless another indexed segment holds them).
    pub(crate) fn forget_segment(&self, path: &Path) {
        if let Some(id) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(SegmentId::parse)
        {
            self.index.lock().forget(id);
        }
    }

    /// Loads every listed segment this handle has not indexed yet, in
    /// publish order (see [`load_segment`](Self::load_segment)), and
    /// returns `want`'s record if one of them — or a segment another
    /// thread loaded while this one waited for the loader lock — holds
    /// it.
    pub(crate) fn refresh_index(&self, want: Option<SimKey>) -> Option<SimResult> {
        // Listing costs time linear in the segment count and only reads,
        // so concurrent misses list in parallel; the lock covers loading.
        // Best-effort: an unlistable directory indexes nothing new.
        let mut fresh = self.list_segments().unwrap_or_default();
        let _one_loader = self.refresh.lock();
        if let Some(hit) = want.and_then(|key| self.probe_indexed(key)) {
            return Some(hit);
        }
        {
            let index = self.index.lock();
            fresh.retain(|(id, _)| !index.segments.contains_key(id));
        }
        let mut found = None;
        for (id, _) in fresh {
            let hit = self.load_segment(id, want);
            found = found.or(hit);
        }
        found
    }

    /// Reads segment `id` through the I/O seam, checks its envelope and
    /// digest, decodes every record, indexes the segment and promotes
    /// its records into the LRU — one read serves the index and the
    /// lookup. Returns `want`'s record if the segment holds it. A
    /// segment that fails its check is quarantined and one that has
    /// vanished is forgotten; both hold nothing.
    fn load_segment(&self, id: SegmentId, want: Option<SimKey>) -> Option<SimResult> {
        let path = self.segments_dir()?.join(id.file_name());
        let records = match self
            .read_segment(&path)
            .and_then(|records| decode_records(&records))
        {
            Ok(records) => records,
            Err(SegmentFault::Missing) => {
                self.index.lock().forget(id);
                return None;
            }
            Err(SegmentFault::Bad(why)) => {
                self.quarantine(&path, &why);
                return None;
            }
        };
        self.index.lock().add(id, records.iter().map(|(k, _)| *k));
        let mut found = None;
        let mut lru = self.lru.lock();
        for (key, result) in records {
            if Some(key) == want {
                found = Some(result.clone());
            }
            lru.insert(key, result);
        }
        found
    }

    /// Counter-free lookup: memory and indexed segments, then segments
    /// this handle has not indexed yet (another process's publishes).
    /// Infallible: every failure mode degrades to a miss.
    fn probe(&self, key: SimKey) -> Option<SimResult> {
        self.probe_indexed(key).or_else(|| {
            self.dir.as_ref()?;
            self.refresh_index(Some(key))
        })
    }

    /// The LRU, then every indexed segment holding `key` until one
    /// loads (one that fails is forgotten or quarantined on the way).
    fn probe_indexed(&self, key: SimKey) -> Option<SimResult> {
        if let Some(hit) = self.lru.lock().get(key) {
            return Some(hit);
        }
        let holders = self.index.lock().holders(key);
        holders
            .into_iter()
            .find_map(|id| self.load_segment(id, Some(key)))
    }

    /// Looks `key` up: LRU first, then disk. Infallible: corrupt or
    /// unreadable segments are quarantined (see
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
    /// [`put_batch`](Self::put_batch), then drop the guard); everyone
    /// else receives [`Flight::Pending`] and waits for the leader. A
    /// leader that errors or panics retires the flight on guard drop, so
    /// a waiter's retry claims leadership instead of deadlocking.
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
        // publishes into the LRU (in `put_batch`) *before* its guard
        // takes this lock to retire the entry, so any publish that beat
        // us here is visible and we must not claim leadership for a
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
    /// point for ephemeral stores, where there is no disk to publish to.
    pub(crate) fn insert_memory(&self, key: SimKey, result: &SimResult) {
        self.lru.lock().insert(key, result.clone());
    }

    /// Whether some indexed segment holds `key` (see
    /// [`refresh_index`](Self::refresh_index)).
    pub(crate) fn indexed(&self, key: SimKey) -> bool {
        self.index.lock().keys.contains_key(&key)
    }

    /// One publish attempt of a segment image under a fresh name:
    /// fsynced tempfile, atomic rename, directory fsync — all through
    /// the [`StoreIo`] seam. On success the segment's keys are indexed.
    pub(crate) fn publish_segment(
        &self,
        id: SegmentId,
        image: &[u8],
        keys: impl Iterator<Item = SimKey>,
    ) -> io::Result<()> {
        let segdir = self
            .segments_dir()
            .ok_or_else(|| io::Error::other("ephemeral store has no segment directory"))?;
        self.io.create_dir_all(&segdir)?;
        let name = id.file_name();
        // Unique per process *and* per call, so concurrent writers never
        // share a tempfile.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = segdir.join(format!(
            ".{name}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let path = segdir.join(&name);
        self.io.write_sync(&tmp, image).inspect_err(|_| {
            let _ = self.io.remove_file(&tmp);
        })?;
        self.io.rename(&tmp, &path).inspect_err(|_| {
            let _ = self.io.remove_file(&tmp);
        })?;
        self.io.sync_dir(&segdir)?;
        self.index.lock().add(id, keys);
        Ok(())
    }

    /// A fresh segment identity for this store's next publish.
    pub(crate) fn next_segment(&self) -> SegmentId {
        SegmentId {
            writer: self.writer,
            pid: std::process::id(),
            seq: SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Inserts every `(key, result)` of `batch`: always into memory, and,
    /// when persistent and not degraded, onto disk as **one** segment —
    /// one fsync for the whole batch.
    ///
    /// The segment is written to an fsynced tempfile, published with an
    /// atomic rename, and the segment directory is fsynced after — a
    /// reader sees the whole checksummed segment or nothing, even across
    /// power loss. Publish failures are retried per this store's
    /// [`RetryPolicy`] (bounded exponential backoff, deterministic
    /// per-segment jitter); exhausting every attempt latches degraded
    /// (memory-only) mode rather than failing the caller. An ephemeral
    /// store never encodes.
    pub fn put_batch(&self, batch: &[(SimKey, SimResult)]) {
        if batch.is_empty() {
            return;
        }
        {
            let mut lru = self.lru.lock();
            for (key, result) in batch {
                lru.insert(*key, result.clone());
            }
        }
        self.stores.fetch_add(batch.len() as u64, Ordering::Relaxed);
        if self.dir.is_none() || self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let records: Vec<BundleRecord> = batch
            .iter()
            .map(|(key, result)| BundleRecord {
                key: key.value(),
                bytes: encode_sim_result(result),
            })
            .collect();
        let image = encode_bundle(&records);
        let id = self.next_segment();
        let salt = fnv1a_64(id.file_name().as_bytes());
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let backoff = self.retry.delay(attempt, salt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            match self.publish_segment(id, &image, batch.iter().map(|(k, _)| *k)) {
                Ok(()) => return,
                Err(e) => last_err = Some(e),
            }
        }
        self.write_failures.fetch_add(1, Ordering::Relaxed);
        if !self.degraded.swap(true, Ordering::Relaxed) {
            // lint: allow(no-print) -- operator-facing store log; also counted in stats
            eprintln!(
                "lowvcc-store: publish of segment {} ({} records) failed after {} attempts \
                 ({}); degrading to memory-only operation",
                id.file_name(),
                batch.len(),
                self.retry.attempts.max(1),
                last_err.map_or_else(|| "unknown error".into(), |e| e.to_string()),
            );
        }
    }

    /// Inserts one record: a one-record [`put_batch`](Self::put_batch),
    /// so it is just as durable.
    pub fn put(&self, key: SimKey, result: &SimResult) {
        self.put_batch(&[(key, result.clone())]);
    }

    /// Records and segments on disk under this store's `<writer>` (0 for
    /// ephemeral stores; quarantined segments excluded). Re-lists the
    /// segment directory first. Shards sharing one root each count
    /// their own segments, so their sums are the directory's totals.
    /// Intended for reporting, not hot paths.
    fn own_disk(&self) -> (u64, u64) {
        if self.dir.is_none() {
            return (0, 0);
        }
        self.refresh_index(None);
        let index = self.index.lock();
        index
            .segments
            .iter()
            .filter(|(id, _)| id.writer == self.writer)
            .fold((0, 0), |(records, segments), (_, keys)| {
                (records + keys.len() as u64, segments + 1)
            })
    }

    /// Records in this store's own segments on disk (see
    /// [`disk_segments`](Self::disk_segments)); a key published twice
    /// counts twice.
    #[must_use]
    pub fn disk_entries(&self) -> u64 {
        self.own_disk().0
    }

    /// Segments on disk named for this store's `<writer>`: live, indexed
    /// and not quarantined. 0 for ephemeral stores.
    #[must_use]
    pub fn disk_segments(&self) -> u64 {
        self.own_disk().1
    }
}

/// Decodes every record of a segment whose envelope checked; one bad
/// record fails the whole segment.
pub(crate) fn decode_records(
    records: &[BundleRecord],
) -> Result<Vec<(SimKey, SimResult)>, SegmentFault> {
    records
        .iter()
        .map(|r| {
            decode_sim_result(&r.bytes)
                .map(|result| (SimKey::from_value(r.key), result))
                .map_err(|e| SegmentFault::Bad(format!("record decode failed: {e}")))
        })
        .collect()
}

/// Whether `dir` holds a `<2-hex>/*.sim` record of the per-record layout
/// earlier releases wrote.
fn holds_legacy_records(dir: &Path) -> bool {
    let Ok(listing) = fs::read_dir(dir) else {
        return false;
    };
    listing.flatten().any(|shard| {
        let name = shard.file_name();
        let two_hex = name
            .to_str()
            .is_some_and(|n| n.len() == 2 && n.bytes().all(|b| b.is_ascii_hexdigit()));
        two_hex
            && fs::read_dir(shard.path()).is_ok_and(|entries| {
                entries
                    .flatten()
                    .any(|e| e.path().extension().is_some_and(|x| x == "sim"))
            })
    })
}

/// Startup pass over the segment directory: removes `*.tmp.*` leftovers
/// a killed process abandoned mid-publish, and raises [`SEGMENT_SEQ`]
/// past every segment an earlier process with this pid left behind, so
/// a reused pid never renames over one. A tempfile whose writer is still
/// alive (see [`tmp_writer_alive`]) is an in-flight publish of another
/// store sharing the directory, and is kept. Best-effort by design —
/// startup must succeed on a half-broken disk. Returns the number of
/// orphans removed.
fn sweep_segment_dir(io: &dyn StoreIo, segdir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(segdir) else {
        return 0;
    };
    let pid = std::process::id();
    let mut swept = 0;
    for entry in entries.flatten() {
        let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
            continue;
        };
        if let Some(id) = SegmentId::parse(&name).filter(|id| id.pid == pid) {
            SEGMENT_SEQ.fetch_max(id.seq + 1, Ordering::Relaxed);
        } else if name.contains(".tmp.")
            && !tmp_writer_alive(&name)
            && io.remove_file(&entry.path()).is_ok()
        {
            swept += 1;
        }
    }
    swept
}

/// Whether the process that named a publish tempfile
/// `.<segment>.tmp.<pid>.<seq>` is still running (`/proc/<pid>` exists;
/// this process included). A name without a parsable pid, or a host
/// without `/proc`, reads as dead. A reused pid only keeps a stray file
/// around: tempfiles are never read, so the store stays correct.
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

    fn run_at(vcc: u32) -> (SimKey, SimResult) {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(vcc),
            Mechanism::Iraw,
        );
        let spec = TraceSpec::new(WorkloadFamily::Kernel, 0, 3_000);
        let result = Simulator::new(cfg.clone())
            .unwrap()
            .run(&spec.build().unwrap())
            .unwrap();
        (sim_key(&cfg, &spec), result)
    }

    fn run_one() -> (SimKey, SimResult) {
        run_at(500)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lowvcc_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// The segment files under a store root, in name order.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir.join(SEGMENTS_DIR))
            .map(|l| l.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        files.retain(|p| p.extension().is_some_and(|e| e == "lvcb"));
        files.sort();
        files
    }

    /// Records on disk, counted by decoding every segment file —
    /// independently of the store's own bookkeeping.
    fn decoded_records(dir: &Path) -> u64 {
        segment_files(dir)
            .iter()
            .map(|p| decode_bundle(&fs::read(p).unwrap()).unwrap().len() as u64)
            .sum()
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
        assert_eq!(cold.disk_segments(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_publishes_as_one_segment() {
        let dir = tmpdir("batch");
        let batch: Vec<(SimKey, SimResult)> = [450u32, 500, 550].map(run_at).into();
        let store = ResultStore::open(&dir).unwrap().with_writer(2);
        store.put_batch(&batch);
        let files = segment_files(&dir);
        assert_eq!(files.len(), 1, "one publish, one segment");
        let name = files[0].file_name().unwrap().to_str().unwrap();
        assert!(
            name.starts_with(&format!("2-{}-", std::process::id())),
            "segments are named <writer>-<pid>-<seq>.lvcb: {name}"
        );
        assert_eq!((store.disk_entries(), store.disk_segments()), (3, 1));
        // Another writer's store counts none of them, but reads them all.
        let other = ResultStore::open(&dir).unwrap();
        assert_eq!(other.disk_entries(), 0);
        for (key, result) in &batch {
            assert_eq!(other.get(*key).as_ref(), Some(result));
        }
        assert_eq!(other.stats().misses, 0);
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
        let [path] = segment_files(&dir).try_into().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        // The corrupt segment reads as a miss, is moved to quarantine/,
        // and the key is free to be re-simulated and re-published.
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(key), None);
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.stats().misses, 1);
        assert!(!path.exists(), "corrupt segment must leave segments/");
        assert!(
            dir.join(QUARANTINE_DIR)
                .join(path.file_name().unwrap())
                .exists(),
            "corrupt segment must land in quarantine/"
        );
        assert_eq!(store.disk_entries(), 0, "quarantine is not an entry");

        // Self-heal: publish again, and a cold reopen sees a good record.
        store.put(key, &result);
        let cold = ResultStore::open(&dir).unwrap();
        assert_eq!(cold.get(key), Some(result));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_quarantines_one_segment_and_spares_the_rest() {
        let dir = tmpdir("one_segment");
        let results: Vec<(SimKey, SimResult)> = [450u32, 475, 500, 525].map(run_at).into();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put_batch(&results[..2]);
            store.put_batch(&results[2..]);
        }
        let files = segment_files(&dir);
        assert_eq!(files.len(), 2);
        // The victim is the segment holding the first two keys.
        let victim = files
            .iter()
            .find(|p| {
                decode_bundle(&fs::read(p).unwrap())
                    .unwrap()
                    .iter()
                    .any(|r| r.key == results[0].0.value())
            })
            .unwrap()
            .clone();
        let spared = files.iter().find(|p| **p != victim).unwrap().clone();
        let spared_bytes = fs::read(&spared).unwrap();
        let mut bytes = fs::read(&victim).unwrap();
        bytes[30] ^= 0x08;
        fs::write(&victim, &bytes).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        for (key, result) in &results {
            match store.lookup(*key) {
                Flight::Hit(hit) => assert_eq!(&*hit, result),
                Flight::Lead(guard) => {
                    store.put_batch(&[(*key, result.clone())]);
                    drop(guard);
                }
                Flight::Pending(_) => panic!("no concurrent leader exists"),
            }
        }
        let s = store.stats();
        assert_eq!(s.quarantined, 1, "one file moved aside");
        assert_eq!(s.misses, 2, "exactly the victim's keys re-simulate");
        assert_eq!(s.hits, 2, "the spared segment still answers");
        let quarantined: Vec<_> = fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(quarantined, vec![victim.file_name().unwrap().to_owned()]);
        assert_eq!(fs::read(&spared).unwrap(), spared_bytes, "untouched");
        assert_eq!(decoded_records(&dir), 4, "healed back to four records");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vacuum_keeps_its_survivors_indexed_on_the_same_handle() {
        let dir = tmpdir("vacuum_index");
        let results: Vec<(SimKey, SimResult)> = [450u32, 500, 550].map(run_at).into();
        // Capacity 1: every get but the last must come from a segment.
        let store = ResultStore::open(&dir).unwrap().with_lru_capacity(1);
        for (key, result) in &results {
            store.put(*key, result);
        }
        for (key, _) in &results {
            assert!(store.get(*key).is_some());
        }
        let on_disk: u64 = segment_files(&dir)
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        // One byte short: the three segments are rewritten into one,
        // which drops two envelopes and so keeps every record.
        let report = store.vacuum(on_disk - 1).unwrap();
        assert_eq!((report.removed, report.kept_records), (3, 3));
        let before = store.stats();
        for (key, result) in &results {
            assert_eq!(store.get(*key).as_ref(), Some(result));
        }
        let after = store.stats();
        assert_eq!(after.misses, before.misses, "no survivor was lost");
        assert_eq!(after.hits, before.hits + 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_quarantined_duplicate_falls_back_to_the_other_holder() {
        let dir = tmpdir("duplicate");
        let (key, result) = run_at(450);
        let (other, other_result) = run_at(500);
        let store = ResultStore::open(&dir).unwrap().with_lru_capacity(1);
        store.put(key, &result);
        store.put(key, &result);
        // Evict `key` from memory, so the next get reads a segment.
        store.put(other, &other_result);
        let newest = segment_files(&dir)
            .into_iter()
            .filter(|p| {
                decode_bundle(&fs::read(p).unwrap())
                    .unwrap()
                    .iter()
                    .any(|r| r.key == key.value())
            })
            .max_by_key(|p| SegmentId::parse(p.file_name().unwrap().to_str().unwrap()))
            .unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        bytes[30] ^= 0x08;
        fs::write(&newest, &bytes).unwrap();

        assert_eq!(store.get(key), Some(result));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.quarantined), (1, 0, 1));
        assert!(!newest.exists(), "the damaged copy is quarantined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_per_record_root_is_rejected_with_a_typed_error() {
        let dir = tmpdir("legacy");
        let (key, _) = run_one();
        let hex = key.to_hex();
        fs::create_dir_all(dir.join(&hex[..2])).unwrap();
        fs::write(dir.join(&hex[..2]).join(format!("{hex}.sim")), b"old").unwrap();
        let err = ResultStore::open(&dir).unwrap_err();
        assert!(matches!(&err, StoreError::LegacyLayout { path } if *path == dir));
        let msg = err.to_string();
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
        assert!(
            msg.contains("export") && msg.contains("import"),
            "names the migration: {msg}"
        );
        // A two-hex directory without records is no legacy store.
        fs::remove_file(dir.join(&hex[..2]).join(format!("{hex}.sim"))).unwrap();
        assert!(ResultStore::open(&dir).is_ok());
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
        assert_eq!(decoded_records(&dir), 160, "every publish its own segment");
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
        // Simulate a crash mid-publish: leftover tempfiles beside the
        // segments.
        let segdir = dir.join(SEGMENTS_DIR);
        // u32::MAX is above any Linux pid_max, so its writer is dead.
        let dead = u32::MAX;
        let orphan = segdir.join(format!(".0-{dead}-0.lvcb.tmp.{dead}.0"));
        fs::write(&orphan, b"partial").unwrap();
        fs::write(segdir.join(format!(".0-{dead}-1.lvcb.tmp.{dead}.1")), b"x").unwrap();
        // An in-flight publish of a live process sharing the directory
        // (this one) is not an orphan.
        let pid = std::process::id();
        let live = segdir.join(format!(".0-{pid}-9.lvcb.tmp.{pid}.0"));
        fs::write(&live, b"partial").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().orphans_swept, 2);
        assert_eq!(store.disk_entries(), 1, "the real segment survives");
        assert_eq!(store.get(key), Some(result));
        assert!(!orphan.exists());
        assert!(live.exists(), "a live writer's tempfile survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reused_pid_never_renames_over_an_old_segment() {
        let dir = tmpdir("reused_pid");
        let (key, result) = run_one();
        // A segment a dead process with this pid left behind, far ahead
        // of this process's sequence.
        let segdir = dir.join(SEGMENTS_DIR);
        fs::create_dir_all(&segdir).unwrap();
        let old = SegmentId {
            writer: 0,
            pid: std::process::id(),
            seq: 1 << 40,
        };
        let image = encode_bundle(&[BundleRecord {
            key: key.value(),
            bytes: encode_sim_result(&result),
        }]);
        fs::write(segdir.join(old.file_name()), &image).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        store.put(key, &result);
        assert_eq!(fs::read(segdir.join(old.file_name())).unwrap(), image);
        assert_eq!(
            segment_files(&dir).len(),
            2,
            "a fresh name, not a rename over"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried_through() {
        use crate::store_io::{FaultKind, FaultPlan, FaultyIo};
        let dir = tmpdir("retry");
        let (key, result) = run_one();
        // A publish attempt is write, rename, dir sync. The plan pins
        // faults onto the first write and the following rename *retry*
        // cycle: attempt 1: write(0 torn) → fail; attempt 2: write(1 ok),
        // rename(2 fail) → fail; attempt 3: write(3), rename(4), sync(5)
        // all clean → published.
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
    fn stores_reconcile_with_disk_entries() {
        use crate::store_io::{FaultKind, FaultPlan, FaultyIo};
        // Twelve distinct keys over one result, published as batches of
        // 5, 4 and 3.
        let (base, result) = run_one();
        let batch: Vec<(SimKey, SimResult)> = (0..12u128)
            .map(|i| (SimKey::from_value(base.value() ^ i), result.clone()))
            .collect();
        let batches = [&batch[..5], &batch[5..9], &batch[9..]];

        // Clean run: every stored record is on disk, in one segment per
        // batch — by the store's count and by decoding the files.
        let dir = tmpdir("reconcile");
        let store = ResultStore::open(&dir).unwrap();
        for b in batches {
            store.put_batch(b);
        }
        let s = store.stats();
        assert_eq!(s.stores, 12);
        assert_eq!(s.stores, store.disk_entries());
        assert_eq!(s.stores, decoded_records(&dir));
        assert_eq!(store.disk_segments(), 3);
        let _ = fs::remove_dir_all(&dir);

        // Faulted run: a clean publish is write, rename, dir sync (3
        // ops); the second batch fails every one of its attempts at the
        // write, which latches degraded mode before the third.
        let dir = tmpdir("reconcile_faulted");
        let attempts = u64::from(RetryPolicy::immediate().attempts);
        let plan = (3..3 + attempts).fold(FaultPlan::none(), |p, op| {
            p.with_fault(op, FaultKind::WriteEio)
        });
        let store = ResultStore::open_with(
            &dir,
            Arc::new(FaultyIo::new(plan)) as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap();
        let mut puts_after_latch = 0;
        for b in batches {
            puts_after_latch += if store.degraded() { b.len() as u64 } else { 0 };
            store.put_batch(b);
        }
        let s = store.stats();
        assert!(s.degraded);
        assert_eq!(s.write_failures, 1);
        assert_eq!(store.disk_entries(), 5, "the first batch beat the fault");
        assert_eq!(decoded_records(&dir), 5);
        let missing = s.stores - store.disk_entries();
        assert_eq!(missing, puts_after_latch + batches[1].len() as u64);
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
        // Op 0 is the first lookup's read of the segment: inject EIO. The
        // quarantine rename that follows is op 1 (clean). The
        // re-simulation path then leads.
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
            "unreadable segment must be moved aside"
        );
        // The leader republishes; the store is healed.
        store.put(key, &result);
        drop(guard);
        assert_eq!(store.get(key), Some(result));
        assert!(!store.degraded());
        let _ = fs::remove_dir_all(&dir);
    }
}
