//! The store's disk-I/O seam: every filesystem operation the result
//! store performs goes through a [`StoreIo`] implementation.
//!
//! Production uses [`RealIo`] (plain `std::fs` plus the fsync discipline
//! an atomic-rename publish needs to survive power loss). Chaos tests
//! swap in [`FaultyIo`], which injects a *deterministic* schedule of
//! faults — torn writes, rename failures, EIO/ENOSPC, read bit-flips,
//! truncations — decided per operation index from a seed, so a failing
//! chaos run replays exactly.
//!
//! [`RetryPolicy`] lives here too: bounded exponential backoff with
//! deterministic jitter for transient publish failures, the write-side
//! half of the store's self-healing story (the read side is quarantine
//! plus re-simulation; see `store.rs`).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lowvcc_core::canon::fnv1a_64;

/// The store's view of the filesystem. Implementations must be safe to
/// share across the serve workers (`Send + Sync`).
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) filesystem failures; `NotFound` is the
    /// one kind the store treats as a plain miss.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path` and fsyncs the *file* before returning,
    /// so a subsequent rename publishes fully-durable contents.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) filesystem failures; a torn write may
    /// leave a partial file behind.
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) filesystem failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs a *directory*, making a rename inside it durable across
    /// power loss (the second half of the publish fsync discipline).
    ///
    /// # Errors
    ///
    /// Propagates (or injects) filesystem failures.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (never injected: directory
    /// creation is also the quarantine fallback path).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (never injected: removal is the
    /// last-resort cleanup for condemned or leftover files).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production [`StoreIo`]: `std::fs` plus full fsync discipline.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // POSIX: fsync on a read-only directory handle persists the
        // directory entries themselves — without it, an atomic rename
        // can vanish on power loss even though both files were synced.
        fs::File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// One injectable fault. Read-class and write-class kinds apply to the
/// matching operations only; see [`FaultPlan`] for how a seeded schedule
/// picks a kind compatible with the operation it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A write persists only a prefix of the bytes, then fails with EIO
    /// (the classic torn write a crash mid-`write(2)` leaves behind).
    TornWrite,
    /// A write fails with EIO before writing anything.
    WriteEio,
    /// A write fails with ENOSPC (disk full) before writing anything.
    WriteEnospc,
    /// A rename fails with EIO.
    RenameFail,
    /// A read fails with EIO.
    ReadEio,
    /// A read succeeds but one bit of the returned bytes is flipped
    /// (bit rot; the record checksum is what catches it).
    ReadBitFlip,
    /// A read succeeds but returns a strict prefix of the file.
    ReadTruncate,
}

impl FaultKind {
    /// Short stable name (used in logs and fault-count reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::TornWrite => "torn_write",
            Self::WriteEio => "write_eio",
            Self::WriteEnospc => "write_enospc",
            Self::RenameFail => "rename_fail",
            Self::ReadEio => "read_eio",
            Self::ReadBitFlip => "read_bit_flip",
            Self::ReadTruncate => "read_truncate",
        }
    }
}

/// Operation class an injected fault must be compatible with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Read,
    Write,
    Rename,
    Sync,
}

impl OpClass {
    /// Kinds a seeded schedule may pick for this class. Directory syncs
    /// fail like writes (EIO) — there is no "torn fsync".
    fn kinds(self) -> &'static [FaultKind] {
        match self {
            Self::Read => &[
                FaultKind::ReadEio,
                FaultKind::ReadBitFlip,
                FaultKind::ReadTruncate,
            ],
            Self::Write => &[
                FaultKind::TornWrite,
                FaultKind::WriteEio,
                FaultKind::WriteEnospc,
            ],
            Self::Rename => &[FaultKind::RenameFail],
            Self::Sync => &[FaultKind::WriteEio],
        }
    }
}

/// Deterministic mixing of `(seed, op_index)` into fault decisions.
fn mix(seed: u64, op: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&op.to_le_bytes());
    fnv1a_64(&bytes)
}

/// A reproducible schedule of I/O faults.
///
/// Two layers, both deterministic:
///
/// * **explicit** pins fix one operation index's fate — one
///   [`FaultKind`], or a clean run — overriding the seeded schedule
///   (tests that know the exact op sequence);
/// * a **seeded** schedule faults roughly `rate_per_1024 / 1024` of all
///   operations, picking a kind compatible with each operation from a
///   hash of `(seed, op_index)` — aggressive chaos runs that replay
///   bit-identically for a given seed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rate_per_1024: u32,
    /// Pinned fates: `Some(kind)` faults, `None` runs clean.
    explicit: HashMap<u64, Option<FaultKind>>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A seeded schedule faulting ~`rate_per_1024/1024` of operations.
    #[must_use]
    pub fn seeded(seed: u64, rate_per_1024: u32) -> Self {
        Self {
            seed,
            rate_per_1024: rate_per_1024.min(1024),
            explicit: HashMap::new(),
        }
    }

    /// Pins `kind` to operation index `op` (0-based, in call order).
    /// An explicit fault whose class does not match the operation that
    /// actually lands on that index is skipped.
    #[must_use]
    pub fn with_fault(mut self, op: u64, kind: FaultKind) -> Self {
        self.explicit.insert(op, Some(kind));
        self
    }

    /// Pins operation index `op` to run without a fault, whatever the
    /// seeded schedule would draw for it.
    #[must_use]
    pub fn with_clean_op(mut self, op: u64) -> Self {
        self.explicit.insert(op, None);
        self
    }

    /// Decides whether operation `op` of `class` faults, returning the
    /// kind plus deterministic parameter entropy (bit positions,
    /// truncation lengths).
    fn decide(&self, op: u64, class: OpClass) -> Option<(FaultKind, u64)> {
        let h = mix(self.seed, op);
        if let Some(&pinned) = self.explicit.get(&op) {
            return pinned
                .filter(|kind| class.kinds().contains(kind))
                .map(|kind| (kind, h));
        }
        if u64::from(self.rate_per_1024) > h % 1024 {
            let kinds = class.kinds();
            // `% kinds.len()` always fits usize; the fallback keeps the
            // fault injector itself panic-free.
            let kind = kinds[usize::try_from((h >> 10) % kinds.len() as u64).unwrap_or(0)];
            return Some((kind, h >> 13));
        }
        None
    }
}

/// Per-kind tally of faults actually injected (the chaos gate asserts
/// every injection point was exercised).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Torn (prefix-then-EIO) writes injected.
    pub torn_writes: u64,
    /// Plain EIO write failures injected.
    pub write_eio: u64,
    /// ENOSPC write failures injected.
    pub write_enospc: u64,
    /// Rename failures injected.
    pub rename_fails: u64,
    /// EIO read failures injected.
    pub read_eio: u64,
    /// Read bit-flips injected.
    pub read_bit_flips: u64,
    /// Read truncations injected.
    pub read_truncations: u64,
}

impl FaultCounts {
    /// Sum over every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.torn_writes
            + self.write_eio
            + self.write_enospc
            + self.rename_fails
            + self.read_eio
            + self.read_bit_flips
            + self.read_truncations
    }
}

fn injected_eio(what: &str) -> io::Error {
    io::Error::other(format!("injected EIO ({what})"))
}

/// ENOSPC via the raw OS errno, so `ErrorKind` classification behaves
/// like the real thing without raising the crate's MSRV for
/// `ErrorKind::StorageFull`.
fn injected_enospc() -> io::Error {
    io::Error::from_raw_os_error(28)
}

/// A [`StoreIo`] that wraps [`RealIo`] and injects the faults of a
/// [`FaultPlan`], counting every injection per kind. The operation
/// index increments on every `read`/`write_sync`/`rename`/`sync_dir`
/// call (in call order), so single-threaded chaos runs are exactly
/// reproducible from the seed.
#[derive(Debug, Default)]
pub struct FaultyIo {
    inner: RealIo,
    plan: FaultPlan,
    ops: AtomicU64,
    torn_writes: AtomicU64,
    write_eio: AtomicU64,
    write_enospc: AtomicU64,
    rename_fails: AtomicU64,
    read_eio: AtomicU64,
    read_bit_flips: AtomicU64,
    read_truncations: AtomicU64,
}

impl FaultyIo {
    /// Wraps the real filesystem with `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// Operations seen so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far, per kind.
    #[must_use]
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            write_eio: self.write_eio.load(Ordering::Relaxed),
            write_enospc: self.write_enospc.load(Ordering::Relaxed),
            rename_fails: self.rename_fails.load(Ordering::Relaxed),
            read_eio: self.read_eio.load(Ordering::Relaxed),
            read_bit_flips: self.read_bit_flips.load(Ordering::Relaxed),
            read_truncations: self.read_truncations.load(Ordering::Relaxed),
        }
    }

    fn next_fault(&self, class: OpClass) -> Option<(FaultKind, u64)> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let decision = self.plan.decide(op, class)?;
        let counter = match decision.0 {
            FaultKind::TornWrite => &self.torn_writes,
            FaultKind::WriteEio => &self.write_eio,
            FaultKind::WriteEnospc => &self.write_enospc,
            FaultKind::RenameFail => &self.rename_fails,
            FaultKind::ReadEio => &self.read_eio,
            FaultKind::ReadBitFlip => &self.read_bit_flips,
            FaultKind::ReadTruncate => &self.read_truncations,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(decision)
    }
}

impl StoreIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.next_fault(OpClass::Read) {
            Some((FaultKind::ReadEio, _)) => Err(injected_eio("read")),
            Some((FaultKind::ReadBitFlip, entropy)) => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let bit = entropy % (bytes.len() as u64 * 8);
                    bytes[usize::try_from(bit / 8).unwrap_or(0)] ^= 1 << (bit % 8);
                }
                Ok(bytes)
            }
            Some((FaultKind::ReadTruncate, entropy)) => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    bytes.truncate(usize::try_from(entropy % bytes.len() as u64).unwrap_or(0));
                }
                Ok(bytes)
            }
            _ => self.inner.read(path),
        }
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.next_fault(OpClass::Write) {
            Some((FaultKind::TornWrite, entropy)) => {
                // Persist a strict prefix, then report failure — what a
                // crash mid-write leaves on disk.
                let keep = usize::try_from(entropy % bytes.len().max(1) as u64).unwrap_or(0);
                let _ = self.inner.write_sync(path, &bytes[..keep]);
                Err(injected_eio("torn write"))
            }
            Some((FaultKind::WriteEio, _)) => Err(injected_eio("write")),
            Some((FaultKind::WriteEnospc, _)) => Err(injected_enospc()),
            _ => self.inner.write_sync(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.next_fault(OpClass::Rename) {
            Some((FaultKind::RenameFail, _)) => Err(injected_eio("rename")),
            _ => self.inner.rename(from, to),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.next_fault(OpClass::Sync) {
            Some((FaultKind::WriteEio, _)) => Err(injected_eio("dir fsync")),
            _ => self.inner.sync_dir(dir),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
}

/// Bounded exponential backoff with deterministic jitter for transient
/// publish failures. `attempts` counts *total* tries (first one
/// included); the delay before retry `n` (1-based) is
/// `min(base · 2ⁿ⁻¹, cap)` scaled by a jitter factor in `[½, 1)`
/// derived from `(salt, n)` — deterministic, so chaos runs replay, yet
/// decorrelated across keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total publish tries (min 1).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(80),
        }
    }
}

impl RetryPolicy {
    /// The default retry count with zero sleeps — for tests, where the
    /// schedule (not the wall clock) is what matters.
    #[must_use]
    pub fn immediate() -> Self {
        Self {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            ..Self::default()
        }
    }

    /// A single try, no retries.
    #[must_use]
    pub fn none() -> Self {
        Self {
            attempts: 1,
            ..Self::immediate()
        }
    }

    /// The backoff to sleep before retry `attempt` (1-based), salted by
    /// the key being published.
    #[must_use]
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 || self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cap);
        // Jitter factor in [512, 1023]/1024 ≈ [0.5, 1).
        let jitter = 512 + u32::try_from(mix(salt, u64::from(attempt)) % 512).unwrap_or(0);
        exp * jitter / 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_io_round_trips_with_fsync() {
        let dir = std::env::temp_dir().join(format!("lowvcc_io_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = RealIo;
        io.create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        io.write_sync(&p, b"hello").unwrap();
        io.sync_dir(&dir).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"hello");
        let q = dir.join("y.bin");
        io.rename(&p, &q).unwrap();
        assert_eq!(io.read(&q).unwrap(), b"hello");
        io.remove_file(&q).unwrap();
        assert_eq!(
            io.read(&q).unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "removed file reads as NotFound"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_faults_fire_on_their_op_index_only() {
        let dir = std::env::temp_dir().join(format!("lowvcc_io_explicit_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        let io = FaultyIo::new(
            FaultPlan::none()
                .with_fault(1, FaultKind::WriteEio)
                .with_fault(2, FaultKind::ReadBitFlip),
        );
        io.write_sync(&p, b"abc").unwrap(); // op 0: clean
        assert!(io.write_sync(&p, b"abc").is_err()); // op 1: injected
        let flipped = io.read(&p).unwrap(); // op 2: one bit flipped
        assert_ne!(flipped, b"abc");
        assert_eq!(flipped.len(), 3);
        assert_eq!(io.read(&p).unwrap(), b"abc"); // op 3: clean again
        let counts = io.injected();
        assert_eq!(counts.write_eio, 1);
        assert_eq!(counts.read_bit_flips, 1);
        assert_eq!(counts.total(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_fault_of_the_wrong_class_is_skipped() {
        let dir = std::env::temp_dir().join(format!("lowvcc_io_class_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        let io = FaultyIo::new(FaultPlan::none().with_fault(0, FaultKind::ReadEio));
        // Op 0 is a write; the pinned read fault cannot apply to it.
        io.write_sync(&p, b"abc").unwrap();
        assert_eq!(io.injected().total(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_pins_override_the_seeded_schedule() {
        // Rate 1024/1024: every unpinned operation faults.
        let plan = FaultPlan::seeded(7, 1024).with_clean_op(1);
        assert!(plan.decide(0, OpClass::Write).is_some());
        assert_eq!(plan.decide(1, OpClass::Write), None);
        assert!(plan.decide(2, OpClass::Read).is_some());
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_class_compatible() {
        let a = FaultPlan::seeded(7, 512);
        let b = FaultPlan::seeded(7, 512);
        let mut faulted = 0u32;
        for op in 0..2_000 {
            let da = a.decide(op, OpClass::Write);
            assert_eq!(da, b.decide(op, OpClass::Write), "same seed, same plan");
            if let Some((kind, _)) = da {
                assert!(OpClass::Write.kinds().contains(&kind));
                faulted += 1;
            }
            if let Some((kind, _)) = a.decide(op, OpClass::Read) {
                assert!(OpClass::Read.kinds().contains(&kind));
            }
        }
        // rate 512/1024 ≈ half of all ops.
        assert!((600..1_400).contains(&faulted), "got {faulted}");
        assert_ne!(
            FaultPlan::seeded(8, 512).decide(0, OpClass::Write),
            FaultPlan::seeded(7, 512)
                .decide(0, OpClass::Write)
                .or(Some((FaultKind::TornWrite, u64::MAX))),
            "different seeds give different schedules somewhere"
        );
    }

    #[test]
    fn torn_write_leaves_a_strict_prefix() {
        let dir = std::env::temp_dir().join(format!("lowvcc_io_torn_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        let io = FaultyIo::new(FaultPlan::none().with_fault(0, FaultKind::TornWrite));
        assert!(io.write_sync(&p, b"0123456789").is_err());
        let on_disk = fs::read(&p).unwrap_or_default();
        assert!(
            on_disk.len() < 10,
            "torn write kept {} bytes",
            on_disk.len()
        );
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
        assert_eq!(io.injected().torn_writes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_classified_as_a_real_errno() {
        let e = injected_enospc();
        assert_eq!(e.raw_os_error(), Some(28));
    }

    #[test]
    fn retry_delays_are_deterministic_bounded_and_jittered() {
        let p = RetryPolicy::default();
        for attempt in 1..6 {
            for salt in [0u64, 1, 0xdead_beef] {
                let d = p.delay(attempt, salt);
                assert_eq!(d, p.delay(attempt, salt), "deterministic");
                assert!(d <= p.cap, "bounded by cap");
                // Jitter keeps at least half the exponential step.
                let full = p.base.saturating_mul(1 << (attempt - 1)).min(p.cap);
                assert!(d >= full / 2, "at least half the step");
            }
        }
        // Jitter decorrelates keys: not every salt maps to one delay.
        let spread: std::collections::HashSet<Duration> =
            (0..32u64).map(|salt| p.delay(3, salt)).collect();
        assert!(spread.len() > 1, "jitter must vary with the salt");
        assert_eq!(RetryPolicy::immediate().delay(3, 9), Duration::ZERO);
        assert_eq!(RetryPolicy::none().attempts, 1);
    }
}
