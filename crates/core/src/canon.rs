//! Canonical byte encodings, the content-addressed [`SimKey`], and the
//! on-disk [`SimResult`] codec behind the result cache.
//!
//! The simulator is deterministic (DESIGN.md §6): a run's [`SimStats`]
//! are a pure function of `(CycleConfig, TraceSpec)`, where
//! [`CycleConfig`] is the cycle-level projection of a [`SimConfig`]
//! ([`SimConfig::cycle_config`]). That makes keyed reuse sound — two runs
//! with the same canonical encoding of their projected inputs produce
//! bit-identical [`SimStats`]. This module defines
//!
//! * a **canonical encoding** of every engine input (fixed field order,
//!   fixed-width little-endian integers, `f64` as IEEE-754 bits,
//!   length-prefixed strings) — no `Hash`-derive, no layout dependence.
//!   Supply voltage, mechanism and cycle time are not engine inputs, so
//!   they are not encoded: configs that differ only there (the IRAW and
//!   baseline runs at ≥600 mV, where `N = 0` and the clocks agree) share
//!   one key and one simulation;
//! * [`SimKey`] — a hand-rolled 128-bit FNV-1a over that encoding,
//!   further covering [`ENGINE_SEMANTICS_VERSION`] so a change to what
//!   the engine *means* invalidates every cached result at once. FNV-1a
//!   is a left fold, so a [`SimKeyPrefix`] saves the hash state after a
//!   config's bytes and keys each trace by folding only its spec onto
//!   that state ([`sim_key`] is the prefix used once);
//! * [`encode_sim_result`]/[`decode_sim_result`] — a self-describing,
//!   checksummed byte format for [`SimResult`] suitable for
//!   atomic-rename persistence. Decoding is strict: bad magic, an
//!   unknown format, a stale engine version, a checksum mismatch or
//!   trailing bytes all surface a typed [`CanonError`] rather than
//!   garbage statistics. The record keeps a `cycle_time` field, but a
//!   key is shared by every config with the same projection, so a
//!   stored record's cycle time is that of whichever config published
//!   first. Readers stamp the requesting config's own cycle time over
//!   it (`ExperimentContext::run_suite_batch` is the one read site).

use std::fmt;

use lowvcc_sram::Picoseconds;
use lowvcc_trace::TraceSpec;
use lowvcc_uarch::cache::CacheConfig;

use crate::config::{CoreConfig, CycleConfig, SimConfig};
use crate::stats::{BranchStats, SimResult, SimStats, StallBreakdown};

/// Version of the engine's *semantics* — what a `(CycleConfig, TraceSpec)`
/// pair means in cycles and stall attribution. Bump this whenever a
/// change alters simulation output for some input (a new stall source, a
/// fixed latency, a different replacement decision…) or what a key
/// covers; every [`SimKey`] covers it, so persisted results from older
/// semantics silently miss instead of being served stale. Version 2 keys
/// the cycle-level projection instead of the full `SimConfig`.
pub const ENGINE_SEMANTICS_VERSION: u32 = 2;

/// Format version of the [`encode_sim_result`] byte layout (bumped when
/// the *serialization* changes, independent of engine semantics).
pub const RESULT_FORMAT_VERSION: u32 = 1;

const RESULT_MAGIC: &[u8; 4] = b"LVCR";

// --- FNV-1a ---------------------------------------------------------------

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 64-bit FNV-1a over `bytes` (used as the payload checksum).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV64_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME)
    })
}

/// 128-bit FNV-1a over `bytes` (used for content addressing).
#[must_use]
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    fnv1a_128_from(FNV128_OFFSET, bytes)
}

/// Continues a 128-bit FNV-1a from `state` over `bytes`. FNV-1a is a
/// left fold, so hashing `a ++ b` equals continuing the hash of `a`
/// over `b` — what lets a [`SimKeyPrefix`] hash its config once.
fn fnv1a_128_from(state: u128, bytes: &[u8]) -> u128 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME)
    })
}

// --- canonical writer / reader -------------------------------------------

/// Append-only canonical encoder: fixed-width little-endian integers,
/// IEEE-754 bit patterns for floats, length-prefixed UTF-8 strings.
#[derive(Debug, Default, Clone)]
pub struct CanonWriter {
    buf: Vec<u8>,
}

impl CanonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes, so writing
    /// that many never reallocates.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (canonical width on every platform).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Strict decoder over a canonical byte slice.
#[derive(Debug)]
struct CanonReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CanonReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        let end = self.pos.checked_add(n).ok_or(CanonError::Truncated {
            needed: n,
            have: self.buf.len() - self.pos,
        })?;
        if end > self.buf.len() {
            return Err(CanonError::Truncated {
                needed: n,
                have: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CanonError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CanonError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, CanonError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decoding failure of a canonical [`SimResult`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanonError {
    /// The record ends before a required field.
    Truncated {
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes actually left.
        have: usize,
    },
    /// The record does not start with the `LVCR` magic.
    BadMagic,
    /// The serialization format version is unknown to this build.
    UnsupportedFormat {
        /// Version found in the record.
        found: u32,
    },
    /// The record was produced under different engine semantics.
    EngineVersionMismatch {
        /// Version found in the record.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The payload checksum does not match (bit rot or a torn write).
    ChecksumMismatch,
    /// Well-formed record followed by unexpected extra bytes.
    TrailingBytes {
        /// Count of bytes past the record end.
        extra: usize,
    },
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, have } => {
                write!(
                    f,
                    "record truncated: field needs {needed} bytes, {have} left"
                )
            }
            Self::BadMagic => f.write_str("bad magic (not a lowvcc result record)"),
            Self::UnsupportedFormat { found } => {
                write!(f, "unsupported result format version {found}")
            }
            Self::EngineVersionMismatch { found, expected } => write!(
                f,
                "record from engine semantics v{found}, this build is v{expected}"
            ),
            Self::ChecksumMismatch => f.write_str("payload checksum mismatch"),
            Self::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected bytes after record end")
            }
        }
    }
}

impl std::error::Error for CanonError {}

// --- canonical input encodings --------------------------------------------

fn encode_cache_config(w: &mut CanonWriter, c: &CacheConfig) {
    w.usize(c.size_bytes);
    w.usize(c.ways);
    w.usize(c.line_bytes);
    // The retired replacement-policy tag (LRU = 0): keeps every `SimKey` unchanged.
    w.u8(0);
}

fn encode_core_config(w: &mut CanonWriter, c: &CoreConfig) {
    w.usize(c.fetch_width);
    w.usize(c.alloc_width);
    w.usize(c.issue_width);
    w.usize(c.iq_entries);
    w.u32(c.front_end_stages);
    w.u32(c.bypass_levels);
    w.u32(c.scoreboard_width);
    encode_cache_config(w, &c.il0);
    encode_cache_config(w, &c.dl0);
    encode_cache_config(w, &c.ul1);
    w.usize(c.itlb_entries);
    w.usize(c.dtlb_entries);
    w.usize(c.bp_entries);
    w.usize(c.btb_entries);
    w.usize(c.rsb_entries);
    w.usize(c.fb_entries);
    w.usize(c.wcb_entries);
    w.usize(c.stable_max_entries);
    w.u32(c.lat_alu);
    w.u32(c.lat_mul);
    w.u32(c.lat_div);
    w.u32(c.lat_fp_add);
    w.u32(c.lat_fp_mul);
    w.u32(c.lat_fp_div);
    w.u32(c.lat_dl0_hit);
    w.u32(c.lat_ul1);
    w.u32(c.page_walk_cycles);
    w.u32(c.mispredict_penalty);
    // The retired IL0 next-line prefetch switch: keeps every `SimKey` unchanged.
    w.bool(true);
    w.f64(c.memory_latency_ns);
}

/// Canonically encodes the engine's input: every field of the
/// [`CycleConfig`] projection — the machine, the stabilization count,
/// the baseline-specific knobs and the memory latency in cycles. The
/// clock enters only through that latency, so e.g. the stall-free
/// reference run (`N = 0`) keys apart from the IRAW run it shadows, but
/// equal to any run with the same `N = 0` and memory latency.
pub fn encode_cycle_config(w: &mut CanonWriter, cfg: &CycleConfig) {
    encode_core_config(w, &cfg.core);
    w.u32(cfg.stabilization_cycles);
    w.u32(cfg.extra_write_port_cycles);
    w.usize(cfg.disabled_lines.0);
    w.usize(cfg.disabled_lines.1);
    w.usize(cfg.disabled_lines.2);
    w.u64(cfg.fault_seed);
    w.u64(cfg.memory_latency_cycles);
}

/// Canonically encodes a trace *specification* (family, seed, length) —
/// the generator is deterministic, so the spec stands for the trace
/// contents without hashing megabytes of uops.
pub fn encode_trace_spec(w: &mut CanonWriter, spec: &TraceSpec) {
    w.str(spec.family.name());
    w.u64(spec.seed);
    w.usize(spec.len);
}

// --- SimKey ---------------------------------------------------------------

/// Content address of one simulation: a 128-bit FNV-1a over the
/// canonical encoding of `(engine semantics version, CycleConfig,
/// TraceSpec)`.
///
/// ```
/// use lowvcc_core::{sim_key, CoreConfig, Mechanism, SimConfig};
/// use lowvcc_sram::{CycleTimeModel, Millivolts};
/// use lowvcc_trace::{TraceSpec, WorkloadFamily};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let timing = CycleTimeModel::silverthorne_45nm();
/// let cfg = SimConfig::at_vcc(
///     CoreConfig::silverthorne(),
///     &timing,
///     Millivolts::new(500)?,
///     Mechanism::Iraw,
/// );
/// let spec = TraceSpec::new(WorkloadFamily::SpecInt, 0, 10_000);
/// let a = sim_key(&cfg, &spec);
/// let b = sim_key(&cfg, &spec);
/// assert_eq!(a, b);
/// assert_eq!(a.to_hex().len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimKey(u128);

impl SimKey {
    /// The raw 128-bit value.
    #[must_use]
    pub fn value(self) -> u128 {
        self.0
    }

    /// Reconstructs a key from its raw 128-bit value — the inverse of
    /// [`SimKey::value`]. Used when a key round-trips through an
    /// external representation (a bundle file) rather than being
    /// derived from simulation inputs.
    #[must_use]
    pub fn from_value(value: u128) -> Self {
        Self(value)
    }

    /// Parses the lower-case 32-character hex rendering produced by
    /// [`SimKey::to_hex`]. Rejects anything that is not exactly 32 hex
    /// digits, so a malformed wire key can never alias a real one.
    #[must_use]
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(Self)
    }

    /// Lower-case 32-character hex rendering (the on-disk file stem).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for SimKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Bytes of a [`SimKeyPrefix`]'s encoding: the domain tag, the engine
/// semantics version and the [`CycleConfig`] projection.
const SIM_KEY_PREFIX_BYTES: usize = 305;

/// The config half of every [`SimKey`] under one configuration: the
/// FNV-128 state after the domain tag, [`ENGINE_SEMANTICS_VERSION`] and
/// the config's [`CycleConfig`] projection. A grid keys many traces
/// under each config, so it hashes those ~300 bytes once here, and
/// [`key`](Self::key) folds only a trace spec's few bytes onto the
/// saved state. [`sim_key`] is this type used once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimKeyPrefix {
    state: u128,
}

impl SimKeyPrefix {
    /// Hashes `cfg`'s key prefix.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        let mut w = CanonWriter::with_capacity(SIM_KEY_PREFIX_BYTES);
        w.str("lowvcc-simkey");
        w.u32(ENGINE_SEMANTICS_VERSION);
        encode_cycle_config(&mut w, &cfg.cycle_config());
        Self {
            state: fnv1a_128(w.bytes()),
        }
    }

    /// The [`SimKey`] of running `spec` under this prefix's config.
    #[must_use]
    pub fn key(&self, spec: &TraceSpec) -> SimKey {
        // `encode_trace_spec`'s exact length: a length-prefixed name and
        // two 8-byte integers.
        let mut w = CanonWriter::with_capacity(24 + spec.family.name().len());
        encode_trace_spec(&mut w, spec);
        SimKey(fnv1a_128_from(self.state, w.bytes()))
    }
}

/// Computes the [`SimKey`] of running `spec` under `cfg`: a function of
/// `cfg`'s cycle-level projection only, so configs that behave the same
/// share a key. Keying many traces under one config, build its
/// [`SimKeyPrefix`] once instead.
#[must_use]
pub fn sim_key(cfg: &SimConfig, spec: &TraceSpec) -> SimKey {
    SimKeyPrefix::new(cfg).key(spec)
}

// --- SimResult codec ------------------------------------------------------

fn encode_stats_payload(w: &mut CanonWriter, r: &SimResult) {
    w.f64(r.cycle_time.picos());
    let s = &r.stats;
    w.u64(s.cycles);
    w.u64(s.instructions);
    w.u64(s.iraw_delayed_instructions);
    w.u64(s.stalls.rf_iraw);
    w.u64(s.stalls.iq_iraw);
    w.u64(s.stalls.dl0_stable);
    w.u64(s.stalls.dl0_fill);
    w.u64(s.stalls.other_fill);
    w.u64(s.branches.branches);
    w.u64(s.branches.mispredicts);
    w.u64(s.branches.calls);
    w.u64(s.branches.rets);
    w.u64(s.branches.ret_mispredicts);
    w.u64(s.branches.bp_potential_corruptions);
    w.u64(s.branches.rsb_potential_corruptions);
    for c in [&s.il0, &s.dl0, &s.ul1] {
        w.u64(c.accesses);
        w.u64(c.hits);
        w.u64(c.misses);
        w.u64(c.fills);
        w.u64(c.evictions);
    }
    for t in [&s.itlb, &s.dtlb] {
        w.u64(t.accesses);
        w.u64(t.hits);
        w.u64(t.misses);
    }
    w.u64(s.stable.probes);
    w.u64(s.stable.full_matches);
    w.u64(s.stable.set_matches);
    w.u64(s.stable.stores_replayed);
    w.u64(s.memory_accesses);
    w.u64(s.drain_noops);
    w.u64(s.write_port_stalls);
}

/// Serializes a [`SimResult`] to the canonical record format:
/// `LVCR` magic, format version, engine-semantics version, the stats
/// payload, and a trailing FNV-1a 64 checksum over everything before it.
#[must_use]
pub fn encode_sim_result(r: &SimResult) -> Vec<u8> {
    let mut w = CanonWriter::new();
    w.buf.extend_from_slice(RESULT_MAGIC);
    w.u32(RESULT_FORMAT_VERSION);
    w.u32(ENGINE_SEMANTICS_VERSION);
    encode_stats_payload(&mut w, r);
    let sum = fnv1a_64(w.bytes());
    w.u64(sum);
    w.into_bytes()
}

/// Parses a canonical [`SimResult`] record produced by
/// [`encode_sim_result`].
///
/// # Errors
///
/// Returns a [`CanonError`] on any structural problem: wrong magic,
/// unknown format version, foreign engine-semantics version, truncation,
/// checksum mismatch, or trailing bytes.
pub fn decode_sim_result(bytes: &[u8]) -> Result<SimResult, CanonError> {
    let mut r = CanonReader::new(bytes);
    if r.take(4)? != RESULT_MAGIC {
        return Err(CanonError::BadMagic);
    }
    let format = r.u32()?;
    if format != RESULT_FORMAT_VERSION {
        return Err(CanonError::UnsupportedFormat { found: format });
    }
    let engine = r.u32()?;
    if engine != ENGINE_SEMANTICS_VERSION {
        return Err(CanonError::EngineVersionMismatch {
            found: engine,
            expected: ENGINE_SEMANTICS_VERSION,
        });
    }
    let cycle_time = Picoseconds::new(r.f64()?);
    let cycles = r.u64()?;
    let instructions = r.u64()?;
    let iraw_delayed_instructions = r.u64()?;
    let stalls = StallBreakdown {
        rf_iraw: r.u64()?,
        iq_iraw: r.u64()?,
        dl0_stable: r.u64()?,
        dl0_fill: r.u64()?,
        other_fill: r.u64()?,
    };
    let branches = BranchStats {
        branches: r.u64()?,
        mispredicts: r.u64()?,
        calls: r.u64()?,
        rets: r.u64()?,
        ret_mispredicts: r.u64()?,
        bp_potential_corruptions: r.u64()?,
        rsb_potential_corruptions: r.u64()?,
    };
    let mut caches = Vec::with_capacity(3);
    for _ in 0..3 {
        caches.push(lowvcc_uarch::cache::CacheStats {
            accesses: r.u64()?,
            hits: r.u64()?,
            misses: r.u64()?,
            fills: r.u64()?,
            evictions: r.u64()?,
        });
    }
    let mut tlbs = Vec::with_capacity(2);
    for _ in 0..2 {
        tlbs.push(lowvcc_uarch::tlb::TlbStats {
            accesses: r.u64()?,
            hits: r.u64()?,
            misses: r.u64()?,
        });
    }
    let stable = lowvcc_uarch::stable::StableStats {
        probes: r.u64()?,
        full_matches: r.u64()?,
        set_matches: r.u64()?,
        stores_replayed: r.u64()?,
    };
    let memory_accesses = r.u64()?;
    let drain_noops = r.u64()?;
    let write_port_stalls = r.u64()?;
    let payload_end = r.pos;
    let sum = r.u64()?;
    if fnv1a_64(&bytes[..payload_end]) != sum {
        return Err(CanonError::ChecksumMismatch);
    }
    if r.remaining() != 0 {
        return Err(CanonError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    let ul1 = caches.pop().expect("pushed 3");
    let dl0 = caches.pop().expect("pushed 3");
    let il0 = caches.pop().expect("pushed 3");
    let dtlb = tlbs.pop().expect("pushed 2");
    let itlb = tlbs.pop().expect("pushed 2");
    Ok(SimResult {
        stats: SimStats {
            cycles,
            instructions,
            iraw_delayed_instructions,
            stalls,
            branches,
            il0,
            dl0,
            ul1,
            itlb,
            dtlb,
            stable,
            memory_accesses,
            drain_noops,
            write_port_stalls,
        },
        cycle_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanism;
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::WorkloadFamily;

    fn cfg(vcc_mv: u32, mech: Mechanism) -> SimConfig {
        let timing = CycleTimeModel::silverthorne_45nm();
        SimConfig::at_vcc(CoreConfig::silverthorne(), &timing, mv(vcc_mv), mech)
    }

    fn spec() -> TraceSpec {
        TraceSpec::new(WorkloadFamily::SpecInt, 3, 10_000)
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
    }

    #[test]
    fn key_is_deterministic_and_input_sensitive() {
        let base = sim_key(&cfg(500, Mechanism::Iraw), &spec());
        assert_eq!(base, sim_key(&cfg(500, Mechanism::Iraw), &spec()));

        // Every input axis moves the key.
        assert_ne!(base, sim_key(&cfg(500, Mechanism::Baseline), &spec()));
        assert_ne!(base, sim_key(&cfg(525, Mechanism::Iraw), &spec()));
        let mut other_spec = spec();
        other_spec.seed = 4;
        assert_ne!(base, sim_key(&cfg(500, Mechanism::Iraw), &other_spec));
        let mut longer = spec();
        longer.len += 1;
        assert_ne!(base, sim_key(&cfg(500, Mechanism::Iraw), &longer));
        let mut family = spec();
        family.family = WorkloadFamily::Server;
        assert_ne!(base, sim_key(&cfg(500, Mechanism::Iraw), &family));

        // Config fields beyond the (core, vcc, mechanism) triple count
        // too: the stall-free reference of the §5.2 experiment differs
        // from the IRAW run only in stabilization_cycles.
        let mut free = cfg(575, Mechanism::Iraw);
        free.stabilization_cycles = 0;
        assert_ne!(
            sim_key(&cfg(575, Mechanism::Iraw), &spec()),
            sim_key(&free, &spec())
        );

        // Only the cycle-level projection counts: at ≥600 mV the IRAW
        // run has `N = 0` and the baseline clock, so it *is* the
        // baseline run.
        assert_eq!(
            sim_key(&cfg(600, Mechanism::Iraw), &spec()),
            sim_key(&cfg(600, Mechanism::Baseline), &spec())
        );
    }

    /// Pins key bytes. A refactor that changes what a key encodes
    /// silently orphans every cached record and bundle, so a deliberate
    /// key change must update these values (and say why).
    #[test]
    fn golden_keys_are_pinned() {
        let spec = TraceSpec::new(WorkloadFamily::SpecInt, 1, 10_000);
        let mut knobs = cfg(500, Mechanism::Baseline);
        knobs.disabled_lines = (3, 5, 7);
        knobs.extra_write_port_cycles = 1;
        let golden = [
            (
                cfg(500, Mechanism::Baseline),
                "98e194c584aaa0b34d3817599455612c",
            ),
            (
                cfg(500, Mechanism::Iraw),
                "1fb4e2969d08087758eaa8ba071a87c0",
            ),
            (knobs, "c2d3538e954b69113971b007cc33e65c"),
        ];
        for (config, hex) in golden {
            assert_eq!(sim_key(&config, &spec).to_hex(), hex, "{config:?}");
        }
    }

    /// The prefix's writer is sized to its encoding exactly, and the
    /// trace spec's to `encode_trace_spec`'s, so neither reallocates.
    #[test]
    fn key_writers_are_sized_to_their_encodings() {
        let mut w = CanonWriter::new();
        w.str("lowvcc-simkey");
        w.u32(ENGINE_SEMANTICS_VERSION);
        encode_cycle_config(&mut w, &cfg(500, Mechanism::Iraw).cycle_config());
        assert_eq!(w.bytes().len(), SIM_KEY_PREFIX_BYTES);
        for family in WorkloadFamily::all() {
            let mut w = CanonWriter::new();
            encode_trace_spec(&mut w, &TraceSpec::new(family, 7, 10_000));
            assert_eq!(w.bytes().len(), 24 + family.name().len(), "{family:?}");
        }
    }

    #[test]
    fn the_fault_seed_keys_only_configs_that_disable_lines() {
        let spec = spec();
        let mut seeded = cfg(500, Mechanism::Baseline);
        seeded.fault_seed = 1;
        assert_eq!(
            sim_key(&seeded, &spec),
            sim_key(&cfg(500, Mechanism::Baseline), &spec),
            "no line is disabled, so the seed places nothing"
        );
        seeded.disabled_lines = (3, 5, 7);
        let mut reseeded = seeded.clone();
        reseeded.fault_seed = 2;
        assert_ne!(sim_key(&seeded, &spec), sim_key(&reseeded, &spec));
    }

    #[test]
    fn hex_rendering_is_stable() {
        let k = sim_key(&cfg(500, Mechanism::Iraw), &spec());
        assert_eq!(k.to_hex().len(), 32);
        assert_eq!(k.to_hex(), format!("{k}"));
        assert!(k.to_hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn keys_round_trip_through_value_and_hex() {
        let k = sim_key(&cfg(500, Mechanism::Iraw), &spec());
        assert_eq!(SimKey::from_value(k.value()), k);
        assert_eq!(SimKey::from_hex(&k.to_hex()), Some(k));
        // Anything that is not exactly 32 hex digits is rejected.
        assert_eq!(SimKey::from_hex(""), None);
        assert_eq!(SimKey::from_hex("abc"), None);
        assert_eq!(SimKey::from_hex(&"0".repeat(33)), None);
        assert_eq!(SimKey::from_hex(&format!("{}g", "0".repeat(31))), None);
    }

    #[test]
    fn result_round_trips_bit_identically() {
        let sim = crate::sim::Simulator::new(cfg(500, Mechanism::Iraw)).unwrap();
        let trace = spec().build().unwrap();
        let r = sim.run(&trace).unwrap();
        let bytes = encode_sim_result(&r);
        let back = decode_sim_result(&bytes).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn decoder_rejects_corruption() {
        let sim = crate::sim::Simulator::new(cfg(500, Mechanism::Iraw)).unwrap();
        let trace = spec().build().unwrap();
        let r = sim.run(&trace).unwrap();
        let good = encode_sim_result(&r);

        assert_eq!(decode_sim_result(b"nope"), Err(CanonError::BadMagic));

        let mut truncated = good.clone();
        truncated.truncate(good.len() - 9);
        assert!(matches!(
            decode_sim_result(&truncated),
            Err(CanonError::Truncated { .. })
        ));

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            decode_sim_result(&flipped),
            Err(CanonError::ChecksumMismatch)
        );

        let mut extended = good.clone();
        extended.push(0);
        assert_eq!(
            decode_sim_result(&extended),
            Err(CanonError::TrailingBytes { extra: 1 })
        );

        let mut wrong_engine = good.clone();
        wrong_engine[8..12].copy_from_slice(&(ENGINE_SEMANTICS_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_sim_result(&wrong_engine),
            Err(CanonError::EngineVersionMismatch { .. })
        ));

        let mut wrong_format = good;
        wrong_format[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_sim_result(&wrong_format),
            Err(CanonError::UnsupportedFormat { found: 99 })
        );
    }
}
