//! The serve tier's metrics spine: lock-free counters, gauges and
//! fixed-bucket latency histograms, rendered by the `metrics` request.
//!
//! PR 4's ad-hoc `serve_counters` stats channel grew into this registry
//! so the scaling work of the readiness-driven tier is *measurable*
//! rather than asserted: every request records its queue-to-response
//! latency into a per-op histogram, the dispatch queue depth is tracked
//! as a gauge with a high-water mark, and connection outcomes (accepts,
//! refusals, idle reaps, force-closes) are monotone counters. All cells
//! are relaxed atomics — recording never takes a lock and never blocks
//! the event loop.
//!
//! Histograms use **fixed power-of-two microsecond buckets** (bucket
//! `i` counts latencies below `2^(i+1) µs`, the last bucket is
//! unbounded), so two shards' histograms merge by element-wise
//! addition — which is exactly how the router aggregates a cluster's
//! `metrics` responses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lowvcc_bench::{json, StoreStats};

/// Number of latency buckets. Bucket `i` spans `[2^i, 2^(i+1)) µs`
/// except bucket 0 (everything below 2 µs) and the last bucket
/// (everything at or above ~2.1 s — simulations on cold paper-scale
/// points land here).
pub const LATENCY_BUCKETS: usize = 22;

/// Upper bound (exclusive, in µs) of bucket `i`; the last bucket has no
/// bound.
#[must_use]
pub fn bucket_ceiling_us(i: usize) -> Option<u64> {
    if i + 1 >= LATENCY_BUCKETS {
        None
    } else {
        Some(1u64 << (i + 1))
    }
}

fn bucket_of(micros: u64) -> usize {
    // floor(log2(micros)) clamped into range; 0 and 1 µs land in bucket 0.
    let log = 63u32.saturating_sub(micros.leading_zeros());
    (log as usize).min(LATENCY_BUCKETS - 1)
}

/// One fixed-bucket latency histogram (relaxed atomics; `record` is
/// wait-free).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(us, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_ceiling_us`]).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub total_micros: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate (bucket ceiling, µs) of the `q`-quantile
    /// (`0.0..=1.0`), or `None` when the histogram is empty. The last
    /// bucket reports its floor (there is no ceiling).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // ceil(q * count), clamped to [1, count]: the rank of the
        // sample whose bucket we report.
        let rank_f = (q * self.count as f64).ceil();
        let rank = if rank_f.is_finite() && rank_f >= 1.0 {
            (rank_f as u64).min(self.count)
        } else {
            1
        };
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_ceiling_us(i).unwrap_or(1u64 << (LATENCY_BUCKETS - 1)));
            }
        }
        None
    }

    /// Element-wise merge (how the router aggregates shards).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        let mut buckets = self.buckets;
        for (a, b) in buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        Self {
            buckets,
            count: self.count + other.count,
            total_micros: self.total_micros + other.total_micros,
        }
    }
}

/// Request classes tracked by the per-op histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `{"experiment": "ping"}`.
    Ping,
    /// `{"experiment": "stats"}`.
    Stats,
    /// `{"experiment": "metrics"}`.
    Metrics,
    /// `{"experiment": "sweep", "vcc": N}` — one operating point.
    SweepPoint,
    /// `{"experiment": "sweep"}` — the full grid.
    SweepFull,
    /// `{"experiment": "sweep", "vccs": [..]}` — a list of points (how
    /// the router sends each shard its slice of a full sweep).
    SweepSlice,
    /// `{"experiment": "table1"}`.
    Table1,
    /// `{"experiment": "stalls"}`.
    Stalls,
    /// `{"experiment": "shutdown"}`.
    Shutdown,
    /// Unparsable or unknown request lines.
    Invalid,
}

impl Op {
    /// Every op, in rendering order (the declaration order).
    pub const ALL: [Op; 10] = [
        Op::Ping,
        Op::Stats,
        Op::Metrics,
        Op::SweepPoint,
        Op::SweepFull,
        Op::SweepSlice,
        Op::Table1,
        Op::Stalls,
        Op::Shutdown,
        Op::Invalid,
    ];

    /// Stable label used in the `metrics` response.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::SweepPoint => "sweep_point",
            Op::SweepFull => "sweep_full",
            Op::SweepSlice => "sweep_slice",
            Op::Table1 => "table1",
            Op::Stalls => "stalls",
            Op::Shutdown => "shutdown",
            Op::Invalid => "invalid",
        }
    }

    /// The op's slot in the per-op tables: its declaration order, which
    /// is also its position in [`Op::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

/// The registry: per-op latency histograms, the dispatch-queue gauge,
/// and every connection-outcome counter of the serve loop. Shared
/// (`Arc`) between the event loop, its workers and the `metrics`
/// request handler.
#[derive(Debug, Default)]
pub struct Metrics {
    ops: [Histogram; Op::ALL.len()],
    /// Connections accepted and registered with the event loop.
    pub accepted: AtomicU64,
    /// Connections ended by a clean peer close (EOF).
    pub completed: AtomicU64,
    /// Connections refused with the `busy` error at the accept gate.
    pub refused_busy: AtomicU64,
    /// Connections ended by an I/O or protocol error (counted, logged).
    pub connection_errors: AtomicU64,
    /// Connections cut loose by the idle or write-stall deadline.
    pub timeouts: AtomicU64,
    /// Idle connections reaped by the idle deadline (subset of
    /// `timeouts`: reaps with no pending output).
    pub idle_reaped: AtomicU64,
    /// Requests whose handler panicked (the worker survives).
    pub worker_panics: AtomicU64,
    /// Connections force-closed at the shutdown drain deadline.
    pub force_closed: AtomicU64,
    /// Request lines answered with the shutting-down error during drain.
    pub drain_refused: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
}

impl Metrics {
    /// A zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request of class `op` with its
    /// enqueue-to-response latency.
    pub fn record(&self, op: Op, latency: Duration) {
        self.ops[op.index()].record(latency);
    }

    /// Notes a request entering the dispatch queue (gauge up, peak
    /// tracked).
    pub fn job_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Notes a request leaving the dispatch queue (gauge down).
    pub fn job_done(&self) {
        // Saturating: a stray double-done must not wrap the gauge.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Current dispatch-queue depth (requests submitted but not yet
    /// answered).
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of the dispatch queue.
    #[must_use]
    pub fn queue_peak(&self) -> u64 {
        self.queue_peak.load(Ordering::Relaxed)
    }

    /// Renders the body of a `metrics` response: shard identity (when
    /// sharded), queue gauge, connection counters, the store's
    /// hit-rate and health, and one histogram object per op.
    #[must_use]
    pub fn to_json(&self, shard: Option<(u32, u32)>, store: &StoreStats) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("ok", json::boolean(true)),
            ("experiment", json::string("metrics")),
        ];
        if let Some((index, count)) = shard {
            fields.push(("shard_index", index.to_string()));
            fields.push(("shard_count", count.to_string()));
        }
        fields.push(("queue_depth", self.queue_depth().to_string()));
        fields.push(("queue_peak", self.queue_peak().to_string()));
        fields.push((
            "idle_reaped",
            self.idle_reaped.load(Ordering::Relaxed).to_string(),
        ));
        fields.push((
            "connections",
            json::object(&[
                (
                    "accepted",
                    self.accepted.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "completed",
                    self.completed.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "refused",
                    self.refused_busy.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "errors",
                    self.connection_errors.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "timeouts",
                    self.timeouts.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "worker_panics",
                    self.worker_panics.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "force_closed",
                    self.force_closed.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "drain_refused",
                    self.drain_refused.load(Ordering::Relaxed).to_string(),
                ),
            ]),
        ));
        fields.push(("store", store_json(store)));
        let ceilings: Vec<String> = (0..LATENCY_BUCKETS)
            .map(|i| bucket_ceiling_us(i).map_or_else(|| "null".to_string(), |c| c.to_string()))
            .collect();
        fields.push(("latency_bucket_ceilings_us", json::array(&ceilings)));
        let ops: Vec<String> = Op::ALL
            .iter()
            .map(|&op| op_json(op, &self.ops[op.index()].snapshot()))
            .collect();
        fields.push(("ops", json::array(&ops)));
        json::object(&fields)
    }
}

/// Renders a store's traffic and health for the `metrics` response —
/// the hit-rate is `null` until the store has seen any lookups.
#[must_use]
pub fn store_json(s: &StoreStats) -> String {
    let total = s.hits + s.misses;
    let hit_rate = if total == 0 {
        f64::NAN // json::number renders non-finite as null
    } else {
        s.hits as f64 / total as f64
    };
    json::object(&[
        ("hits", s.hits.to_string()),
        ("misses", s.misses.to_string()),
        ("hit_rate", json::number(hit_rate)),
        ("stores", s.stores.to_string()),
        ("coalesced", s.coalesced.to_string()),
        ("quarantined", s.quarantined.to_string()),
        ("degraded", json::boolean(s.degraded)),
    ])
}

/// Renders one op's histogram snapshot.
#[must_use]
pub fn op_json(op: Op, h: &HistogramSnapshot) -> String {
    let mean = if h.count == 0 {
        f64::NAN
    } else {
        h.total_micros as f64 / h.count as f64
    };
    let quant = |q: f64| {
        h.quantile_us(q)
            .map_or_else(|| "null".to_string(), |us| us.to_string())
    };
    let buckets: Vec<String> = h.buckets.iter().map(ToString::to_string).collect();
    json::object(&[
        ("op", json::string(op.label())),
        ("count", h.count.to_string()),
        ("total_us", h.total_micros.to_string()),
        ("mean_us", json::number(mean)),
        ("p50_us", quant(0.5)),
        ("p99_us", quant(0.99)),
        ("buckets", json::array(&buckets)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_indexes_its_own_slot_under_a_distinct_label() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?}");
        }
        let labels: std::collections::HashSet<_> = Op::ALL.iter().map(|op| op.label()).collect();
        assert_eq!(labels.len(), Op::ALL.len());
        assert_eq!(
            Op::ALL.map(Op::label),
            [
                "ping",
                "stats",
                "metrics",
                "sweep_point",
                "sweep_full",
                "sweep_slice",
                "table1",
                "stalls",
                "shutdown",
                "invalid"
            ],
            "the metrics response renders ops in this order"
        );
    }

    #[test]
    fn buckets_are_log2_microseconds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1_000_000), 19);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_ceiling_us(0), Some(2));
        assert_eq!(bucket_ceiling_us(1), Some(4));
        assert_eq!(bucket_ceiling_us(LATENCY_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile_us(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(3));
        }
        h.record(Duration::from_secs(1));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile_us(0.5), Some(4), "p50 is in the 2–4 µs bucket");
        assert_eq!(
            s.quantile_us(0.99),
            Some(4),
            "99 of 100 samples are below 4 µs"
        );
        assert_eq!(
            s.quantile_us(1.0),
            Some(1 << 20),
            "the 1 s outlier lands in the 2^19..2^20 µs bucket"
        );
    }

    #[test]
    fn snapshots_merge_elementwise() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(Duration::from_micros(3));
        b.record(Duration::from_micros(3));
        b.record(Duration::from_millis(10));
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.buckets[1], 2);
    }

    #[test]
    fn queue_gauge_tracks_depth_and_peak() {
        let m = Metrics::new();
        m.job_enqueued();
        m.job_enqueued();
        assert_eq!(m.queue_depth(), 2);
        m.job_done();
        assert_eq!(m.queue_depth(), 1);
        assert_eq!(m.queue_peak(), 2);
        m.job_done();
        m.job_done(); // stray extra done saturates, never wraps
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn metrics_json_is_valid_and_carries_hit_rate() {
        let m = Metrics::new();
        m.record(Op::Ping, Duration::from_micros(5));
        let stats = StoreStats {
            hits: 3,
            misses: 1,
            ..StoreStats::default()
        };
        let body = m.to_json(Some((1, 2)), &stats);
        let v = json::parse(&body).expect("metrics response is valid JSON");
        assert_eq!(v.get("shard_index").and_then(json::Value::as_u64), Some(1));
        let store = v.get("store").expect("store object");
        let rate = store.get("hit_rate").and_then(json::Value::as_f64);
        assert_eq!(rate, Some(0.75));
        let ops = v.get("ops").and_then(json::Value::as_array).expect("ops");
        assert_eq!(ops.len(), Op::ALL.len());
        let ping = &ops[0];
        assert_eq!(ping.get("count").and_then(json::Value::as_u64), Some(1));
    }

    #[test]
    fn empty_store_hit_rate_is_null() {
        let body = Metrics::new().to_json(None, &StoreStats::default());
        let v = json::parse(&body).expect("valid JSON");
        assert!(v.get("shard_index").is_none());
        assert_eq!(
            v.get("store").unwrap().get("hit_rate"),
            Some(&json::Value::Null)
        );
    }
}
