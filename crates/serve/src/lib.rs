//! `lowvcc-serve`: a long-lived query daemon over the content-addressed
//! result cache.
//!
//! The batch `experiments` binary recomputes every figure per run; this
//! daemon inverts that shape for repeated traffic — characterization
//! studies, dashboards, CI — by keeping the trace suite, the calibrated
//! models and a [`ResultStore`] resident, and answering queries over
//! TCP. Cached operating points come back without simulating; misses are
//! simulated once through the work-stealing parallel runner and stored.
//! Each trace is built on first miss, in a table shared by every clone
//! of the context, so a daemon answering only hits builds none.
//!
//! ## Protocol
//!
//! Newline-delimited JSON over a plain TCP socket. One request object
//! per line, one response object per line, in order. Requests:
//!
//! ```text
//! {"experiment": "ping"}
//! {"experiment": "stats"}
//! {"experiment": "metrics"}                → latency histograms + counters
//! {"experiment": "sweep"}                  → all 13 voltages
//! {"experiment": "sweep", "vcc": 575}      → one operating point
//! {"experiment": "sweep", "vccs": [575, 500]} → those points, in order
//! {"experiment": "table1", "vcc": 500}     → quantitative Table 1 rows
//! {"experiment": "stalls", "vcc": 575}     → §5.2 stall attribution
//! {"experiment": "shutdown"}
//! ```
//!
//! Every response carries `"ok"`; successes echo the experiment and a
//! `"cached"` flag (true when *this request* performed zero
//! simulations), failures carry `"error"`. Malformed lines never kill
//! the connection.
//!
//! `stats` additionally reports store health: `store_degraded` (the
//! store latched memory-only mode after a publish exhausted its
//! retries), `quarantined` (records moved aside after failed reads),
//! `retries`, `write_failures` and `orphans_swept`, and `segments_read`
//! (segment files the store has read and checked). The daemon keeps
//! answering queries in degraded mode — the disk is an optimization,
//! never a dependency (see DESIGN.md §9). `metrics` returns the
//! [`metrics::Metrics`] registry: fixed-bucket per-op latency
//! histograms, the dispatch-queue gauge, connection outcomes, and the
//! store's hit-rate (DESIGN.md §11).
//!
//! ## Concurrency model
//!
//! One **event-loop thread** owns every socket through a raw-`epoll`
//! [`reactor`]: nonblocking accept, NDJSON framing over partial reads,
//! response flushing under write backpressure, and idle/stall deadlines
//! as the epoll timeout — so idle or slow clients cost zero threads (see
//! [`conn`]). Complete request lines are dispatched to a bounded pool of
//! [`ServeOptions::threads`] workers; a simulating request additionally
//! fans out over the context's own parallelism. When
//! [`max_connections`](ServeOptions::max_connections) connections are
//! open, excess clients are refused immediately with the typed busy
//! error `{"ok": false, "error": "busy: …", "busy": true}` instead of
//! queueing unboundedly. Identical concurrent cold queries are
//! deduplicated by the store's single-flight layer — one engine
//! invocation per key, everyone else reuses the published result.
//!
//! A peer that never sends a full line is reaped at the idle deadline;
//! one that stops draining its response is cut at the write-stall
//! deadline (slow-loris hardening). `shutdown` answers, stops
//! accepting, refuses queued lines with the shutting-down error, closes
//! each connection as its last response flushes, and force-closes
//! whatever is still stalled at
//! [`drain_deadline`](ServeOptions::drain_deadline) — a wedged *peer*
//! cannot postpone daemon exit. (A request already inside the engine is
//! the one thing the deadline does not cut: simulations have no
//! cancellation point, so exit waits for them and their results are
//! published to the store.) Every connection outcome lands in the
//! [`metrics`] registry, surfaced by `stats`/`metrics` and logged to
//! stderr.
//!
//! ## Sharding
//!
//! `--shards N` runs N such daemons, each owning a deterministic slice
//! of the operating points via the [`shard`] consistent-hash ring over
//! millivolts, behind a [`router`] that needs only the shards'
//! addresses: it forwards each request to the shard owning its voltage,
//! sends each shard its slice of a multi-point sweep as one `"vccs"`
//! request, and merges the points byte-identically with the
//! single-process daemon. Each shard persists exactly what it computes.

use std::io;
use std::net::TcpListener;
use std::time::Duration;

use lowvcc_bench::experiments::{point_json, stalls, sweep, table1};
use lowvcc_bench::{json, ExperimentContext, ExperimentError, ResultStore};
use lowvcc_sram::{Millivolts, VoltageError, PAPER_SWEEP};

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub mod conn;
pub mod metrics;
pub mod reactor;
pub mod router;
pub mod shard;

use metrics::{Metrics, Op};

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Cache-traffic counters and suite identity.
    Stats,
    /// Latency histograms, queue gauge and connection counters.
    Metrics,
    /// The Figure 11b/12 measurement — one voltage, or the full grid.
    Sweep(Option<Millivolts>),
    /// The Figure 11b/12 measurement at each listed voltage, answered in
    /// the full grid's shape, in the order given (`"vccs"`; how the
    /// router sends a shard its slice of the grid).
    SweepSlice(Vec<Millivolts>),
    /// Quantitative Table 1 rows at a voltage (default
    /// [`table1::DEFAULT_VCC`]).
    Table1(Millivolts),
    /// §5.2 stall attribution at a voltage (default
    /// [`stalls::DEFAULT_VCC`]).
    Stalls(Millivolts),
    /// Stop accepting and exit the serve loop.
    Shutdown,
}

/// Why a request line was rejected before reaching an experiment.
///
/// Typed so callers (and tests) can match on the failure instead of
/// string-comparing; [`fmt::Display`] renders the protocol-level
/// message the daemon sends back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line was not valid JSON.
    Json(json::JsonError),
    /// The request object has no string `"experiment"` field.
    MissingExperiment,
    /// The `"experiment"` field names no known experiment.
    UnknownExperiment(String),
    /// The `"vcc"` field is not a whole number.
    VccNotInteger,
    /// The `"vcc"` field does not fit a millivolt count.
    VccOutOfRange(u64),
    /// The voltage is outside the calibrated model range.
    Voltage(VoltageError),
    /// The `"vccs"` field is not a non-empty list.
    VccsNotList,
    /// The `"vccs"` list names a voltage twice.
    VccsRepeated(Millivolts),
    /// The request carries both `"vcc"` and `"vccs"`.
    VccAndVccs,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "{e}"),
            Self::MissingExperiment => write!(f, "request needs a string \"experiment\" field"),
            Self::UnknownExperiment(other) => write!(f, "unknown experiment {other:?}"),
            Self::VccNotInteger => write!(f, "\"vcc\" must be a whole number of millivolts"),
            Self::VccOutOfRange(mv) => write!(f, "\"vcc\" {mv} out of range"),
            Self::Voltage(e) => write!(f, "{e}"),
            Self::VccsNotList => write!(f, "\"vccs\" must be a non-empty list of millivolts"),
            Self::VccsRepeated(mv) => write!(f, "\"vccs\" lists {mv} twice"),
            Self::VccAndVccs => write!(f, "a request takes \"vcc\" or \"vccs\", not both"),
        }
    }
}

impl std::error::Error for RequestError {}

fn parse_vcc(v: &json::Value) -> Result<Millivolts, RequestError> {
    let raw = v.as_u64().ok_or(RequestError::VccNotInteger)?;
    let mv = u32::try_from(raw).map_err(|_| RequestError::VccOutOfRange(raw))?;
    Millivolts::new(mv).map_err(RequestError::Voltage)
}

fn parse_vccs(v: &json::Value) -> Result<Vec<Millivolts>, RequestError> {
    let list = v
        .as_array()
        .filter(|list| !list.is_empty())
        .ok_or(RequestError::VccsNotList)?;
    let mut vccs = Vec::with_capacity(list.len());
    for entry in list {
        let vcc = parse_vcc(entry)?;
        if vccs.contains(&vcc) {
            return Err(RequestError::VccsRepeated(vcc));
        }
        vccs.push(vcc);
    }
    Ok(vccs)
}

fn parse_sweep(v: &json::Value) -> Result<Request, RequestError> {
    match (v.get("vcc"), v.get("vccs")) {
        (Some(_), Some(_)) => Err(RequestError::VccAndVccs),
        (None, Some(list)) => Ok(Request::SweepSlice(parse_vccs(list)?)),
        (vcc, None) => Ok(Request::Sweep(vcc.map(parse_vcc).transpose()?)),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`RequestError`] for malformed JSON, unknown experiments,
/// or out-of-model voltages; its `Display` form is the message the
/// daemon sends back.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = json::parse(line).map_err(RequestError::Json)?;
    let experiment = v
        .get("experiment")
        .and_then(json::Value::as_str)
        .ok_or(RequestError::MissingExperiment)?;
    match experiment {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "sweep" => parse_sweep(&v),
        "table1" => Ok(Request::Table1(
            v.get("vcc").map_or(Ok(table1::DEFAULT_VCC), parse_vcc)?,
        )),
        "stalls" => Ok(Request::Stalls(
            v.get("vcc").map_or(Ok(stalls::DEFAULT_VCC), parse_vcc)?,
        )),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(RequestError::UnknownExperiment(other.to_string())),
    }
}

/// The [`metrics::Op`] class of a parse outcome — errors are tracked
/// too, under [`Op::Invalid`].
#[must_use]
pub fn op_of(parsed: &Result<Request, RequestError>) -> Op {
    match parsed {
        Ok(Request::Ping) => Op::Ping,
        Ok(Request::Stats) => Op::Stats,
        Ok(Request::Metrics) => Op::Metrics,
        Ok(Request::Sweep(Some(_))) => Op::SweepPoint,
        Ok(Request::Sweep(None)) => Op::SweepFull,
        Ok(Request::SweepSlice(_)) => Op::SweepSlice,
        Ok(Request::Table1(_)) => Op::Table1,
        Ok(Request::Stalls(_)) => Op::Stalls,
        Ok(Request::Shutdown) => Op::Shutdown,
        Err(_) => Op::Invalid,
    }
}

/// Tuning knobs for the concurrent serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads computing request responses (the `--threads`
    /// flag). Clamped up to 1. Sockets live on the event loop, not on
    /// workers — this bounds *concurrent request compute*, and a
    /// simulating request additionally fans out over the context's
    /// `--jobs` parallelism.
    pub threads: usize,
    /// Connections open before the accept gate refuses new clients with
    /// the typed `busy` error (the `--max-connections` flag). Clamped
    /// up to 1.
    pub max_connections: usize,
    /// Idle deadline: a peer with no request in flight and no undrained
    /// response is disconnected after this long without sending a
    /// complete line.
    pub read_timeout: Duration,
    /// Write-stall deadline: a peer that stops draining its response is
    /// disconnected after this long without write progress (slow-loris
    /// hardening).
    pub write_timeout: Duration,
    /// After a `shutdown` request, how long still-open connections get
    /// to drain before being force-closed.
    pub drain_deadline: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().max(4)),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(2),
        }
    }
}

impl ServeOptions {
    pub(crate) fn clamped(self) -> Self {
        Self {
            threads: self.threads.max(1),
            max_connections: self.max_connections.max(1),
            ..self
        }
    }
}

/// Point-in-time copy of the serve-loop counters (the daemon-level
/// companion to the store's `StoreStats`), snapshotted from the
/// [`metrics::Metrics`] registry. Every accepted connection ends in
/// exactly one terminal bucket, so `accepted` always equals the sum
/// `completed + connection_errors + timeouts + worker_panics +
/// force_closed` once the daemon has exited (`drain_refused` counts
/// *request lines* answered with the shutting-down error, not
/// connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSnapshot {
    /// Connections accepted and registered with the event loop.
    pub accepted: u64,
    /// Connections served to completion (EOF or clean close).
    pub completed: u64,
    /// Connections refused with the `busy` error at the accept gate
    /// (never registered, so not part of `accepted`).
    pub refused_busy: u64,
    /// Connections ended by an I/O error (reported, not dropped).
    pub connection_errors: u64,
    /// Connections cut loose by the idle or write-stall deadline.
    pub timeouts: u64,
    /// Idle connections reaped by the idle deadline — the subset of
    /// `timeouts` with no pending output.
    pub idle_reaped: u64,
    /// Connections whose request handler panicked (the worker
    /// survives).
    pub worker_panics: u64,
    /// Connections closed by the shutdown drain (at the deadline, or as
    /// soon as their last response flushed).
    pub force_closed: u64,
    /// Request lines answered with the shutting-down error after
    /// shutdown began.
    pub drain_refused: u64,
}

/// The resident daemon state: context (with its store) plus bookkeeping.
pub struct Daemon {
    ctx: ExperimentContext,
    /// The context's result cache, held directly so the hot path never
    /// has to re-prove `ctx.cache` is populated. `new` guarantees this
    /// is the same store `ctx.cache` carries.
    store: Arc<ResultStore>,
    metrics: Arc<Metrics>,
    /// `(ring, index)` when this daemon is shard `index` of a cluster:
    /// bounds [`warm`](Self::warm) and is echoed by the `metrics`
    /// response.
    slice: Option<(shard::Ring, u32)>,
}

impl Daemon {
    /// Wraps a context. A result cache is what makes the daemon useful:
    /// contexts without one get an in-memory (ephemeral) store attached.
    /// The daemon keeps each trace once built
    /// ([`ExperimentContext::with_resident_traces`]), since it answers
    /// grids over the one suite for its whole life.
    #[must_use]
    pub fn new(ctx: ExperimentContext) -> Self {
        let mut ctx = ctx.with_resident_traces();
        let store = Arc::clone(
            ctx.cache
                .get_or_insert_with(|| Arc::new(ResultStore::ephemeral())),
        );
        Self {
            ctx,
            store,
            metrics: Arc::new(Metrics::new()),
            slice: None,
        }
    }

    /// Shard `index` of a cluster partitioned by `ring`: `store` is
    /// attached to `ctx` and names its segments for writer `index`, so
    /// it persists exactly what this shard computes and its
    /// `disk_entries` counts only those records; [`warm`](Self::warm)
    /// pre-fills only this shard's operating points, and the `metrics`
    /// response reports the shard's index and the ring's size.
    #[must_use]
    pub fn shard(
        ctx: ExperimentContext,
        store: ResultStore,
        ring: shard::Ring,
        index: u32,
    ) -> Self {
        let store = store.with_writer(index);
        Self {
            slice: Some((ring, index)),
            ..Self::new(ctx.with_cache(Arc::new(store)))
        }
    }

    /// The wrapped context.
    #[must_use]
    pub fn context(&self) -> &ExperimentContext {
        &self.ctx
    }

    /// The daemon's metrics registry (shared with the serve loop).
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Serve-loop counters so far (connection outcomes, refusals,
    /// force-closes). Also surfaced by the `stats` request.
    #[must_use]
    pub fn serve_counters(&self) -> ServeSnapshot {
        let m = &self.metrics;
        ServeSnapshot {
            accepted: m.accepted.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            refused_busy: m.refused_busy.load(Ordering::Relaxed),
            connection_errors: m.connection_errors.load(Ordering::Relaxed),
            timeouts: m.timeouts.load(Ordering::Relaxed),
            idle_reaped: m.idle_reaped.load(Ordering::Relaxed),
            worker_panics: m.worker_panics.load(Ordering::Relaxed),
            force_closed: m.force_closed.load(Ordering::Relaxed),
            drain_refused: m.drain_refused.load(Ordering::Relaxed),
        }
    }

    fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Pre-fills the store as one grid: the sweep, plus Table 1 and the
    /// stall study at their protocol-default voltages
    /// ([`table1::DEFAULT_VCC`], [`stalls::DEFAULT_VCC`]) — every
    /// operating point on a single daemon, only the voltages the ring
    /// assigns to this shard on a shard (the shards of a cluster
    /// together cover what one daemon covers).
    /// `sweep` queries are then hits at every grid point; a `table1` or
    /// `stalls` query at a *non-default* voltage still simulates its
    /// extra configurations once on first request.
    ///
    /// # Errors
    ///
    /// Propagates simulation and cache failures.
    pub fn warm(&self) -> Result<(), ExperimentError> {
        let ctx = &self.ctx;
        let mut grid = sweep::configs(ctx);
        grid.extend(table1::configs(ctx, table1::DEFAULT_VCC));
        grid.extend(stalls::configs(ctx, stalls::DEFAULT_VCC));
        grid.retain(|cfg| {
            self.slice
                .map_or(true, |(ring, index)| ring.owner(cfg.vcc) == index)
        });
        ctx.run_suite_batch(&grid)?;
        Ok(())
    }

    /// Executes `req`, returning the response line (without newline) and
    /// whether the connection should shut the daemon down.
    #[must_use]
    pub fn handle(&self, req: Request) -> (String, bool) {
        self.respond(req)
            .unwrap_or_else(|e| (conn::error_body(&e.to_string(), false), false))
    }

    /// Parses and executes one raw request line.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let reply = conn::Service::call(self, line);
        (reply.body, reply.stop)
    }

    fn respond(&self, req: Request) -> Result<(String, bool), ExperimentError> {
        // "Did this request simulate?" == did the *calling thread's*
        // miss tally move while we served it. The thread-local (not the
        // store-global counter) keeps the flag accurate while other
        // connections miss concurrently; a request that merely waited
        // on another request's single-flight simulation reports cached.
        let misses_before = ResultStore::thread_misses();
        let cached = || ResultStore::thread_misses() == misses_before;
        match req {
            Request::Ping => Ok((
                json::object(&[("ok", json::boolean(true)), ("pong", json::boolean(true))]),
                false,
            )),
            Request::Shutdown => Ok((
                json::object(&[
                    ("ok", json::boolean(true)),
                    ("shutdown", json::boolean(true)),
                ]),
                true,
            )),
            Request::Metrics => Ok((
                self.metrics.to_json(
                    self.slice.map(|(ring, index)| (index, ring.shards())),
                    &self.store().stats(),
                ),
                false,
            )),
            Request::Stats => {
                // Counting reads this shard's new segments first, so the
                // counters below include them.
                let disk = self.store().disk_entries();
                let s = self.store().stats();
                let c = self.serve_counters();
                Ok((
                    json::object(&[
                        ("ok", json::boolean(true)),
                        ("suite", json::string(&self.ctx.suite_label)),
                        ("suite_uops", self.ctx.total_uops().to_string()),
                        ("hits", s.hits.to_string()),
                        ("misses", s.misses.to_string()),
                        ("stores", s.stores.to_string()),
                        ("coalesced", s.coalesced.to_string()),
                        ("simulated_uops", s.simulated_uops.to_string()),
                        ("disk_entries", disk.to_string()),
                        ("segments_read", s.segments_read.to_string()),
                        ("persistent", json::boolean(self.store().dir().is_some())),
                        ("store_degraded", json::boolean(s.degraded)),
                        ("quarantined", s.quarantined.to_string()),
                        ("retries", s.retries.to_string()),
                        ("write_failures", s.write_failures.to_string()),
                        ("orphans_swept", s.orphans_swept.to_string()),
                        ("connections_accepted", c.accepted.to_string()),
                        ("connections_completed", c.completed.to_string()),
                        ("connections_refused", c.refused_busy.to_string()),
                        ("connection_errors", c.connection_errors.to_string()),
                        ("connection_timeouts", c.timeouts.to_string()),
                        ("idle_reaped", c.idle_reaped.to_string()),
                        ("worker_panics", c.worker_panics.to_string()),
                        ("force_closed", c.force_closed.to_string()),
                        ("drain_refused", c.drain_refused.to_string()),
                    ]),
                    false,
                ))
            }
            Request::Sweep(Some(vcc)) => {
                // One voltage in, one point out.
                let point: String = sweep::run_sweep_at(&self.ctx, [vcc])?
                    .iter()
                    .map(point_json)
                    .collect();
                Ok((
                    json::object(&[
                        ("ok", json::boolean(true)),
                        ("experiment", json::string("sweep")),
                        ("cached", json::boolean(cached())),
                        ("point", point),
                    ]),
                    false,
                ))
            }
            Request::Sweep(None) => Ok((self.sweep_points(PAPER_SWEEP.iter(), cached)?, false)),
            Request::SweepSlice(vccs) => Ok((self.sweep_points(vccs, cached)?, false)),
            Request::Table1(vcc) => {
                let rows = table1::quantitative_rows_at(&self.ctx, vcc)?;
                let rendered: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        json::object(&[
                            ("technique", json::string(&r.technique)),
                            ("frequency_gain", json::number(r.frequency_gain)),
                            ("speedup", json::number(r.speedup)),
                            ("relative_ipc", json::number(r.relative_ipc)),
                            ("area_fraction", json::number(r.area_fraction)),
                            ("energy_factor", json::number(r.energy_factor)),
                            ("hard_to_test", json::boolean(r.hard_to_test)),
                        ])
                    })
                    .collect();
                Ok((
                    json::object(&[
                        ("ok", json::boolean(true)),
                        ("experiment", json::string("table1")),
                        ("vcc_mv", vcc.millivolts().to_string()),
                        ("cached", json::boolean(cached())),
                        ("rows", json::array(&rendered)),
                    ]),
                    false,
                ))
            }
            Request::Stalls(vcc) => {
                let r = stalls::measure_at(&self.ctx, vcc)?;
                Ok((
                    json::object(&[
                        ("ok", json::boolean(true)),
                        ("experiment", json::string("stalls")),
                        ("vcc_mv", vcc.millivolts().to_string()),
                        ("cached", json::boolean(cached())),
                        ("total_degradation", json::number(r.total_degradation)),
                        ("rf_share", json::number(r.rf_share)),
                        ("iq_share", json::number(r.iq_share)),
                        ("dl0_share", json::number(r.dl0_share)),
                        ("other_share", json::number(r.other_share)),
                        ("delayed_fraction", json::number(r.delayed_fraction)),
                    ]),
                    false,
                ))
            }
        }
    }

    /// The sweep at `vccs` as one grid, answered in the full sweep's
    /// shape; `cached` reports whether the request simulated.
    fn sweep_points(
        &self,
        vccs: impl IntoIterator<Item = Millivolts>,
        cached: impl Fn() -> bool,
    ) -> Result<String, ExperimentError> {
        let rendered: Vec<String> = sweep::run_sweep_at(&self.ctx, vccs)?
            .iter()
            .map(point_json)
            .collect();
        Ok(json::object(&[
            ("ok", json::boolean(true)),
            ("experiment", json::string("sweep")),
            ("cached", json::boolean(cached())),
            ("points", json::array(&rendered)),
        ]))
    }

    /// Runs the readiness-driven serve loop with
    /// [`ServeOptions::default`] until a `shutdown` request (or a
    /// listener error). See [`serve_with`](Self::serve_with).
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (per-connection errors only
    /// end that connection, and are counted + logged).
    pub fn serve(&self, listener: &TcpListener) -> io::Result<()> {
        self.serve_with(listener, ServeOptions::default())
    }

    /// Runs the readiness-driven serve loop until a `shutdown` request
    /// (or a listener/reactor error): one event-loop thread owns every
    /// socket, request lines are dispatched to a bounded pool of
    /// `opts.threads` workers sharing this daemon's context and store,
    /// and excess clients beyond `opts.max_connections` are refused with
    /// the typed `busy` error. See [`conn::run`] for the drain
    /// semantics.
    ///
    /// # Errors
    ///
    /// Propagates reactor and listener I/O failures. Per-connection
    /// failures are counted in [`metrics`](Self::metrics) (see
    /// [`serve_counters`](Self::serve_counters)), never silently
    /// dropped, and never kill the daemon.
    pub fn serve_with(&self, listener: &TcpListener, opts: ServeOptions) -> io::Result<()> {
        conn::run(self, &self.metrics, listener, opts)
    }
}

impl conn::Service for Daemon {
    fn call(&self, line: &str) -> conn::Reply {
        let parsed = parse_request(line);
        let op = op_of(&parsed);
        let (body, stop) = match parsed {
            Ok(req) => self.handle(req),
            Err(e) => (conn::error_body(&e.to_string(), false), false),
        };
        conn::Reply { body, stop, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon() -> Daemon {
        Daemon::new(ExperimentContext::sized(1, 2_000).expect("tiny suite builds"))
    }

    #[test]
    fn parses_the_protocol() {
        assert_eq!(parse_request(r#"{"experiment":"ping"}"#), Ok(Request::Ping));
        assert_eq!(
            parse_request(r#"{"experiment":"sweep"}"#),
            Ok(Request::Sweep(None))
        );
        assert_eq!(
            parse_request(r#"{"experiment":"sweep","vcc":575}"#),
            Ok(Request::Sweep(Some(Millivolts::new(575).unwrap())))
        );
        assert_eq!(
            parse_request(r#"{"experiment":"table1"}"#),
            Ok(Request::Table1(Millivolts::new(500).unwrap()))
        );
        assert_eq!(
            parse_request(r#"{"experiment":"metrics"}"#),
            Ok(Request::Metrics)
        );
        assert_eq!(
            parse_request(r#"{"experiment":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert!(parse_request("not json").is_err());
        for name in ["lunch", "peer_get"] {
            let line =
                format!(r#"{{"experiment":"{name}","key":"00112233445566778899aabbccddeeff"}}"#);
            assert_eq!(
                parse_request(&line),
                Err(RequestError::UnknownExperiment(name.to_string()))
            );
        }
        assert_eq!(
            parse_request(r#"{"experiment":"sweep","vccs":[575,500]}"#),
            Ok(Request::SweepSlice(vec![
                Millivolts::new(575).unwrap(),
                Millivolts::new(500).unwrap()
            ]))
        );
        assert!(parse_request(r#"{"experiment":"sweep","vcc":"high"}"#).is_err());
        assert!(parse_request(r#"{"experiment":"sweep","vcc":12345}"#).is_err());
        assert!(parse_request(r#"{"vcc":500}"#).is_err());
    }

    #[test]
    fn ping_and_malformed_lines_answer_inline() {
        let d = daemon();
        let (resp, stop) = d.handle_line(r#"{"experiment":"ping"}"#);
        assert!(!stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        let (resp, stop) = d.handle_line("garbage");
        assert!(!stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("error").is_some());

        let (resp, stop) = d.handle_line(r#"{"experiment":"peer_get"}"#);
        assert!(!stop);
        assert_eq!(
            resp,
            r#"{"ok": false, "error": "unknown experiment \"peer_get\""}"#
        );
    }

    #[test]
    fn sweep_point_misses_then_hits() {
        let d = daemon();
        let vcc = r#"{"experiment":"sweep","vcc":575}"#;
        let (first, _) = d.handle_line(vcc);
        let v = json::parse(&first).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(false));
        let p = v.get("point").unwrap();
        assert_eq!(p.get("vcc_mv").unwrap().as_u64(), Some(575));
        assert!(p.get("speedup").unwrap().as_f64().unwrap() > 0.5);

        let (second, _) = d.handle_line(vcc);
        let v2 = json::parse(&second).unwrap();
        assert_eq!(
            v2.get("cached").unwrap().as_bool(),
            Some(true),
            "repeat query must be answered from the store"
        );
        // Identical payload both times — the determinism the cache
        // relies on, observable at the protocol level.
        assert_eq!(v.get("point"), v2.get("point"));
    }

    /// The `point` of a response, re-rendered canonically.
    fn point_of(body: &str) -> String {
        let v = json::parse(body).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{body}");
        json::render(v.get("point").expect("a point"))
    }

    /// The `points` of a response, re-rendered canonically.
    fn points_of(body: &str) -> Vec<String> {
        let v = json::parse(body).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{body}");
        let points = v.get("points").and_then(json::Value::as_array);
        points.expect("points").iter().map(json::render).collect()
    }

    #[test]
    fn a_slice_answers_each_point_in_the_order_given() {
        let d = daemon();
        let want: Vec<String> = [575, 500]
            .iter()
            .map(|mv| {
                point_of(
                    &d.handle_line(&format!(r#"{{"experiment":"sweep","vcc":{mv}}}"#))
                        .0,
                )
            })
            .collect();
        let (slice, stop) = d.handle_line(r#"{"experiment":"sweep","vccs":[575,500]}"#);
        assert!(!stop);
        assert!(slice.contains(r#""cached": true"#), "{slice}");
        assert_eq!(points_of(&slice), want);
        let (reversed, _) = d.handle_line(r#"{"experiment":"sweep","vccs":[500,575]}"#);
        assert_eq!(points_of(&reversed), [want[1].clone(), want[0].clone()]);
        // The serve loop counts a slice under its own op, never as points.
        let parsed = parse_request(r#"{"experiment":"sweep","vccs":[575,500]}"#);
        assert_eq!(op_of(&parsed), Op::SweepSlice);
    }

    #[test]
    fn a_slice_of_the_whole_grid_is_the_full_sweep() {
        let d = daemon();
        let (cold, _) = d.handle_line(r#"{"experiment":"sweep"}"#);
        assert!(cold.contains(r#""cached": false"#), "{cold}");
        let all: Vec<String> = PAPER_SWEEP
            .iter()
            .map(|v| v.millivolts().to_string())
            .collect();
        let line = format!(r#"{{"experiment":"sweep","vccs":[{}]}}"#, all.join(","));
        let (slice, _) = d.handle_line(&line);
        let (full, _) = d.handle_line(r#"{"experiment":"sweep"}"#);
        assert_eq!(slice, full);
        assert_eq!(
            full,
            cold.replace(r#""cached": false"#, r#""cached": true"#)
        );
    }

    #[test]
    fn a_malformed_slice_answers_an_error_object() {
        let d = daemon();
        for (line, error) in [
            (
                r#"{"experiment":"sweep","vccs":[]}"#,
                r#""vccs" must be a non-empty list of millivolts"#,
            ),
            (
                r#"{"experiment":"sweep","vccs":575}"#,
                r#""vccs" must be a non-empty list of millivolts"#,
            ),
            (
                r#"{"experiment":"sweep","vccs":[575,"low"]}"#,
                r#""vcc" must be a whole number of millivolts"#,
            ),
            (
                r#"{"experiment":"sweep","vccs":[575.5]}"#,
                r#""vcc" must be a whole number of millivolts"#,
            ),
            (r#"{"experiment":"sweep","vccs":[575,5000]}"#, "5000 mV"),
            (r#"{"experiment":"sweep","vccs":[575,575]}"#, "575 mV twice"),
            (
                r#"{"experiment":"sweep","vcc":575,"vccs":[500]}"#,
                r#"a request takes "vcc" or "vccs", not both"#,
            ),
        ] {
            let (resp, stop) = d.handle_line(line);
            assert!(!stop, "{line}");
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{line}");
            let got = v.get("error").and_then(json::Value::as_str).unwrap();
            assert!(got.contains(error), "{line}: {got}");
        }
        let (stats, _) = d.handle_line(r#"{"experiment":"stats"}"#);
        assert!(stats.contains(r#""misses": 0"#), "nothing ran: {stats}");
    }

    #[test]
    fn stats_reflect_traffic_and_shutdown_stops() {
        let d = daemon();
        let (_, _) = d.handle_line(r#"{"experiment":"sweep","vcc":500}"#);
        let (resp, _) = d.handle_line(r#"{"experiment":"stats"}"#);
        let v = json::parse(&resp).unwrap();
        assert!(v.get("misses").unwrap().as_u64().unwrap() > 0);
        assert_eq!(v.get("persistent").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("connections_accepted").unwrap().as_u64(), Some(0));
        // Store-health fields: a healthy ephemeral store is all-clear.
        assert_eq!(v.get("store_degraded").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("quarantined").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("retries").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("write_failures").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("orphans_swept").unwrap().as_u64(), Some(0));

        let (resp, stop) = d.handle_line(r#"{"experiment":"shutdown"}"#);
        assert!(stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn metrics_request_reports_histograms_and_hit_rate() {
        let d = daemon();
        let (_, _) = d.handle_line(r#"{"experiment":"sweep","vcc":575}"#);
        let (resp, stop) = d.handle_line(r#"{"experiment":"metrics"}"#);
        assert!(!stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("metrics"));
        assert!(v.get("shard_index").is_none(), "unsharded daemon");
        let store = v.get("store").unwrap();
        assert!(store.get("hit_rate").is_some());
        let ops = v.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), metrics::Op::ALL.len());
    }

    #[test]
    fn options_clamp_degenerate_values() {
        let o = ServeOptions {
            threads: 0,
            max_connections: 0,
            ..ServeOptions::default()
        }
        .clamped();
        assert_eq!(o.threads, 1);
        assert_eq!(o.max_connections, 1);
        assert!(ServeOptions::default().threads >= 4);
    }
}
