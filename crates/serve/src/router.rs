//! The cluster front door: a request router over N shard daemons.
//!
//! A [`Router`] speaks the same NDJSON protocol as a single
//! [`Daemon`] and is served by the same readiness-driven loop
//! ([`crate::conn::run`]). Its only state is the shard addresses: it
//! owns no suite, no models, no simulator and no store — it classifies
//! each request, forwards it **verbatim** to the shard the
//! consistent-hash [`Ring`] assigns the request's voltage, and relays
//! the shard's response bytes unchanged. Full-grid sweeps are the one
//! request that spans shards: the router fans the 13 voltages out to
//! their owners in parallel, then merges the returned points back into
//! grid order through the canonical JSON renderer — producing a
//! response **byte-identical** to a single-process daemon's
//! (`json::render` is the emitters' own canonical form, and `f64`
//! round-trips exactly).
//!
//! ## Resilience
//!
//! Every relay goes through a per-shard **circuit breaker**. A closed
//! breaker relays normally, retrying transport failures under the
//! store's own [`RetryPolicy`] discipline (bounded exponential backoff
//! with deterministic jitter). [`BREAKER_STRIKES`] consecutive failures
//! open the breaker: further requests are refused instantly instead of
//! burning a connect timeout each. After [`DEFAULT_PROBE_AFTER`] the
//! next request becomes the **half-open probe** — exactly one, by
//! compare-and-swap — and its outcome either closes the breaker
//! (recovery) or re-opens it with a fresh cooldown.
//!
//! A request whose owning shard is down **fails over** around the
//! ring: the next owner answers from the shared cache or simulates the
//! point itself — results are deterministic, so the bytes match. If
//! *every* shard is unreachable the request is answered with
//! `{"ok": false, "error": "no shard reachable: …"}`, naming each
//! shard's failure; `ping`, `stats` and `metrics` still answer. Only
//! `shutdown` bypasses the breakers: a restarted shard whose breaker
//! has not yet re-closed must still hear it.
//!
//! `stats` and `metrics` are aggregates, not relays: the router sums
//! shard histograms element-wise and pools store traffic into a
//! cluster-wide hit-rate, attaching each shard's verbatim response for
//! drill-down plus a `breakers` health array and the count of
//! malformed shard metrics fields (`metrics_parse_errors` — a silent
//! `unwrap_or(0)` would under-report a shard that answers garbage).
//! `shutdown` fans out to every shard before stopping the router
//! itself.
//!
//! [`start_cluster`] wires the whole thing up in one process: N shard
//! daemons on ephemeral ports — each built by [`Daemon::shard`], so its
//! store names its segments for its shard index — plus the router, each
//! on its own thread. The CLI's `--shards N` flag and the integration tests
//! both go through it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lowvcc_bench::{json, ResultStore, RetryPolicy, StoreStats, SuiteChoice};
use lowvcc_core::Parallelism;
use lowvcc_sram::{Millivolts, PAPER_SWEEP};

use crate::conn::{self, error_body};
use crate::metrics::{op_json, store_json, HistogramSnapshot, Metrics, Op, LATENCY_BUCKETS};
use crate::shard::Ring;
use crate::{op_of, parse_request, Daemon, Request, ServeOptions};

/// How long the router waits on a shard for one relayed response.
/// Generous by default: a cold full-grid point at paper scale simulates
/// for minutes.
pub const DEFAULT_RELAY_TIMEOUT: Duration = Duration::from_secs(600);

/// How long an open breaker refuses traffic before admitting one
/// half-open probe.
pub const DEFAULT_PROBE_AFTER: Duration = Duration::from_secs(1);

/// Consecutive relay failures that open a shard's circuit breaker.
pub const BREAKER_STRIKES: u64 = 3;

/// Bound on one relay's TCP connect (reads use the relay timeout).
const RELAY_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Breaker states, stored in [`ShardHealth::state`].
const CLOSED: u64 = 0;
const OPEN: u64 = 1;
const HALF_OPEN: u64 = 2;

/// One shard's breaker state and lifetime counters (all relaxed
/// atomics: the counters are monotone telemetry, and the one
/// transition that must not race — claiming the half-open probe — is
/// a compare-and-swap).
#[derive(Default)]
struct ShardHealth {
    state: AtomicU64,
    strikes: AtomicU64,
    /// Milliseconds since the router's epoch when the breaker opened.
    opened_at_ms: AtomicU64,
    relay_errors: AtomicU64,
    breaker_opens: AtomicU64,
    probes: AtomicU64,
    recoveries: AtomicU64,
    /// Requests this shard owned that another shard answered.
    failovers: AtomicU64,
}

/// What the breaker lets a relay do.
enum Admission {
    /// Closed breaker: relay with retries.
    Normal,
    /// This caller claimed the half-open probe: one attempt, no retry.
    Probe,
    /// Open breaker still cooling down (or a probe is in flight).
    Refused,
}

/// The cluster front door. Stateless and cheap to construct (no
/// traces, no models, no store): everything it needs is the shard
/// addresses, and the ring over them maps a voltage to its owner.
pub struct Router {
    shards: Vec<String>,
    ring: Ring,
    relay_timeout: Duration,
    retry: RetryPolicy,
    probe_after: Duration,
    epoch: Instant,
    health: Vec<ShardHealth>,
    metrics_parse_errors: AtomicU64,
    metrics: Arc<Metrics>,
}

impl Router {
    /// A router over `shards` (host:port strings): shard `i` of the
    /// ring is `shards[i]`, so the shards must have been started with
    /// the same count, in this order.
    #[must_use]
    pub fn new(shards: Vec<String>) -> Self {
        let ring = Ring::new(u32::try_from(shards.len()).unwrap_or(u32::MAX));
        let health = shards.iter().map(|_| ShardHealth::default()).collect();
        Self {
            shards,
            ring,
            relay_timeout: DEFAULT_RELAY_TIMEOUT,
            retry: RetryPolicy::default(),
            probe_after: DEFAULT_PROBE_AFTER,
            epoch: Instant::now(),
            health,
            metrics_parse_errors: AtomicU64::new(0),
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// The router's own metrics registry (its serve loop records into
    /// it; the `metrics` request additionally aggregates the shards').
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The shard a request at `vcc` routes to.
    #[must_use]
    pub fn owner_of(&self, vcc: Millivolts) -> u32 {
        self.ring.owner(vcc)
    }

    /// Serves the cluster protocol with default options until a
    /// `shutdown` request (which fans out to every shard first).
    ///
    /// # Errors
    ///
    /// Propagates reactor and listener failures, as [`Daemon::serve`].
    pub fn serve(&self, listener: &TcpListener) -> io::Result<()> {
        self.serve_with(listener, ServeOptions::default())
    }

    /// Serves the cluster protocol until a `shutdown` request.
    ///
    /// # Errors
    ///
    /// Propagates reactor and listener failures, as
    /// [`Daemon::serve_with`].
    pub fn serve_with(&self, listener: &TcpListener, opts: ServeOptions) -> io::Result<()> {
        conn::run(self, &self.metrics, listener, opts)
    }

    /// Milliseconds since this router was built (the breakers'
    /// monotonic clock).
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Asks shard `index`'s breaker whether a relay may proceed.
    fn admit(&self, index: usize) -> Admission {
        let h = &self.health[index];
        match h.state.load(Relaxed) {
            OPEN => {
                let opened = h.opened_at_ms.load(Relaxed);
                if self.now_ms().saturating_sub(opened) < ms(self.probe_after) {
                    return Admission::Refused;
                }
                // Cooldown elapsed: exactly one caller wins the probe.
                if h.state
                    .compare_exchange(OPEN, HALF_OPEN, Relaxed, Relaxed)
                    .is_ok()
                {
                    h.probes.fetch_add(1, Relaxed);
                    Admission::Probe
                } else {
                    Admission::Refused
                }
            }
            HALF_OPEN => Admission::Refused,
            _ => Admission::Normal,
        }
    }

    /// Records a successful relay: strikes reset, breaker closes.
    fn note_success(&self, index: usize) {
        let h = &self.health[index];
        h.strikes.store(0, Relaxed);
        if h.state.swap(CLOSED, Relaxed) != CLOSED {
            h.recoveries.fetch_add(1, Relaxed);
        }
    }

    /// Records a failed relay: a failed probe re-opens the breaker
    /// with a fresh cooldown; [`BREAKER_STRIKES`] consecutive failures
    /// open a closed one.
    fn note_failure(&self, index: usize) {
        let h = &self.health[index];
        h.relay_errors.fetch_add(1, Relaxed);
        if h.state.load(Relaxed) == HALF_OPEN {
            h.opened_at_ms.store(self.now_ms(), Relaxed);
            h.state.store(OPEN, Relaxed);
            return;
        }
        let strikes = h.strikes.fetch_add(1, Relaxed) + 1;
        if strikes >= BREAKER_STRIKES {
            // Stamp the open time first so a racing admit cannot see
            // OPEN with a stale timestamp and probe immediately.
            h.opened_at_ms.store(self.now_ms(), Relaxed);
            if h.state
                .compare_exchange(CLOSED, OPEN, Relaxed, Relaxed)
                .is_ok()
            {
                h.breaker_opens.fetch_add(1, Relaxed);
            }
        }
    }

    /// Sends `lines` to shard `index` over one fresh connection and
    /// reads one response per line, in order. Transport only — no
    /// breaker, no retry ([`Self::relay_guarded`] adds both).
    fn relay(&self, index: usize, lines: &[String]) -> Result<Vec<String>, String> {
        let addr = &self.shards[index];
        let fail =
            |what: &str, e: &dyn std::fmt::Display| format!("shard {index} ({addr}): {what}: {e}");
        let stream = match addr.parse::<SocketAddr>() {
            Ok(sock) => TcpStream::connect_timeout(&sock, RELAY_CONNECT_TIMEOUT),
            Err(_) => TcpStream::connect(addr.as_str()),
        }
        .map_err(|e| fail("connect", &e))?;
        stream
            .set_read_timeout(Some(self.relay_timeout))
            .map_err(|e| fail("set timeout", &e))?;
        stream
            .set_write_timeout(Some(self.relay_timeout))
            .map_err(|e| fail("set timeout", &e))?;
        // The whole conversation leaves in one write on a no-delay
        // socket: a line and its newline sent apart make Nagle hold the
        // newline until the shard's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| fail("set nodelay", &e))?;
        let mut conversation = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            conversation.push_str(line);
            conversation.push('\n');
        }
        (&stream)
            .write_all(conversation.as_bytes())
            .map_err(|e| fail("send", &e))?;
        let mut reader = BufReader::new(&stream);
        let mut out = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut resp = String::new();
            let n = reader
                .read_line(&mut resp)
                .map_err(|e| fail("receive", &e))?;
            if n == 0 {
                return Err(fail("receive", &"connection closed mid-conversation"));
            }
            out.push(resp.trim_end().to_string());
        }
        Ok(out)
    }

    /// [`Self::relay`] under the shard's circuit breaker: refused
    /// instantly while the breaker cools down, one attempt when this
    /// call claims the half-open probe, retried per [`RetryPolicy`]
    /// otherwise. Every outcome feeds the breaker.
    fn relay_guarded(&self, index: usize, lines: &[String]) -> Result<Vec<String>, String> {
        match self.admit(index) {
            Admission::Refused => Err(format!(
                "shard {index} ({}): circuit breaker open",
                self.shards[index]
            )),
            Admission::Probe => match self.relay(index, lines) {
                Ok(resps) => {
                    self.note_success(index);
                    Ok(resps)
                }
                Err(e) => {
                    self.note_failure(index);
                    Err(e)
                }
            },
            Admission::Normal => {
                let attempts = self.retry.attempts.max(1);
                let mut last = String::new();
                for attempt in 1..=attempts {
                    match self.relay(index, lines) {
                        Ok(resps) => {
                            self.note_success(index);
                            return Ok(resps);
                        }
                        Err(e) => {
                            self.note_failure(index);
                            last = e;
                            if attempt < attempts {
                                std::thread::sleep(self.retry.delay(attempt, index as u64));
                            }
                        }
                    }
                }
                Err(last)
            }
        }
    }

    /// Relays one line to shard `owner`, failing over around the ring
    /// until someone answers. A non-owner shard recomputes the point
    /// deterministically, so the response bytes match what the owner
    /// would have sent. When no shard answers, the error body names
    /// every shard's failure.
    fn reroute_line(&self, owner: usize, raw: &str) -> String {
        let request = [raw.to_string()];
        let mut errors = Vec::new();
        for step in 0..self.shards.len() {
            let index = (owner + step) % self.shards.len();
            match self.relay_guarded(index, &request) {
                Ok(mut resps) => {
                    if step > 0 {
                        self.health[owner].failovers.fetch_add(1, Relaxed);
                    }
                    return resps
                        .pop()
                        .unwrap_or_else(|| error_body("empty shard response", false));
                }
                Err(e) => errors.push(e),
            }
        }
        error_body(&format!("no shard reachable: {}", errors.join("; ")), false)
    }

    /// Relays one raw request line to the shard owning `vcc` — with
    /// failover — returning the response bytes unchanged (the
    /// byte-identity path for `sweep`-at-a-voltage, `table1` and
    /// `stalls`).
    fn relay_to_owner(&self, vcc: Millivolts, raw: &str) -> String {
        self.reroute_line(self.owner_of(vcc) as usize, raw)
    }

    /// Full-grid sweep: fan each voltage to its owning shard (one
    /// connection per shard, all shards in parallel), then merge the
    /// returned points back into `PAPER_SWEEP` order. A shard whose
    /// whole batch fails gets each of its voltages rerouted
    /// individually around the ring, so one dead shard degrades to
    /// failover instead of failing the sweep.
    /// The merged response is byte-identical to a single daemon's
    /// because every point is re-rendered through the same canonical
    /// emitter that produced it, and `cached` is the conjunction over
    /// shards.
    fn full_sweep(&self) -> String {
        if self.shards.is_empty() {
            return error_body("no shard reachable: the router has no shards", false);
        }
        let shards = self.ring.shards() as usize;
        let mut owners: Vec<usize> = Vec::new();
        let mut per_shard: Vec<Vec<String>> = vec![Vec::new(); shards];
        for vcc in PAPER_SWEEP.iter() {
            let owner = self.owner_of(vcc) as usize;
            owners.push(owner);
            per_shard[owner].push(format!(
                "{{\"experiment\": \"sweep\", \"vcc\": {}}}",
                vcc.millivolts()
            ));
        }
        let fanned: Vec<Option<Result<Vec<String>, String>>> = std::thread::scope(|s| {
            let handles: Vec<_> = per_shard
                .iter()
                .enumerate()
                .map(|(i, lines)| {
                    (!lines.is_empty()).then(|| s.spawn(move || self.relay_guarded(i, lines)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("relay thread panicked".to_string()))
                    })
                })
                .collect()
        });
        let mut replies: Vec<std::vec::IntoIter<String>> = Vec::with_capacity(shards);
        let mut rerouted = vec![false; shards];
        for (index, r) in fanned.into_iter().enumerate() {
            match r {
                None => replies.push(Vec::new().into_iter()),
                Some(Ok(resps)) => replies.push(resps.into_iter()),
                Some(Err(_)) => {
                    // The batch failed even after retries (the breaker
                    // is open by now): fail each voltage over
                    // one by one.
                    rerouted[index] = true;
                    let resps: Vec<String> = per_shard[index]
                        .iter()
                        .map(|line| self.reroute_line(index, line))
                        .collect();
                    replies.push(resps.into_iter());
                }
            }
        }
        let mut cached = true;
        let mut points = Vec::with_capacity(owners.len());
        for (vcc, owner) in PAPER_SWEEP.iter().zip(owners) {
            let Some(resp) = replies[owner].next() else {
                return error_body(
                    &format!(
                        "shard {owner} ({}): missing response for {} mV",
                        self.shards[owner],
                        vcc.millivolts()
                    ),
                    false,
                );
            };
            let v = match json::parse(&resp) {
                Ok(v) => v,
                Err(e) => {
                    return error_body(
                        &format!(
                            "shard {owner} ({}): unparsable response: {e}",
                            self.shards[owner]
                        ),
                        false,
                    )
                }
            };
            if v.get("ok").and_then(json::Value::as_bool) != Some(true) {
                if rerouted[owner] {
                    // A failed-over answer already names whoever failed
                    // (every shard, when none is reachable), exactly as
                    // the single-point request would have answered.
                    return resp;
                }
                let detail = v
                    .get("error")
                    .and_then(json::Value::as_str)
                    .unwrap_or("unknown shard error");
                return error_body(
                    &format!("shard {owner} ({}): {detail}", self.shards[owner]),
                    false,
                );
            }
            cached &= v.get("cached").and_then(json::Value::as_bool) == Some(true);
            let Some(point) = v.get("point") else {
                return error_body(
                    &format!(
                        "shard {owner} ({}): response has no point",
                        self.shards[owner]
                    ),
                    false,
                );
            };
            points.push(json::render(point));
        }
        json::object(&[
            ("ok", json::boolean(true)),
            ("experiment", json::string("sweep")),
            ("cached", json::boolean(cached)),
            ("points", json::array(&points)),
        ])
    }

    /// Fans a request to every shard through the breakers, returning
    /// each shard's response (or an error body for unreachable
    /// shards).
    fn fan_out(&self, line: &str) -> Vec<String> {
        let request = [line.to_string()];
        (0..self.shards.len())
            .map(|i| match self.relay_guarded(i, &request) {
                Ok(mut resps) => resps
                    .pop()
                    .unwrap_or_else(|| error_body("empty shard response", false)),
                Err(e) => error_body(&e, false),
            })
            .collect()
    }

    /// Breaker-blind fan-out, one attempt per shard — for `shutdown`,
    /// which must reach a freshly restarted shard even while its
    /// breaker is still open.
    fn fan_out_raw(&self, line: &str) -> Vec<String> {
        let request = [line.to_string()];
        (0..self.shards.len())
            .map(|i| match self.relay(i, &request) {
                Ok(mut resps) => resps
                    .pop()
                    .unwrap_or_else(|| error_body("empty shard response", false)),
                Err(e) => error_body(&e, false),
            })
            .collect()
    }

    /// The per-shard breaker telemetry, as a rendered JSON array.
    fn health_json(&self) -> String {
        let rows: Vec<String> = self
            .health
            .iter()
            .enumerate()
            .map(|(index, h)| {
                let state = match h.state.load(Relaxed) {
                    OPEN => "open",
                    HALF_OPEN => "half_open",
                    _ => "closed",
                };
                json::object(&[
                    ("shard", index.to_string()),
                    ("addr", json::string(&self.shards[index])),
                    ("state", json::string(state)),
                    ("relay_errors", h.relay_errors.load(Relaxed).to_string()),
                    ("breaker_opens", h.breaker_opens.load(Relaxed).to_string()),
                    ("probes", h.probes.load(Relaxed).to_string()),
                    ("recoveries", h.recoveries.load(Relaxed).to_string()),
                    ("failovers", h.failovers.load(Relaxed).to_string()),
                ])
            })
            .collect();
        json::array(&rows)
    }

    /// Cluster `metrics`: element-wise merge of the shards' histograms
    /// and pooled store traffic, with each shard's verbatim response
    /// attached under `"shards"`. Malformed shard fields are *counted*
    /// (`metrics_parse_errors`, cumulative), never silently zeroed;
    /// a downed shard's `ok: false` body is unreachability, not a
    /// parse error, and is skipped.
    fn aggregate_metrics(&self) -> String {
        let bodies = self.fan_out("{\"experiment\": \"metrics\"}");
        let mut store = StoreStats::default();
        let mut ops = [HistogramSnapshot::default(); Op::ALL.len()];
        let mut parse_errors: u64 = 0;
        for body in &bodies {
            let Ok(v) = json::parse(body) else {
                parse_errors += 1;
                continue;
            };
            if v.get("ok").and_then(json::Value::as_bool) != Some(true) {
                continue;
            }
            if let Some(s) = v.get("store") {
                {
                    let mut n = |k: &str| match s.get(k).and_then(json::Value::as_u64) {
                        Some(n) => n,
                        None => {
                            parse_errors += 1;
                            0
                        }
                    };
                    store.hits += n("hits");
                    store.misses += n("misses");
                    store.stores += n("stores");
                    store.coalesced += n("coalesced");
                    store.quarantined += n("quarantined");
                }
                store.degraded |= s.get("degraded").and_then(json::Value::as_bool) == Some(true);
            } else {
                parse_errors += 1;
            }
            let Some(shard_ops) = v.get("ops").and_then(json::Value::as_array) else {
                parse_errors += 1;
                continue;
            };
            for (slot, op) in ops.iter_mut().zip(Op::ALL) {
                let Some(o) = shard_ops
                    .iter()
                    .find(|o| o.get("op").and_then(json::Value::as_str) == Some(op.label()))
                else {
                    parse_errors += 1;
                    continue;
                };
                let (snap, errs) = snapshot_of(o);
                parse_errors += errs;
                *slot = slot.merged(&snap);
            }
        }
        let total = self.metrics_parse_errors.fetch_add(parse_errors, Relaxed) + parse_errors;
        let rendered_ops: Vec<String> = Op::ALL
            .iter()
            .zip(&ops)
            .map(|(&op, snap)| op_json(op, snap))
            .collect();
        json::object(&[
            ("ok", json::boolean(true)),
            ("experiment", json::string("metrics")),
            ("router", json::boolean(true)),
            ("shard_count", self.shards.len().to_string()),
            ("metrics_parse_errors", total.to_string()),
            ("breakers", self.health_json()),
            ("store", store_json(&store)),
            ("ops", json::array(&rendered_ops)),
            ("shards", json::array(&bodies)),
        ])
    }

    /// Cluster `stats`: the router's own connection counters, the
    /// breaker health array, and each shard's verbatim `stats`
    /// response.
    fn aggregate_stats(&self) -> String {
        let bodies = self.fan_out("{\"experiment\": \"stats\"}");
        let c = {
            let m = &self.metrics;
            json::object(&[
                ("accepted", m.accepted.load(Relaxed).to_string()),
                ("completed", m.completed.load(Relaxed).to_string()),
                ("refused", m.refused_busy.load(Relaxed).to_string()),
                ("errors", m.connection_errors.load(Relaxed).to_string()),
                ("timeouts", m.timeouts.load(Relaxed).to_string()),
                ("idle_reaped", m.idle_reaped.load(Relaxed).to_string()),
            ])
        };
        json::object(&[
            ("ok", json::boolean(true)),
            ("router", json::boolean(true)),
            ("shard_count", self.shards.len().to_string()),
            ("connections", c),
            ("breakers", self.health_json()),
            ("shards", json::array(&bodies)),
        ])
    }

    fn route(&self, req: Request, raw: &str) -> (String, bool) {
        match req {
            Request::Ping => (
                json::object(&[("ok", json::boolean(true)), ("pong", json::boolean(true))]),
                false,
            ),
            Request::Shutdown => {
                // Best-effort fan-out: a shard that is already gone must
                // not keep the cluster alive, and an open breaker must
                // not shield a restarted shard from the order.
                let _ = self.fan_out_raw("{\"experiment\": \"shutdown\"}");
                (
                    json::object(&[
                        ("ok", json::boolean(true)),
                        ("shutdown", json::boolean(true)),
                    ]),
                    true,
                )
            }
            Request::Stats => (self.aggregate_stats(), false),
            Request::Metrics => (self.aggregate_metrics(), false),
            Request::Sweep(None) => (self.full_sweep(), false),
            Request::Sweep(Some(vcc)) | Request::Table1(vcc) | Request::Stalls(vcc) => {
                (self.relay_to_owner(vcc, raw), false)
            }
        }
    }
}

impl conn::Service for Router {
    fn call(&self, line: &str) -> conn::Reply {
        let parsed = parse_request(line);
        let op = op_of(&parsed);
        let (body, stop) = match parsed {
            Ok(req) => self.route(req, line),
            Err(e) => (error_body(&e.to_string(), false), false),
        };
        conn::Reply { body, stop, op }
    }
}

/// `Duration` → whole milliseconds, saturating.
fn ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Rebuilds a [`HistogramSnapshot`] from one rendered op object (the
/// wire inverse of [`op_json`]), counting every missing or mistyped
/// field instead of silently zeroing it.
fn snapshot_of(o: &json::Value) -> (HistogramSnapshot, u64) {
    let mut errors: u64 = 0;
    let mut snap = HistogramSnapshot::default();
    {
        let mut field = |k: &str| match o.get(k).and_then(json::Value::as_u64) {
            Some(n) => n,
            None => {
                errors += 1;
                0
            }
        };
        snap.count = field("count");
        snap.total_micros = field("total_us");
    }
    match o.get("buckets").and_then(json::Value::as_array) {
        Some(buckets) => {
            for (slot, b) in snap
                .buckets
                .iter_mut()
                .zip(buckets.iter().take(LATENCY_BUCKETS))
            {
                match b.as_u64() {
                    Some(n) => *slot = n,
                    None => errors += 1,
                }
            }
            if buckets.len() < LATENCY_BUCKETS {
                errors += (LATENCY_BUCKETS - buckets.len()) as u64;
            }
        }
        None => errors += 1,
    }
    (snap, errors)
}

/// Why a cluster failed to start or exited uncleanly.
#[derive(Debug)]
pub enum ClusterError {
    /// Building a shard (suite, store, bind) failed before serving.
    Start(String),
    /// A shard's or the router's serve loop returned an I/O error.
    Serve(io::Error),
    /// A cluster thread panicked.
    ThreadPanicked,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Start(what) => write!(f, "{what}"),
            Self::Serve(e) => write!(f, "serve loop failed: {e}"),
            Self::ThreadPanicked => write!(f, "cluster thread panicked"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Configuration for [`start_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Number of shard daemons (clamped up to 1 by the ring).
    pub shards: u32,
    /// Simulation threads per shard (`--jobs`).
    pub jobs: usize,
    /// Shared on-disk store directory. All shards open the *same*
    /// directory — safe for any number of writers: each shard publishes
    /// what it computes as segments named for its index, with unique
    /// tempfiles and an atomic rename. `None` = per-shard in-memory
    /// stores.
    pub cache: Option<PathBuf>,
    /// Pre-fill each shard's slice of the sweep grid (plus the
    /// default-voltage `table1`/`stalls` points) before serving.
    pub warm: bool,
    /// An LVCB bundle (`lowvcc-store export`) imported into every
    /// shard's store before serving (the router has no store).
    pub warm_bundle: Option<PathBuf>,
    /// Serve-loop options applied to every shard and the router.
    pub serve: ServeOptions,
    /// Router bind address (shards always bind `127.0.0.1:0`).
    pub router_addr: String,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            shards: 2,
            jobs: Parallelism::available().count(),
            cache: None,
            warm: false,
            warm_bundle: None,
            serve: ServeOptions::default(),
            router_addr: "127.0.0.1:0".to_string(),
        }
    }
}

/// A running in-process cluster: N shard daemons plus the router, each
/// on its own thread.
pub struct Cluster {
    router_addr: SocketAddr,
    shard_addrs: Vec<SocketAddr>,
    shards: Vec<Arc<Daemon>>,
    threads: Vec<JoinHandle<io::Result<()>>>,
}

impl Cluster {
    /// Where clients connect.
    #[must_use]
    pub fn router_addr(&self) -> SocketAddr {
        self.router_addr
    }

    /// The shard daemons' addresses, index-aligned with the ring.
    #[must_use]
    pub fn shard_addrs(&self) -> &[SocketAddr] {
        &self.shard_addrs
    }

    /// The shard daemons, index-aligned with the ring.
    #[must_use]
    pub fn shards(&self) -> &[Arc<Daemon>] {
        &self.shards
    }

    /// Waits for the whole cluster to exit (a client's `shutdown`
    /// request fans out through the router).
    ///
    /// # Errors
    ///
    /// Reports the first serve-loop failure or thread panic.
    pub fn join(self) -> Result<(), ClusterError> {
        let mut first_err = None;
        for t in self.threads {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(ClusterError::Serve(e));
                }
                Err(_) => {
                    first_err.get_or_insert(ClusterError::ThreadPanicked);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Builds and starts a full cluster for `choice`: N shard daemons (one
/// thread each, ephemeral ports, each built by [`Daemon::shard`], with
/// optional bundle import and slice warm-up) and the stateless router,
/// bound to [`ClusterOptions::router_addr`]. The suite is built once:
/// every shard's context is a clone sharing the same arenas. Returns
/// once every listener is bound — warm-up proceeds on the shard
/// threads, with early requests queueing in the listen backlog until
/// their shard is ready.
///
/// # Errors
///
/// Reports suite-build, store-open, bundle-import and bind failures.
pub fn start_cluster(choice: SuiteChoice, opts: &ClusterOptions) -> Result<Cluster, ClusterError> {
    let ring = Ring::new(opts.shards);
    let ctx = choice
        .build()
        .map_err(|e| ClusterError::Start(format!("suite: {e}")))?
        .with_parallelism(Parallelism::threads(opts.jobs));
    // Every shard is built before any shard thread starts: opening a
    // store on a shared directory sweeps orphaned publish tempfiles,
    // and must not catch another shard's publish in flight.
    let mut built = Vec::with_capacity(ring.shards() as usize);
    let mut shard_addrs = Vec::with_capacity(ring.shards() as usize);
    for index in 0..ring.shards() {
        let start = |what: &str, e: &dyn std::fmt::Display| {
            ClusterError::Start(format!("shard {index}: {what}: {e}"))
        };
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| start("bind", &e))?;
        shard_addrs.push(listener.local_addr().map_err(|e| start("local addr", &e))?);
        let store = match &opts.cache {
            Some(dir) => ResultStore::open(dir).map_err(|e| start("store", &e))?,
            None => ResultStore::ephemeral(),
        };
        let daemon = Arc::new(Daemon::shard(ctx.clone(), store, ring, index));
        if let Some(bundle) = &opts.warm_bundle {
            daemon
                .store()
                .import_bundle(bundle)
                .map_err(|e| start("bundle", &e))?;
        }
        built.push((listener, daemon));
    }
    let addrs = shard_addrs.iter().map(ToString::to_string).collect();
    let router = Router::new(addrs);
    let shards = built.iter().map(|(_, d)| Arc::clone(d)).collect();
    let listener = TcpListener::bind(&opts.router_addr).map_err(|e| {
        ClusterError::Start(format!("router: cannot bind {}: {e}", opts.router_addr))
    })?;
    let router_addr = listener
        .local_addr()
        .map_err(|e| ClusterError::Start(format!("router: local addr: {e}")))?;
    let (serve, warm) = (opts.serve, opts.warm);
    let mut threads: Vec<JoinHandle<io::Result<()>>> = built
        .into_iter()
        .map(|(listener, daemon)| {
            std::thread::spawn(move || {
                if warm {
                    daemon.warm().map_err(|e| io::Error::other(e.to_string()))?;
                }
                daemon.serve_with(&listener, serve)
            })
        })
        .collect();
    threads.push(std::thread::spawn(move || {
        router.serve_with(&listener, serve)
    }));
    Ok(Cluster {
        router_addr,
        shard_addrs,
        shards,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A router that fails fast: no retries, short relay timeouts, and
    /// an open breaker that admits its probe after `probe_after`.
    fn test_router(shards: Vec<String>, probe_after: Duration) -> Router {
        Router {
            retry: RetryPolicy::none(),
            relay_timeout: Duration::from_secs(2),
            probe_after,
            ..Router::new(shards)
        }
    }

    /// A one-shot shard stand-in: accepts one connection, reads one
    /// line, answers `{"ok": true}`. The relay sends its conversation
    /// in one write, so the first `read` must already end the line.
    fn one_shot_shard(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut buf = [0u8; 256];
                let n = io::Read::read(&mut &stream, &mut buf).expect("read the relayed line");
                assert!(
                    buf[..n].ends_with(b"\n"),
                    "first read is not a whole line: {:?}",
                    String::from_utf8_lossy(&buf[..n])
                );
                let _ = (&stream).write_all(b"{\"ok\": true}\n");
            }
        })
    }

    /// Addresses nobody listens on: reserved, then freed, so relays to
    /// them are refused fast.
    fn parked_addrs(n: usize) -> Vec<String> {
        let parked: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        parked
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect()
    }

    #[test]
    fn breaker_opens_after_strikes_refuses_then_probes_and_recovers() {
        let addr = parked_addrs(1).remove(0);
        let router = test_router(vec![addr.clone()], Duration::from_millis(30));
        let line = ["{\"experiment\": \"ping\"}".to_string()];

        // Three consecutive failures open the breaker…
        for _ in 0..BREAKER_STRIKES {
            assert!(router.relay_guarded(0, &line).is_err());
        }
        assert!(router.health_json().contains("\"state\": \"open\""));

        // …and while it cools down, relays are refused without dialing.
        let err = router.relay_guarded(0, &line).expect_err("refused");
        assert!(err.contains("circuit breaker open"), "got: {err}");
        assert!(err.contains(&addr), "breaker errors carry the addr: {err}");

        // After the cooldown a probe against a revived shard recovers.
        std::thread::sleep(Duration::from_millis(40));
        let revived = loop {
            match TcpListener::bind(&addr) {
                Ok(l) => break l,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let shard = one_shot_shard(revived);
        let resp = router.relay_guarded(0, &line).expect("probe succeeds");
        assert_eq!(resp, vec!["{\"ok\": true}".to_string()]);
        shard.join().expect("shard thread");
        let health = router.health_json();
        assert!(health.contains("\"state\": \"closed\""), "got: {health}");
        assert!(health.contains("\"probes\": 1"), "got: {health}");
        assert!(health.contains("\"recoveries\": 1"), "got: {health}");
        assert!(health.contains("\"breaker_opens\": 1"), "got: {health}");
    }

    #[test]
    fn failed_probes_reopen_the_breaker() {
        let router = test_router(parked_addrs(1), Duration::from_millis(10));
        let line = ["{\"experiment\": \"ping\"}".to_string()];
        for _ in 0..BREAKER_STRIKES {
            assert!(router.relay_guarded(0, &line).is_err());
        }
        std::thread::sleep(Duration::from_millis(15));
        // The probe dials the still-dead shard and fails: re-open.
        assert!(router.relay_guarded(0, &line).is_err());
        let health = router.health_json();
        assert!(health.contains("\"state\": \"open\""), "got: {health}");
        assert!(health.contains("\"probes\": 1"), "got: {health}");
        // Immediately after, the fresh cooldown refuses again.
        let err = router.relay_guarded(0, &line).expect_err("refused");
        assert!(err.contains("circuit breaker open"), "got: {err}");
    }

    #[test]
    fn with_every_shard_down_routed_requests_fail_and_aggregates_answer() {
        let router = test_router(parked_addrs(2), DEFAULT_PROBE_AFTER);
        for line in [
            r#"{"experiment": "sweep", "vcc": 575}"#,
            r#"{"experiment": "sweep"}"#,
            r#"{"experiment": "table1"}"#,
        ] {
            let reply = conn::Service::call(&router, line);
            assert!(!reply.stop);
            let v = json::parse(&reply.body).expect("error body parses");
            assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
            let error = v.get("error").and_then(json::Value::as_str).unwrap_or("");
            // A fleet-wide outage is reported as such, not blamed on the
            // shard whose voltages happened to be rerouted.
            assert!(error.starts_with("no shard reachable"), "{line}: {error}");
        }
        let ping = conn::Service::call(&router, r#"{"experiment": "ping"}"#);
        assert_eq!(ping.body, r#"{"ok": true, "pong": true}"#);
        for line in [r#"{"experiment": "stats"}"#, r#"{"experiment": "metrics"}"#] {
            let v = json::parse(&conn::Service::call(&router, line).body).expect("parses");
            assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
            let breakers = v
                .get("breakers")
                .and_then(json::Value::as_array)
                .expect("breakers array");
            assert_eq!(breakers.len(), 2);
            for b in breakers {
                assert_eq!(
                    b.get("state").and_then(json::Value::as_str),
                    Some("open"),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn a_router_without_shards_answers_instead_of_panicking() {
        let router = Router::new(Vec::new());
        for line in [
            r#"{"experiment": "sweep"}"#,
            r#"{"experiment": "sweep", "vcc": 575}"#,
        ] {
            let body = conn::Service::call(&router, line).body;
            assert!(body.contains("no shard reachable"), "{line}: {body}");
        }
    }

    #[test]
    fn peer_get_is_an_unknown_experiment() {
        let reply = conn::Service::call(&Router::new(Vec::new()), r#"{"experiment":"peer_get"}"#);
        assert!(!reply.stop);
        assert_eq!(
            reply.body,
            r#"{"ok": false, "error": "unknown experiment \"peer_get\""}"#
        );
    }

    #[test]
    fn malformed_shard_metrics_are_counted_not_zeroed() {
        // A well-formed op parses with zero errors.
        let full = vec!["0"; LATENCY_BUCKETS].join(", ");
        let good = json::parse(&format!(
            "{{\"op\": \"ping\", \"count\": 2, \"total_us\": 7, \"buckets\": [{full}]}}"
        ))
        .expect("valid op json");
        let (snap, errs) = snapshot_of(&good);
        assert_eq!((snap.count, snap.total_micros, errs), (2, 7, 0));

        // Missing count + truncated buckets are each counted.
        let bad = json::parse("{\"op\": \"ping\", \"total_us\": 7, \"buckets\": [1]}")
            .expect("valid json");
        let (snap, errs) = snapshot_of(&bad);
        assert_eq!(snap.count, 0);
        assert_eq!(
            errs,
            1 + (LATENCY_BUCKETS as u64 - 1),
            "one missing field plus the short bucket array"
        );

        // No buckets at all is one more structural error.
        let worse = json::parse("{\"op\": \"ping\"}").expect("valid json");
        let (_, errs) = snapshot_of(&worse);
        assert_eq!(errs, 3, "count, total_us and buckets all missing");
    }
}
