//! The cluster front door: a request router over N shard daemons.
//!
//! A [`Router`] speaks the same NDJSON protocol as a single
//! [`Daemon`] and is served by the same readiness-driven loop
//! ([`crate::conn::run`]). Its only state is the shard addresses: it
//! owns no suite, no models, no simulator and no store — it classifies
//! each request, forwards it **verbatim** to the shard the
//! consistent-hash [`Ring`] assigns the request's voltage, and relays
//! the shard's response bytes unchanged. Multi-point sweeps (the full
//! grid, or a client's `"vccs"` list) are the one request that spans
//! shards: the router sends each owning shard its slice of the voltages
//! as one `"vccs"` line, all in parallel, then merges the returned
//! points back into request order through the canonical JSON renderer —
//! producing a response **byte-identical** to a single-process daemon's
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
//! ## Links
//!
//! The router keeps a small stack of idle **links** per shard: a
//! connected socket plus the reader that buffers its replies. A relay
//! pops one (or dials a fresh one), and pushes it back only after it has
//! read every response of its conversation; an I/O error drops it. The
//! stack's lock is never held across I/O, and its size is bounded by
//! how many relays run at once. A reused link can be stale — the shard
//! reaped it at its idle deadline, or restarted — so a failure on a
//! reused link clears the shard's idle stack and the conversation goes
//! out once more on a fresh link; only that second outcome counts
//! against the breaker. Every request is a read-only query or
//! `shutdown`, so sending it twice is safe.
//!
//! Fan-outs (a multi-point sweep, `stats`, `metrics`, `shutdown`) spawn
//! no thread: the serving worker writes every shard's conversation, then
//! reads each shard's replies in turn, so the shards still compute in
//! parallel. Each fan-out sends a shard one short line and a shard
//! buffers its replies, so no write waits on a read.
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
//! on its own thread (the only threads this module spawns). The CLI's
//! `--shards N` flag and the integration tests both go through it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lowvcc_bench::lockdep::OrderedMutex;
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
    /// Links dialled to this shard (a stale-link retry dials one more).
    links_opened: AtomicU64,
    /// Conversations sent over an idle link instead of a fresh one.
    links_reused: AtomicU64,
}

/// One pooled connection to a shard: the socket, inside the reader that
/// buffers its replies (writes go through [`BufReader::get_ref`]).
type Link = BufReader<TcpStream>;

/// A conversation written to a link whose replies are not yet read.
struct Sent {
    link: Link,
    reused: bool,
}

/// One failed relay attempt, and whether it failed on a reused link
/// (which may be stale, and earns one retry on a fresh link).
struct Failed {
    error: String,
    reused: bool,
}

/// What the breaker lets a relay do.
enum Admission {
    /// Closed breaker: relay with retries.
    Normal,
    /// This caller claimed the half-open probe: one attempt, no retry.
    Probe,
    /// Open breaker still cooling down (or a probe is in flight).
    Refused,
    /// Breaker-blind (`shutdown`): one attempt, and the breaker is
    /// neither asked nor told.
    Bypass,
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
    /// Each shard's idle links (lock class `serve.links`, never held
    /// across I/O and never nested with another class).
    links: Vec<OrderedMutex<Vec<Link>>>,
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
        let links = shards
            .iter()
            .map(|_| OrderedMutex::new("serve.links", Vec::new()))
            .collect();
        Self {
            shards,
            ring,
            relay_timeout: DEFAULT_RELAY_TIMEOUT,
            retry: RetryPolicy::default(),
            probe_after: DEFAULT_PROBE_AFTER,
            epoch: Instant::now(),
            health,
            links,
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

    /// A transport error message naming shard `index` and its address.
    fn fail(&self, index: usize, what: &str, e: &dyn std::fmt::Display) -> String {
        format!("shard {index} ({}): {what}: {e}", self.shards[index])
    }

    /// The refusal of an open breaker.
    fn refusal(&self, index: usize) -> String {
        format!(
            "shard {index} ({}): circuit breaker open",
            self.shards[index]
        )
    }

    /// Dials a fresh link to shard `index`.
    fn dial(&self, index: usize) -> Result<Link, String> {
        let addr = &self.shards[index];
        let stream = match addr.parse::<SocketAddr>() {
            Ok(sock) => TcpStream::connect_timeout(&sock, RELAY_CONNECT_TIMEOUT),
            Err(_) => TcpStream::connect(addr.as_str()),
        }
        .map_err(|e| self.fail(index, "connect", &e))?;
        stream
            .set_read_timeout(Some(self.relay_timeout))
            .map_err(|e| self.fail(index, "set timeout", &e))?;
        stream
            .set_write_timeout(Some(self.relay_timeout))
            .map_err(|e| self.fail(index, "set timeout", &e))?;
        // The whole conversation leaves in one write on a no-delay
        // socket: a line and its newline sent apart make Nagle hold the
        // newline until the shard's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| self.fail(index, "set nodelay", &e))?;
        self.health[index].links_opened.fetch_add(1, Relaxed);
        Ok(BufReader::new(stream))
    }

    /// Writes one conversation to shard `index` over an idle link, or
    /// over a fresh one when none is idle or `fresh` is set.
    fn send(&self, index: usize, payload: &str, fresh: bool) -> Result<Sent, Failed> {
        let idle = if fresh {
            None
        } else {
            self.links[index].lock().pop()
        };
        let reused = idle.is_some();
        let link = match idle {
            Some(link) => {
                self.health[index].links_reused.fetch_add(1, Relaxed);
                link
            }
            None => self.dial(index).map_err(|error| Failed {
                error,
                reused: false,
            })?,
        };
        let mut stream = link.get_ref();
        stream.write_all(payload.as_bytes()).map_err(|e| Failed {
            error: self.fail(index, "send", &e),
            reused,
        })?;
        Ok(Sent { link, reused })
    }

    /// Reads one response per line of the conversation `sent` carries,
    /// then returns its link to the shard's idle stack.
    fn receive(&self, index: usize, sent: Sent, lines: usize) -> Result<Vec<String>, Failed> {
        let Sent { mut link, reused } = sent;
        let failed = |error| Failed { error, reused };
        let mut out = Vec::with_capacity(lines);
        for _ in 0..lines {
            let mut resp = String::new();
            let n = link
                .read_line(&mut resp)
                .map_err(|e| failed(self.fail(index, "receive", &e)))?;
            if n == 0 {
                return Err(failed(self.fail(
                    index,
                    "receive",
                    &"connection closed mid-conversation",
                )));
            }
            out.push(resp.trim_end().to_string());
        }
        self.links[index].lock().push(link);
        Ok(out)
    }

    /// Finishes one attempt at a conversation begun by [`Self::send`].
    /// A failure on a reused link is the stale-link case: the shard's
    /// idle stack is cleared and the conversation goes out once more on
    /// a fresh link, whose outcome is the attempt's.
    fn complete(
        &self,
        index: usize,
        payload: &str,
        lines: usize,
        sent: Result<Sent, Failed>,
    ) -> Result<Vec<String>, String> {
        match sent.and_then(|s| self.receive(index, s, lines)) {
            Ok(resps) => Ok(resps),
            Err(Failed { reused: true, .. }) => {
                // Dropped (closed) outside the lock.
                let stale = std::mem::take(&mut *self.links[index].lock());
                drop(stale);
                self.send(index, payload, true)
                    .and_then(|s| self.receive(index, s, lines))
                    .map_err(|f| f.error)
            }
            Err(f) => Err(f.error),
        }
    }

    /// Sends `lines` to shard `index` as one conversation and reads one
    /// response per line, in order. Transport only — no breaker, no
    /// retry beyond the stale-link one ([`Self::settle`] adds both).
    fn relay(&self, index: usize, lines: &[String]) -> Result<Vec<String>, String> {
        let payload = conversation(lines);
        self.complete(
            index,
            &payload,
            lines.len(),
            self.send(index, &payload, false),
        )
    }

    /// Feeds one attempt's `outcome` to shard `index`'s breaker under
    /// `admission`, retrying a failure per [`RetryPolicy`] while the
    /// breaker was closed. A probe gets its one attempt; a refusal or a
    /// bypass is returned as it is.
    fn settle(
        &self,
        index: usize,
        admission: &Admission,
        lines: &[String],
        mut outcome: Result<Vec<String>, String>,
    ) -> Result<Vec<String>, String> {
        let attempts = match admission {
            Admission::Bypass | Admission::Refused => return outcome,
            Admission::Probe => 1,
            Admission::Normal => self.retry.attempts.max(1),
        };
        let mut attempt = 1;
        loop {
            match outcome {
                Ok(resps) => {
                    self.note_success(index);
                    return Ok(resps);
                }
                Err(e) => {
                    self.note_failure(index);
                    if attempt >= attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.retry.delay(attempt, index as u64));
                    attempt += 1;
                    outcome = self.relay(index, lines);
                }
            }
        }
    }

    /// [`Self::relay`] under the shard's circuit breaker: refused
    /// instantly while the breaker cools down, one attempt when this
    /// call claims the half-open probe, retried per [`RetryPolicy`]
    /// otherwise. Every outcome feeds the breaker.
    fn relay_guarded(&self, index: usize, lines: &[String]) -> Result<Vec<String>, String> {
        let admission = self.admit(index);
        let first = match admission {
            Admission::Refused => Err(self.refusal(index)),
            _ => self.relay(index, lines),
        };
        self.settle(index, &admission, lines, first)
    }

    /// Runs one conversation per shard (`None` for a shard whose list is
    /// empty) on the calling thread: writes every admitted conversation
    /// first, then reads each shard's replies in turn, so the shards
    /// compute in parallel. `guarded` puts each shard behind its
    /// breaker ([`Self::settle`]); unguarded, each gets one attempt.
    fn converse(
        &self,
        per_shard: &[Vec<String>],
        guarded: bool,
    ) -> Vec<Option<Result<Vec<String>, String>>> {
        let started: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(index, lines)| {
                if lines.is_empty() {
                    return None;
                }
                let admission = if guarded {
                    self.admit(index)
                } else {
                    Admission::Bypass
                };
                let payload = conversation(lines);
                let sent = match admission {
                    Admission::Refused => None,
                    _ => Some(self.send(index, &payload, false)),
                };
                Some((admission, payload, sent))
            })
            .collect();
        started
            .into_iter()
            .zip(per_shard)
            .enumerate()
            .map(|(index, (started, lines))| {
                let (admission, payload, sent) = started?;
                let first = match sent {
                    Some(sent) => self.complete(index, &payload, lines.len(), sent),
                    None => Err(self.refusal(index)),
                };
                Some(self.settle(index, &admission, lines, first))
            })
            .collect()
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

    /// A multi-point sweep (the full grid, or a client's `"vccs"`): each
    /// owning shard gets its slice of `vccs` as one `"vccs"` line (all
    /// shards computing in parallel), and the returned points merge
    /// back into `vccs` order. A shard whose slice fails has that one
    /// line rerouted around the ring, so one dead shard degrades to
    /// failover instead of failing the sweep. The merged response is
    /// byte-identical to a single daemon's because every point is
    /// re-rendered through the same canonical emitter that produced it,
    /// and `cached` is the conjunction over shards.
    fn sweep_slices(&self, vccs: &[Millivolts]) -> String {
        if self.shards.is_empty() {
            return error_body("no shard reachable: the router has no shards", false);
        }
        let owners: Vec<usize> = vccs.iter().map(|&v| self.owner_of(v) as usize).collect();
        let mut slices: Vec<Vec<String>> = vec![Vec::new(); self.shards.len()];
        for (vcc, &owner) in vccs.iter().zip(&owners) {
            slices[owner].push(vcc.millivolts().to_string());
        }
        // One line for each shard that owns a voltage, none for the rest.
        let per_shard: Vec<Vec<String>> = slices
            .iter()
            .map(|slice| {
                (!slice.is_empty())
                    .then(|| {
                        format!(
                            "{{\"experiment\": \"sweep\", \"vccs\": [{}]}}",
                            slice.join(", ")
                        )
                    })
                    .into_iter()
                    .collect()
            })
            .collect();
        // Each shard's answer as its points in slice order, or the body
        // to answer with if a voltage of the sweep needs one of them.
        let mut cached = true;
        let mut answers: Vec<Result<std::vec::IntoIter<String>, String>> = self
            .converse(&per_shard, true)
            .into_iter()
            .enumerate()
            .map(|(owner, fanned)| {
                let (resp, rerouted) = match fanned {
                    None => return Ok(Vec::new().into_iter()),
                    Some(Ok(mut resps)) => (resps.pop().unwrap_or_default(), false),
                    // The slice failed even after retries (the breaker
                    // is open by now): fail its one line over.
                    Some(Err(_)) => (self.reroute_line(owner, &per_shard[owner][0]), true),
                };
                let (points, slice_cached) = self.slice_points(owner, &resp, rerouted)?;
                cached &= slice_cached;
                Ok(points.into_iter())
            })
            .collect();
        let mut points = Vec::with_capacity(vccs.len());
        for (vcc, owner) in vccs.iter().zip(owners) {
            match &mut answers[owner] {
                Ok(slice) => match slice.next() {
                    Some(point) => points.push(point),
                    None => {
                        return error_body(
                            &format!(
                                "shard {owner} ({}): missing response for {} mV",
                                self.shards[owner],
                                vcc.millivolts()
                            ),
                            false,
                        )
                    }
                },
                Err(body) => return std::mem::take(body),
            }
        }
        json::object(&[
            ("ok", json::boolean(true)),
            ("experiment", json::string("sweep")),
            ("cached", json::boolean(cached)),
            ("points", json::array(&points)),
        ])
    }

    /// Shard `owner`'s answer to its slice: the re-rendered points and
    /// its `cached` flag, or the error body the sweep answers with. An
    /// error from the owner names it; a failed-over answer already names
    /// whoever failed (every shard, when none is reachable), so it is
    /// returned as it is.
    fn slice_points(
        &self,
        owner: usize,
        resp: &str,
        rerouted: bool,
    ) -> Result<(Vec<String>, bool), String> {
        let shard_error = |detail: &str| {
            error_body(
                &format!("shard {owner} ({}): {detail}", self.shards[owner]),
                false,
            )
        };
        let v = json::parse(resp).map_err(|e| shard_error(&format!("unparsable response: {e}")))?;
        if v.get("ok").and_then(json::Value::as_bool) != Some(true) {
            if rerouted {
                return Err(resp.to_string());
            }
            return Err(shard_error(
                v.get("error")
                    .and_then(json::Value::as_str)
                    .unwrap_or("unknown shard error"),
            ));
        }
        let points = v
            .get("points")
            .and_then(json::Value::as_array)
            .ok_or_else(|| shard_error("response has no point"))?;
        Ok((
            points.iter().map(json::render).collect(),
            v.get("cached").and_then(json::Value::as_bool) == Some(true),
        ))
    }

    /// Fans a request to every shard — through the breakers when
    /// `guarded`, else one breaker-blind attempt each (`shutdown`, which
    /// must reach a freshly restarted shard even while its breaker is
    /// still open) — returning each shard's response, or an error body
    /// for an unreachable shard.
    fn fan_out(&self, line: &str, guarded: bool) -> Vec<String> {
        let per_shard = vec![vec![line.to_string()]; self.shards.len()];
        self.converse(&per_shard, guarded)
            .into_iter()
            .flatten()
            .map(|r| match r {
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
                    ("links_opened", h.links_opened.load(Relaxed).to_string()),
                    ("links_reused", h.links_reused.load(Relaxed).to_string()),
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
        let bodies = self.fan_out("{\"experiment\": \"metrics\"}", true);
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
        let bodies = self.fan_out("{\"experiment\": \"stats\"}", true);
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
                let _ = self.fan_out("{\"experiment\": \"shutdown\"}", false);
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
            Request::Sweep(None) => (
                self.sweep_slices(&PAPER_SWEEP.iter().collect::<Vec<_>>()),
                false,
            ),
            Request::SweepSlice(vccs) => (self.sweep_slices(&vccs), false),
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

/// One conversation's bytes: each line newline-terminated, sent in one
/// write.
fn conversation(lines: &[String]) -> String {
    let mut payload = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        payload.push_str(line);
        payload.push('\n');
    }
    payload
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
/// bound to [`ClusterOptions::router_addr`]. The context keeps its
/// traces, and every shard's context is a clone sharing that one table,
/// so the cluster builds each trace at most once. Returns
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
        .with_parallelism(Parallelism::threads(opts.jobs))
        .with_resident_traces();
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

    /// One breaker row's counter, read from the rendered health array.
    fn health_counter(router: &Router, index: usize, field: &str) -> u64 {
        let rows = json::parse(&router.health_json()).expect("health parses");
        rows.as_array().expect("array")[index]
            .get(field)
            .and_then(json::Value::as_u64)
            .expect("counter")
    }

    /// Conversations on a reused link answer at loopback speed: with
    /// Nagle on the shard's socket, each reply after a conversation's
    /// first would wait out the router's delayed ACK (about 40 ms).
    #[test]
    fn a_reused_link_answers_without_the_delayed_ack_stall() {
        const CONVERSATIONS: usize = 20;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shard = Arc::new(Daemon::new(
            lowvcc_bench::ExperimentContext::sized(1, 2_000).expect("tiny suite builds"),
        ));
        let serving = {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || shard.serve(&listener))
        };
        let router = test_router(vec![addr], DEFAULT_PROBE_AFTER);
        let ping = "{\"experiment\": \"ping\"}".to_string();
        let lines = [ping.clone(), ping];
        // The first conversation dials the link; time only reuses.
        router.relay(0, &lines).expect("first conversation");
        let started = Instant::now();
        for _ in 1..CONVERSATIONS {
            let resps = router.relay(0, &lines).expect("conversation");
            assert_eq!(resps, vec![r#"{"ok": true, "pong": true}"#; 2]);
        }
        let elapsed = started.elapsed();
        assert_eq!(health_counter(&router, 0, "links_opened"), 1);
        assert_eq!(
            health_counter(&router, 0, "links_reused"),
            CONVERSATIONS as u64 - 1
        );
        router
            .relay(0, &["{\"experiment\": \"shutdown\"}".to_string()])
            .expect("shutdown");
        serving.join().expect("shard thread").expect("clean exit");
        assert!(
            elapsed < Duration::from_millis(400),
            "{} conversations on a reused link took {elapsed:?}",
            CONVERSATIONS - 1
        );
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
