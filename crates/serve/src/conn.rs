//! Per-connection state machines and the readiness-driven event loop.
//!
//! One thread owns every socket: it blocks in [`crate::reactor::Reactor::wait`]
//! with a timeout equal to the nearest deadline (idle reap, write
//! stall, or shutdown drain), accepts new peers, frames NDJSON request
//! lines out of partial reads, and flushes response bytes under write
//! backpressure — so thousands of idle or slow clients cost zero
//! threads and zero wakeups. Request *compute* never runs on the loop:
//! complete lines are handed to a bounded worker pool (simulating
//! requests additionally fan out over the context's own parallelism),
//! and completions come back over a wake channel. An idle client
//! therefore holds nothing but a buffer; a slow-loris one is cut at the
//! idle/write deadlines without ever pinning a worker.
//!
//! Shutdown is a state, not a sleep: when a handler returns `stop`, the
//! loop deregisters the listener, answers any queued lines with the
//! shutting-down error, and closes each connection as its last response
//! flushes — blocking on readiness with the drain deadline as the epoll
//! timeout (the 5 ms poll busy-wait of the thread-pool loop is gone).
//! At the deadline, whatever is still open is force-closed; a request
//! already inside the engine still runs to completion (simulations have
//! no cancellation point) and publishes its result before the loop's
//! workers are joined.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lowvcc_bench::json;
use lowvcc_bench::lockdep::OrderedMutex;

use crate::metrics::{Metrics, Op};
use crate::reactor::{Interest, Reactor, Waker};
use crate::ServeOptions;

/// Longest accepted request line (bytes, newline excluded). A peer that
/// exceeds it is a protocol error, not a memory commitment.
pub const MAX_LINE: usize = 1 << 20;

/// The listener's registration token (`u64::MAX` is the reactor's).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// One answered request line: what a [`Service`] hands back to the loop.
#[derive(Debug)]
pub struct Reply {
    /// The response line (no trailing newline).
    pub body: String,
    /// True when this request stops the serve loop (`shutdown`).
    pub stop: bool,
    /// Request class, for the latency histograms.
    pub op: Op,
}

/// What the worker pool runs: one request line in, one [`Reply`] out.
/// Implemented by the shard daemon and the cluster router.
pub trait Service: Sync {
    /// Answers one raw request line. Called on a worker thread; must
    /// not assume any connection state beyond the line itself.
    fn call(&self, line: &str) -> Reply;
}

/// A request line travelling loop → worker.
struct Job {
    conn: u64,
    line: String,
    enqueued: Instant,
}

/// A finished job travelling worker → loop (via the done queue + waker).
struct Done {
    conn: u64,
    outcome: Outcome,
}

enum Outcome {
    Reply(Reply),
    /// Dequeued after shutdown began: answered without computing.
    DrainRefused(String),
    Panicked,
}

/// How one connection ended — every accepted connection lands in
/// exactly one of these, so the counters reconcile against `accepted`.
enum End {
    Completed,
    IdleReaped,
    WriteStalled,
    Error(String),
    ForceClosed,
    Panicked,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into a line.
    read_buf: Vec<u8>,
    /// Response bytes not yet accepted by the kernel.
    write_buf: Vec<u8>,
    /// How much of `write_buf` is already written.
    cursor: usize,
    /// Complete lines waiting their turn (responses stay in request
    /// order: one job in flight per connection).
    pending: VecDeque<String>,
    in_flight: bool,
    peer_eof: bool,
    /// Worker panicked on this connection's request: close as soon as
    /// observed.
    poisoned: bool,
    /// Last byte received or response queued — the idle-reap clock.
    last_activity: Instant,
    /// Last write progress while output is pending — the stall clock.
    write_since: Option<Instant>,
    interest: Interest,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.cursor == self.write_buf.len()
    }

    /// The instant this connection must be acted on, if any. A
    /// connection waiting on its own compute has no deadline — the
    /// engine has no cancellation point, so there is nothing to cut.
    fn deadline(&self, opts: &ServeOptions) -> Option<(Instant, bool)> {
        if !self.flushed() {
            // `write_since` is set whenever output is pending.
            let since = self.write_since.unwrap_or(self.last_activity);
            Some((since + opts.write_timeout, false))
        } else if !self.in_flight && self.pending.is_empty() {
            Some((self.last_activity + opts.read_timeout, true))
        } else {
            None
        }
    }
}

/// Runs the readiness-driven serve loop over `listener` until a
/// handler returns `stop` (or a listener/reactor error), dispatching
/// request lines to a pool of `opts.threads` workers calling `svc`.
/// Connection outcomes, queue depth and per-op latencies land in
/// `metrics`.
///
/// # Errors
///
/// Propagates reactor setup and listener failures. Per-connection
/// failures only end that connection, counted and logged.
pub fn run<S: Service>(
    svc: &S,
    metrics: &Metrics,
    listener: &TcpListener,
    opts: ServeOptions,
) -> io::Result<()> {
    let opts = opts.clamped();
    listener.set_nonblocking(true)?;
    let reactor = Reactor::new()?;
    reactor.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = OrderedMutex::new("serve.jobs", job_rx);
    let done = OrderedMutex::new("serve.done", Vec::<Done>::new());
    let draining = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..opts.threads {
            let job_rx = &job_rx;
            let done = &done;
            let draining = &draining;
            let waker = reactor.waker();
            s.spawn(move || worker(svc, metrics, job_rx, done, draining, waker));
        }
        let result = Loop {
            metrics,
            listener,
            reactor: &reactor,
            opts: &opts,
            job_tx,
            done: &done,
            draining: &draining,
            conns: HashMap::new(),
            next_id: 0,
            drain_at: None,
            listener_armed: true,
        }
        .run();
        // `job_tx` was owned by the loop and is gone: workers drain the
        // queued jobs (refusing them — `draining` is set on every exit
        // path) and exit on channel close; the scope joins them. A
        // simulation already in the engine completes and publishes.
        draining.store(true, Ordering::SeqCst);
        result
    })
}

/// One pool worker: dequeue lines until the channel closes. A panicking
/// handler is caught and reported — the worker (and the daemon)
/// survive it.
fn worker<S: Service>(
    svc: &S,
    metrics: &Metrics,
    job_rx: &OrderedMutex<mpsc::Receiver<Job>>,
    done: &OrderedMutex<Vec<Done>>,
    draining: &AtomicBool,
    waker: Waker,
) {
    loop {
        let next = job_rx.lock().recv();
        let Ok(job) = next else { break };
        let outcome = if draining.load(Ordering::SeqCst) {
            Outcome::DrainRefused(error_body("daemon is shutting down", false))
        } else {
            match catch_unwind(AssertUnwindSafe(|| svc.call(&job.line))) {
                Ok(reply) => {
                    metrics.record(reply.op, job.enqueued.elapsed());
                    Outcome::Reply(reply)
                }
                Err(_) => Outcome::Panicked,
            }
        };
        metrics.job_done();
        done.lock().push(Done {
            conn: job.conn,
            outcome,
        });
        waker.wake();
    }
}

/// Renders the protocol error object `{"ok": false, "error": …}` (with
/// `"busy": true` for accept-gate refusals): the one place every error
/// response of the daemon and the router is built.
pub(crate) fn error_body(error: &str, busy: bool) -> String {
    let mut fields = vec![("ok", json::boolean(false)), ("error", json::string(error))];
    if busy {
        fields.push(("busy", json::boolean(true)));
    }
    json::object(&fields)
}

/// The event loop's state, method-ized so the phases stay readable.
struct Loop<'a> {
    metrics: &'a Metrics,
    listener: &'a TcpListener,
    reactor: &'a Reactor,
    opts: &'a ServeOptions,
    job_tx: mpsc::Sender<Job>,
    done: &'a OrderedMutex<Vec<Done>>,
    draining: &'a AtomicBool,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    drain_at: Option<Instant>,
    listener_armed: bool,
}

impl Loop<'_> {
    fn run(mut self) -> io::Result<()> {
        let mut events = Vec::new();
        loop {
            if self.drain_at.is_some() && self.conns.is_empty() {
                return Ok(());
            }
            let timeout = self.next_timeout();
            self.reactor.wait(&mut events, timeout)?;

            for d in std::mem::take(&mut *self.done.lock()) {
                self.apply_completion(d);
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready()?;
                } else {
                    self.conn_ready(ev.token, ev.readable, ev.writable);
                }
            }
            self.reap_deadlines();
            self.sweep_closable();
        }
    }

    /// The nearest deadline across every connection plus the drain
    /// deadline, as an epoll timeout. `None` = block until an event or
    /// a worker wake — there is nothing to time out.
    fn next_timeout(&self) -> Option<Duration> {
        let mut nearest: Option<Instant> = self.drain_at;
        for conn in self.conns.values() {
            if let Some((at, _)) = conn.deadline(self.opts) {
                nearest = Some(nearest.map_or(at, |n| n.min(at)));
            }
        }
        nearest.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Accepts until the listener would block; gates on
    /// `max_connections` with the typed busy refusal.
    fn accept_ready(&mut self) -> io::Result<()> {
        if !self.listener_armed {
            return Ok(());
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.conns.len() >= self.opts.max_connections {
                self.metrics.refused_busy.fetch_add(1, Ordering::Relaxed);
                refuse(
                    &stream,
                    &error_body(
                        &format!(
                            "busy: {} connections already in flight, retry later",
                            self.opts.max_connections
                        ),
                        true,
                    ),
                );
                continue;
            }
            self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            self.next_id += 1;
            let id = self.next_id;
            // Accepted sockets do not inherit the listener's
            // nonblocking mode on Linux; an fcntl failure here is a
            // counted connection error, never silently swallowed.
            if let Err(e) = stream.set_nonblocking(true) {
                self.count_end(id, &End::Error(format!("cannot set nonblocking: {e}")));
                continue;
            }
            if let Err(e) = self
                .reactor
                .register(stream.as_raw_fd(), id, Interest::READ)
            {
                self.count_end(id, &End::Error(format!("cannot register socket: {e}")));
                continue;
            }
            self.conns.insert(
                id,
                Conn {
                    stream,
                    read_buf: Vec::new(),
                    write_buf: Vec::new(),
                    cursor: 0,
                    pending: VecDeque::new(),
                    in_flight: false,
                    peer_eof: false,
                    poisoned: false,
                    last_activity: Instant::now(),
                    write_since: None,
                    interest: Interest::READ,
                },
            );
        }
    }

    /// Advances one connection's state machine on a readiness event.
    fn conn_ready(&mut self, id: u64, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // closed earlier this iteration
        };
        if writable && !conn.flushed() {
            if let Err(end) = flush(conn) {
                self.close(id, &end);
                return;
            }
        }
        if readable && !conn.peer_eof {
            if let Err(end) = self.read_lines(id) {
                self.close(id, &end);
                return;
            }
        }
        self.pump(id);
    }

    /// Reads until the socket would block, framing complete lines into
    /// the connection's pending queue (or refusing them during drain).
    fn read_lines(&mut self, id: u64) -> Result<(), End> {
        let draining = self.drain_at.is_some();
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(End::Error(format!("read: {e}"))),
            }
        }
        let mut refused = 0u64;
        while let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = conn.read_buf.drain(..=pos).collect();
            let line = match std::str::from_utf8(&raw[..pos]) {
                Ok(s) => s.trim(),
                Err(_) => return Err(End::Error("request line is not valid UTF-8".into())),
            };
            if line.is_empty() {
                continue;
            }
            if draining {
                refused += 1;
                queue_response(conn, &error_body("daemon is shutting down", false));
            } else {
                conn.pending.push_back(line.to_string());
            }
        }
        self.metrics
            .drain_refused
            .fetch_add(refused, Ordering::Relaxed);
        if conn.read_buf.len() > MAX_LINE {
            return Err(End::Error(format!(
                "request line exceeds {MAX_LINE} bytes without a newline"
            )));
        }
        Ok(())
    }

    /// Dispatches the next pending line (one in flight per connection,
    /// so responses stay in request order), flushes, closes if done.
    fn pump(&mut self, id: u64) {
        let draining = self.drain_at.is_some();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !draining && !conn.in_flight {
            if let Some(line) = conn.pending.pop_front() {
                conn.in_flight = true;
                self.metrics.job_enqueued();
                if self
                    .job_tx
                    .send(Job {
                        conn: id,
                        line,
                        enqueued: Instant::now(),
                    })
                    .is_err()
                {
                    // Unreachable while the pool lives (panics are
                    // caught); classified rather than ignored anyway.
                    self.metrics.job_done();
                    self.close(id, &End::Error("no worker available".into()));
                    return;
                }
            }
        }
        self.flush_and_update(id);
    }

    /// Applies one worker completion: queue the response bytes, start
    /// the drain on `stop`, move on to the connection's next line.
    fn apply_completion(&mut self, d: Done) {
        let mut stop = false;
        if let Some(conn) = self.conns.get_mut(&d.conn) {
            match d.outcome {
                Outcome::Reply(reply) => {
                    conn.in_flight = false;
                    queue_response(conn, &reply.body);
                    stop = reply.stop;
                }
                Outcome::DrainRefused(body) => {
                    conn.in_flight = false;
                    self.metrics.drain_refused.fetch_add(1, Ordering::Relaxed);
                    queue_response(conn, &body);
                }
                Outcome::Panicked => {
                    conn.in_flight = false;
                    conn.poisoned = true;
                }
            }
        }
        // else: force-closed while its job ran; the reply is dropped.
        if stop && self.drain_at.is_none() {
            self.begin_drain();
        }
        if let Some(conn) = self.conns.get(&d.conn) {
            if conn.poisoned {
                self.close(d.conn, &End::Panicked);
                return;
            }
        }
        self.pump(d.conn);
    }

    /// Enters the drain state: stop accepting, refuse queued lines,
    /// and let the deadline (as the epoll timeout — no polling) bound
    /// how long still-open peers are waited on.
    fn begin_drain(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        self.drain_at = Some(Instant::now() + self.opts.drain_deadline);
        if self.listener_armed {
            self.reactor.deregister(self.listener.as_raw_fd());
            self.listener_armed = false;
        }
        let mut refused = 0u64;
        for conn in self.conns.values_mut() {
            let dropped = conn.pending.len() as u64;
            refused += dropped;
            conn.pending.clear();
            for _ in 0..dropped {
                queue_response(conn, &error_body("daemon is shutting down", false));
            }
        }
        self.metrics
            .drain_refused
            .fetch_add(refused, Ordering::Relaxed);
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.flush_and_update(id);
        }
    }

    /// Flushes what the kernel will take, fixes the interest set, and
    /// closes the connection once nothing remains to do for it.
    fn flush_and_update(&mut self, id: u64) {
        let draining = self.drain_at.is_some();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !conn.flushed() {
            if let Err(end) = flush(conn) {
                self.close(id, &end);
                return;
            }
        }
        let want = if conn.flushed() {
            Interest::READ
        } else {
            Interest::READ_WRITE
        };
        if want != conn.interest {
            conn.interest = want;
            if let Err(e) = self.reactor.modify(conn.stream.as_raw_fd(), id, want) {
                self.close(id, &End::Error(format!("cannot update interest: {e}")));
                return;
            }
        }
        let idle = conn.flushed() && !conn.in_flight && conn.pending.is_empty();
        if idle && conn.peer_eof {
            self.close(id, &End::Completed);
        } else if idle && draining {
            // Nothing outstanding and the daemon is stopping: cut the
            // still-connected peer loose now rather than at the
            // deadline.
            self.close(id, &End::ForceClosed);
        }
    }

    /// Closes every connection whose idle/stall deadline has passed,
    /// and everything still open once the drain deadline passes.
    fn reap_deadlines(&mut self) {
        let now = Instant::now();
        let mut due: Vec<(u64, End)> = Vec::new();
        for (&id, conn) in &self.conns {
            if let Some((at, idle)) = conn.deadline(self.opts) {
                if now >= at {
                    due.push((
                        id,
                        if idle {
                            End::IdleReaped
                        } else {
                            End::WriteStalled
                        },
                    ));
                }
            }
        }
        for (id, end) in due {
            self.close(id, &end);
        }
        if self.drain_at.is_some_and(|at| now >= at) {
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                self.close(id, &End::ForceClosed);
            }
        }
    }

    /// Closes connections whose terminal condition was reached via a
    /// completion or drain transition outside an I/O event.
    fn sweep_closable(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.flush_and_update(id);
        }
    }

    /// Tears one connection down and tallies its end.
    fn close(&mut self, id: u64, end: &End) {
        if let Some(conn) = self.conns.remove(&id) {
            self.reactor.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.count_end(id, end);
        }
    }

    /// Tallies (and logs) one connection outcome. Every accepted
    /// connection reaches this exactly once.
    fn count_end(&self, id: u64, end: &End) {
        let m = self.metrics;
        match end {
            End::Completed => {
                m.completed.fetch_add(1, Ordering::Relaxed);
            }
            End::IdleReaped => {
                m.timeouts.fetch_add(1, Ordering::Relaxed);
                m.idle_reaped.fetch_add(1, Ordering::Relaxed);
                // lint: allow(no-print) -- operator-facing daemon log; also counted in stats
                eprintln!("lowvcc-serve: connection {id}: timed out waiting on the peer");
            }
            End::WriteStalled => {
                m.timeouts.fetch_add(1, Ordering::Relaxed);
                // lint: allow(no-print) -- operator-facing daemon log; also counted in stats
                eprintln!("lowvcc-serve: connection {id}: peer stopped draining its response");
            }
            End::Error(what) => {
                m.connection_errors.fetch_add(1, Ordering::Relaxed);
                // lint: allow(no-print) -- operator-facing daemon log; also counted in stats
                eprintln!("lowvcc-serve: connection {id}: {what}");
            }
            End::ForceClosed => {
                m.force_closed.fetch_add(1, Ordering::Relaxed);
                // lint: allow(no-print) -- operator-facing daemon log; also counted in stats
                eprintln!("lowvcc-serve: connection {id}: closed by the shutdown drain");
            }
            End::Panicked => {
                m.worker_panics.fetch_add(1, Ordering::Relaxed);
                // lint: allow(no-print) -- operator-facing daemon log; also counted in stats
                eprintln!("lowvcc-serve: connection {id}: handler panicked (worker recovered)");
            }
        }
    }
}

/// Appends one response line to the connection's output and restarts
/// its activity clocks.
fn queue_response(conn: &mut Conn, body: &str) {
    if conn.flushed() {
        // Reclaim the fully-written prefix before growing the buffer.
        conn.write_buf.clear();
        conn.cursor = 0;
    }
    conn.write_buf.extend_from_slice(body.as_bytes());
    conn.write_buf.push(b'\n');
    let now = Instant::now();
    conn.last_activity = now;
    if conn.write_since.is_none() {
        conn.write_since = Some(now);
    }
}

/// Writes as much pending output as the kernel will take. Progress
/// restarts the write-stall clock; a fully drained buffer clears it.
fn flush(conn: &mut Conn) -> Result<(), End> {
    while conn.cursor < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.cursor..]) {
            Ok(0) => return Err(End::Error("write returned zero bytes".into())),
            Ok(n) => {
                conn.cursor += n;
                conn.write_since = Some(Instant::now());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) if conn.peer_eof => {
                // The peer closed first; failing to deliver the tail of
                // a response it will never read is a completed session,
                // not an error.
                conn.write_buf.clear();
                conn.cursor = 0;
                break;
            }
            Err(e) => return Err(End::Error(format!("write: {e}"))),
        }
    }
    if conn.flushed() {
        conn.write_buf.clear();
        conn.cursor = 0;
        conn.write_since = None;
    }
    Ok(())
}

/// Best-effort, nonblocking refusal at the accept gate: write the
/// error line if the fresh socket buffer takes it, then close. Must
/// never be able to wedge the event loop on a slow client.
fn refuse(stream: &TcpStream, line: &str) {
    let _ = stream.set_nonblocking(true);
    let mut payload = Vec::with_capacity(line.len() + 1);
    payload.extend_from_slice(line.as_bytes());
    payload.push(b'\n');
    let mut w = stream;
    let _ = w.write(&payload);
    let _ = stream.shutdown(Shutdown::Both);
}
