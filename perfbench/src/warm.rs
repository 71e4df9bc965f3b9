//! `serve_warm`: a warmed 3-shard cluster under a request mix.
//!
//! Set-up starts an in-process `start_cluster` with no cache dir and
//! warms it with one client pass through the router (every line of the
//! mix once), so the measured phases simulate nothing: store hits,
//! daemon assembly, the reactor and the router's relay and fan-out do
//! all the work. The open-loop phase sends the seeded mix at one fixed
//! rate from two threads and times each request from when it was due;
//! the closed-loop phase then sends back to back on two connections.
//! Every response is compared with an in-process daemon's answer to the
//! same line, ignoring only `cached`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::serve::{
    line_full_sweep, line_ping, line_point, line_stalls, line_table1, matches, start_fleet,
    stop_fleet, sweep_voltages, Client, Reference,
};
use crate::stats::{median, quantile};
use crate::{host, peak_rss_mb, secs, span, Args, Res, Rng};

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Full 13-voltage sweep.
    SweepFull,
    /// `sweep` at one voltage.
    SweepPoint,
    /// `table1` at one voltage.
    Table1,
    /// `stalls` at one voltage.
    Stalls,
    /// `ping`.
    Ping,
}

impl Kind {
    /// Every class.
    pub const ALL: [Kind; 5] = [
        Kind::SweepFull,
        Kind::SweepPoint,
        Kind::Table1,
        Kind::Stalls,
        Kind::Ping,
    ];

    /// The serve tier's label for the class.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::SweepFull => "sweep_full",
            Kind::SweepPoint => "sweep_point",
            Kind::Table1 => "table1",
            Kind::Stalls => "stalls",
            Kind::Ping => "ping",
        }
    }

    /// Single-operating-point requests.
    #[must_use]
    pub fn is_point(self) -> bool {
        matches!(self, Kind::SweepPoint | Kind::Table1 | Kind::Stalls)
    }
}

/// Open-loop request rate, requests per second. Low enough that the
/// two-connection generator stays on schedule: at 200/s a stalled router
/// sweep blocks its lane and the generator runs tens of ms late.
pub const OPEN_RATE: f64 = 50.0;

/// Every distinct line of the mix, by class. `table1` and `stalls` run
/// at their protocol defaults and at two other voltages each.
#[must_use]
pub fn catalog() -> Vec<(Kind, String)> {
    let mut out = vec![(Kind::Ping, line_ping())];
    for mv in sweep_voltages() {
        out.push((Kind::SweepPoint, line_point(mv)));
    }
    for mv in [None, Some(450), Some(550)] {
        out.push((Kind::Table1, line_table1(mv)));
    }
    for mv in [None, Some(475), Some(525)] {
        out.push((Kind::Stalls, line_stalls(mv)));
    }
    out.push((Kind::SweepFull, line_full_sweep()));
    out
}

/// `n` requests of the mix in seeded order. Each class has an equal
/// share: nothing in the repository records how often clients send
/// which request.
#[must_use]
pub fn schedule(seed: u64, n: usize) -> Vec<(Kind, String)> {
    let catalog = catalog();
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            let kind = Kind::ALL[rng.below(Kind::ALL.len())];
            let lines: Vec<&(Kind, String)> = catalog.iter().filter(|(k, _)| *k == kind).collect();
            lines[rng.below(lines.len())].clone()
        })
        .collect()
}

/// What one load phase saw.
#[derive(Debug, Default)]
pub struct Load {
    /// Latency samples in ms, per class.
    pub latency_ms: BTreeMap<Kind, Vec<f64>>,
    /// How late each open-loop send was, ms.
    pub late_ms: Vec<f64>,
    /// Requests completed.
    pub completed: u64,
    /// Wall time of the phase, s.
    pub elapsed_s: f64,
    /// Checked requests, failed requests, first failure descriptions.
    pub checks: Outcome,
}

impl Load {
    fn merge(&mut self, other: Load) {
        for (k, v) in other.latency_ms {
            self.latency_ms.entry(k).or_default().extend(v);
        }
        self.late_ms.extend(other.late_ms);
        self.completed += other.completed;
        self.checks.absorb(other.checks);
    }

    /// Latencies of the classes `keep` selects.
    #[must_use]
    pub fn samples(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.latency_ms
            .iter()
            .filter(|(k, _)| keep(**k))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

/// Sends one line and records its latency from `from`.
fn one(
    client: &mut Client,
    answers: &BTreeMap<String, String>,
    kind: Kind,
    line: &str,
    from: Instant,
    load: &mut Load,
) {
    let got = {
        let _s = span::span("serve.client.request");
        client.request(line)
    };
    let ms = from.elapsed().as_secs_f64() * 1e3;
    let ok = got.as_ref().is_ok_and(|body| matches(answers, line, body));
    load.checks.check(ok, || match &got {
        Ok(body) => format!("wrong answer to {line}: {}", &body[..body.len().min(160)]),
        Err(e) => format!("{line}: {e}"),
    });
    if ok {
        load.completed += 1;
        load.latency_ms.entry(kind).or_default().push(ms);
    }
}

/// Open loop: request `i` is due at `start + i / rate`; two threads on
/// two connections take alternate requests, and each latency runs from
/// the due time, so a stalled request also charges the ones queued
/// behind it.
///
/// # Errors
///
/// Reports connection failures.
pub fn open_loop(
    addr: SocketAddr,
    plan: &[(Kind, String)],
    rate: f64,
    answers: &BTreeMap<String, String>,
) -> Res<Load> {
    let start = Instant::now() + Duration::from_millis(20);
    let t0 = Instant::now();
    let parts: Vec<Res<Load>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|lane| {
                s.spawn(move || -> Res<Load> {
                    let mut client = Client::connect(addr)?;
                    let mut load = Load::default();
                    for (i, (kind, line)) in plan.iter().enumerate().skip(lane).step_by(2) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        load.late_ms.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        one(&mut client, answers, *kind, line, due, &mut load);
                    }
                    Ok(load)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut load = Load::default();
    for part in parts {
        load.merge(part?);
    }
    load.elapsed_s = secs(t0);
    Ok(load)
}

/// Closed loop: two connections send their seeded lines back to back
/// until `window` has passed.
///
/// # Errors
///
/// Reports connection failures.
pub fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    window: Duration,
    answers: &BTreeMap<String, String>,
) -> Res<Load> {
    let t0 = Instant::now();
    let deadline = t0 + window;
    let parts: Vec<Res<Load>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|lane| {
                s.spawn(move || -> Res<Load> {
                    let mut client = Client::connect(addr)?;
                    let plan = schedule(seed ^ (lane + 1).wrapping_mul(0x5851_f42d), 4096);
                    let mut load = Load::default();
                    for (kind, line) in plan.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        one(&mut client, answers, *kind, line, Instant::now(), &mut load);
                    }
                    Ok(load)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut load = Load::default();
    for part in parts {
        load.merge(part?);
    }
    load.elapsed_s = secs(t0);
    Ok(load)
}

/// Sends every catalog line once, in order, and checks each answer —
/// the warm-up pass (points one at a time, so at most one simulation
/// runs, and the full sweep last, when it only hits).
///
/// # Errors
///
/// Reports connection failures.
pub fn warm_pass(
    addr: SocketAddr,
    answers: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Res<()> {
    let _s = span::span("serve.warm_pass");
    let mut client = Client::connect(addr)?;
    for (_, line) in catalog() {
        let got = client.request(&line)?;
        out.check(matches(answers, &line, &got), || {
            format!("warm-up answer to {line} differs from the reference")
        });
    }
    Ok(())
}

/// Runs the `serve_warm` workload.
///
/// # Errors
///
/// Reports set-up and connection failures.
pub fn run(args: &Args) -> Res<Outcome> {
    let scale = args.scale;
    let choice = scale.serve_suite();
    let mut out = Outcome::default();

    let mut reference = Reference::new(choice)?;
    for (_, line) in catalog() {
        reference.expected(&line);
    }
    let answers = reference.answers();

    let mut kernel_ms = vec![host::kernel_ms()];
    let mut setup = Vec::new();
    let mut cluster = None;
    for _ in 0..scale.setups.max(1) {
        if let Some(previous) = cluster.take() {
            stop_fleet(previous)?;
        }
        let t = Instant::now();
        let c = start_fleet(choice, None)?;
        warm_pass(c.router_addr(), answers, &mut out)?;
        setup.push(secs(t));
        cluster = Some(c);
    }
    let Some(cluster) = cluster else {
        return Err("no set-up ran".into());
    };
    let addr = cluster.router_addr();

    let window = args.window();
    let open_s = window.as_secs_f64() * 0.6;
    let n = ((open_s * OPEN_RATE) as usize).max(20);
    let plan = schedule(args.seed, n);
    kernel_ms.push(host::kernel_ms());
    let open = open_loop(addr, &plan, OPEN_RATE, answers)?;
    kernel_ms.push(host::kernel_ms());
    let closed = closed_loop(addr, args.seed, window.mul_f64(0.4), answers)?;
    stop_fleet(cluster)?;
    kernel_ms.push(host::kernel_ms());
    host::record(&mut out, &kernel_ms);

    out.timing("setup_s", "s", &setup);
    out.metric("setup_s", "s", median(&setup));
    let sweep = open.samples(|k| k == Kind::SweepFull);
    let point = open.samples(Kind::is_point);
    let ping = open.samples(|k| k == Kind::Ping);
    out.timing("sweep_ms (open loop)", "ms", &sweep);
    out.timing("point_ms (open loop)", "ms", &point);
    out.timing("ping_ms (open loop)", "ms", &ping);
    out.timing("late_ms (open loop)", "ms", &open.late_ms);
    out.metric("sweep_p50_ms", "ms", median(&sweep));
    out.metric("sweep_p99_ms", "ms", quantile(&sweep, 0.99));
    out.metric("point_p50_ms", "ms", median(&point));
    out.metric("point_p99_ms", "ms", quantile(&point, 0.99));
    let rps = closed.completed as f64 / closed.elapsed_s.max(1e-9);
    out.metric("mix_rps", "1/s", rps);
    out.metric("late_p99_ms", "ms", quantile(&open.late_ms, 0.99));
    out.note(format!(
        "open loop: {} requests at {}/s over {:.1} s; closed loop: {} requests over {:.1} s",
        plan.len(),
        OPEN_RATE,
        open.elapsed_s,
        closed.completed,
        closed.elapsed_s
    ));
    out.absorb(open.checks);
    out.absorb(closed.checks);
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    Ok(out)
}
