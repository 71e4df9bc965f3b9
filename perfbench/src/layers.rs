//! The traced run: each layer's public functions timed on their own,
//! then the workload's own unit of work with spans on and off.
//!
//! Layers, bottom up: trace synthesis and decode, the engine (fast path
//! and `run_naive`), canonical encoding, the grid executor and report
//! rendering, the result store (memory, disk, ownership), the daemon,
//! the reactor, the router and its server-side histograms, and the load
//! generator itself. Every probe runs on every workload, so each traced
//! run reports the full [`PER_LAYER`] set.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use lowvcc_bench::experiments::run_all;
use lowvcc_bench::{json, Flight, ResultStore};
use lowvcc_core::{
    decode_sim_result, encode_sim_result, sim_key, EngineWorkspace, Parallelism, SimConfig,
    SimResult,
};
use lowvcc_serve::Daemon;
use lowvcc_sram::PAPER_SWEEP;
use lowvcc_trace::{TraceArena, TraceSpec};

use crate::report::Outcome;
use crate::serve::{matches, serve_options, shutdown, start_fleet, stop_fleet, Client, Reference};
use crate::stats::{median, quantile, ratio};
use crate::warm::{catalog, open_loop, schedule, warm_pass, Kind, OPEN_RATE};
use crate::{cold, restart, secs, span, Args, Ctx, Res};

/// Every per-layer metric, with its unit, in emission order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.synth.uops_per_s", "1/s"),
    ("trace.arena.uops_per_s", "1/s"),
    ("core.engine.calls", "count"),
    ("core.engine.ns_per_uop", "ns"),
    ("core.engine.ns_per_cycle", "ns"),
    ("core.engine.share", "ratio"),
    ("core.engine.fastpath_speedup", "ratio"),
    ("core.canon.key_us", "us"),
    ("core.canon.encode_us", "us"),
    ("core.canon.decode_us", "us"),
    ("bench.context.overhead_s", "s"),
    ("bench.experiments.render_s", "s"),
    ("bench.store.hit_us", "us"),
    ("bench.store.publish_ms", "ms"),
    ("bench.store.disk_get_us", "us"),
    ("bench.store.persisted_ratio", "ratio"),
    ("bench.store.restart_misses", "count"),
    ("bench.store.peer_hit_ratio", "ratio"),
    ("bench.store.peer_fetches_per_miss", "ratio"),
    ("serve.daemon.handle_us.ping", "us"),
    ("serve.daemon.handle_us.sweep_point", "us"),
    ("serve.daemon.handle_us.sweep_full", "us"),
    ("serve.daemon.handle_us.table1", "us"),
    ("serve.daemon.handle_us.stalls", "us"),
    ("serve.conn.rtt_us.ping", "us"),
    ("serve.conn.rtt_us.sweep_point", "us"),
    ("serve.conn.rtt_us.sweep_full", "us"),
    ("serve.conn.rtt_us.table1", "us"),
    ("serve.conn.rtt_us.stalls", "us"),
    ("serve.router.rtt_ms.ping.p50", "ms"),
    ("serve.router.rtt_ms.sweep_point.p50", "ms"),
    ("serve.router.rtt_ms.sweep_full.p50", "ms"),
    ("serve.router.rtt_ms.table1.p50", "ms"),
    ("serve.router.rtt_ms.stalls.p50", "ms"),
    ("serve.router.rtt_ms.ping.p99", "ms"),
    ("serve.router.rtt_ms.sweep_point.p99", "ms"),
    ("serve.router.rtt_ms.sweep_full.p99", "ms"),
    ("serve.router.rtt_ms.table1.p99", "ms"),
    ("serve.router.rtt_ms.stalls.p99", "ms"),
    ("serve.router.stall_share", "ratio"),
    ("serve.metrics.server_ms.sweep_point", "ms"),
    ("serve.metrics.server_ms.table1", "ms"),
    ("serve.metrics.server_ms.stalls", "ms"),
    ("serve.metrics.wire_ms.sweep_point", "ms"),
    ("serve.metrics.wire_ms.table1", "ms"),
    ("serve.metrics.wire_ms.stalls", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.ops_failed_ratio", "ratio"),
    ("tracing.overhead_share", "ratio"),
];

/// Relayed request classes whose server-side time the shards record.
const RELAYED: [Kind; 3] = [Kind::SweepPoint, Kind::Table1, Kind::Stalls];

/// Untraced/traced pairs of the workload's unit timed for the tracing
/// overhead: with three, host noise outweighed the overhead.
const OVERHEAD_PAIRS: usize = 6;

/// Router round trips per request class: enough that ten lie beyond p99
/// (see [`crate::stats::supported_tail`]).
const ROUTER_REPS: usize = 1000;

/// The 26 sweep configurations (13 voltages × baseline/IRAW).
fn sweep_configs(ctx: &lowvcc_bench::ExperimentContext) -> Vec<SimConfig> {
    PAPER_SWEEP
        .iter()
        .flat_map(|vcc| {
            let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
            [base, iraw]
        })
        .collect()
}

/// Engine totals of one sweep replayed through the fast path.
struct EngineTotals {
    seconds: f64,
    uops: u64,
    cycles: u64,
    results: Vec<SimResult>,
}

/// Every sweep configuration over every trace, trace-major (the grid
/// executor's order), through one reused workspace.
fn direct_engine(cfgs: &[SimConfig], arenas: &[TraceArena]) -> Res<EngineTotals> {
    let mut ws = EngineWorkspace::new();
    let mut engine = EngineTotals {
        seconds: 0.0,
        uops: 0,
        cycles: 0,
        results: Vec::new(),
    };
    for arena in arenas {
        for cfg in cfgs {
            let t = Instant::now();
            let r = {
                let _s = span::span("core.engine.run");
                ws.run(cfg, arena).ctx("engine")?
            };
            engine.seconds += secs(t);
            engine.uops += r.stats.instructions;
            engine.cycles += r.stats.cycles;
            engine.results.push(r);
        }
    }
    Ok(engine)
}

/// Trace synthesis, decode, the engine's fast path and its naive
/// reference, then the grid executor and rendering over the same suite.
fn probe_engine_and_grid(args: &Args, out: &mut Outcome) -> Res<()> {
    let scale = args.scale;
    let specs = cold::suite_specs(args.seed, scale.cold_per_family, scale.cold_len);

    let t = Instant::now();
    let traces = specs
        .iter()
        .map(|s| {
            let _s = span::span("trace.synth");
            s.build()
        })
        .collect::<Result<Vec<_>, _>>()
        .ctx("synthesis")?;
    let uops: usize = traces.iter().map(lowvcc_trace::Trace::len).sum();
    out.metric("trace.synth.uops_per_s", "1/s", uops as f64 / secs(t));

    let mut decode_rates = Vec::new();
    let mut arenas = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        arenas = traces
            .iter()
            .map(|tr| {
                let _s = span::span("trace.arena.decode");
                TraceArena::from_trace(tr)
            })
            .collect();
        decode_rates.push(uops as f64 / secs(t));
    }
    out.metric("trace.arena.uops_per_s", "1/s", median(&decode_rates));

    let mut ctx = cold::build_context(args.seed, &scale)?;
    ctx.parallelism = Parallelism::sequential();
    let cfgs = sweep_configs(&ctx);
    // Twice, keeping the faster pass: the first also pays page faults
    // and cold caches.
    let mut engine = direct_engine(&cfgs, &arenas)?;
    let again = direct_engine(&cfgs, &arenas)?;
    out.check(again.results == engine.results, || {
        "the engine is not deterministic".to_string()
    });
    if again.seconds < engine.seconds {
        engine = again;
    }
    let ns_per_uop = engine.seconds * 1e9 / engine.uops.max(1) as f64;
    out.metric("core.engine.ns_per_uop", "ns", ns_per_uop);
    out.metric(
        "core.engine.ns_per_cycle",
        "ns",
        engine.seconds * 1e9 / engine.cycles.max(1) as f64,
    );

    let samples = cold::naive_samples(args.seed, scale.naive_checks.max(2), scale.sample_len)?;
    for s in &samples {
        out.check(s.same, || {
            format!("fast path differs from run_naive on {}", s.spec.name())
        });
    }
    let fast: f64 = samples.iter().map(|s| s.fast_s).sum();
    let naive: f64 = samples.iter().map(|s| s.naive_s).sum();
    out.metric("core.engine.fastpath_speedup", "ratio", ratio(naive, fast));

    // The grid executor over the same configurations: everything it
    // costs beyond the engine calls above is its overhead. Twice through
    // fresh stores, keeping the faster, as for the engine.
    let mut batch_s = f64::INFINITY;
    let mut batch = Vec::new();
    for _ in 0..2 {
        ctx.cache = Some(Arc::new(ResultStore::ephemeral()));
        let t = Instant::now();
        batch = {
            let _s = span::span("bench.context.run_suite_batch");
            ctx.run_suite_batch(&cfgs).ctx("run_suite_batch")?
        };
        batch_s = batch_s.min(secs(t));
    }
    out.metric("bench.context.overhead_s", "s", batch_s - engine.seconds);
    // The suites are config-major; the engine loop ran trace-major.
    let mut via_grid: Vec<SimResult> = Vec::new();
    for t in 0..arenas.len() {
        for suite in &batch {
            via_grid.push(suite.per_trace[t].1.clone());
        }
    }
    out.check(via_grid == engine.results, || {
        "run_suite_batch results differ from direct engine calls".to_string()
    });

    // The whole report, sequential, through a fresh store. The engine's
    // share of it is an estimate: the uops the store says it simulated,
    // at the fast path's ns per uop measured above.
    let store = Arc::new(ResultStore::ephemeral());
    ctx.cache = Some(Arc::clone(&store));
    let dir = args.scratch("layers-csv");
    std::fs::create_dir_all(&dir).ctx("create CSV dir")?;
    let t = Instant::now();
    {
        let _s = span::span("bench.experiments.run_all");
        run_all(&ctx, &dir).ctx("run_all")?;
    }
    let report_s = secs(t);
    let stats = store.stats();
    out.metric(
        "core.engine.share",
        "ratio",
        ratio(stats.simulated_uops as f64 * ns_per_uop * 1e-9, report_s),
    );
    let t = Instant::now();
    {
        let _s = span::span("bench.experiments.run_all.warm");
        run_all(&ctx, &dir).ctx("warm run_all")?;
    }
    out.metric("bench.experiments.render_s", "s", secs(t));
    out.check(store.stats().misses == stats.misses, || {
        "warm run_all simulated".to_string()
    });

    // Engine calls counted from the records a disk store published, not
    // from the store's own counters.
    let (calls, misses) = cold::engine_calls(&mut ctx, &args.scratch("layers-calls"), &dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    out.metric("core.engine.calls", "count", calls as f64);
    out.note(format!(
        "reconcile: store misses {misses} vs {calls} records published by the same run_all{}",
        if misses == calls {
            " — agree"
        } else {
            " — DISAGREE"
        }
    ));

    probe_canon_and_store(args, &specs, &cfgs, &engine.results, out)
}

/// Canonical keys and records, then the store's memory and disk paths.
fn probe_canon_and_store(
    args: &Args,
    specs: &[TraceSpec],
    cfgs: &[SimConfig],
    results: &[SimResult],
    out: &mut Outcome,
) -> Res<()> {
    let pairs: Vec<(&SimConfig, &TraceSpec)> = specs
        .iter()
        .flat_map(|s| cfgs.iter().map(move |c| (c, s)))
        .collect();
    let reps = 20;

    let t = Instant::now();
    let mut keys = Vec::with_capacity(pairs.len());
    for _ in 0..reps {
        keys.clear();
        let _s = span::span("core.canon.sim_key");
        keys.extend(pairs.iter().map(|(c, s)| sim_key(c, s)));
    }
    out.metric(
        "core.canon.key_us",
        "us",
        secs(t) * 1e6 / (reps * pairs.len()) as f64,
    );

    let t = Instant::now();
    let mut records = Vec::new();
    for _ in 0..reps {
        let _s = span::span("core.canon.encode");
        records = results.iter().map(encode_sim_result).collect();
    }
    out.metric(
        "core.canon.encode_us",
        "us",
        secs(t) * 1e6 / (reps * results.len()) as f64,
    );

    let t = Instant::now();
    let mut round_trip_ok = true;
    for _ in 0..reps {
        let _s = span::span("core.canon.decode");
        for (bytes, want) in records.iter().zip(results) {
            round_trip_ok &= decode_sim_result(bytes).as_ref() == Ok(want);
        }
    }
    out.metric(
        "core.canon.decode_us",
        "us",
        secs(t) * 1e6 / (reps * results.len()) as f64,
    );
    out.check(round_trip_ok, || {
        "LVCR record round trip changed a result".to_string()
    });

    // Memory path: lookups that hit.
    let store = ResultStore::ephemeral();
    for (k, r) in keys.iter().zip(results) {
        store.put(*k, r);
    }
    let t = Instant::now();
    let mut hits = 0u64;
    for _ in 0..reps {
        let _s = span::span("bench.store.lookup");
        for k in &keys {
            hits += u64::from(matches!(store.lookup(*k), Flight::Hit(_)));
        }
    }
    out.metric(
        "bench.store.hit_us",
        "us",
        secs(t) * 1e6 / (reps * keys.len()) as f64,
    );
    out.check(hits == (reps * keys.len()) as u64, || {
        "warm store lookups missed".to_string()
    });

    // Disk path: publishes, then reads from a freshly opened store.
    let dir = args.scratch("layers-store");
    let _ = std::fs::remove_dir_all(&dir);
    let n = keys.len().min(40);
    {
        let disk = ResultStore::open(&dir).ctx("open disk store")?;
        let t = Instant::now();
        for (k, r) in keys.iter().zip(results).take(n) {
            let _s = span::span("bench.store.put");
            disk.put(*k, r);
        }
        out.metric("bench.store.publish_ms", "ms", secs(t) * 1e3 / n as f64);
    }
    let reopened = ResultStore::open(&dir).ctx("reopen disk store")?;
    let t = Instant::now();
    let mut found = 0;
    for (k, r) in keys.iter().zip(results).take(n) {
        let _s = span::span("bench.store.get");
        found += usize::from(reopened.get(*k).as_ref() == Some(r));
    }
    out.metric("bench.store.disk_get_us", "us", secs(t) * 1e6 / n as f64);
    out.check(found == n, || format!("{found} of {n} records read back"));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// One cold-then-restart fleet cycle: persistence, restart misses and
/// peer read-through.
fn probe_ownership(args: &Args, out: &mut Outcome) -> Res<()> {
    let lines = restart::pass_lines(args.seed);
    let mut reference = Reference::new(args.scale.serve_suite())?;
    for line in &lines {
        reference.expected(line);
    }
    let distinct = reference.distinct_keys();
    let dir = args.scratch("layers-fleet");
    let mut found = Outcome::default();
    let c = restart::cycle(&args.scale, &dir, &lines, reference.answers(), &mut found)?;
    restart::ownership_metrics(&mut found, &c, distinct);
    for name in [
        "persisted_ratio",
        "restart_misses",
        "peer_hit_ratio",
        "peer_fetches_per_miss",
    ] {
        if let Some(v) = found.get(name) {
            let unit = if name == "restart_misses" {
                "count"
            } else {
                "ratio"
            };
            out.metric(format!("bench.store.{name}"), unit, v);
        }
    }
    found.metrics.clear();
    out.absorb(found);
    Ok(())
}

/// Median of `reps` timings of `f`, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(secs(t) * 1e6);
    }
    median(&v)
}

/// The daemon in process, then the same daemon over TCP. Returns the
/// single daemon's median full-sweep round trip, ms.
fn probe_daemon_and_conn(args: &Args, out: &mut Outcome) -> Res<f64> {
    let choice = args.scale.serve_suite();
    let daemon = Arc::new(Daemon::new(choice.build().ctx("suite")?));
    let mut reference = Reference::new(choice)?;
    let lines = catalog();
    for (_, line) in &lines {
        reference.expected(line);
        let _ = daemon.handle_line(line);
    }
    let answers = reference.answers();
    let reps = 200;
    let mut handle = BTreeMap::new();
    for kind in Kind::ALL {
        let of_kind: Vec<&String> = lines
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, l)| l)
            .collect();
        let mut i = 0;
        let us = median_us(reps, || {
            let _s = span::span("serve.daemon.handle_line");
            let (body, _) = daemon.handle_line(of_kind[i % of_kind.len()]);
            i += 1;
            std::hint::black_box(body);
        });
        out.metric(format!("serve.daemon.handle_us.{}", kind.label()), "us", us);
        handle.insert(kind, us);
    }

    let listener = TcpListener::bind("127.0.0.1:0").ctx("bind")?;
    let addr = listener.local_addr().ctx("local addr")?;
    let served = Arc::clone(&daemon);
    let server = std::thread::spawn(move || served.serve_with(&listener, serve_options()));
    let mut sweep_ms = 0.0;
    let probe = (|| -> Res<()> {
        let mut client = Client::connect(addr)?;
        for kind in Kind::ALL {
            let of_kind: Vec<&String> = lines
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, l)| l)
                .collect();
            let mut rtts = Vec::with_capacity(reps);
            for i in 0..reps {
                let line = of_kind[i % of_kind.len()];
                let t = Instant::now();
                let got = {
                    let _s = span::span("serve.conn.request");
                    client.request(line)
                };
                rtts.push(secs(t) * 1e6);
                out.check(
                    got.as_ref().is_ok_and(|b| matches(answers, line, b)),
                    || format!("single daemon answer to {line} differs"),
                );
            }
            let rtt = median(&rtts);
            if kind == Kind::SweepFull {
                sweep_ms = rtt / 1e3;
            }
            out.metric(
                format!("serve.conn.rtt_us.{}", kind.label()),
                "us",
                rtt - handle[&kind],
            );
        }
        Ok(())
    })();
    let stopped = shutdown(addr);
    let joined = server
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .ctx("daemon exit");
    probe?;
    stopped?;
    joined?;
    Ok(sweep_ms)
}

/// `(count, total µs)` per op from the router's `metrics` answer (the
/// shards' histograms, merged).
fn server_totals(client: &mut Client) -> Res<BTreeMap<String, (u64, u64)>> {
    let metrics = client.request(r#"{"experiment": "metrics"}"#)?;
    let v = json::parse(&metrics).ctx("router metrics")?;
    let ops = v
        .get("ops")
        .and_then(json::Value::as_array)
        .ok_or("router metrics has no ops")?;
    Ok(ops
        .iter()
        .filter_map(|o| {
            let n = |k| o.get(k).and_then(json::Value::as_u64);
            Some((
                o.get("op")?.as_str()?.to_string(),
                (n("count")?, n("total_us")?),
            ))
        })
        .collect())
}

/// The router: per-class round trips, the stall share against the
/// single daemon, the shards' own histograms, and an open-loop burst.
fn probe_router(args: &Args, single_sweep_ms: f64, out: &mut Outcome) -> Res<()> {
    let choice = args.scale.serve_suite();
    let mut reference = Reference::new(choice)?;
    let lines = catalog();
    for (_, line) in &lines {
        reference.expected(line);
    }
    let answers = reference.answers();
    let cluster = start_fleet(choice, None)?;
    let addr = cluster.router_addr();
    let probe = (|| -> Res<()> {
        warm_pass(addr, answers, out)?;
        let mut client = Client::connect(addr)?;
        let before = server_totals(&mut client)?;
        let mut client_mean = BTreeMap::new();
        for kind in Kind::ALL {
            let of_kind: Vec<&String> = lines
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, l)| l)
                .collect();
            let mut rtts = Vec::with_capacity(ROUTER_REPS);
            for i in 0..ROUTER_REPS {
                let line = of_kind[i % of_kind.len()];
                let t = Instant::now();
                let got = {
                    let _s = span::span("serve.router.request");
                    client.request(line)
                };
                rtts.push(secs(t) * 1e3);
                out.check(
                    got.as_ref().is_ok_and(|b| matches(answers, line, b)),
                    || format!("router answer to {line} differs"),
                );
            }
            let label = kind.label();
            out.timing(format!("router rtt_ms.{label}"), "ms", &rtts);
            out.metric(
                format!("serve.router.rtt_ms.{label}.p50"),
                "ms",
                median(&rtts),
            );
            out.metric(
                format!("serve.router.rtt_ms.{label}.p99"),
                "ms",
                quantile(&rtts, 0.99),
            );
            client_mean.insert(kind, rtts.iter().sum::<f64>() / rtts.len() as f64);
            if kind == Kind::SweepFull {
                let slow = rtts
                    .iter()
                    .filter(|&&ms| ms > 10.0 * single_sweep_ms)
                    .count();
                out.metric(
                    "serve.router.stall_share",
                    "ratio",
                    ratio(slow as f64, rtts.len() as f64),
                );
                out.note(format!(
                    "router full sweep p99 {:.2} ms vs single daemon median {:.3} ms",
                    quantile(&rtts, 0.99),
                    single_sweep_ms
                ));
            }
        }
        // Server-side time of the measured requests alone: the delta of
        // the shards' histograms since before them (the warm-up's
        // simulations are in the totals too).
        let after = server_totals(&mut client)?;
        for kind in RELAYED {
            let label = kind.label();
            let (count, us) = match (before.get(label), after.get(label)) {
                (Some(b), Some(a)) => (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1)),
                _ => (0, 0),
            };
            let server_ms = ratio(us as f64, count as f64) / 1e3;
            out.metric(format!("serve.metrics.server_ms.{label}"), "ms", server_ms);
            out.metric(
                format!("serve.metrics.wire_ms.{label}"),
                "ms",
                client_mean[&kind] - server_ms,
            );
        }

        let burst_s = (args.seconds / 5.0).clamp(0.5, 2.0);
        let plan = schedule(args.seed, (burst_s * OPEN_RATE) as usize);
        let load = open_loop(addr, &plan, OPEN_RATE, answers)?;
        out.metric("loadgen.late_p99_ms", "ms", quantile(&load.late_ms, 0.99));
        out.absorb(load.checks);
        Ok(())
    })();
    let stopped = stop_fleet(cluster);
    probe?;
    stopped
}

/// The workload's own unit of work, alternately untraced and traced:
/// the traced-over-untraced ratio minus one.
fn probe_tracing_overhead(args: &Args, out: &mut Outcome) -> Res<()> {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    match args.workload.as_str() {
        "paper_cold" => {
            let mut ctx = cold::build_context(args.seed, &args.scale)?;
            let dir = args.scratch("layers-overhead");
            std::fs::create_dir_all(&dir).ctx("create CSV dir")?;
            for i in 0..OVERHEAD_PAIRS * 2 {
                span::enable(i % 2 == 1);
                ctx.cache = Some(Arc::new(ResultStore::ephemeral()));
                let t = Instant::now();
                {
                    let _s = span::span("bench.experiments.run_all");
                    run_all(&ctx, &dir).ctx("run_all")?;
                }
                if i % 2 == 1 { &mut traced } else { &mut plain }.push(secs(t));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        "fleet_restart" => {
            let lines = restart::pass_lines(args.seed);
            let mut reference = Reference::new(args.scale.serve_suite())?;
            for line in &lines {
                reference.expected(line);
            }
            let dir = args.scratch("layers-overhead");
            let mut checks = Outcome::default();
            for i in 0..OVERHEAD_PAIRS * 2 {
                span::enable(i % 2 == 1);
                let c =
                    restart::cycle(&args.scale, &dir, &lines, reference.answers(), &mut checks)?;
                if i % 2 == 1 { &mut traced } else { &mut plain }.push(c.cold_s + c.restart_s);
            }
            out.absorb(checks);
        }
        _ => {
            let choice = args.scale.serve_suite();
            let mut reference = Reference::new(choice)?;
            for (_, line) in catalog() {
                reference.expected(&line);
            }
            let cluster = start_fleet(choice, None)?;
            let mut checks = Outcome::default();
            let run = (|| -> Res<()> {
                for i in 0..40 {
                    span::enable(i % 2 == 1);
                    let t = Instant::now();
                    warm_pass(cluster.router_addr(), reference.answers(), &mut checks)?;
                    if i % 2 == 1 { &mut traced } else { &mut plain }.push(secs(t));
                }
                Ok(())
            })();
            let stopped = stop_fleet(cluster);
            run?;
            stopped?;
            out.absorb(checks);
        }
    }
    span::enable(true);
    out.metric(
        "tracing.overhead_share",
        "ratio",
        ratio(median(&traced), median(&plain)) - 1.0,
    );
    Ok(())
}

/// Runs every layer probe for `args.workload` and writes the spans.
///
/// # Errors
///
/// Reports set-up and I/O failures.
pub fn run(args: &Args) -> Res<Outcome> {
    span::enable(true);
    let mut out = Outcome::default();
    probe_engine_and_grid(args, &mut out)?;
    probe_ownership(args, &mut out)?;
    let single_sweep_ms = probe_daemon_and_conn(args, &mut out)?;
    probe_router(args, single_sweep_ms, &mut out)?;
    probe_tracing_overhead(args, &mut out)?;
    out.metric(
        "loadgen.ops_failed_ratio",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );

    let spans = span::take();
    let path = args
        .work_dir
        .join(format!("spans-{}-{}.json", args.workload, args.seed));
    span::write_json(&path, &spans).ctx("write spans")?;
    let mut by_self: Vec<_> = span::totals(&spans).into_iter().collect();
    by_self.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in by_self.iter().take(12) {
        out.note(format!(
            "span {name:<34} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(out)
}
