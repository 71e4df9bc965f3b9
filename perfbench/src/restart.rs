//! `fleet_restart`: a cold pass through a 3-shard cluster over a fresh
//! shared on-disk cache, then the same pass after a restart.
//!
//! The pass is the full sweep plus `table1` and `stalls`, each at its
//! protocol default and at one other voltage, in seeded order. The cold pass
//! simulates and publishes (fsync + rename) under per-key ownership,
//! dialling peers on foreign misses; after the restart every read starts
//! from the disk with an empty memory tier. Counters are read from
//! outside: records are counted in the cache dir directly, distinct keys
//! come from an in-process reference daemon.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::report::Outcome;
use crate::serve::{
    count_records, line_full_sweep, line_stalls, line_table1, matches, shard_counters, start_fleet,
    stop_fleet, Client, Reference, ShardCounters,
};
use crate::stats::{median, ratio};
use crate::{host, peak_rss_mb, secs, span, Args, Res, Rng, Scale};

/// Passes measured at least, however short the window.
const MIN_PASSES: usize = 3;

/// The pass: full sweep, `table1` at 500 mV and at 450 mV, `stalls` at
/// 575 mV and at 525 mV. The full sweep goes first; `seed` orders the
/// rest, so every seed computes the same keys.
#[must_use]
pub fn pass_lines(seed: u64) -> Vec<String> {
    let mut rest = vec![
        line_table1(None),
        line_table1(Some(450)),
        line_stalls(None),
        line_stalls(Some(525)),
    ];
    let mut rng = Rng::new(seed, 3);
    for i in (1..rest.len()).rev() {
        rest.swap(i, rng.below(i + 1));
    }
    let mut lines = vec![line_full_sweep()];
    lines.extend(rest);
    lines
}

/// Store counters summed over shards.
#[must_use]
pub fn summed(shards: &[ShardCounters]) -> ShardCounters {
    let mut t = ShardCounters::default();
    for s in shards {
        t.misses += s.misses;
        t.peer_fetches += s.peer_fetches;
        t.peer_hits += s.peer_hits;
        t.disk_entries += s.disk_entries;
    }
    t
}

/// One cold-then-restart cycle's measurements.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    /// Cluster start times (before the cold pass, before the restart
    /// pass), s.
    pub starts_s: Vec<f64>,
    /// Cold pass wall time, s.
    pub cold_s: f64,
    /// Restart pass wall time, s.
    pub restart_s: f64,
    /// Per-shard counters after the cold pass.
    pub cold: Vec<ShardCounters>,
    /// Per-shard counters after the restart pass.
    pub after: Vec<ShardCounters>,
    /// Records in the cache dir after the cold cluster exited.
    pub records: u64,
}

fn timed_pass(
    addr: std::net::SocketAddr,
    lines: &[String],
    answers: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Res<f64> {
    let _s = span::span("serve.fleet.pass");
    let mut client = Client::connect(addr)?;
    let t = Instant::now();
    for line in lines {
        let got = {
            let _s = span::span("serve.client.request");
            client.request(line)
        };
        out.check(
            got.as_ref().is_ok_and(|b| matches(answers, line, b)),
            || format!("fleet answer to {line} differs from the reference"),
        );
    }
    Ok(secs(t))
}

/// Runs one cold pass, restart and restart pass over `dir`.
///
/// # Errors
///
/// Reports cluster and connection failures.
pub fn cycle(
    scale: &Scale,
    dir: &Path,
    lines: &[String],
    answers: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Res<Cycle> {
    let _ = std::fs::remove_dir_all(dir);
    let choice = scale.serve_suite();
    let mut c = Cycle::default();

    let t = Instant::now();
    let cluster = start_fleet(choice, Some(dir.to_path_buf()))?;
    c.starts_s.push(secs(t));
    c.cold_s = timed_pass(cluster.router_addr(), lines, answers, out)?;
    c.cold = shard_counters(cluster.router_addr())?;
    stop_fleet(cluster)?;
    c.records = count_records(dir);

    let t = Instant::now();
    let cluster = start_fleet(choice, Some(dir.to_path_buf()))?;
    c.starts_s.push(secs(t));
    c.restart_s = timed_pass(cluster.router_addr(), lines, answers, out)?;
    c.after = shard_counters(cluster.router_addr())?;
    stop_fleet(cluster)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(c)
}

/// Ownership and persistence findings of one cycle, as metrics.
pub fn ownership_metrics(out: &mut Outcome, c: &Cycle, distinct: u64) {
    let cold = summed(&c.cold);
    let after = summed(&c.after);
    out.metric(
        "persisted_ratio",
        "ratio",
        ratio(c.records as f64, distinct as f64),
    );
    out.metric("restart_misses", "count", after.misses as f64);
    out.metric(
        "peer_hit_ratio",
        "ratio",
        ratio(
            (cold.peer_hits + after.peer_hits) as f64,
            (cold.peer_fetches + after.peer_fetches) as f64,
        ),
    );
    out.metric(
        "peer_fetches_per_miss",
        "ratio",
        ratio(cold.peer_fetches as f64, cold.misses as f64),
    );
    out.metric("records", "count", c.records as f64);
    out.metric("distinct_keys", "count", distinct as f64);
    out.note(format!(
        "ownership: {} distinct keys computed, {} records in the cache dir, {} re-simulated after restart",
        distinct, c.records, after.misses
    ));
    out.note(format!(
        "reconcile: cold misses {} vs distinct keys {}{}",
        cold.misses,
        distinct,
        if cold.misses == distinct {
            " — agree"
        } else {
            " — DISAGREE"
        }
    ));
    out.note(format!(
        "reconcile: shards' disk_entries sum {} vs {} records counted directly{}",
        cold.disk_entries,
        c.records,
        if cold.disk_entries == c.records {
            " — agree"
        } else {
            " — DISAGREE (each shard counts the whole shared dir)"
        }
    ));
    let per_shard_equal = c.cold.iter().all(|s| s.peer_fetches == s.misses);
    out.note(format!(
        "reconcile: peer_fetches == misses on every shard: {per_shard_equal}{}",
        if per_shard_equal {
            " — FLAG: the counter counts hook calls, not dials"
        } else {
            ""
        }
    ));
}

/// Runs the `fleet_restart` workload.
///
/// # Errors
///
/// Reports set-up and connection failures.
pub fn run(args: &Args) -> Res<Outcome> {
    let scale = args.scale;
    let mut out = Outcome::default();
    let lines = pass_lines(args.seed);
    let mut reference = Reference::new(scale.serve_suite())?;
    for line in &lines {
        reference.expected(line);
    }
    let distinct = reference.distinct_keys();
    let answers = reference.answers();

    let dir = args.scratch("fleet_restart");
    let mut cycles = Vec::new();
    let mut kernel_ms = vec![host::kernel_ms()];
    let deadline = Instant::now() + args.window();
    while cycles.len() < MIN_PASSES || Instant::now() < deadline {
        cycles.push(cycle(&scale, &dir, &lines, answers, &mut out)?);
        kernel_ms.push(host::kernel_ms());
    }
    host::record(&mut out, &kernel_ms);

    let starts: Vec<f64> = cycles.iter().flat_map(|c| c.starts_s.clone()).collect();
    let cold: Vec<f64> = cycles.iter().map(|c| c.cold_s * 1e3).collect();
    let restart: Vec<f64> = cycles.iter().map(|c| c.restart_s * 1e3).collect();
    out.timing("setup_s", "s", &starts);
    out.metric("setup_s", "s", median(&starts));
    let cold = out.timing("cold_pass_ms", "ms", &cold);
    let restart = out.timing("restart_pass_ms", "ms", &restart);
    out.metric("cold_pass_s", "s", cold.median / 1e3);
    out.metric("cold_pass_ms", "ms", cold.median);
    out.metric("restart_pass_s", "s", restart.median / 1e3);
    out.metric("restart_pass_ms", "ms", restart.median);
    let first = &cycles[0];
    let same_counts = cycles.iter().all(|c| {
        c.records == first.records && summed(&c.after).misses == summed(&first.after).misses
    });
    out.note(format!(
        "counts identical across {} cycles: {same_counts}",
        cycles.len()
    ));
    ownership_metrics(&mut out, first, distinct);
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    Ok(out)
}
