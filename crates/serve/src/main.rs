//! The `lowvcc-serve` binary: bind, optionally pre-fill, serve — as a
//! single daemon, an in-process sharded cluster, one shard of a manual
//! cluster, or a standalone router.
//!
//! ```text
//! lowvcc-serve [--suite quick|standard|paper|NxLEN] [--cache DIR]
//!              [--jobs N] [--threads N] [--max-connections N]
//!              [--addr HOST:PORT] [--warm] [--warm-bundle FILE]
//!              [--shards N]
//!              [--shard-index I --shard-count N]
//!              [--route HOST:PORT,HOST:PORT,...]
//! ```
//!
//! Defaults: quick suite, in-memory store, all hardware threads for
//! simulation (`--jobs`), `max(4, hardware threads)` connection workers
//! (`--threads`), 64 in-flight connections (`--max-connections`),
//! `127.0.0.1:0` (ephemeral port). The bound address is announced on
//! stdout as `lowvcc-serve listening on HOST:PORT` so harnesses can
//! scrape the port. Excess clients beyond the connection cap receive
//! the typed `{"ok": false, "error": "busy: …", "busy": true}` refusal
//! instead of queueing unboundedly. `--warm` runs the full sweep grid
//! plus Table 1 and the stall study at their default voltages once
//! before accepting, so sweep queries (and default-voltage
//! table1/stalls queries) are cache hits from the first request;
//! non-default table1/stalls voltages simulate once on demand.
//! `--cache DIR` shares the store with `experiments --cache DIR` —
//! either can warm it for the other.
//!
//! ## Cluster modes
//!
//! `--shards N` starts N shard daemons plus a router in one process:
//! the router binds `--addr` and is announced on **stdout** as
//! `lowvcc-serve router listening on HOST:PORT`; each shard binds an
//! ephemeral port announced on **stderr** (`lowvcc-serve shard I
//! listening on HOST:PORT`) — harnesses scrape stdout and always get
//! the front door. Each trace is built on first miss, into one table
//! shared by every shard; stderr's `suite …: … one copy shared by N
//! shards` line says so. All
//! shards share one `--cache DIR`; any number of writers can share a
//! directory (unique tempfiles, atomic rename), and each shard persists
//! what it computes in segments named for its index. With `--warm`,
//! each shard pre-fills exactly its own slice.
//!
//! `--shard-index I --shard-count N` runs one such shard standalone
//! (for multi-process clusters; `--warm` pre-fills its slice); `--route
//! a,b,c` runs the router alone over already-running shards, listed in
//! shard-index order. The shards share a suite and a shard count; the
//! router needs only their addresses, since the ring is keyed by the
//! voltage alone. It is stateless — no suite, no simulator, no store: a
//! request no shard can answer gets `{"ok": false, "error": "no shard
//! reachable: …"}`.
//!
//! ## Warm bundles
//!
//! `--warm-bundle FILE` imports an LVCB warm-cache bundle (produced by
//! `lowvcc-store export`) into the store before serving — every shard
//! of a cluster imports it, so a freshly provisioned fleet answers
//! warm from the first request. It does not apply to `--route`, and
//! neither do `--suite`, `--cache` and `--warm`: the router owns no
//! store and no suite.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lowvcc_bench::{ExperimentContext, ResultStore, SuiteChoice};
use lowvcc_core::Parallelism;
use lowvcc_serve::router::{start_cluster, ClusterOptions, Router};
use lowvcc_serve::shard::Ring;
use lowvcc_serve::{Daemon, ServeOptions};

const USAGE: &str = "usage: lowvcc-serve [--suite quick|standard|paper|NxLEN] [--cache DIR] \
                     [--jobs N] [--threads N] [--max-connections N] [--addr HOST:PORT] [--warm] \
                     [--warm-bundle FILE] [--shards N] \
                     [--shard-index I --shard-count N] \
                     [--route HOST:PORT,...]";

struct Options {
    /// `None` = the quick suite; kept apart so `--route` can refuse it.
    suite: Option<String>,
    cache: Option<PathBuf>,
    jobs: usize,
    serve: ServeOptions,
    addr: String,
    warm: bool,
    warm_bundle: Option<PathBuf>,
    shards: Option<u32>,
    shard_index: Option<u32>,
    shard_count: Option<u32>,
    route: Option<String>,
    help: bool,
}

impl Options {
    /// The `--suite` choice, the quick suite when none was given.
    fn suite_choice(&self) -> Result<SuiteChoice, String> {
        SuiteChoice::parse(self.suite.as_deref().unwrap_or("quick")).map_err(|e| e.to_string())
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        suite: None,
        cache: None,
        jobs: Parallelism::available().count(),
        serve: ServeOptions::default(),
        addr: "127.0.0.1:0".to_string(),
        warm: false,
        warm_bundle: None,
        shards: None,
        shard_index: None,
        shard_count: None,
        route: None,
        help: false,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--suite" => match args.next() {
                Some(v) => o.suite = Some(v),
                None => return Err("--suite needs a value".into()),
            },
            "--cache" => match args.next() {
                Some(v) => o.cache = Some(PathBuf::from(v)),
                None => return Err("--cache needs a value".into()),
            },
            "--addr" => match args.next() {
                Some(v) => o.addr = v,
                None => return Err("--addr needs a value".into()),
            },
            "--route" => match args.next() {
                Some(v) => o.route = Some(v),
                None => return Err("--route needs a comma-separated address list".into()),
            },
            "--warm-bundle" => match args.next() {
                Some(v) => o.warm_bundle = Some(PathBuf::from(v)),
                None => return Err("--warm-bundle needs a file path".into()),
            },
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => o.jobs = n,
                Some(_) => return Err("--jobs needs a positive integer".into()),
                None => return Err("--jobs needs a value".into()),
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => o.serve.threads = n,
                Some(_) => return Err("--threads needs a positive integer".into()),
                None => return Err("--threads needs a value".into()),
            },
            "--max-connections" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => o.serve.max_connections = n,
                Some(_) => return Err("--max-connections needs a positive integer".into()),
                None => return Err("--max-connections needs a value".into()),
            },
            "--shards" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n > 0 => o.shards = Some(n),
                Some(_) => return Err("--shards needs a positive integer".into()),
                None => return Err("--shards needs a value".into()),
            },
            "--shard-index" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => o.shard_index = Some(n),
                Some(Err(_)) => return Err("--shard-index needs an integer".into()),
                None => return Err("--shard-index needs a value".into()),
            },
            "--shard-count" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n > 0 => o.shard_count = Some(n),
                Some(_) => return Err("--shard-count needs a positive integer".into()),
                None => return Err("--shard-count needs a value".into()),
            },
            "--warm" => o.warm = true,
            "--help" | "-h" => o.help = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let modes = [
        o.shards.is_some(),
        o.shard_index.is_some() || o.shard_count.is_some(),
        o.route.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() > 1 {
        return Err(
            "--shards, --shard-index/--shard-count and --route are mutually exclusive".into(),
        );
    }
    if o.shard_index.is_some() != o.shard_count.is_some() {
        return Err("--shard-index and --shard-count must be given together".into());
    }
    if let (Some(i), Some(n)) = (o.shard_index, o.shard_count) {
        if i >= n {
            return Err(format!(
                "--shard-index {i} out of range for --shard-count {n}"
            ));
        }
    }
    if o.route.is_some() {
        let daemon_flags = [
            ("--suite", o.suite.is_some()),
            ("--cache", o.cache.is_some()),
            ("--warm", o.warm),
            ("--warm-bundle", o.warm_bundle.is_some()),
        ];
        if let Some((flag, _)) = daemon_flags.iter().find(|(_, given)| *given) {
            return Err(format!(
                "{flag} does not apply to --route (the router owns no store and no suite)"
            ));
        }
    }
    Ok(o)
}

/// The startup line a serving process prints about its suite: size, and
/// how many shards share its one trace table.
fn suite_line(ctx: &ExperimentContext, shards: usize) -> String {
    format!(
        "suite {}: {} traces, {} uops, built on first miss, one copy shared by {shards} shard{}",
        ctx.suite_label,
        ctx.specs().len(),
        ctx.total_uops(),
        if shards == 1 { "" } else { "s" },
    )
}

/// `--shards N`: in-process cluster — N shard daemons plus the router.
fn run_cluster(opts: &Options, shards: u32) -> Result<(), String> {
    let choice = opts.suite_choice()?;
    let cluster = start_cluster(
        choice,
        &ClusterOptions {
            shards,
            jobs: opts.jobs,
            cache: opts.cache.clone(),
            warm: opts.warm,
            warm_bundle: opts.warm_bundle.clone(),
            serve: opts.serve,
            router_addr: opts.addr.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    if let Some(first) = cluster.shards().first() {
        let sharing = cluster
            .shards()
            .iter()
            .filter(|d| d.context().shares_traces_with(first.context()))
            .count();
        eprintln!("{}", suite_line(first.context(), sharing));
    }
    for (i, addr) in cluster.shard_addrs().iter().enumerate() {
        eprintln!("lowvcc-serve shard {i} listening on {addr}");
    }
    // stdout carries only the front door, so port-scraping harnesses
    // cannot pick up a shard by mistake.
    println!("lowvcc-serve router listening on {}", cluster.router_addr());
    eprintln!(
        "cluster of {shards} shards, {} jobs each; \
         send {{\"experiment\":\"shutdown\"}} to the router to stop",
        opts.jobs,
    );
    cluster.join().map_err(|e| e.to_string())?;
    eprintln!("shutdown requested; cluster exited cleanly");
    Ok(())
}

/// `--route a,b,c`: standalone router over already-running shards.
fn run_router(opts: &Options, route: &str) -> Result<(), String> {
    let shards: Vec<String> = route
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(ToString::to_string)
        .collect();
    if shards.is_empty() {
        return Err("--route needs at least one shard address".into());
    }
    let shard_count = shards.len();
    let router = Router::new(shards);
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    println!("lowvcc-serve router listening on {local}");
    eprintln!(
        "routing over {shard_count} shards; \
         send {{\"experiment\":\"shutdown\"}} to stop the whole cluster"
    );
    router
        .serve_with(&listener, opts.serve)
        .map_err(|e| e.to_string())?;
    eprintln!("shutdown requested; exiting cleanly");
    Ok(())
}

/// Default mode (and `--shard-index I --shard-count N`): one daemon.
fn run_daemon(opts: &Options) -> Result<(), String> {
    // Same grammar and degenerate-input rejections as `experiments`.
    let ctx = opts
        .suite_choice()?
        .build()
        .map_err(|e| e.to_string())?
        .with_parallelism(Parallelism::threads(opts.jobs));
    let store = match &opts.cache {
        Some(dir) => ResultStore::open(dir).map_err(|e| e.to_string())?,
        None => ResultStore::ephemeral(),
    }
    // Before the import, so an imported segment is named for this shard.
    .with_writer(opts.shard_index.unwrap_or(0));
    if let Some(bundle) = &opts.warm_bundle {
        let report = store.import_bundle(bundle).map_err(|e| e.to_string())?;
        eprintln!(
            "warm bundle {}: {} imported, {} already present, {} quarantined",
            bundle.display(),
            report.imported,
            report.already_present,
            report.quarantined
        );
    }
    let daemon = match opts.shard_index.zip(opts.shard_count) {
        Some((index, count)) => Daemon::shard(ctx, store, Ring::new(count), index),
        None => Daemon::new(ctx.with_cache(Arc::new(store))),
    };
    if opts.warm {
        eprintln!("warming the store (this daemon's share of the sweep grid, Table 1 and the stall study)…");
        daemon.warm().map_err(|e| e.to_string())?;
        eprintln!("store warm");
    }
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    println!("lowvcc-serve listening on {local}");
    eprintln!("{}", suite_line(daemon.context(), 1));
    eprintln!(
        "store {}, {} jobs, {} workers (max {} connections); \
         send {{\"experiment\":\"shutdown\"}} to stop",
        daemon
            .context()
            .cache
            .as_ref()
            .and_then(|s| s.dir())
            .map_or_else(|| "in-memory".to_string(), |d| d.display().to_string()),
        opts.jobs,
        opts.serve.threads,
        opts.serve.max_connections,
    );
    daemon
        .serve_with(&listener, opts.serve)
        .map_err(|e| e.to_string())?;
    eprintln!("shutdown requested; exiting cleanly");
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_args(std::env::args().skip(1))?;
    if opts.help {
        println!("{USAGE}");
        return Ok(());
    }
    if let Some(shards) = opts.shards {
        run_cluster(&opts, shards)
    } else if let Some(route) = opts.route.clone() {
        run_router(&opts, &route)
    } else {
        run_daemon(&opts)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    fn usage_of(args: &[&str]) -> String {
        match parse(args) {
            Err(msg) => msg,
            Ok(_) => panic!("{args:?} accepted"),
        }
    }

    #[test]
    fn cluster_modes_are_mutually_exclusive() {
        let slot = ["--shard-index", "0", "--shard-count", "2"];
        for (a, b) in [
            (&["--shards", "2"][..], &slot[..]),
            (&["--shards", "2"][..], &["--route", "127.0.0.1:1"][..]),
            (&["--route", "127.0.0.1:1"][..], &slot[..]),
        ] {
            let args = [a, b].concat();
            let msg = usage_of(&args);
            assert!(msg.contains("mutually exclusive"), "{args:?}: {msg}");
        }
    }

    #[test]
    fn a_shard_needs_both_halves_of_its_slot_in_range() {
        for args in [&["--shard-index", "1"][..], &["--shard-count", "3"][..]] {
            let msg = usage_of(args);
            assert!(msg.contains("must be given together"), "{args:?}: {msg}");
        }
        let msg = usage_of(&["--shard-index", "3", "--shard-count", "3"]);
        assert!(msg.contains("out of range"), "{msg}");
        let o = parse(&["--shard-index", "2", "--shard-count", "3", "--warm"])
            .expect("last slot parses");
        assert_eq!((o.shard_index, o.shard_count), (Some(2), Some(3)));
    }

    #[test]
    fn a_router_takes_no_warm_bundle() {
        for flag in [
            &["--warm-bundle", "b.lvcb"][..],
            &["--cache", "dir"],
            &["--warm"],
            &["--suite", "quick"],
        ] {
            let msg = usage_of(&[&["--route", "127.0.0.1:1"][..], flag].concat());
            assert!(
                msg.starts_with(&format!("{} does not apply to --route", flag[0])),
                "{msg}"
            );
            assert!(msg.contains("owns no store"), "{msg}");
        }
        let o = parse(&["--shards", "3", "--warm-bundle", "b.lvcb"]).expect("cluster bundle");
        assert_eq!(o.warm_bundle, Some(PathBuf::from("b.lvcb")));
    }

    #[test]
    fn the_router_fallback_flag_is_gone() {
        let flag = "--local-fallback";
        let msg = usage_of(&["--route", "127.0.0.1:1", flag]);
        assert!(
            msg.starts_with(&format!("unknown argument {flag}\n")),
            "{msg}"
        );
        assert!(!USAGE.contains(flag));
    }

    #[test]
    fn the_ring_seed_flag_is_gone() {
        let flag = "--ring-seed";
        for mode in [&["--shards", "2"][..], &["--route", "127.0.0.1:1"][..]] {
            let args = [mode, &[flag, "7"][..]].concat();
            let msg = usage_of(&args);
            assert!(
                msg.starts_with(&format!("unknown argument {flag}\n")),
                "{args:?}: {msg}"
            );
        }
        assert!(!USAGE.contains(flag));
    }
}
