//! Sharding guarantees, end to end: the ring partition of the paper
//! grid is a pure function of the shard count, and a router
//! fronting N shard daemons answers every request type byte-identically
//! to the single-process daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lowvcc_bench::bundle::decode_bundle;
use lowvcc_bench::{json, ExperimentContext, ResultStore, SuiteChoice, SEGMENTS_DIR};
use lowvcc_core::CoreConfig;
use lowvcc_serve::router::{start_cluster, ClusterOptions};
use lowvcc_serve::shard::{voltage_anchor, Ring};
use lowvcc_serve::Daemon;
use lowvcc_sram::{CycleTimeModel, Millivolts, PAPER_SWEEP};
use lowvcc_trace::suite;

/// The paper grid partitions identically on every independently
/// constructed ring: 13 sweep voltages × 3 trace specs, anchored
/// exactly as the router does it.
#[test]
fn paper_grid_partition_is_deterministic() {
    let core = CoreConfig::silverthorne();
    let timing = CycleTimeModel::silverthorne_45nm();
    let specs = suite(1, 1_000);
    let specs = &specs[..3];

    for shards in [2u32, 3, 5] {
        let a = Ring::new(shards);
        let b = Ring::new(shards);
        let mut per_shard = vec![0usize; shards as usize];
        for vcc in PAPER_SWEEP.iter() {
            for spec in specs {
                let key = voltage_anchor(core, &timing, spec, vcc);
                let owner = a.owner(key);
                assert_eq!(
                    owner,
                    b.owner(key),
                    "two rings with identical config disagree on {vcc:?}"
                );
                assert!(owner < shards, "owner out of range");
                assert!(a.owns(owner, key));
                assert!(
                    !a.owns((owner + 1) % shards, key),
                    "ownership must be exclusive"
                );
                per_shard[owner as usize] += 1;
            }
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 13 * 3);
        // The jump hash spreads 39 keys over >=2 shards; a fully
        // lopsided partition would mean the seed or hash regressed.
        assert!(
            per_shard.iter().filter(|&&n| n > 0).count() >= 2,
            "partition over {shards} shards collapsed to one: {per_shard:?}"
        );
    }
}

/// One line of protocol conversation over an existing stream.
fn roundtrip(stream: &TcpStream, reader: &mut BufReader<&TcpStream>, line: &str) -> String {
    {
        let mut w = stream;
        w.write_all(line.as_bytes()).expect("send");
        w.write_all(b"\n").expect("send");
    }
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("receive");
    assert!(resp.ends_with('\n'), "response must be newline-terminated");
    resp.trim_end().to_string()
}

/// A cold 2-shard cluster answers the whole request surface — full
/// sweep, single sweep point, table 1, stall profile, ping, and a
/// malformed line — byte-identically to a cold single-process daemon,
/// and shutdown fans out cleanly.
#[test]
fn router_matches_single_daemon_byte_for_byte() {
    const REQUESTS: &[&str] = &[
        "{\"experiment\": \"ping\"}",
        "not json",
        "{\"experiment\": \"sweep\"}",
        "{\"experiment\": \"sweep\", \"vcc\": 575}",
        "{\"experiment\": \"table1\", \"vcc\": 500}",
        "{\"experiment\": \"stalls\", \"vcc\": 575}",
    ];

    // Reference: the single-process daemon, cold store, same suite.
    let single = Daemon::new(ExperimentContext::sized(1, 2_000).expect("suite builds"));
    let expected: Vec<String> = REQUESTS
        .iter()
        .map(|line| single.handle_line(line).0)
        .collect();

    let cluster = start_cluster(
        SuiteChoice::Sized {
            per_family: 1,
            len: 2_000,
        },
        &ClusterOptions {
            shards: 2,
            jobs: 2,
            ..ClusterOptions::default()
        },
    )
    .expect("cluster starts");
    let router_addr = cluster.router_addr();
    let shard_addrs = cluster.shard_addrs().to_vec();
    assert_eq!(shard_addrs.len(), 2);

    let stream = TcpStream::connect(router_addr).expect("connect to router");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(&stream);

    for (line, want) in REQUESTS.iter().zip(&expected) {
        let got = roundtrip(&stream, &mut reader, line);
        assert_eq!(&got, want, "sharded response diverges for {line}");
    }

    // The metrics aggregate is router-specific (not byte-compared):
    // it must merge both shards and show the sweep traffic.
    let resp = roundtrip(&stream, &mut reader, "{\"experiment\": \"metrics\"}");
    let v = json::parse(&resp).expect("metrics aggregate parses");
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
    assert_eq!(v.get("router").and_then(json::Value::as_bool), Some(true));
    assert_eq!(v.get("shard_count").and_then(json::Value::as_u64), Some(2));
    let store = v.get("store").expect("aggregated store stats");
    assert!(
        store.get("misses").and_then(json::Value::as_u64) > Some(0),
        "cold sweep must register misses across the cluster"
    );
    let shards = v
        .get("shards")
        .and_then(json::Value::as_array)
        .expect("metrics aggregate must carry per-shard bodies");
    assert_eq!(shards.len(), 2);
    for (i, body) in shards.iter().enumerate() {
        assert_eq!(
            body.get("shard_index").and_then(json::Value::as_u64),
            Some(i as u64),
            "shard bodies must arrive in ring order"
        );
    }

    // Shutdown through the router stops the router and both shards.
    let resp = roundtrip(&stream, &mut reader, "{\"experiment\": \"shutdown\"}");
    let v = json::parse(&resp).expect("shutdown response parses");
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
    cluster.join().expect("clean fan-out shutdown");
    for addr in shard_addrs {
        assert!(
            TcpStream::connect(addr).is_err(),
            "shard {addr} still listening after cluster shutdown"
        );
    }
}

/// One breaker row's field from an aggregated `stats`/`metrics` body.
fn breaker_field(body: &json::Value, shard: u64, field: &str) -> String {
    let rows = body
        .get("breakers")
        .and_then(json::Value::as_array)
        .expect("aggregate must carry a breakers array");
    let row = rows
        .iter()
        .find(|r| r.get("shard").and_then(json::Value::as_u64) == Some(shard))
        .expect("every shard has a breaker row");
    json::render(row.get(field).expect("breaker field"))
}

/// The robustness tentpole, end to end: kill one of three shards and
/// the cluster still answers every request type — the full sweep
/// byte-identically, via failover — while `stats`/`metrics` report the
/// open breaker; restart the shard and the half-open probe re-admits
/// it.
#[test]
fn cluster_fails_over_around_a_dead_shard_and_recovers() {
    const REQUESTS: &[&str] = &[
        "{\"experiment\": \"ping\"}",
        "{\"experiment\": \"sweep\"}",
        "{\"experiment\": \"sweep\", \"vcc\": 575}",
        "{\"experiment\": \"table1\", \"vcc\": 575}",
        "{\"experiment\": \"stalls\", \"vcc\": 575}",
    ];
    // Reference: a cold single-process daemon over the same suite.
    let single = Daemon::new(ExperimentContext::sized(1, 2_000).expect("suite builds"));
    let expected: Vec<String> = REQUESTS
        .iter()
        .map(|line| single.handle_line(line).0)
        .collect();

    let cluster = start_cluster(
        SuiteChoice::Sized {
            per_family: 1,
            len: 2_000,
        },
        &ClusterOptions {
            shards: 3,
            jobs: 2,
            ..ClusterOptions::default()
        },
    )
    .expect("cluster starts");
    let shard_addrs = cluster.shard_addrs().to_vec();

    // The victim is the shard owning the 575 mV anchor, so every
    // single-point request above crosses the hole it leaves.
    let ring = Ring::new(3);
    let ctx = single.context();
    let victim = ring.owner(voltage_anchor(
        ctx.core,
        &ctx.timing,
        &ctx.specs[0],
        Millivolts::literal(575),
    )) as usize;

    // Kill it with a direct shutdown and wait for its port to close.
    {
        let stream = TcpStream::connect(shard_addrs[victim]).expect("connect victim");
        let mut reader = BufReader::new(&stream);
        let resp = roundtrip(&stream, &mut reader, "{\"experiment\": \"shutdown\"}");
        assert!(resp.contains("\"shutdown\": true"), "got: {resp}");
    }
    for _ in 0..500 {
        if TcpStream::connect(shard_addrs[victim]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let stream = TcpStream::connect(cluster.router_addr()).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    let mut reader = BufReader::new(&stream);
    for (line, want) in REQUESTS.iter().zip(&expected) {
        let got = roundtrip(&stream, &mut reader, line);
        assert_eq!(&got, want, "degraded cluster diverges for {line}");
    }

    // stats and metrics still answer and report the open breaker plus
    // the failovers that answered the victim's traffic.
    let stats = roundtrip(&stream, &mut reader, "{\"experiment\": \"stats\"}");
    let v = json::parse(&stats).expect("stats parse");
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
    assert_eq!(breaker_field(&v, victim as u64, "state"), "\"open\"");
    assert_ne!(breaker_field(&v, victim as u64, "failovers"), "0");
    let metrics = roundtrip(&stream, &mut reader, "{\"experiment\": \"metrics\"}");
    let m = json::parse(&metrics).expect("metrics parse");
    assert_eq!(m.get("ok").and_then(json::Value::as_bool), Some(true));
    assert_eq!(breaker_field(&m, victim as u64, "state"), "\"open\"");
    assert_eq!(
        m.get("metrics_parse_errors").and_then(json::Value::as_u64),
        Some(0),
        "an unreachable shard is not a parse error"
    );

    // Restart the victim on its old address (same slice, fresh store).
    let listener = {
        let mut bound = TcpListener::bind(shard_addrs[victim]);
        let mut tries = 0;
        loop {
            match bound {
                Ok(l) => break l,
                Err(e) if tries >= 500 => panic!("cannot rebind victim addr: {e}"),
                Err(_) => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    bound = TcpListener::bind(shard_addrs[victim]);
                }
            }
        }
    };
    let revived = Daemon::shard(
        ExperimentContext::sized(1, 2_000).expect("suite builds"),
        ResultStore::ephemeral(),
        ring,
        victim as u32,
    );
    let revived_thread = std::thread::spawn(move || revived.serve(&listener));

    // Once the cooldown elapses, routed traffic becomes the half-open
    // probe; poll until the breaker closes and a recovery is counted.
    let mut recovered = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(150));
        let _ = roundtrip(
            &stream,
            &mut reader,
            "{\"experiment\": \"sweep\", \"vcc\": 575}",
        );
        let stats = roundtrip(&stream, &mut reader, "{\"experiment\": \"stats\"}");
        let v = json::parse(&stats).expect("stats parse");
        if breaker_field(&v, victim as u64, "state") == "\"closed\"" {
            assert_ne!(breaker_field(&v, victim as u64, "recoveries"), "0");
            recovered = true;
            break;
        }
    }
    assert!(recovered, "breaker never re-closed after the restart");

    // Shutdown fans out breaker-blind, so it reaches the revived shard.
    let resp = roundtrip(&stream, &mut reader, "{\"experiment\": \"shutdown\"}");
    let v = json::parse(&resp).expect("shutdown response parses");
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
    cluster.join().expect("clean fan-out shutdown");
    revived_thread
        .join()
        .expect("revived thread")
        .expect("clean serve exit");
}

/// A warm cluster answers its first full sweep from the store within
/// seconds: each shard's warm-up computes its own slice and waits on
/// no other shard, so the shards together simulate exactly the keys a
/// single daemon's warm-up does, once each. Over a shared on-disk
/// cache, every shard's store is open before any shard publishes, so
/// no store's orphan sweep deletes another shard's in-flight publish.
/// Records in a store directory, counted by decoding its segment files
/// (quarantine excluded) — independently of the stores' bookkeeping.
fn segment_records(dir: &std::path::Path) -> u64 {
    let Ok(listing) = std::fs::read_dir(dir.join(SEGMENTS_DIR)) else {
        return 0;
    };
    listing
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "lvcb"))
        .map(|e| {
            let bytes = std::fs::read(e.path()).expect("segment reads");
            decode_bundle(&bytes).expect("segment decodes").len() as u64
        })
        .sum()
}

#[test]
fn warm_cluster_answers_its_first_sweep_cached_within_seconds() {
    // Generous: the warm start takes well under a second in release
    // builds, while a warm-up that waits on other shards takes minutes.
    const BOUND: Duration = Duration::from_secs(30);
    let choice = SuiteChoice::Sized {
        per_family: 1,
        len: 2_000,
    };
    // Reference: the distinct keys of a single daemon's warm-up.
    let single = Daemon::new(choice.build().expect("suite builds"));
    single.warm().expect("single warm-up");
    let (stats, _) = single.handle_line("{\"experiment\": \"stats\"}");
    let distinct = json::parse(&stats)
        .expect("stats parse")
        .get("misses")
        .and_then(json::Value::as_u64)
        .expect("misses");

    let dir = std::env::temp_dir().join(format!("lowvcc_warm_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for cache in [None, Some(dir.clone())] {
        let shared = cache.is_some();
        let started = Instant::now();
        let cluster = start_cluster(
            choice,
            &ClusterOptions {
                shards: 3,
                jobs: 2,
                cache,
                warm: true,
                ..ClusterOptions::default()
            },
        )
        .expect("cluster starts");
        let stream = TcpStream::connect(cluster.router_addr()).expect("connect router");
        stream.set_read_timeout(Some(BOUND)).expect("timeout");
        let mut reader = BufReader::new(&stream);
        let sweep = roundtrip(&stream, &mut reader, "{\"experiment\": \"sweep\"}");
        let elapsed = started.elapsed();
        let v = json::parse(&sweep).expect("sweep parses");
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
        assert_eq!(
            v.get("cached").and_then(json::Value::as_bool),
            Some(true),
            "the warm-up must have filled every point (shared disk: {shared})"
        );
        assert!(
            elapsed < BOUND,
            "warm start plus first sweep took {elapsed:?} (shared disk: {shared})"
        );

        let stats = roundtrip(&stream, &mut reader, "{\"experiment\": \"stats\"}");
        let v = json::parse(&stats).expect("stats parse");
        let shards = v
            .get("shards")
            .and_then(json::Value::as_array)
            .expect("per-shard stats");
        let sum = |field: &str| -> u64 {
            shards
                .iter()
                .map(|s| s.get(field).and_then(json::Value::as_u64).expect(field))
                .sum()
        };
        assert_eq!(
            sum("misses"),
            distinct,
            "every warm-up key is simulated once (shared disk: {shared})"
        );
        for field in ["retries", "write_failures", "orphans_swept"] {
            assert_eq!(sum(field), 0, "{field} (shared disk: {shared})");
        }
        // Fleet-wide reconciliation: every miss is one simulation of one
        // 2,000-uop trace, and its result is stored exactly once.
        assert_eq!(sum("stores"), sum("misses"), "shared disk: {shared}");
        assert_eq!(
            sum("simulated_uops"),
            sum("misses") * 2_000,
            "shared disk: {shared}"
        );
        // Each shard counts only the records in its own segments, so the
        // sum is the directory's record count, not shards × records.
        let records = if shared { segment_records(&dir) } else { 0 };
        assert_eq!(sum("disk_entries"), records, "shared disk: {shared}");
        for s in shards {
            assert_eq!(
                s.get("store_degraded").and_then(json::Value::as_bool),
                Some(false),
                "shared disk: {shared}"
            );
            if shared {
                // Every shard persists exactly what it computes. Ephemeral
                // stores have no disk, so this applies to the shared one.
                assert_eq!(
                    s.get("stores").and_then(json::Value::as_u64),
                    s.get("disk_entries").and_then(json::Value::as_u64),
                    "per shard: {s:?}"
                );
            }
        }

        let resp = roundtrip(&stream, &mut reader, "{\"experiment\": \"shutdown\"}");
        assert!(resp.contains("\"shutdown\": true"), "got: {resp}");
        cluster.join().expect("clean fan-out shutdown");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `lines` through a cluster's router, returning each answer.
fn answers(router: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(router).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(&stream);
    lines
        .iter()
        .map(|line| roundtrip(&stream, &mut reader, line))
        .collect()
}

/// Per-shard `(misses, stores, disk_entries)` from the router's stats.
fn shard_store_counts(router: std::net::SocketAddr) -> Vec<(u64, u64, u64)> {
    let stats = answers(router, &["{\"experiment\": \"stats\"}"]).remove(0);
    let v = json::parse(&stats).expect("stats parse");
    let n = |s: &json::Value, k: &str| s.get(k).and_then(json::Value::as_u64).expect(k);
    v.get("shards")
        .and_then(json::Value::as_array)
        .expect("per-shard stats")
        .iter()
        .map(|s| (n(s, "misses"), n(s, "stores"), n(s, "disk_entries")))
        .collect()
}

/// Whatever a cluster computes survives a restart: a cold 3-shard pass
/// over a fresh cache dir (full sweep, `table1` at 450 mV, `stalls` at
/// 525 mV), a shutdown, and a new cluster over the same dir answers the
/// same lines byte-identically (up to the `cached` flag) without
/// simulating anything.
#[test]
fn restarted_cluster_resimulates_nothing() {
    const LINES: [&str; 3] = [
        "{\"experiment\": \"sweep\"}",
        "{\"experiment\": \"table1\", \"vcc\": 450}",
        "{\"experiment\": \"stalls\", \"vcc\": 525}",
    ];
    let choice = SuiteChoice::Sized {
        per_family: 1,
        len: 2_000,
    };
    let dir = std::env::temp_dir().join(format!("lowvcc_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ClusterOptions {
        shards: 3,
        jobs: 2,
        cache: Some(dir.clone()),
        ..ClusterOptions::default()
    };
    let shutdown = |router| {
        let resp = answers(router, &["{\"experiment\": \"shutdown\"}"]).remove(0);
        assert!(resp.contains("\"shutdown\": true"), "got: {resp}");
    };

    let cluster = start_cluster(choice, &opts).expect("cold cluster starts");
    let cold = answers(cluster.router_addr(), &LINES);
    let counts = shard_store_counts(cluster.router_addr());
    assert!(
        counts.iter().map(|c| c.0).sum::<u64>() > 0,
        "the cold pass simulates"
    );
    for (i, &(_, stores, disk_entries)) in counts.iter().enumerate() {
        assert_eq!(stores, disk_entries, "shard {i} persists what it computes");
    }
    assert_eq!(
        counts.iter().map(|c| c.2).sum::<u64>(),
        segment_records(&dir),
        "shard counts sum to the directory's records"
    );
    shutdown(cluster.router_addr());
    cluster.join().expect("cold cluster exits");

    let cluster = start_cluster(choice, &opts).expect("restarted cluster starts");
    let warm = answers(cluster.router_addr(), &LINES);
    let counts = shard_store_counts(cluster.router_addr());
    shutdown(cluster.router_addr());
    cluster.join().expect("restarted cluster exits");
    let _ = std::fs::remove_dir_all(&dir);

    for ((line, cold), warm) in LINES.iter().zip(&cold).zip(&warm) {
        assert!(cold.contains("\"ok\": true"), "{line}: {cold}");
        assert_eq!(
            *warm,
            cold.replace("\"cached\": false", "\"cached\": true"),
            "{line} after the restart"
        );
    }
    assert_eq!(
        counts.iter().map(|c| c.0).sum::<u64>(),
        0,
        "a restarted cluster re-simulates nothing: {counts:?}"
    );
}
