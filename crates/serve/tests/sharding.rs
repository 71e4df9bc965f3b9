//! Sharding guarantees, end to end: the ring partition of the model's
//! voltage range is a pure function of the shard count, and a router
//! fronting N shard daemons answers every request type byte-identically
//! to the single-process daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lowvcc_bench::bundle::decode_bundle;
use lowvcc_bench::{json, ExperimentContext, ResultStore, SuiteChoice, SEGMENTS_DIR};
use lowvcc_serve::router::{start_cluster, ClusterOptions};
use lowvcc_serve::shard::Ring;
use lowvcc_serve::Daemon;
use lowvcc_sram::voltage::{MAX_MODEL_MV, MIN_MODEL_MV};
use lowvcc_sram::{Millivolts, PAPER_SWEEP};

/// Every voltage in the model range partitions identically on every
/// independently constructed ring, to exactly one shard in range, and
/// the paper sweep spreads over more than one shard.
#[test]
fn paper_grid_partition_is_deterministic() {
    for shards in [2u32, 3, 5] {
        let a = Ring::new(shards);
        let b = Ring::new(shards);
        for vcc in (MIN_MODEL_MV..=MAX_MODEL_MV).map(Millivolts::literal) {
            let owner = a.owner(vcc);
            assert_eq!(
                owner,
                b.owner(vcc),
                "two rings over {shards} shards disagree on {vcc:?}"
            );
            assert!(owner < shards, "owner out of range");
            // Each shard's slice test (`Daemon::warm`'s filter) claims
            // the voltage on exactly one shard.
            let claims = (0..shards).filter(|&i| a.owner(vcc) == i).count();
            assert_eq!(claims, 1, "ownership of {vcc:?} must be exclusive");
        }
        let mut per_shard = vec![0usize; shards as usize];
        for vcc in PAPER_SWEEP.iter() {
            per_shard[a.owner(vcc) as usize] += 1;
        }
        // A fully lopsided partition of the 13 sweep voltages would
        // mean the seed or hash regressed.
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

    // The victim is the shard owning 575 mV, so every single-point
    // request above crosses the hole it leaves.
    let ring = Ring::new(3);
    let victim = ring.owner(Millivolts::literal(575)) as usize;

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

/// Per-shard `(misses, stores, disk_entries, segments_read)` from the
/// router's stats.
fn shard_store_counts(router: std::net::SocketAddr) -> Vec<(u64, u64, u64, u64)> {
    let stats = answers(router, &["{\"experiment\": \"stats\"}"]).remove(0);
    let v = json::parse(&stats).expect("stats parse");
    let n = |s: &json::Value, k: &str| s.get(k).and_then(json::Value::as_u64).expect(k);
    v.get("shards")
        .and_then(json::Value::as_array)
        .expect("per-shard stats")
        .iter()
        .map(|s| {
            (
                n(s, "misses"),
                n(s, "stores"),
                n(s, "disk_entries"),
                n(s, "segments_read"),
            )
        })
        .collect()
}

/// Segment files shard `index` wrote under a store directory
/// (`<index>-<pid>-<seq>.lvcb`).
fn own_segments(dir: &std::path::Path, index: usize) -> u64 {
    std::fs::read_dir(dir.join(SEGMENTS_DIR))
        .expect("segment dir lists")
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_str().unwrap_or_default();
            name.ends_with(".lvcb") && name.split('-').next() == Some(&index.to_string())
        })
        .count() as u64
}

/// Trace syntheses across a cluster's shards, which share one trace
/// table and one count.
fn trace_builds(cluster: &lowvcc_serve::router::Cluster) -> usize {
    let shards = cluster.shards();
    let first = shards[0].context();
    for (i, d) in shards.iter().enumerate() {
        assert!(
            d.context().shares_traces_with(first),
            "shard {i} keeps its own traces"
        );
    }
    first.trace_builds()
}

/// Whatever a cluster computes survives a restart, and a restart
/// builds no trace. A cold 3-shard pass over a fresh cache dir (the
/// full sweep, `table1` at 500 and 450 mV, `stalls` at 575 and 525 mV)
/// answers as one cold daemon does and builds each trace once in
/// total. After a shutdown, a new cluster over the same dir answers the
/// same lines as that daemon answers them warm, and as the cold cluster
/// answered them up to the `cached` flag, without simulating anything
/// or building a single trace.
#[test]
fn restarted_cluster_resimulates_nothing() {
    const LINES: [&str; 5] = [
        "{\"experiment\": \"sweep\"}",
        "{\"experiment\": \"table1\", \"vcc\": 500}",
        "{\"experiment\": \"table1\", \"vcc\": 450}",
        "{\"experiment\": \"stalls\", \"vcc\": 575}",
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

    // Reference: one daemon's cold and warm answers, and the distinct
    // keys the lines make it simulate.
    let single = Daemon::new(choice.build().expect("suite builds"));
    let single_cold = LINES.map(|line| single.handle_line(line).0);
    let single_warm = LINES.map(|line| single.handle_line(line).0);
    let (stats, _) = single.handle_line("{\"experiment\": \"stats\"}");
    let distinct = json::parse(&stats)
        .expect("stats parse")
        .get("misses")
        .and_then(json::Value::as_u64)
        .expect("misses");

    let cluster = start_cluster(choice, &opts).expect("cold cluster starts");
    assert_eq!(
        trace_builds(&cluster),
        0,
        "starting a cluster builds nothing"
    );
    let cold = answers(cluster.router_addr(), &LINES);
    let counts = shard_store_counts(cluster.router_addr());
    assert!(distinct > 0, "the cold pass simulates");
    assert_eq!(
        counts.iter().map(|c| c.0).sum::<u64>(),
        distinct,
        "no key is simulated on two shards: {counts:?}"
    );
    assert_eq!(
        trace_builds(&cluster),
        choice.specs().len(),
        "the cold pass builds each trace once in total"
    );
    for (i, &(_, stores, disk_entries, _)) in counts.iter().enumerate() {
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
    // Every key a restarted shard serves is in a segment it wrote, so
    // it reads its own segments and no other shard's.
    for (i, &(_, _, _, segments_read)) in counts.iter().enumerate() {
        assert_eq!(
            segments_read,
            own_segments(&dir, i),
            "restarted shard {i} reads exactly its own segments: {counts:?}"
        );
    }
    assert_eq!(
        trace_builds(&cluster),
        0,
        "a restarted cluster builds no trace"
    );
    shutdown(cluster.router_addr());
    cluster.join().expect("restarted cluster exits");
    let _ = std::fs::remove_dir_all(&dir);

    for (i, line) in LINES.iter().enumerate() {
        assert!(cold[i].contains("\"ok\": true"), "{line}: {}", cold[i]);
        assert_eq!(cold[i], single_cold[i], "{line} on the cold cluster");
        assert_eq!(warm[i], single_warm[i], "{line} after the restart");
        assert_eq!(
            warm[i],
            cold[i].replace("\"cached\": false", "\"cached\": true"),
            "{line}: the restart changed more than the cached flag"
        );
    }
    assert_eq!(
        counts.iter().map(|c| c.0).sum::<u64>(),
        0,
        "a restarted cluster re-simulates nothing: {counts:?}"
    );
}

/// A 3-shard cluster of the tiny suite, the shape the link tests use.
fn three_shards() -> lowvcc_serve::router::Cluster {
    start_cluster(
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
    .expect("cluster starts")
}

/// One breaker row's counter from an aggregated `stats` body.
fn breaker_counter(body: &json::Value, shard: u64, field: &str) -> u64 {
    breaker_field(body, shard, field)
        .parse()
        .expect("numeric breaker counter")
}

/// The router reuses one link per shard: one client connection's full
/// sweep, five single-point requests and `stats` dial each shard once,
/// and every other conversation the router sent a shard went over that
/// link.
#[test]
fn a_sequential_client_dials_each_shard_once() {
    const POINTS: [&str; 5] = [
        "{\"experiment\": \"sweep\", \"vcc\": 575}",
        "{\"experiment\": \"sweep\", \"vcc\": 500}",
        "{\"experiment\": \"table1\", \"vcc\": 450}",
        "{\"experiment\": \"stalls\", \"vcc\": 700}",
        "{\"experiment\": \"table1\", \"vcc\": 575}",
    ];
    const VCCS: [u32; 5] = [575, 500, 450, 700, 575];
    let cluster = three_shards();
    let ring = Ring::new(3);
    // Conversations per shard: its slice of the sweep, its points, and
    // the `stats` fan-out.
    let mut sent = [1u64; 3];
    for vcc in PAPER_SWEEP.iter() {
        sent[ring.owner(vcc) as usize] = 2;
    }
    for mv in VCCS {
        sent[ring.owner(Millivolts::literal(mv)) as usize] += 1;
    }

    let mut lines = vec!["{\"experiment\": \"sweep\"}"];
    lines.extend(POINTS);
    lines.push("{\"experiment\": \"stats\"}");
    let mut replies = answers(cluster.router_addr(), &lines);
    let stats = json::parse(&replies.pop().expect("stats")).expect("stats parse");
    for reply in &replies {
        assert!(reply.contains("\"ok\": true"), "{reply}");
    }
    for (shard, &conversations) in sent.iter().enumerate() {
        let shard = shard as u64;
        let opened = breaker_counter(&stats, shard, "links_opened");
        let reused = breaker_counter(&stats, shard, "links_reused");
        assert_eq!(opened, 1, "shard {shard}: {stats:?}");
        assert_eq!(opened + reused, conversations, "shard {shard}");
    }

    answers(cluster.router_addr(), &["{\"experiment\": \"shutdown\"}"]);
    cluster.join().expect("clean fan-out shutdown");
}

/// A pooled link to a shard that restarted is stale: the router retries
/// the conversation once on a fresh link, answers byte-identically, and
/// neither counts a relay error nor strikes the breaker.
#[test]
fn a_stale_link_to_a_restarted_shard_is_retried_unseen() {
    const LINE: &str = "{\"experiment\": \"sweep\", \"vcc\": 575}";
    let single = Daemon::new(ExperimentContext::sized(1, 2_000).expect("suite builds"));
    let expected = single.handle_line(LINE).0;

    let cluster = three_shards();
    let shard_addrs = cluster.shard_addrs().to_vec();
    let ring = Ring::new(3);
    let victim = ring.owner(Millivolts::literal(575)) as usize;

    // The router uses the victim's link, and keeps it.
    let stream = TcpStream::connect(cluster.router_addr()).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(&stream);
    assert_eq!(roundtrip(&stream, &mut reader, LINE), expected);

    // Shut the victim down directly, then restart it on its address.
    {
        let direct = TcpStream::connect(shard_addrs[victim]).expect("connect victim");
        let mut r = BufReader::new(&direct);
        let resp = roundtrip(&direct, &mut r, "{\"experiment\": \"shutdown\"}");
        assert!(resp.contains("\"shutdown\": true"), "got: {resp}");
    }
    let listener = {
        let mut tries = 0;
        loop {
            match TcpListener::bind(shard_addrs[victim]) {
                Ok(l) => break l,
                Err(e) if tries >= 500 => panic!("cannot rebind victim addr: {e}"),
                Err(_) => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(10));
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

    assert_eq!(
        roundtrip(&stream, &mut reader, LINE),
        expected,
        "the request after the restart"
    );
    let stats = roundtrip(&stream, &mut reader, "{\"experiment\": \"stats\"}");
    let v = json::parse(&stats).expect("stats parse");
    let victim = victim as u64;
    assert_eq!(breaker_counter(&v, victim, "relay_errors"), 0, "{stats}");
    assert_eq!(breaker_field(&v, victim, "state"), "\"closed\"");
    assert_eq!(breaker_field(&v, victim, "failovers"), "0");
    assert_eq!(
        breaker_counter(&v, victim, "links_opened"),
        2,
        "the first link, then one fresh link for the stale retry"
    );

    let resp = roundtrip(&stream, &mut reader, "{\"experiment\": \"shutdown\"}");
    assert!(resp.contains("\"shutdown\": true"), "got: {resp}");
    cluster.join().expect("clean fan-out shutdown");
    revived_thread
        .join()
        .expect("revived thread")
        .expect("clean serve exit");
}
