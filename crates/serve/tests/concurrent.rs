//! Concurrency tests for the thread-pool serve loop: a stalled client
//! must not block others, shutdown must drain with a deadline, excess
//! clients get the typed `busy` refusal, identical cold queries are
//! single-flighted, and concurrent answers are byte-identical to the
//! sequential daemon's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lowvcc_bench::{json, ExperimentContext};
use lowvcc_serve::{Daemon, ServeOptions};

fn tiny_daemon() -> Daemon {
    Daemon::new(ExperimentContext::sized(1, 2_000).expect("tiny suite builds"))
}

fn opts() -> ServeOptions {
    ServeOptions {
        threads: 3,
        max_connections: 16,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        drain_deadline: Duration::from_millis(300),
    }
}

/// Sends one request line and reads one response line.
fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn client(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

const SWEEP_575: &str = r#"{"experiment":"sweep","vcc":575}"#;
const PING: &str = r#"{"experiment":"ping"}"#;
const SHUTDOWN: &str = r#"{"experiment":"shutdown"}"#;

#[test]
fn stalled_client_does_not_block_others() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts()));

        // A client that connects and never sends a byte — under the old
        // sequential accept loop this wedged every other query.
        let stalled = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        let start = Instant::now();
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, PING)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "ping took {:?} with a stalled client connected",
            start.elapsed()
        );

        // Real work is also unblocked, not just liveness probes.
        let v = json::parse(&request(&mut c, &mut r, SWEEP_575)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
        drop(stalled);
    });
}

#[test]
fn shutdown_drain_deadline_cuts_stalled_clients_loose() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts()));

        // Regression: shutdown used to take effect only after the
        // in-progress connection completed, so a stalled peer could
        // postpone exit indefinitely (until its 30 s read timeout).
        let stalled = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        // The serve loop must return within the drain deadline (plus
        // slack), with the stalled client still connected.
        let start = Instant::now();
        handle.join().unwrap().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "drain took {:?}; a stalled peer postponed shutdown",
            start.elapsed()
        );
        drop(stalled);
    });
    let c = daemon.serve_counters();
    assert!(
        c.force_closed >= 1,
        "the stalled connection must have been force-closed at the deadline: {c:?}"
    );
}

#[test]
fn excess_clients_get_the_typed_busy_refusal() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tight = ServeOptions {
        threads: 1,
        max_connections: 1,
        ..opts()
    };
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, tight));

        // Fill the single connection slot with a stalled client…
        let stalled = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // …so the next client is refused at the accept gate.
        let (c, mut r) = client(addr);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("busy").unwrap().as_bool(), Some(true));
        assert!(v
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("busy:"));
        // The refusal closes the connection.
        let mut rest = String::new();
        assert_eq!(r.read_to_string(&mut rest).unwrap(), 0);
        drop(c);

        // Freeing the slot lets the next client in for a clean shutdown.
        drop(stalled);
        std::thread::sleep(Duration::from_millis(200));
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    assert!(daemon.serve_counters().refused_busy >= 1);
}

#[test]
fn identical_concurrent_cold_sweeps_are_single_flighted() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let clients = 4;
    let responses: Vec<json::Value> = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            daemon.serve_with(
                &listener,
                ServeOptions {
                    threads: clients,
                    ..opts()
                },
            )
        });
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let (mut c, mut r) = client(addr);
                    json::parse(&request(&mut c, &mut r, SWEEP_575)).unwrap()
                })
            })
            .collect();
        let responses: Vec<json::Value> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
        responses
    });

    // One sweep point = 2 mechanisms × 7 traces = 14 keys. N identical
    // concurrent cold queries must perform exactly one engine
    // simulation per key — the single-flight acceptance criterion.
    let stats = daemon.context().cache.as_ref().unwrap().stats();
    assert_eq!(stats.misses, 14, "one simulation per key: {stats:?}");
    assert_eq!(stats.stores, 14);

    // Every client got the same answer, and it is byte-identical to
    // what a sequential daemon computes for the same query.
    let sequential = tiny_daemon();
    let (expected, _) = sequential.handle_line(SWEEP_575);
    let expected_point = json::parse(&expected)
        .unwrap()
        .get("point")
        .unwrap()
        .clone();
    for v in &responses {
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("point"), Some(&expected_point));
    }
}

#[test]
fn concurrent_hammer_matches_sequential_byte_for_byte() {
    let daemon = tiny_daemon();
    // Warm the 575 mV point, then capture the steady-state (cached)
    // response the sequential daemon gives.
    let (_cold, _) = daemon.handle_line(SWEEP_575);
    let (expected_sweep, _) = daemon.handle_line(SWEEP_575);
    assert!(expected_sweep.contains("\"cached\": true"));
    let (expected_ping, _) = daemon.handle_line(PING);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            daemon.serve_with(
                &listener,
                ServeOptions {
                    threads: 4,
                    ..opts()
                },
            )
        });
        let hammers: Vec<_> = (0..6)
            .map(|_| {
                let expected_sweep = &expected_sweep;
                let expected_ping = &expected_ping;
                s.spawn(move || {
                    let (mut c, mut r) = client(addr);
                    for _ in 0..4 {
                        assert_eq!(request(&mut c, &mut r, PING), *expected_ping);
                        assert_eq!(request(&mut c, &mut r, SWEEP_575), *expected_sweep);
                    }
                })
            })
            .collect();
        for h in hammers {
            h.join().unwrap();
        }
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    let c = daemon.serve_counters();
    assert_eq!(c.accepted, 7, "6 hammer clients + the shutdown client");
    assert_eq!(c.refused_busy, 0);
    assert_eq!(c.connection_errors, 0);
    assert_eq!(c.worker_panics, 0);
    assert_eq!(
        c.accepted,
        c.completed + c.connection_errors + c.timeouts + c.worker_panics + c.force_closed,
        "every accepted connection ends in exactly one terminal bucket: {c:?}"
    );
}

#[test]
fn silent_clients_are_disconnected_at_the_read_timeout() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let quick_timeout = ServeOptions {
        read_timeout: Duration::from_millis(200),
        ..opts()
    };
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, quick_timeout));

        // Connect, send nothing: the daemon must cut us loose at the
        // read timeout rather than holding the worker for 30 s.
        let mut silent = TcpStream::connect(addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let start = Instant::now();
        let mut buf = Vec::new();
        let n = silent.read_to_end(&mut buf).unwrap();
        assert_eq!(n, 0, "timeout close is silent — no bytes");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "disconnect took {:?}",
            start.elapsed()
        );

        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    assert_eq!(daemon.serve_counters().timeouts, 1);
}
