//! Serve-tier plumbing shared by the serve workloads and the layer
//! probes: an NDJSON client, the in-process reference daemon every
//! response is checked against, cluster start/stop, and counters read
//! from outside the fleet.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use lowvcc_bench::{json, SuiteChoice, QUARANTINE_DIR};
use lowvcc_serve::router::{start_cluster, Cluster, ClusterOptions};
use lowvcc_serve::{Daemon, ServeOptions};
use lowvcc_sram::PAPER_SWEEP;

use crate::{Ctx, Res};

/// How long a client waits for one response before counting it failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One persistent NDJSON connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (Nagle off on the client side, so the client
    /// never delays its own request bytes).
    ///
    /// # Errors
    ///
    /// Reports connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> Res<Self> {
        let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).ctx("connect")?;
        stream.set_nodelay(true).ctx("nodelay")?;
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .ctx("read timeout")?;
        stream
            .set_write_timeout(Some(CLIENT_TIMEOUT))
            .ctx("write timeout")?;
        let reader = BufReader::new(stream.try_clone().ctx("clone socket")?);
        Ok(Self { stream, reader })
    }

    /// Sends one request line and reads its response line.
    ///
    /// # Errors
    ///
    /// Reports I/O failures, timeouts and a closed connection.
    pub fn request(&mut self, line: &str) -> Res<String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf).ctx("send")?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).ctx("receive")?;
        if n == 0 {
            return Err("connection closed before the response".into());
        }
        Ok(resp.trim_end().to_string())
    }
}

/// Asks the daemon or router at `addr` to shut down.
///
/// # Errors
///
/// Reports connection failures or a refused shutdown.
pub fn shutdown(addr: SocketAddr) -> Res<()> {
    let resp = Client::connect(addr)?.request(r#"{"experiment": "shutdown"}"#)?;
    if resp.contains("\"shutdown\": true") {
        Ok(())
    } else {
        Err(format!("shutdown refused: {resp}"))
    }
}

/// A response with the `cached` flag fixed, so a hit and a miss that
/// computed the same bytes compare equal.
#[must_use]
pub fn normalize(body: &str) -> String {
    body.replace("\"cached\": false", "\"cached\": true")
}

/// The request lines of the serve protocol the workloads send.
#[must_use]
pub fn line_full_sweep() -> String {
    r#"{"experiment": "sweep"}"#.to_string()
}

/// `sweep` at one voltage.
#[must_use]
pub fn line_point(mv: u32) -> String {
    format!("{{\"experiment\": \"sweep\", \"vcc\": {mv}}}")
}

/// `table1`, at its protocol default (500 mV) when `mv` is `None`.
#[must_use]
pub fn line_table1(mv: Option<u32>) -> String {
    match mv {
        None => r#"{"experiment": "table1"}"#.to_string(),
        Some(mv) => format!("{{\"experiment\": \"table1\", \"vcc\": {mv}}}"),
    }
}

/// `stalls`, at its protocol default (575 mV) when `mv` is `None`.
#[must_use]
pub fn line_stalls(mv: Option<u32>) -> String {
    match mv {
        None => r#"{"experiment": "stalls"}"#.to_string(),
        Some(mv) => format!("{{\"experiment\": \"stalls\", \"vcc\": {mv}}}"),
    }
}

/// `ping`.
#[must_use]
pub fn line_ping() -> String {
    r#"{"experiment": "ping"}"#.to_string()
}

/// The paper's 13 sweep voltages, high to low.
#[must_use]
pub fn sweep_voltages() -> Vec<u32> {
    PAPER_SWEEP.iter().map(|v| v.millivolts()).collect()
}

/// Expected answers from an in-process daemon over the same suite,
/// computed once per distinct line and kept normalized.
pub struct Reference {
    daemon: Daemon,
    answers: BTreeMap<String, String>,
}

impl Reference {
    /// A reference daemon over `choice`'s suite with a fresh in-memory
    /// store.
    ///
    /// # Errors
    ///
    /// Propagates suite synthesis failures.
    pub fn new(choice: SuiteChoice) -> Res<Self> {
        Ok(Self {
            daemon: Daemon::new(choice.build().ctx("reference suite")?),
            answers: BTreeMap::new(),
        })
    }

    /// Computes (once) and returns the normalized answer to `line`.
    pub fn expected(&mut self, line: &str) -> &str {
        let daemon = &self.daemon;
        self.answers
            .entry(line.to_string())
            .or_insert_with(|| normalize(&daemon.handle_line(line).0))
    }

    /// The answers computed so far, for sharing with load threads.
    #[must_use]
    pub fn answers(&self) -> &BTreeMap<String, String> {
        &self.answers
    }

    /// Engine invocations the reference needed so far: one per distinct
    /// simulation key its answers touched.
    #[must_use]
    pub fn distinct_keys(&self) -> u64 {
        self.daemon
            .context()
            .cache
            .as_ref()
            .map_or(0, |s| s.stats().misses)
    }
}

/// Whether `got` is the expected answer to `line` (ignoring `cached`)
/// and a success.
#[must_use]
pub fn matches(answers: &BTreeMap<String, String>, line: &str, got: &str) -> bool {
    got.starts_with("{\"ok\": true")
        && answers
            .get(line)
            .is_some_and(|want| *want == normalize(got))
}

/// Serve-loop options for the benchmark's daemons: two request workers
/// per daemon (the machine has two CPUs) and the library's deadlines.
#[must_use]
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    }
}

/// Shards per cluster in the serve workloads.
pub const SHARDS: u32 = 3;

/// Starts an in-process cluster of [`SHARDS`] shards over `choice`, each
/// shard simulating with one job, sharing `cache` when given.
///
/// # Errors
///
/// Propagates [`start_cluster`] failures.
pub fn start_fleet(choice: SuiteChoice, cache: Option<PathBuf>) -> Res<Cluster> {
    let opts = ClusterOptions {
        shards: SHARDS,
        jobs: 1,
        cache,
        warm: false,
        warm_bundle: None,
        serve: serve_options(),
        router_addr: "127.0.0.1:0".to_string(),
        ..ClusterOptions::default()
    };
    start_cluster(choice, &opts).ctx("start cluster")
}

/// Shuts a cluster down through its router and waits for every thread.
///
/// # Errors
///
/// Reports a refused shutdown or an unclean exit.
pub fn stop_fleet(cluster: Cluster) -> Res<()> {
    shutdown(cluster.router_addr())?;
    cluster.join().ctx("cluster exit")
}

/// One shard's store counters, read from the router's `stats` answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Store misses (engine invocations).
    pub misses: u64,
    /// Calls into the read-through peer hook.
    pub peer_fetches: u64,
    /// Peer probes that returned a record.
    pub peer_hits: u64,
    /// What the shard reports as records in its cache dir.
    pub disk_entries: u64,
}

/// Reads every shard's counters through the router's `stats` request.
///
/// # Errors
///
/// Reports transport failures and malformed answers.
pub fn shard_counters(router: SocketAddr) -> Res<Vec<ShardCounters>> {
    let resp = Client::connect(router)?.request(r#"{"experiment": "stats"}"#)?;
    let v = json::parse(&resp).ctx("stats answer")?;
    let shards = v
        .get("shards")
        .and_then(json::Value::as_array)
        .ok_or("stats answer has no shards")?;
    let mut out = Vec::new();
    for s in shards {
        let n = |k: &str| s.get(k).and_then(json::Value::as_u64).unwrap_or(0);
        out.push(ShardCounters {
            misses: n("misses"),
            peer_fetches: n("peer_fetches"),
            peer_hits: n("peer_hits"),
            disk_entries: n("disk_entries"),
        });
    }
    Ok(out)
}

/// Counts result records in a store directory by walking it directly
/// (quarantined records and publish temporaries excluded).
#[must_use]
pub fn count_records(dir: &Path) -> u64 {
    let Ok(shards) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut n = 0;
    for shard in shards.flatten() {
        let path = shard.path();
        if !path.is_dir() || path.file_name().is_some_and(|f| f == QUARANTINE_DIR) {
            continue;
        }
        let Ok(entries) = std::fs::read_dir(&path) else {
            continue;
        };
        n += entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "sim"))
            .count() as u64;
    }
    n
}
