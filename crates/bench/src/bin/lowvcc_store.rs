//! Admin tool for the content-addressed result store.
//!
//! Usage:
//!
//! ```text
//! lowvcc-store stats DIR
//! lowvcc-store verify DIR
//! lowvcc-store vacuum --max-bytes N[k|m|g] DIR
//! lowvcc-store quarantine list DIR
//! lowvcc-store quarantine purge DIR
//! lowvcc-store export --out FILE [--since SECS] DIR
//! lowvcc-store import FILE DIR
//! ```
//!
//! A store root keeps its records in segments (`DIR/segments/*.lvcb`,
//! one per publish), and every command works on whole segments.
//! `stats` sizes up the store (live segments/bytes, quarantine, orphan
//! sweep count). `verify` is a full checksum scrub: every segment is
//! read, its digest checked and its records decoded, and failing
//! segments are moved to `quarantine/` — exit code 1 flags that
//! something was quarantined, so a cron'd scrub alerts on bit rot.
//! `vacuum` collects the store down to a byte budget: the newest records
//! that fit are rewritten into one fresh segment and the old segments
//! removed, so the least recently used records go first. `quarantine
//! list`/`purge` inspect and empty the quarantine directory. `export`
//! merges the store's segments into one checksummed `LVCB` bundle
//! (optionally only records touched within the last `--since SECS`);
//! `import` publishes a bundle's new records into a store root as one
//! segment — atomically, idempotently, quarantining bad records, exit
//! code 1 if any record was quarantined.
//!
//! Exit codes: 0 clean, 1 `verify` quarantined at least one segment (or
//! `import` quarantined a bundle record), 2 usage or I/O errors (a root
//! still in the per-record layout of earlier releases is one).

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lowvcc_bench::{ResultStore, StoreError};

const USAGE: &str = "usage: lowvcc-store <stats|verify|quarantine list|quarantine purge> DIR\n\
                     \x20      lowvcc-store vacuum --max-bytes N[k|m|g] DIR\n\
                     \x20      lowvcc-store export --out FILE [--since SECS] DIR\n\
                     \x20      lowvcc-store import FILE DIR";

/// Binary-local error: either a usage problem or a store failure.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Store(StoreError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) => f.write_str(msg),
            Self::Store(e) => write!(f, "store operation failed: {e}"),
        }
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// A validated command — pure function of the argument list, so the
/// grammar is unit-testable without touching a disk.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Stats(PathBuf),
    Verify(PathBuf),
    Vacuum {
        dir: PathBuf,
        max_bytes: u64,
    },
    QuarantineList(PathBuf),
    QuarantinePurge(PathBuf),
    Export {
        dir: PathBuf,
        out: PathBuf,
        since: Option<Duration>,
    },
    Import {
        dir: PathBuf,
        file: PathBuf,
    },
    Help,
}

/// Parses a byte budget with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `500m` is 500 MiB.
fn parse_bytes(arg: &str) -> Result<u64, CliError> {
    let (digits, shift) = match arg.to_ascii_lowercase().strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d.to_string(),
            match arg.chars().last().map(|c| c.to_ascii_lowercase()) {
                Some('k') => 10,
                Some('m') => 20,
                _ => 30,
            },
        ),
        None => (arg.to_string(), 0),
    };
    match digits.parse::<u64>() {
        // checked_mul, not a shift: bits shifted out the top must be an
        // error, not a silently tiny budget.
        Ok(n) => n
            .checked_mul(1u64 << shift)
            .ok_or(())
            .or_else(|()| usage(format!("bad byte budget {arg}: overflows u64"))),
        Err(_) => usage(format!(
            "bad byte budget {arg}; want e.g. 500m or 1073741824"
        )),
    }
}

/// Parses the argument list (everything after `argv[0]`).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    match args.first().map(String::as_str) {
        Some("stats") => match &args[1..] {
            [dir] => Ok(Command::Stats(PathBuf::from(dir))),
            _ => usage(format!("stats takes exactly one DIR\n{USAGE}")),
        },
        Some("verify") => match &args[1..] {
            [dir] => Ok(Command::Verify(PathBuf::from(dir))),
            _ => usage(format!("verify takes exactly one DIR\n{USAGE}")),
        },
        Some("vacuum") => match &args[1..] {
            [flag, budget, dir] if flag == "--max-bytes" => Ok(Command::Vacuum {
                dir: PathBuf::from(dir),
                max_bytes: parse_bytes(budget)?,
            }),
            _ => usage(format!("vacuum needs --max-bytes N and a DIR\n{USAGE}")),
        },
        Some("quarantine") => match &args[1..] {
            [sub, dir] if sub == "list" => Ok(Command::QuarantineList(PathBuf::from(dir))),
            [sub, dir] if sub == "purge" => Ok(Command::QuarantinePurge(PathBuf::from(dir))),
            _ => usage(format!("quarantine takes list|purge and a DIR\n{USAGE}")),
        },
        Some("export") => match &args[1..] {
            [flag, out, dir] if flag == "--out" => Ok(Command::Export {
                dir: PathBuf::from(dir),
                out: PathBuf::from(out),
                since: None,
            }),
            [flag, out, since_flag, secs, dir] if flag == "--out" && since_flag == "--since" => {
                let secs: u64 = secs
                    .parse()
                    .or_else(|_| usage(format!("bad --since {secs}; want a number of seconds")))?;
                Ok(Command::Export {
                    dir: PathBuf::from(dir),
                    out: PathBuf::from(out),
                    since: Some(Duration::from_secs(secs)),
                })
            }
            _ => usage(format!(
                "export needs --out FILE [--since SECS] and a DIR\n{USAGE}"
            )),
        },
        Some("import") => match &args[1..] {
            [file, dir] => Ok(Command::Import {
                dir: PathBuf::from(dir),
                file: PathBuf::from(file),
            }),
            _ => usage(format!("import takes a FILE and a DIR\n{USAGE}")),
        },
        Some(other) => usage(format!("unknown command {other}\n{USAGE}")),
        None => usage(USAGE),
    }
}

/// Runs a validated command; returns the process exit code.
fn run(cmd: Command) -> Result<ExitCode, CliError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Stats(dir) => {
            let store = ResultStore::open(dir)?;
            let s = store.summary()?;
            println!("segments:            {}", s.entries);
            println!("segment bytes:       {}", s.entry_bytes);
            println!("quarantined files:   {}", s.quarantined_entries);
            println!("quarantined bytes:   {}", s.quarantined_bytes);
            println!("orphans swept:       {}", s.orphans_swept);
            println!("degraded:            {}", s.degraded);
            Ok(ExitCode::SUCCESS)
        }
        Command::Verify(dir) => {
            let store = ResultStore::open(dir)?;
            let r = store.verify()?;
            println!(
                "scanned {} segments: {} ok ({} records, {} bytes), {} quarantined",
                r.scanned, r.ok, r.ok_records, r.ok_bytes, r.quarantined
            );
            Ok(if r.quarantined == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        Command::Vacuum { dir, max_bytes } => {
            let store = ResultStore::open(dir)?;
            let r = store.vacuum(max_bytes)?;
            println!(
                "kept {} records in {} segments ({} bytes), dropped {} records and removed {} \
                 segments ({} bytes) to fit {max_bytes} bytes",
                r.kept_records, r.kept, r.kept_bytes, r.removed_records, r.removed, r.removed_bytes
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::QuarantineList(dir) => {
            let store = ResultStore::open(dir)?;
            let entries = store.quarantine_list()?;
            for e in &entries {
                println!("{}\t{}", e.bytes, e.path.display());
            }
            println!("{} quarantined file(s)", entries.len());
            Ok(ExitCode::SUCCESS)
        }
        Command::QuarantinePurge(dir) => {
            let store = ResultStore::open(dir)?;
            let purged = store.quarantine_purge()?;
            println!("purged {purged} quarantined file(s)");
            Ok(ExitCode::SUCCESS)
        }
        Command::Export { dir, out, since } => {
            let store = ResultStore::open(dir)?;
            let r = store.export_bundle(&out, since)?;
            println!(
                "bundled {} record(s) ({} bytes) into {} ({} corrupt segments skipped, \
                 {} records outside --since)",
                r.records,
                r.bytes,
                out.display(),
                r.skipped_corrupt,
                r.skipped_stale
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::Import { dir, file } => {
            let store = ResultStore::open(dir)?;
            let r = store.import_bundle(&file)?;
            println!(
                "imported {} record(s) from {} ({} already present, {} quarantined)",
                r.imported,
                file.display(),
                r.already_present,
                r.quarantined
            );
            Ok(if r.quarantined == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    fn usage_of(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Usage(msg)) => msg,
            Ok(c) => panic!("{args:?} accepted: {c:?}"),
            Err(CliError::Store(e)) => panic!("{args:?} hit the store: {e}"),
        }
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            parse(&["stats", "d"]).unwrap(),
            Command::Stats(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["verify", "d"]).unwrap(),
            Command::Verify(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["vacuum", "--max-bytes", "2k", "d"]).unwrap(),
            Command::Vacuum {
                dir: PathBuf::from("d"),
                max_bytes: 2048
            }
        );
        assert_eq!(
            parse(&["quarantine", "list", "d"]).unwrap(),
            Command::QuarantineList(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["quarantine", "purge", "d"]).unwrap(),
            Command::QuarantinePurge(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["export", "--out", "warm.lvcb", "d"]).unwrap(),
            Command::Export {
                dir: PathBuf::from("d"),
                out: PathBuf::from("warm.lvcb"),
                since: None,
            }
        );
        assert_eq!(
            parse(&["export", "--out", "warm.lvcb", "--since", "3600", "d"]).unwrap(),
            Command::Export {
                dir: PathBuf::from("d"),
                out: PathBuf::from("warm.lvcb"),
                since: Some(Duration::from_secs(3600)),
            }
        );
        assert_eq!(
            parse(&["import", "warm.lvcb", "d"]).unwrap(),
            Command::Import {
                dir: PathBuf::from("d"),
                file: PathBuf::from("warm.lvcb"),
            }
        );
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["-h"]).unwrap(), Command::Help);
    }

    #[test]
    fn byte_budgets_accept_binary_suffixes() {
        assert_eq!(parse_bytes("0").unwrap(), 0);
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("2k").unwrap(), 2 << 10);
        assert_eq!(parse_bytes("500m").unwrap(), 500 << 20);
        assert_eq!(parse_bytes("3G").unwrap(), 3u64 << 30);
        assert!(parse_bytes("banana").is_err());
        assert!(parse_bytes("9999999999999999999g").is_err());
        assert!(parse_bytes("").is_err());
    }

    #[test]
    fn malformed_invocations_are_usage_errors() {
        assert!(usage_of(&[]).contains("usage:"));
        assert!(usage_of(&["frobnicate", "d"]).contains("unknown command"));
        assert!(usage_of(&["stats"]).contains("exactly one DIR"));
        assert!(usage_of(&["stats", "a", "b"]).contains("exactly one DIR"));
        assert!(usage_of(&["verify"]).contains("exactly one DIR"));
        assert!(usage_of(&["vacuum", "d"]).contains("--max-bytes"));
        assert!(usage_of(&["vacuum", "--max-bytes", "x", "d"]).contains("bad byte budget"));
        assert!(usage_of(&["quarantine", "d"]).contains("list|purge"));
        assert!(usage_of(&["quarantine", "drop", "d"]).contains("list|purge"));
        assert!(usage_of(&["export", "d"]).contains("--out"));
        assert!(usage_of(&["export", "--out", "f", "--since", "soon", "d"]).contains("bad --since"));
        assert!(usage_of(&["import", "f"]).contains("FILE and a DIR"));
        assert!(usage_of(&["import", "f", "d", "x"]).contains("FILE and a DIR"));
    }
}
