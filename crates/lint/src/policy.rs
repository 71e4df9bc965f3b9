//! Per-file rule policy: which invariants apply where.
//!
//! The scopes mirror the workspace layering (see `DESIGN.md` §10):
//!
//! * **Determinism** (`no-std-hash`) binds the result-producing crates
//!   — `core`, `baselines` and `bench`'s experiment drivers — where
//!   randomized hash iteration order could leak into published
//!   numbers, plus serve's sharding layer (`shard.rs`, `router.rs`):
//!   the ring partition and the router's merge order must be pure
//!   functions of configuration, so a `RandomState` leak there would
//!   scatter keys across shards between runs. Infrastructure code
//!   (`trace` synthesis internals, the store's keyed maps, serve's
//!   connection registry in `conn.rs`) may hash freely: it never
//!   iterates into an output.
//! * **Determinism** (`no-wallclock`) binds everything *except* the
//!   whitelisted timing modules: the serve crate (socket timeouts and
//!   drain deadlines) and the store admin's atime-based LRU.
//! * **Panic-freedom** (`no-panic`) binds the serve crate and the
//!   result-store hot path (`store.rs`, `store_io.rs`): a daemon and
//!   its cache must degrade, never die.
//! * **Typed errors** (`no-string-error`) and **no direct terminal
//!   output** (`no-print`) bind every library source file; binaries
//!   own the terminal and their own exit codes.
//!
//! Test directories, examples, benches, vendored code and the build
//! tree are never scanned; `#[cfg(test)]` regions inside scanned files
//! are masked at the token level.

/// Which rules apply to one file. Layering is checked separately from
/// manifests, not per source file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Policy {
    /// Ban `HashMap` / `HashSet`.
    pub no_std_hash: bool,
    /// Ban `Instant::now` / `SystemTime`.
    pub no_wallclock: bool,
    /// Ban `.unwrap()` / `.expect()` / panicking macros.
    pub no_panic: bool,
    /// Ban `Result<_, String>` in public signatures.
    pub no_string_error: bool,
    /// Ban `println!` / `eprintln!` and friends.
    pub no_print: bool,
}

impl Policy {
    /// True when no rule applies (the file can be skipped).
    pub fn is_empty(&self) -> bool {
        *self == Policy::default()
    }
}

/// Returns the policy for a workspace-relative path (forward slashes),
/// or `None` when the file is out of scope entirely.
pub fn policy_for(rel: &str) -> Option<Policy> {
    // Vendored and generated code is out of scope.
    if rel.starts_with("third_party/") || rel.starts_with("target/") {
        return None;
    }
    // Whole-file test/bench/example trees are test code.
    if rel.contains("/tests/") || rel.contains("/examples/") || rel.contains("/benches/") {
        return None;
    }
    // Only library/binary sources are scanned.
    let in_src = rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    if !in_src || !rel.ends_with(".rs") {
        return None;
    }

    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs");

    let no_std_hash = rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/baselines/src/")
        || rel.starts_with("crates/bench/src/experiments")
        || rel == "crates/serve/src/shard.rs"
        || rel == "crates/serve/src/router.rs";

    let wallclock_whitelisted =
        rel.starts_with("crates/serve/src/") || rel == "crates/bench/src/admin.rs";

    let no_panic = rel.starts_with("crates/serve/src/")
        || rel == "crates/bench/src/store.rs"
        || rel == "crates/bench/src/store_io.rs";

    Some(Policy {
        no_std_hash,
        no_wallclock: !wallclock_whitelisted,
        no_panic,
        no_string_error: !is_bin,
        no_print: !is_bin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_the_design() {
        let core = policy_for("crates/core/src/engine.rs").unwrap();
        assert!(core.no_std_hash && core.no_wallclock && !core.no_panic);

        let trace = policy_for("crates/trace/src/stats.rs").unwrap();
        assert!(
            !trace.no_std_hash,
            "trace may hash: it never iterates into results"
        );

        let serve = policy_for("crates/serve/src/lib.rs").unwrap();
        assert!(serve.no_panic && !serve.no_wallclock && serve.no_print);

        let shard = policy_for("crates/serve/src/shard.rs").unwrap();
        assert!(
            shard.no_std_hash && shard.no_panic,
            "the ring partition must not depend on RandomState"
        );
        let router = policy_for("crates/serve/src/router.rs").unwrap();
        assert!(
            router.no_std_hash,
            "router merge order must not depend on RandomState"
        );
        assert!(
            router.no_panic,
            "the failover path must degrade, never panic"
        );
        let conn = policy_for("crates/serve/src/conn.rs").unwrap();
        assert!(
            !conn.no_std_hash,
            "the connection registry may hash: it never iterates into results"
        );

        let store = policy_for("crates/bench/src/store.rs").unwrap();
        assert!(store.no_panic && !store.no_std_hash);

        let admin = policy_for("crates/bench/src/admin.rs").unwrap();
        assert!(
            !admin.no_wallclock,
            "the store admin is a whitelisted timing module"
        );
        let context = policy_for("crates/bench/src/context.rs").unwrap();
        assert!(
            context.no_wallclock,
            "the grid runner is not a timing module"
        );

        let exp = policy_for("crates/bench/src/experiments/mod.rs").unwrap();
        assert!(exp.no_std_hash && exp.no_wallclock);

        let bin = policy_for("crates/bench/src/bin/experiments.rs").unwrap();
        assert!(!bin.no_print && !bin.no_string_error && bin.no_wallclock);
    }

    #[test]
    fn out_of_scope_paths_are_skipped() {
        assert!(policy_for("crates/bench/tests/chaos.rs").is_none());
        assert!(policy_for("third_party/criterion/src/lib.rs").is_none());
        assert!(policy_for("examples/sweep.rs").is_none());
        assert!(policy_for("crates/core/benches/engine.rs").is_none());
        assert!(policy_for("README.md").is_none());
    }
}
