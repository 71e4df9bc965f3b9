//! Seeded-violation fixtures: every rule must fire with the exact
//! rule name and line on a snippet built to violate it, and must stay
//! quiet on the matching sanctioned spelling. The final tests run the
//! real `lowvcc-lint` binary: non-zero (with the diagnostics printed)
//! on a seeded temp workspace, zero on this repository itself.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use lowvcc_lint::{lint_source, lint_workspace, Diagnostic};

/// `(rule, line)` pairs in report order.
fn hits(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn no_std_hash_fires_in_result_producing_code() {
    let src = "use std::collections::HashMap;\n\
               pub struct Sched {\n\
               \x20   ready: HashMap<u32, u32>,\n\
               }\n";
    let diags = lint_source("crates/core/src/sched.rs", src);
    assert_eq!(hits(&diags), vec![("no-std-hash", 1), ("no-std-hash", 3)]);

    // The same spelling is sanctioned in infrastructure crates.
    assert!(lint_source("crates/trace/src/stats.rs", src).is_empty());
}

#[test]
fn no_wallclock_fires_outside_the_whitelist() {
    let src = "fn stamp() {\n\
               \x20   let a = std::time::Instant::now();\n\
               \x20   let b = std::time::SystemTime::now();\n\
               }\n";
    let diags = lint_source("crates/uarch/src/pipeline.rs", src);
    assert_eq!(hits(&diags), vec![("no-wallclock", 2), ("no-wallclock", 3)]);

    // The timing modules are whitelisted; the rest of bench is not.
    assert!(lint_source("crates/serve/src/lib.rs", src).is_empty());
    assert!(lint_source("crates/bench/src/admin.rs", src).is_empty());
    assert_eq!(
        hits(&lint_source("crates/bench/src/context.rs", src)),
        vec![("no-wallclock", 2), ("no-wallclock", 3)]
    );

    // `Instant::elapsed` etc. without `now` is not a wall-clock read.
    let ok = "fn f(t: std::time::Instant) -> u128 { t.elapsed().as_nanos() }\n";
    assert!(lint_source("crates/uarch/src/pipeline.rs", ok).is_empty());
}

#[test]
fn no_panic_fires_on_the_store_hot_path() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   x.unwrap()\n\
               }\n\
               fn g(y: Result<u32, u32>) -> u32 {\n\
               \x20   y.expect(\"y\")\n\
               }\n\
               fn h() {\n\
               \x20   panic!(\"boom\");\n\
               }\n";
    let diags = lint_source("crates/bench/src/store.rs", src);
    assert_eq!(
        hits(&diags),
        vec![("no-panic", 2), ("no-panic", 5), ("no-panic", 8)]
    );

    // Out of the panic-free scope the same code is legal.
    assert!(lint_source("crates/core/src/engine.rs", src)
        .iter()
        .all(|d| d.rule != "no-panic"));

    // `unwrap_or` / `unwrap_or_else` are the sanctioned spellings.
    let ok = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
    assert!(lint_source("crates/bench/src/store.rs", ok).is_empty());
}

#[test]
fn no_string_error_fires_on_public_signatures_only() {
    let src = "pub fn parse(s: &str) -> Result<u32, String> {\n\
               \x20   s.parse().map_err(|_| s.to_string())\n\
               }\n";
    let diags = lint_source("crates/energy/src/model.rs", src);
    assert_eq!(hits(&diags), vec![("no-string-error", 1)]);

    // Crate-private, typed-error and Ok-side-String signatures pass.
    for ok in [
        "pub(crate) fn parse(s: &str) -> Result<u32, String> { todo() }\n",
        "fn parse(s: &str) -> Result<u32, String> { todo() }\n",
        "pub fn parse(s: &str) -> Result<u32, ParseError> { todo() }\n",
        "pub fn render(s: &str) -> Result<String, ParseError> { todo() }\n",
    ] {
        assert!(
            lint_source("crates/energy/src/model.rs", ok).is_empty(),
            "falsely flagged: {ok}"
        );
    }
}

#[test]
fn no_print_fires_in_libraries_but_not_binaries() {
    let src = "fn log() {\n\
               \x20   println!(\"hi\");\n\
               \x20   eprint!(\"x\");\n\
               }\n";
    let diags = lint_source("crates/trace/src/synth.rs", src);
    assert_eq!(hits(&diags), vec![("no-print", 2), ("no-print", 3)]);

    // Binaries own the terminal.
    assert!(lint_source("crates/bench/src/bin/experiments.rs", src).is_empty());
    assert!(lint_source("crates/serve/src/main.rs", src).is_empty());
}

#[test]
fn test_regions_are_exempt() {
    let src = "pub fn real(x: Option<u32>) -> u32 {\n\
               \x20   x.unwrap()\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() {\n\
               \x20       super::real(None.unwrap());\n\
               \x20       println!(\"test output is fine\");\n\
               \x20   }\n\
               }\n";
    let diags = lint_source("crates/serve/src/lib.rs", src);
    assert_eq!(hits(&diags), vec![("no-panic", 2)], "{diags:?}");
}

#[test]
fn waivers_suppress_exactly_one_site_and_must_earn_their_keep() {
    // Covers its own line and the next — not two below.
    let src = "fn a() {\n\
               \x20   // lint: allow(no-print) -- operator log\n\
               \x20   eprintln!(\"covered\");\n\
               \x20   eprintln!(\"not covered\");\n\
               }\n";
    let diags = lint_source("crates/trace/src/synth.rs", src);
    assert_eq!(hits(&diags), vec![("no-print", 4)]);

    // A waiver that suppresses nothing is itself an error…
    let stale = "// lint: allow(no-print) -- nothing prints\nfn quiet() {}\n";
    let diags = lint_source("crates/trace/src/synth.rs", stale);
    assert_eq!(hits(&diags), vec![("stale-waiver", 1)]);

    // …and so are a missing reason and an unknown rule name.
    let unreasoned = "// lint: allow(no-print)\nfn f() { eprintln!(\"x\"); }\n";
    let diags = lint_source("crates/trace/src/synth.rs", unreasoned);
    assert_eq!(hits(&diags), vec![("waiver-syntax", 1), ("no-print", 2)]);

    let unknown = "// lint: allow(no-sush-rule) -- typo\nfn f() {}\n";
    let diags = lint_source("crates/trace/src/synth.rs", unknown);
    assert_eq!(hits(&diags), vec![("waiver-unknown-rule", 1)]);
}

/// Writes a minimal two-crate workspace with one seeded source
/// violation and one inverted manifest dependency edge.
fn seed_bad_workspace(root: &Path) {
    let w = |rel: &str, text: &str| {
        let p = root.join(rel);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, text).unwrap();
    };
    w(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/core\", \"crates/sram\"]\n",
    );
    // Inverted edge: the bottom layer depending on a layer above it.
    w(
        "crates/sram/Cargo.toml",
        "[package]\nname = \"lowvcc-sram\"\n\n[dependencies]\n\
         lowvcc-core = { path = \"../core\" }\n",
    );
    w(
        "crates/core/Cargo.toml",
        "[package]\nname = \"lowvcc-core\"\n",
    );
    w(
        "crates/core/src/lib.rs",
        "use std::collections::HashMap;\npub fn f() {}\n",
    );
    w("crates/sram/src/lib.rs", "pub fn g() {}\n");
}

fn fixture_root(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lowvcc_lint_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[test]
fn lint_workspace_reports_seeded_source_and_layering_violations() {
    let root = fixture_root("ws");
    seed_bad_workspace(&root);
    let diags = lint_workspace(&root).unwrap();
    let got: Vec<(&str, &str, u32)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.rule, d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/core/src/lib.rs", "no-std-hash", 1),
            ("crates/sram/Cargo.toml", "layering", 1),
        ],
        "{diags:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_binary_fails_on_seeded_violations_and_names_them() {
    let root = fixture_root("bin");
    seed_bad_workspace(&root);
    let out = Command::new(env!("CARGO_BIN_EXE_lowvcc-lint"))
        .arg(&root)
        .output()
        .unwrap();
    assert!(!out.status.success(), "seeded tree must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:1: no-std-hash:"),
        "diagnostic must carry file:line: rule — got:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/sram/Cargo.toml:1: layering:"),
        "layering diagnostic missing — got:\n{stdout}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_real_tree_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).unwrap();
    assert!(
        diags.is_empty(),
        "the workspace must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
