//! Token-level invariant rules.
//!
//! Each rule walks the token stream produced by [`crate::lexer::lex`]
//! with the test-region mask applied, so `#[cfg(test)]` / `#[test]`
//! code is exempt from all of them. The rules are deliberately
//! syntactic: they flag spellings, not semantics, which keeps them
//! fast, dependency-free and predictable — and the waiver mechanism
//! exists precisely because syntactic rules have sanctioned
//! exceptions.

use crate::lexer::{Token, TokenKind};
use crate::policy::Policy;

/// Rule names, as they appear in diagnostics and `allow(...)` waivers.
pub const RULE_NAMES: &[&str] = &[
    "no-std-hash",
    "no-wallclock",
    "no-panic",
    "no-string-error",
    "no-print",
];

/// A rule hit before waivers are applied: `(line, rule, message)`.
pub type RawDiagnostic = (u32, &'static str, String);

/// Runs every rule the policy enables over one file's tokens.
/// `mask[i]` is true for tokens inside test regions, which are exempt.
pub fn check(tokens: &[Token], mask: &[bool], policy: &Policy) -> Vec<RawDiagnostic> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) || tok.kind != TokenKind::Ident {
            continue;
        }
        if policy.no_std_hash {
            no_std_hash(tokens, i, &mut out);
        }
        if policy.no_wallclock {
            no_wallclock(tokens, i, &mut out);
        }
        if policy.no_panic {
            no_panic(tokens, i, &mut out);
        }
        if policy.no_print {
            no_print(tokens, i, &mut out);
        }
        if policy.no_string_error {
            no_string_error(tokens, i, &mut out);
        }
    }
    out
}

fn at(tokens: &[Token], i: usize) -> Option<&Token> {
    tokens.get(i)
}

fn is_punct(tokens: &[Token], i: usize, text: &str) -> bool {
    at(tokens, i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(tokens: &[Token], i: usize, text: &str) -> bool {
    at(tokens, i).is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

/// Determinism: result-producing code must not iterate `HashMap` /
/// `HashSet` (their order is randomized per process, so any output
/// derived from iteration order silently varies run to run). Use
/// `BTreeMap` / `BTreeSet` or a `Vec` instead.
fn no_std_hash(tokens: &[Token], i: usize, out: &mut Vec<RawDiagnostic>) {
    let t = &tokens[i];
    if t.text == "HashMap" || t.text == "HashSet" {
        out.push((
            t.line,
            "no-std-hash",
            format!(
                "{} in result-producing code: iteration order is randomized; \
                 use BTreeMap/BTreeSet or a Vec",
                t.text
            ),
        ));
    }
}

/// Determinism: simulated results must not read the wall clock.
/// `Instant::now` and `SystemTime` belong only in the whitelisted
/// timing modules (serve timeouts, store atime).
fn no_wallclock(tokens: &[Token], i: usize, out: &mut Vec<RawDiagnostic>) {
    let t = &tokens[i];
    if t.text == "SystemTime" {
        out.push((
            t.line,
            "no-wallclock",
            "SystemTime outside a whitelisted timing module".to_string(),
        ));
    }
    if t.text == "Instant" && is_punct(tokens, i + 1, "::") && is_ident(tokens, i + 2, "now") {
        out.push((
            t.line,
            "no-wallclock",
            "Instant::now() outside a whitelisted timing module".to_string(),
        ));
    }
}

/// Panic-freedom: the serve loop and the store hot path must degrade,
/// not die. `.unwrap()` / `.expect(...)` and the panicking macros are
/// banned in non-test code there; route failures into typed errors or
/// stats counters.
fn no_panic(tokens: &[Token], i: usize, out: &mut Vec<RawDiagnostic>) {
    let t = &tokens[i];
    if (t.text == "unwrap" || t.text == "expect") && i > 0 && is_punct(tokens, i - 1, ".") {
        out.push((
            t.line,
            "no-panic",
            format!(
                ".{}() in panic-free code: convert the failure into a typed \
                 error or a stats counter",
                t.text
            ),
        ));
    }
    if matches!(t.text.as_str(), "panic" | "todo" | "unimplemented") && is_punct(tokens, i + 1, "!")
    {
        out.push((
            t.line,
            "no-panic",
            format!("{}! in panic-free code", t.text),
        ));
    }
}

/// Library crates must not write to stdout/stderr directly; binaries
/// own the terminal. (Operator-facing logs in long-running servers are
/// the sanctioned exception, via an inline waiver.)
fn no_print(tokens: &[Token], i: usize, out: &mut Vec<RawDiagnostic>) {
    let t = &tokens[i];
    if matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
        && is_punct(tokens, i + 1, "!")
    {
        out.push((
            t.line,
            "no-print",
            format!(
                "{}! in a library crate: only binaries own the terminal",
                t.text
            ),
        ));
    }
}

/// Public APIs must use typed errors: `Result<_, String>` in a `pub fn`
/// return type loses the failure taxonomy and forecloses matching.
fn no_string_error(tokens: &[Token], i: usize, out: &mut Vec<RawDiagnostic>) {
    if tokens[i].text != "pub" {
        return;
    }
    // `pub(crate)` / `pub(super)` are not public API.
    if is_punct(tokens, i + 1, "(") {
        return;
    }
    // Allow qualifiers between `pub` and `fn` (const, async, extern "C").
    let mut j = i + 1;
    let mut saw_fn = false;
    while j < tokens.len() && j <= i + 4 {
        if is_ident(tokens, j, "fn") {
            saw_fn = true;
            break;
        }
        if tokens[j].kind != TokenKind::Ident && tokens[j].kind != TokenKind::Str {
            break;
        }
        j += 1;
    }
    if !saw_fn {
        return;
    }
    // Signature: from `fn` to the body `{` or trait-decl `;`.
    let mut end = tokens.len();
    let mut arrow = None;
    for (k, t) in tokens.iter().enumerate().skip(j) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" | ";" => {
                    end = k;
                    break;
                }
                "->" if arrow.is_none() => arrow = Some(k),
                _ => {}
            }
        }
    }
    let Some(arrow) = arrow else { return };
    // Find `Result <` in the return type and the comma at depth 1.
    let mut k = arrow;
    while k < end {
        if is_ident(tokens, k, "Result") && is_punct(tokens, k + 1, "<") {
            if let Some(diag) = string_error_arg(tokens, k + 1, end) {
                out.push(diag);
            }
            return;
        }
        k += 1;
    }
}

/// From the `<` after `Result`, checks whether the error type is
/// exactly a path ending in `String`.
fn string_error_arg(tokens: &[Token], open: usize, end: usize) -> Option<RawDiagnostic> {
    let mut depth = 0i32;
    let mut err_start = None;
    for k in open..end {
        let t = &tokens[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        let start = err_start?;
                        let err = &tokens[start..k];
                        let all_path = err.iter().all(|t| {
                            t.kind == TokenKind::Ident
                                || (t.kind == TokenKind::Punct && t.text == "::")
                        });
                        let last_is_string = err.last().is_some_and(|t| t.text == "String");
                        if all_path && last_is_string {
                            return Some((
                                tokens[start].line,
                                "no-string-error",
                                "Result<_, String> in a public signature: use a typed error"
                                    .to_string(),
                            ));
                        }
                        return None;
                    }
                }
                "," if depth == 1 => err_start = Some(k + 1),
                _ => {}
            }
        }
    }
    None
}
