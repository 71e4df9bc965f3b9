//! In-memory span tracing for the traced run.
//!
//! A span has a name, a start, an end and the id of its parent (the
//! span that was open on the same thread when it began). Spans are kept
//! in memory while the run measures and written out once at the end, so
//! recording never touches the disk. A span's self time is its duration
//! minus the durations of its direct children.
//!
//! Tracing is off unless [`enable`] is called: a disabled [`span`] is a
//! no-op guard, which is what the untraced runs use.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the first span of the
/// process; `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0.
    pub parent: u64,
    /// What was timed, e.g. `serve.router.request`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off for the whole process.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<(u64, u64, &'static str, u64)>,
}

/// Opens a span named `name` on the current thread (a no-op guard when
/// tracing is off).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, now_ns())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        let record = SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
    }
}

/// Removes and returns every finished span, in id order.
#[must_use]
pub fn take() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    spans.sort_by_key(|s| s.id);
    spans
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Totals and self times per span name.
#[must_use]
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes `spans` as one JSON array of
/// `{"id", "parent", "name", "start_ns", "end_ns"}` objects.
///
/// # Errors
///
/// Propagates file creation and write failures.
pub fn write_json(path: &Path, spans: &[SpanRecord]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
            },
            SpanRecord {
                id: 3,
                parent: 1,
                name: "inner",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["outer"].total_ns, 100);
        assert_eq!(t["outer"].self_ns, 50);
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["inner"].self_ns, 50);
    }
}
