//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer's public functions; the program itself is not instrumented
//! here. Each span has a name, start, end, parent (the enclosing span on
//! the same thread) and a group id shared by every span of one model, fit
//! or request. Spans stay in memory while recording is on and are written
//! at the end as Chrome trace events, which Perfetto and `chrome://tracing`
//! load like `GPROB_TRACE` output.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::util::json_string;

/// One closed span, times in nanoseconds since the recorder's anchor.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a root span.
    pub parent: u64,
    /// Shared by every span of one model, fit or request.
    pub group: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on or off. Spans opened while off cost one atomic load.
pub fn set_enabled(on: bool) {
    anchor();
    ON.store(on, Ordering::SeqCst);
}

/// An open span; closing happens on drop.
pub struct Span {
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start: Instant,
}

/// Opens a span named `layer.call` in `group`.
pub fn span(name: &'static str, group: u64) -> Option<Span> {
    if !ON.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Span {
        id,
        parent,
        group,
        name,
        start: Instant::now(),
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let base = anchor();
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            group: self.group,
            name: self.name,
            tid: TID.with(|t| *t),
            start_ns: self.start.saturating_duration_since(base).as_nanos() as u64,
            end_ns: end.saturating_duration_since(base).as_nanos() as u64,
        };
        // Never panic in drop: a poisoned lock still holds valid records.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(record);
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals: `(count, total_ns, self_ns)`, where self time is the
/// span's duration minus the time its direct children cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += dur;
        row.2 += own;
    }
    table
}

/// Self time summed per layer (the name up to its first `.`). Root spans
/// are named `workload.*`; their self time is time no layer call covers,
/// reported as the `unattributed` row.
pub fn layer_self_ms(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, (_, _, own)) in self_times(spans) {
        let layer = match name.split('.').next() {
            Some("workload") | None => "unattributed",
            Some(layer) => layer,
        };
        *out.entry(layer.to_string()).or_default() += own as f64 / 1e6;
    }
    out
}

/// Renders the self-time table as text.
pub fn self_time_table(workload: &str, spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let table = self_times(spans);
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let _ = writeln!(
        out,
        "self-time table ({workload}, {} spans, root time {:.1} ms):",
        spans.len(),
        roots as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, (count, total, own)) in &table {
        let _ = writeln!(
            out,
            "  {name:<34} {count:>8} {:>12.2} {:>12.2} {:>6.1}%",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            100.0 * *own as f64 / roots.max(1) as f64
        );
    }
    let _ = writeln!(out, "  per layer (self ms):");
    for (layer, ms) in layer_self_ms(spans) {
        let _ = writeln!(out, "  {layer:<34} {ms:>12.2}");
    }
    out
}

/// Writes spans as a Chrome trace-event JSON object, with the machine
/// fingerprint under `otherData`.
pub fn write_chrome(
    path: &std::path::Path,
    spans: &[SpanRecord],
    metadata: &[(String, String)],
) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push_str("},\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
            json_string(s.name),
            json_string(s.name.split('.').next().unwrap_or("")),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.group
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            group: 1,
            name,
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            rec(1, 0, "workload.measure", 0, 100),
            rec(2, 1, "gprob.bind", 10, 40),
            rec(3, 2, "gprob.inner", 15, 25),
            rec(4, 1, "deepstan.run", 50, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["workload.measure"], (1, 100, 30));
        assert_eq!(t["gprob.bind"], (1, 30, 20));
        let layers = layer_self_ms(&spans);
        assert!((layers["unattributed"] - 30e-6).abs() < 1e-12);
        assert!((layers["gprob"] - 30e-6).abs() < 1e-12);
    }
}
