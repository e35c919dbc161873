//! The span recorder of the traced run and its summaries.
//!
//! A span has a name (`layer.what`), a start and an end on one shared
//! monotonic clock, the span that caused it, and the id of the round it
//! belongs to. Spans stay in memory until the run ends. A span's *self
//! time* is its duration minus the part of it that its children cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

/// Nanoseconds on the clock every span shares.
pub fn now_ns() -> u64 {
    u64::try_from(ORIGIN.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn next_id() -> u32 {
    // A unique id is all this publishes.
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub round: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn new(name: &'static str, round: u32, parent: Option<u32>, start_ns: u64) -> Span {
        Span {
            id: next_id(),
            parent,
            round,
            name,
            start_ns,
            end_ns: start_ns,
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_us(&self) -> f64 {
        self.dur_ns() as f64 / 1e3
    }

    /// The layer is the name's first dot-separated part.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's spans. An inactive recorder records nothing, so the
/// same code path serves traced and untraced runs.
#[derive(Debug, Default)]
pub struct Recorder {
    active: bool,
    spans: Vec<Span>,
}

/// Handle of an open span: its index in the recorder and its id.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    pub id: u32,
}

impl Recorder {
    pub fn new(active: bool) -> Recorder {
        Recorder {
            active,
            spans: Vec::new(),
        }
    }

    pub fn is_active(&self) -> bool {
        self.active
    }

    pub fn open(&mut self, name: &'static str, round: u32, parent: Option<Open>) -> Option<Open> {
        if !self.active {
            return None;
        }
        let span = Span::new(name, round, parent.map(|p| p.id), now_ns());
        let open = Open {
            index: self.spans.len(),
            id: span.id,
        };
        self.spans.push(span);
        Some(open)
    }

    pub fn close(&mut self, open: Option<Open>) {
        if let Some(span) = open.and_then(|o| self.spans.get_mut(o.index)) {
            span.end_ns = now_ns();
        }
    }

    /// Rename an open span once the work has shown what it was (a
    /// discard cycle is full or incremental only after it ran).
    pub fn rename(&mut self, open: Option<Open>, name: &'static str) {
        if let Some(span) = open.and_then(|o| self.spans.get_mut(o.index)) {
            span.name = name;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        *by_layer.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    by_layer
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Durations in µs of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

/// Write the spans as JSON lines, one span a line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.round, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            round: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "client.round", 0, 100),
            span(2, Some(1), "net.wait", 10, 50),
            span(3, Some(1), "net.decode", 40, 70),
            span(4, Some(3), "net.inner", 45, 200),
        ];
        let by_layer = self_time_by_layer(&spans);
        // Round: 100 - |[10,70]| = 40. Children: wait 40, decode 30 - 25.
        assert_eq!(by_layer["client"], 40);
        assert_eq!(by_layer["net"], 40 + 5 + 155);
    }

    #[test]
    fn inactive_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.open("x.y", 0, None);
        assert!(open.is_none());
        rec.close(open);
        assert!(rec.into_spans().is_empty());
    }
}
