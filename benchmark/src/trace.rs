//! The benchmark's own span recorder: spans are recorded around calls
//! into the program, from outside it, kept in memory and written out
//! when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// `parent` value of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request share this.
    pub request_id: u64,
}

/// Append-only span store. `open` and `close` are a clock read and a
/// vector write; the vector is preallocated so the traced window never
/// reallocates.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// An empty recorder on the same clock, to be [`absorb`](Self::absorb)ed
    /// later (one per client thread, one for the layer replay).
    pub fn fork(&self, capacity: usize) -> Self {
        Tracer::with_capacity(self.epoch, capacity)
    }

    /// Keeps the first `len` spans. Spans are appended parent first, so
    /// a prefix never holds a child without its parent.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, request_id: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` under a child span.
    pub fn scoped<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (same epoch), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, and
/// clipped to the parent, before subtracting).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(i as SpanId)) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total - covered
        })
        .collect()
}

/// Median self time, in µs, of the spans called `name` (0 when none).
pub fn median_self_us(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    let mut v: Vec<u64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect();
    crate::stats::median_ns_as_us(&mut v)
}

/// Writes `{"workload", "dropped_spans", "spans": [...]}`. `dropped` is
/// how many recorded spans the caller left out of `spans`.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    spans: &[Span],
    dropped: usize,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"dropped_spans\": {dropped}, \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request_id,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 50, 60, 0),
            span("leaf", 12, 20, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = vec![
            span("root", 100, 200, NO_PARENT),
            // Overlap: 110..150 ∪ 130..170 covers 60, not 80.
            span("a", 110, 150, 0),
            span("b", 130, 170, 0),
            // Nested inside `a`'s interval: adds nothing.
            span("c", 120, 140, 0),
            // Overhangs the parent's end: only 190..200 counts.
            span("d", 190, 260, 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn median_self_time_by_name() {
        let spans = vec![
            span("x", 0, 3_000, NO_PARENT),
            span("x", 0, 1_000, NO_PARENT),
            span("x", 0, 2_000, NO_PARENT),
            span("y", 0, 9_000, NO_PARENT),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(median_self_us(&spans, &st, "x"), 2.0);
        assert_eq!(median_self_us(&spans, &st, "z"), 0.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::with_capacity(epoch, 4);
        let r = a.open("request", NO_PARENT, 1);
        a.close(r);
        let mut b = Tracer::with_capacity(epoch, 4);
        let r = b.open("request", NO_PARENT, 2);
        let c = b.open("write", r, 2);
        b.close(c);
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
        assert_eq!(a.spans()[2].parent, 1);
    }
}
