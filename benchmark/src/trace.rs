//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the harness around calls into the crates' public
//! functions; nothing inside the program is instrumented. They stay in
//! memory and are written as JSONL when the run ends, so recording costs a
//! `Vec::push` and two clock reads per span.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root; spans of one op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    /// Ids of the currently open spans, innermost last.
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new op: spans recorded from now on carry the new op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since this tracer's epoch for an instant taken elsewhere
    /// (client threads time their requests themselves).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured span under `parent` (0 for a root) and
    /// returns its id.
    pub fn record(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in `unit_ns` units
    /// (1e6 → ms, 1e3 → µs).
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / unit_ns)
            .collect()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Share of the spans named `root` that no child span accounts for, in
    /// percent of their total duration.
    pub fn unaccounted_pct(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let (mut total, mut unaccounted) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == root {
                total += s.dur_ns();
                unaccounted += own;
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * unaccounted as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        let root = t.record(0, "op", 0, 1000);
        let a = t.record(root, "a", 100, 400);
        t.record(a, "a.inner", 150, 250);
        t.record(root, "b", 400, 950);
        assert_eq!(t.self_ns(), vec![150, 200, 100, 550]);
        // 150 of the root's 1000 ns are covered by no child.
        assert!((t.unaccounted_pct("op") - 15.0).abs() < 1e-9);
        assert_eq!(t.unaccounted_pct("missing"), 0.0);
        assert_eq!(t.durations("a", 1.0), vec![300.0]);
    }

    #[test]
    fn nested_closures_link_parents_and_ops() {
        let mut t = Tracer::new();
        t.next_op();
        let got = t.span("op", |t| t.span("stage", |_| 7));
        assert_eq!(got, 7);
        let spans = t.spans();
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op), ("op", 0, 1));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("stage", 1, 1)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
