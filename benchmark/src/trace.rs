//! In-memory span recorder for the traced run.
//!
//! A span is opened just before a call into one layer's public API and
//! closed right after it returns: name, start, end, the span that caused
//! it, and the operation (pass or request) it belongs to. Spans stay in
//! memory until the run ends and are then written out in one go, so
//! recording costs two clock reads and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `interp.run`.
    pub name: &'static str,
    /// What the call worked on (program or source name; `""` if none).
    pub item: &'static str,
    /// Operation this span belongs to: pass or request index.
    pub op: u64,
    /// 1-based id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Collects spans for one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, item: &'static str, op: u64, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            op,
            parent,
            start_ns,
            end_ns: 0,
        });
        u32::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// Closes span `id` and returns its duration in microseconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.us()
    }

    /// Runs `f` inside a span that has no children.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        item: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, item, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-operation totals of span `name`, in microseconds: one value
    /// per distinct `op` that has such a span, in ascending `op` order.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut totals = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.op).or_default() += s.us();
        }
        totals.into_values().collect()
    }

    /// Durations of span `name` on `item`, in microseconds.
    pub fn item_us(&self, name: &str, item: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.item == item)
            .map(Span::us)
            .collect()
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"item\": \"{}\", \"op\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.name,
                s.item,
                s.op,
                s.parent,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate_per_operation() {
        let mut tr = Tracer::default();
        for op in 0..3 {
            let root = tr.open("pass", "", op, 0);
            tr.leaf("stage", "a", op, root, || std::hint::black_box(1 + 1));
            tr.leaf("stage", "b", op, root, || std::hint::black_box(2 + 2));
            tr.close(root);
        }
        assert_eq!(tr.spans().len(), 9);
        assert_eq!(tr.spans()[1].parent, 1);
        assert_eq!(tr.per_op_us("stage").len(), 3);
        assert_eq!(tr.item_us("stage", "a").len(), 3);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.to_jsonl().lines().count(), 9);
    }
}
