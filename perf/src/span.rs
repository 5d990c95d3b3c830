//! In-memory spans for the traced pass.
//!
//! The harness opens a span around every call into a layer's public
//! API (`pass → cell → {world_build, formation, rekey, collect}` and
//! `pass → {render, manifest}`), attaches exact count deltas at the
//! same boundary, keeps everything in memory, and writes one JSON file
//! at exit. Spans inside the crates are a later change.

use std::time::Instant;

use crate::json::J;

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Phase or layer name.
    pub name: &'static str,
    /// Free-form label (cell coordinates).
    pub label: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Exact counts taken at the span's boundaries (deltas).
    pub counts: Vec<(&'static str, u64)>,
}

/// Records spans when enabled; a disabled tracer does nothing, so the
/// untraced passes can share the hand-driven code paths.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, parent: Option<SpanId>, name: &'static str, label: &str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            label: label.to_string(),
            start_ns,
            end_ns: 0,
            counts: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span, attaching the count deltas taken at its boundary.
    pub fn close(&mut self, id: SpanId, counts: Vec<(&'static str, u64)>) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of all spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        ns as f64 / 1e9
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                J::obj([
                    ("id", J::Int(i as u64)),
                    ("parent", s.parent.map_or(J::Null, |p| J::Int(p.0 as u64))),
                    ("name", J::str(s.name)),
                    ("label", J::str(s.label.as_str())),
                    ("start_ns", J::Int(s.start_ns)),
                    ("end_ns", J::Int(s.end_ns)),
                    ("self_ns", J::Int(self_time_ns(&self.spans, SpanId(i)))),
                    (
                        "counts",
                        J::obj(s.counts.iter().map(|(k, v)| (*k, J::Int(*v)))),
                    ),
                ])
            })
            .collect();
        J::obj([
            ("workload", J::str(workload)),
            ("seed", J::Int(seed)),
            ("spans", J::Arr(spans)),
        ])
        .render()
    }
}

/// A span's self time: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted
/// twice, and a child reaching outside its parent is clipped).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id.0];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.end_ns
        .saturating_sub(me.start_ns)
        .saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent: parent.map(SpanId),
            name: "x",
            label: String::new(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child
            span(Some(0), 40, 60),  // 2: adjacent child
            span(Some(1), 15, 35),  // 3: grandchild — not the root's business
            span(Some(0), 90, 120), // 4: child clipped at the root's end
        ];
        // Root: 100 − (30 + 20 + 10) = 40.
        assert_eq!(self_time_ns(&spans, SpanId(0)), 40);
        // Child 1: 30 − 20 = 10.
        assert_eq!(self_time_ns(&spans, SpanId(1)), 10);
        // A leaf is all self time.
        assert_eq!(self_time_ns(&spans, SpanId(3)), 20);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
        ];
        assert_eq!(self_time_ns(&spans, SpanId(0)), 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let id = tr.open(None, "pass", "");
        tr.close(id, vec![("n", 1)]);
        assert!(tr.spans().is_empty());
        let mut on = Tracer::enabled();
        let pass = on.open(None, "pass", "");
        let cell = on.open(Some(pass), "cell", "n=2");
        on.close(cell, vec![("gcs.steps", 3)]);
        on.close(pass, Vec::new());
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].counts, vec![("gcs.steps", 3)]);
        assert_eq!(on.spans()[1].parent, Some(SpanId(0)));
        assert!(on.total_s("pass") >= on.total_s("cell"));
    }
}
