//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced iteration records one span per call: name, start, end and the
//! span that was open when it started. The orchestrator tags them with the
//! workload and iteration, derives per-layer self time (a span's duration
//! minus the part its children cover) and writes every span out as Chrome
//! trace events when the run ends. An untraced iteration records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same iteration.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one iteration.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let v = std::hint::black_box(f());
        self.exit(id);
        v
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span of one iteration, in span order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Self times grouped by span name, over every iteration.
pub fn self_times_by_name(iterations: &[Vec<Span>]) -> BTreeMap<String, Vec<f64>> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for spans in iterations {
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            by_name.entry(s.name.clone()).or_default().push(own as f64);
        }
    }
    by_name
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, with the iteration as the thread id and the
/// workload, iteration and parent span in its arguments.
pub fn chrome_trace(workload: &str, iterations: &[(usize, Vec<Span>)]) -> String {
    let mut s = String::from("[\n");
    let mut first = true;
    for (iteration, spans) in iterations {
        for (i, span) in spans.iter().enumerate() {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{iteration},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"workload\":\"{workload}\",\"iteration\":{iteration}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
            );
        }
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_owned(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.enter("x");
        assert_eq!(tr.time("y", || 7), 7);
        tr.exit(id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut tr = Tracer::new(true);
        let a = tr.enter("a");
        tr.time("b", || ());
        tr.exit(a);
        tr.time("c", || ());
        let parents: Vec<_> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
    }
}
