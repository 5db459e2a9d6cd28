//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public function in [`Tracer::span`]. Spans are
//! kept in memory and written out as JSON lines when the run ends. A
//! disabled tracer runs the closure and records nothing.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (nanoseconds since the tracer
/// was made), and the index of the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Durations (ms) of every closed span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Summed duration (ms) of the direct children of spans named
    /// `parent`, and of the `parent` spans themselves.
    pub fn child_coverage_ms(&self, parent: &str) -> (f64, f64) {
        let spans = self.spans.borrow();
        let mut children = 0.0;
        let mut parents = 0.0;
        for s in spans.iter() {
            if s.name == parent {
                parents += s.ms();
            } else if s.parent.is_some_and(|p| spans[p].name == parent) {
                children += s.ms();
            }
        }
        (children, parents)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_cover_their_parent() {
        let t = Tracer::new(true);
        let v = t.span("iteration", || {
            t.span("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b", || t.span("inner", || 7))
        });
        assert_eq!(v, 7);
        let spans = t.spans.borrow().clone();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["iteration", "a", "b", "inner"]
        );
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        let (children, parents) = t.child_coverage_ms("iteration");
        assert!(children <= parents && children >= 2.0, "{children} of {parents}");

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.durations_ms("x").is_empty());
    }
}
