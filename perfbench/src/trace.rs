//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, plus the counts the traced run collects.
//! A disabled tracer only runs the wrapped call, so the untraced run and
//! the traced run execute the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer (or composite operation) the wrapped call belongs to.
    pub layer: &'static str,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Inclusive duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span and count recorder. Single-threaded: spans are opened only by
/// the benchmark's own thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    notes: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: RefCell::default(),
            stack: RefCell::default(),
            notes: RefCell::default(),
        }
    }

    /// Whether spans and notes are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `layer`.
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let start_us = self.now_us();
            spans.push(Span { layer, start_us, end_us: start_us, parent });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_us = self.now_us();
        out
    }

    /// Records one sample of a named count or ratio.
    pub fn note(&self, name: &'static str, value: f64) {
        if self.on {
            self.notes.borrow_mut().entry(name).or_default().push(value);
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Inclusive durations (µs) of every span named `layer`.
    pub fn durations_us(&self, layer: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.layer == layer).map(Span::dur_us).collect()
    }

    /// Every sample noted under `name`.
    pub fn notes(&self, name: &str) -> Vec<f64> {
        self.notes.borrow().get(name).cloned().unwrap_or_default()
    }

    /// Writes the spans (with self times) and notes as JSON.
    pub fn to_json(&self, header: &str) -> String {
        let spans = self.spans();
        let selfs = self_times_us(&spans);
        let mut out = String::new();
        let _ = write!(out, "{{{header},\"spans\":[");
        for (i, (s, self_us)) in spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"layer\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\
                 \"self_us\":{:.3},\"parent\":{parent}}}",
                s.layer,
                s.start_us,
                s.dur_us(),
                self_us
            );
        }
        out.push_str("\n],\"notes\":{");
        for (i, (k, v)) in self.notes.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let vals: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
            let _ = write!(out, "\n\"{k}\":[{}]", vals.join(","));
        }
        out.push_str("\n}}\n");
        out
    }
}

/// Self time of each span: its duration minus the time its direct
/// children cover (children of one span never overlap: they are opened
/// one after another on one thread).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.dur_us();
        }
    }
    spans.iter().zip(child_time).map(|(s, c)| (s.dur_us() - c).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)))
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_times_us(&spans);
        assert!(selfs[0] < spans[0].dur_us());
        assert!(selfs[1] >= 2000.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.note("n", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.notes("n").is_empty());
    }
}
