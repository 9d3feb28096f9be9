//! In-memory spans for the traced run.
//!
//! The benchmark traces from outside: a span opens before a call into a
//! layer's public function and closes after it returns. Spans nest by
//! the order they open and close in (one thread records), stay in
//! memory while the run lasts, and are totalled when it ends.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that was open when this one opened.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a finished recording.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter/exit calls are paired in this
    /// program's own code.
    pub fn exit(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
        self.spans[index].duration_ns() as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let result = f();
        (result, self.exit())
    }

    /// Records a span measured by the caller (used for the per-step
    /// spans, whose class is only known together with their timing).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Totals per span name, in order of first appearance.
    pub fn totals(&self) -> Vec<SpanTotal> {
        totals(&self.spans)
    }
}

/// Totals per span name, in order of first appearance. A span's self
/// time is its duration minus the durations of its direct children
/// (children of one parent never overlap: one thread records them).
pub fn totals(spans: &[Span]) -> Vec<SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: Vec<SpanTotal> = Vec::new();
    for (span, &children) in spans.iter().zip(&child_ns) {
        let self_ns = span.duration_ns().saturating_sub(children);
        match out.iter_mut().find(|t| t.name == span.name) {
            Some(total) => {
                total.count += 1;
                total.total_ns += span.duration_ns();
                total.self_ns += self_ns;
            }
            None => out.push(SpanTotal {
                name: span.name,
                count: 1,
                total_ns: span.duration_ns(),
                self_ns,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100] ⊃ session [10,40] ⊃ {setup [10,20], warmup [20,38]},
        //               measure [40,90] ⊃ {step [40,60], step [60,85]}
        let spans = [
            span("run", None, 0, 100),
            span("session", Some(0), 10, 40),
            span("setup", Some(1), 10, 20),
            span("warmup", Some(1), 20, 38),
            span("measure", Some(0), 40, 90),
            span("step", Some(4), 40, 60),
            span("step", Some(4), 60, 85),
        ];
        let totals = totals(&spans);
        let get = |name: &str| totals.iter().find(|t| t.name == name).unwrap().clone();
        // Grandchildren do not count against `run`: 100 - (30 + 50).
        assert_eq!(get("run").self_ns, 20);
        assert_eq!(get("session").self_ns, 2);
        assert_eq!(get("measure").self_ns, 5);
        assert_eq!(
            get("step"),
            SpanTotal {
                name: "step",
                count: 2,
                total_ns: 45,
                self_ns: 45
            }
        );
        // Self times partition the root exactly.
        assert_eq!(totals.iter().map(|t| t.self_ns).sum::<u64>(), 100);
        assert_eq!(totals[0].name, "run");
    }

    #[test]
    fn recorder_nests_by_enter_and_exit_order() {
        let mut rec = Recorder::new();
        rec.enter("run");
        let ((), inner) = rec.time("session", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let t0 = Instant::now();
        let t1 = Instant::now();
        rec.record("step", t0, t1);
        let outer = rec.exit();
        assert!(inner >= 0.002 && outer >= inner);
        let spans = &rec.spans;
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(rec.durations_s("session").len(), 1);
        assert!(rec.totals()[0].self_ns <= spans[0].duration_ns());
    }
}
