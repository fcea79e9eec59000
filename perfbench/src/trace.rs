//! Step timing and span tracing, both driven from the benchmark's own
//! code around calls into the program's public functions.
//!
//! A workload brackets every timed call with [`Tracer::enter`] /
//! [`Tracer::exit`]. Calls made directly inside a step are the step's
//! *segments*: their durations add up to the step's wall time, so checks
//! the benchmark runs between segments never count. With tracing on,
//! every bracket also becomes a [`Span`] (name, start, end, parent, step),
//! kept in memory and written out when the run ends; nested brackets
//! (calls inside a segment) are recorded only with tracing on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub step: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open bracket, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use = "close the bracket with Tracer::exit"]
pub struct Open {
    start: Option<Instant>,
    span: Option<usize>,
}

/// Step clock plus optional span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    depth: usize,
    step: u64,
    in_step: bool,
    step_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            step: 0,
            in_step: false,
            step_ns: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a bracket. Segments (depth 0 inside a step) always read the
    /// clock; nested brackets only when tracing.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let timed = self.on || self.depth == 0;
        let start = timed.then(Instant::now);
        let span = match (self.on, start) {
            (true, Some(at)) => {
                let start_ns = self.nanos(at);
                self.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent: self.open.last().copied(),
                    step: self.step,
                });
                self.open.push(self.spans.len() - 1);
                Some(self.spans.len() - 1)
            }
            _ => None,
        };
        self.depth += 1;
        Open { start, span }
    }

    /// Closes a bracket and returns its duration in nanoseconds (0 for an
    /// untimed nested bracket).
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        self.depth -= 1;
        let Some(start) = open.start else { return 0 };
        let ns = u64::try_from((end - start).as_nanos()).expect("span shorter than 584 years");
        if let Some(idx) = open.span {
            let end_ns = self.nanos(end);
            self.spans[idx].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "brackets must nest");
        }
        if self.in_step && self.depth == 0 {
            self.step_ns += ns;
        }
        ns
    }

    /// Starts step `id`: a `step` span when tracing, and a fresh step clock.
    pub fn begin_step(&mut self, id: u64) {
        self.step = id;
        self.step_ns = 0;
        if self.on {
            let at = self.nanos(Instant::now());
            self.spans.push(Span {
                name: "step",
                start_ns: at,
                end_ns: at,
                parent: None,
                step: id,
            });
            self.open.push(self.spans.len() - 1);
        }
        self.in_step = true;
    }

    /// Ends the current step and returns the summed wall time of its
    /// segments, in nanoseconds.
    pub fn end_step(&mut self) -> u64 {
        assert!(self.in_step && self.depth == 0, "unbalanced step");
        self.in_step = false;
        if self.on {
            let at = self.nanos(Instant::now());
            let idx = self.open.pop().expect("open step span");
            self.spans[idx].end_ns = at;
        }
        self.step_ns
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// 10th percentile, ms, of the duration of each span with this name.
    pub fn call_p10_ms(&self, name: &str) -> f64 {
        crate::measure::ns_to_ms(crate::measure::quantile(&self.durations(name), 0.10))
    }

    /// 10th percentile, ms, over the steps that open spans with this name,
    /// of the time each such step spent in them.
    pub fn step_p10_ms(&self, name: &str) -> f64 {
        let mut per_step: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_step.entry(s.step).or_default() += s.duration_ns();
        }
        let sums: Vec<u64> = per_step.into_values().collect();
        crate::measure::ns_to_ms(crate::measure::quantile(&sums, 0.10))
    }

    /// Per span name: (count, total ns, self ns). A span's self time is its
    /// duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Renders every span as one JSON object per line, preceded by one
    /// summary line per span name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (count, total, own)) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step
            );
        }
        out
    }
}
