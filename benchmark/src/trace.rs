//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Every call is timed whether or not tracing is on, because `setup_s`
//! and `sim_events_per_s` need the stage times. With tracing on, each
//! call is also kept as a span (name, start, end, parent, op id) in
//! memory; the spans are reduced to self times and can be written once,
//! at the end, as Chrome trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (probes use 0).
    pub op: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as span `name` of op `op`; return its result and its wall
    /// seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let r = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now_ns();
            self.open.pop();
        }
        (r, secs)
    }

    /// Spans open right now (to restore after a caught panic).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span a panic left open above `depth`.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let i = self.open.pop().expect("checked length");
            self.spans[i].end_ns = now;
        }
    }

    /// Spans recorded so far; with [`Tracer::self_times`] a caller can
    /// reduce any index range (one pass, say).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self seconds (duration minus the time covered by child spans) per
    /// span name, over the spans with indices in `range`. Children
    /// always follow their parent, so a range that starts at a root span
    /// holds each of its spans' children.
    pub fn self_times(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[range.clone()];
        let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in spans {
            if let Some(p) = s.parent.filter(|p| range.contains(p)) {
                own[p - range.start] -= s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as Chrome trace JSON (`ph:"X"` complete events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = t.self_times(0..t.len());
        assert!(st["inner"] >= 0.005);
        assert!(st["outer"] < st["inner"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.span("x", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert_eq!(t.len(), 0);
    }
}
