//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer's public function; the program itself carries no
//! spans. Each thread records into its own buffer (no locking on the
//! hot path) and hands it to the shared [`Trace`] when it finishes.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; all spans of one request share it.
    pub req: u64,
    /// Recording thread (0 = the calling thread).
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The shared span store of one traced pass.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for one thread. Its spans join the trace on
    /// [`Recorder::finish`] (or drop).
    pub fn recorder(&self, thread: u32) -> Recorder<'_> {
        Recorder {
            trace: self,
            thread,
            local: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Convert an instant taken elsewhere (e.g. by a response reader)
    /// into trace time.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span recorded so far, with parents indexing this vector.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace store poisoned").clone()
    }

    fn absorb(&self, local: &mut Vec<Span>) {
        let mut all = self.spans.lock().expect("trace store poisoned");
        let base = all.len();
        for mut s in local.drain(..) {
            s.parent = s.parent.map(|p| p + base);
            all.push(s);
        }
    }
}

/// Per-thread span recorder. `begin`/`end` must nest.
pub struct Recorder<'a> {
    trace: &'a Trace,
    thread: u32,
    local: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder<'_> {
    pub fn begin(&mut self, name: &str, req: u64) {
        let now = self.trace.now_ns();
        self.local.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            req,
            thread: self.thread,
        });
        self.stack.push(self.local.len() - 1);
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn end(&mut self) -> u64 {
        let now = self.trace.now_ns();
        let idx = self.stack.pop().expect("end without begin");
        let span = &mut self.local[idx];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Time `f` as a span named `name`; returns its result.
    pub fn span<R>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name, req);
        let r = f(self);
        self.end();
        r
    }

    /// Record an already-closed span with explicit times (request
    /// lifecycles observed from response timestamps). `parent` is the
    /// index another `closed` call returned. Returns this span's index.
    pub fn closed(
        &mut self,
        name: &str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.local.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
            thread: self.thread,
        });
        self.local.len() - 1
    }

    pub fn finish(mut self) {
        self.trace.absorb(&mut self.local);
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        self.trace.absorb(&mut self.local);
    }
}

/// Aggregates over every span with one name.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

/// Per-name totals, self times (duration minus the time covered by
/// direct children) and durations, sorted by name.
pub fn by_name(spans: &[Span]) -> Vec<(String, NameStats)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut map: std::collections::BTreeMap<String, NameStats> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        let e = map.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        e.durs_ns.push(s.dur_ns());
    }
    map.into_iter().collect()
}

/// Wall time covered by at least one root span, summed per thread.
pub fn covered_ns(spans: &[Span]) -> u64 {
    let mut per_thread: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        per_thread
            .entry(s.thread)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut total = 0;
    for ivs in per_thread.values_mut() {
        ivs.sort_unstable();
        let (mut lo, mut hi) = ivs[0];
        for &(a, b) in ivs.iter().skip(1) {
            if a > hi {
                total += hi - lo;
                lo = a;
            }
            hi = hi.max(b);
        }
        total += hi - lo;
    }
    total
}

/// Spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}, \"thread\": {}}}",
            s.name, s.start_ns, s.end_ns, s.req, s.thread
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("req", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("b", 50, 70, Some(0), 0),
            span("a.inner", 15, 25, Some(1), 0),
        ];
        let stats: std::collections::BTreeMap<_, _> = by_name(&spans).into_iter().collect();
        assert_eq!(stats["req"].self_ns, 50);
        assert_eq!(stats["a"].self_ns, 20);
        assert_eq!(stats["a.inner"].self_ns, 10);
    }

    #[test]
    fn coverage_unions_roots_per_thread() {
        let spans = vec![
            span("r", 0, 10, None, 0),
            span("r", 5, 20, None, 0),
            span("r", 30, 40, None, 0),
            span("r", 0, 7, None, 1),
            span("child", 1, 2, Some(0), 0),
        ];
        assert_eq!(covered_ns(&spans), 20 + 10 + 7);
    }

    #[test]
    fn recorder_links_parents_across_flushes() {
        let trace = Trace::new();
        let mut r0 = trace.recorder(0);
        r0.span("outer", 1, |r| r.span("inner", 1, |_| ()));
        r0.finish();
        let mut r1 = trace.recorder(1);
        r1.span("outer", 2, |r| r.span("inner", 2, |_| ()));
        r1.finish();
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].req, 2);
    }
}
