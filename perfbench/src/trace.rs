//! Spans recorded by the benchmark around each public call it makes into
//! the program. Spans live in memory for the whole run, are reduced to
//! per-layer self times at the end, and are written out at exit.
//!
//! A disabled tracer records nothing; the end-to-end numbers are always
//! taken from an untraced phase.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, usable as a parent (also across threads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// Position in [`Tracer::spans`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `hal.execute`.
    pub name: &'static str,
    /// Testbench or request id shared by the spans of one unit of work.
    pub id: u64,
    pub parent: Option<usize>,
    /// Benchmark thread that recorded the span (0 = main).
    pub thread: u32,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Shared by reference, also with the scoped client threads.
pub struct Tracer {
    inner: Option<Inner>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    pub fn on() -> Tracer {
        Tracer {
            inner: Some(Inner {
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        thread: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let at = |t: Instant| t.saturating_duration_since(inner.origin).as_secs_f64();
        let mut spans = inner.spans.lock().expect("span list poisoned by a panic");
        spans.push(Span {
            name,
            id,
            parent: parent.map(|p| p.0),
            thread,
            start_s: at(start),
            end_s: at(end),
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Start an interval whose children are recorded before it ends.
    pub fn open(
        &self,
        name: &'static str,
        id: u64,
        thread: u32,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, id, thread, parent, now, now)
    }

    /// End an interval started with [`Tracer::open`].
    pub fn close(&self, span: Option<SpanId>) {
        let (Some(inner), Some(SpanId(i))) = (self.inner.as_ref(), span) else {
            return;
        };
        let end = inner.origin.elapsed().as_secs_f64();
        inner.spans.lock().expect("span list poisoned by a panic")[i].end_s = end;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .spans
                .lock()
                .expect("span list poisoned by a panic")
                .clone()
        })
    }
}

/// Time and count of one layer, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the part of each span that its children cover.
    pub self_s: f64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Time inside span `parent` covered by its direct children, summed per
/// thread (children on different threads run concurrently, so each thread
/// can cover the parent's whole interval once).
pub fn covered(spans: &[Span], parent: usize) -> f64 {
    let p = &spans[parent];
    let mut by_thread: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == Some(parent)) {
        by_thread
            .entry(s.thread)
            .or_default()
            .push((s.start_s, s.end_s));
    }
    by_thread
        .values_mut()
        .map(|iv| union_len(iv, p.start_s, p.end_s))
        .sum()
}

/// Reduce spans to per-name totals and self times.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let busy = union_len(kids, s.start_s, s.end_s);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.dur();
        t.self_s += s.dur() - busy;
    }
    out
}

/// Spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "  {{\"i\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"thread\": {}, \"start_s\": {}, \"end_s\": {}}}{}\n",
            sp.name,
            sp.id,
            sp.thread,
            sp.start_s,
            sp.end_s,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}
