//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! A span has a name, a start, an end, a parent and an op id; spans stay
//! in memory until the run ends. The layer of a span is its name up to
//! the first dot (`legalize.solve` belongs to `legalize`). Self time is a
//! span's duration minus the part of it covered by its children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span. Times are seconds since the
/// tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, `layer.what`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (0 outside any op).
    pub op: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an open span must be closed with Tracer::exit"]
pub struct SpanId(Option<usize>);

/// Span recorder for one thread of the benchmark. Disabled tracers record
/// nothing and cost one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer whose times count from `epoch`; records only when
    /// `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Sets the op id that newly opened spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens span `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(i),
            "spans must close innermost first"
        );
        self.spans[i].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Runs `f` inside span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Records an already-measured span `[start, end]` (seconds since the
    /// epoch) under `parent`, for intervals that overlap other ops' spans
    /// on the same thread, such as jobs outstanding at a server. Returns
    /// the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (f64, f64),
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-parenting them past this
    /// tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children may nest or overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Per-name totals: `(summed duration, summed self time, count)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration();
        e.1 += own;
        e.2 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("legalize.solve", 1.0, 4.0, Some(0)),
            span("legalize.search", 2.0, 3.0, Some(1)),
            span("design.qor", 6.0, 7.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 6.0).abs() < 1e-12);
        assert!((selfs[1] - 2.0).abs() < 1e-12);
        assert!((selfs[2] - 1.0).abs() < 1e-12);
        assert!((selfs[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two sessions' waits overlap inside one op: the union, not the
        // sum, is covered; a child leaking past its parent is clipped.
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("serve.wait", 1.0, 5.0, Some(0)),
            span("serve.wait", 3.0, 6.0, Some(0)),
            span("serve.wait", 9.0, 12.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - (10.0 - 5.0 - 1.0)).abs() < 1e-12);
        let t = totals(&spans);
        assert_eq!(t["serve.wait"].2, 3);
        assert!((t["serve.wait"].0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn covered_ignores_disjoint_and_contained_intervals() {
        let mut iv = vec![(5.0, 6.0), (0.0, 1.0), (5.2, 5.8), (20.0, 30.0)];
        assert!((covered(0.5, 10.0, &mut iv) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_ops_and_absorbs_threads() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.set_op(7);
        let outer = t.enter("op");
        t.span("legalize.solve", || ());
        t.exit(outer);
        let mut other = Tracer::new(true, epoch);
        other.span("serve.ack", || ());
        let inner = other.enter("op");
        other.span("serve.query", || ());
        other.exit(inner);
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 7);
        assert_eq!(s[4].parent, Some(3));
        assert!(s.iter().all(|x| x.end >= x.start));

        let mut off = Tracer::new(false, epoch);
        off.span("op", || ());
        assert_eq!(off.record("serve.wait", (0.0, 1.0), None, 1), None);
        assert!(off.spans().is_empty());
    }
}
