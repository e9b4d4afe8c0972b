//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program's layers (the program itself is not instrumented). Each
//! span keeps its name, start, end and parent; they stay in memory and
//! are written out once, when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per boundary.

use now_trace::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `core.step_batch`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (the step or
    /// campaign round it belongs to).
    pub request: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start until the span is closed).
    pub end_ns: u64,
}

/// Handle of an open span (see [`Tracer::begin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`, and otherwise does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            clock: now_trace::stopwatch(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run alternates, to
    /// measure the tracer's own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the request identifier stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.clock.elapsed_nanos();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.clock.elapsed_nanos();
        while let Some(top) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(top) {
                span.end_ns = now;
            }
            if top == idx {
                break;
            }
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and
/// a child reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = span.parent.and_then(|p| children.get_mut(p)) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let total = span.end_ns.saturating_sub(span.start_ns);
            total.saturating_sub(covered(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per span name: (instances, total self nanoseconds), in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    out
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            span.request, span.name, span.start_ns, span.end_ns
        );
    }
    out.push_str("]\n");
    out
}
