//! The benchmark's own span recorder.
//!
//! Spans are recorded in the benchmark's code around each call into a
//! layer's public functions, kept in memory, and written out as one Chrome
//! trace when the run ends. The program's own telemetry spans (engine
//! epochs, silence checks, checker sweeps, daemon request phases) are
//! imported under the benchmark span that made the call, so one trace shows
//! both. A layer's self time is its span time minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::perf::{self, Json, TraceSpan};

/// Spans kept per run; later spans are counted but not stored, which bounds
/// the trace's memory on long runs.
pub const MAX_SPANS: usize = 400_000;

/// One thread's span recorder. Every lane of a run shares one origin, so the
/// lanes merge onto one timeline.
pub struct Tracer {
    origin: Instant,
    tid: u64,
    enabled: bool,
    open: Vec<(String, u64)>,
    spans: Vec<TraceSpan>,
    dropped: u64,
}

impl Tracer {
    /// A recorder for lane `tid`; a disabled recorder ignores every call.
    pub fn new(origin: Instant, tid: u64, enabled: bool) -> Self {
        Tracer { origin, tid, enabled, open: Vec::new(), spans: Vec::new(), dropped: 0 }
    }

    /// A recorder for another lane of the same run, on the same clock.
    pub fn lane(&self, tid: u64) -> Tracer {
        Tracer::new(self.origin, tid, self.enabled)
    }

    /// This recorder's lane.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between rounds (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Microseconds since the run's origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &str) {
        if self.enabled {
            let now = self.now_us();
            self.open.push((name.to_owned(), now));
        }
    }

    /// Closes the innermost open span; returns its `(start, end)` in µs.
    pub fn end(&mut self) -> Option<(u64, u64)> {
        if !self.enabled {
            return None;
        }
        let (name, start_us) = self.open.pop().expect("end() without begin()");
        let end_us = self.now_us().max(start_us);
        self.push(TraceSpan { name, tid: self.tid, start_us, end_us });
        Some((start_us, end_us))
    }

    fn push(&mut self, span: TraceSpan) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Imports program spans recorded relative to their own origin, which
    /// lies `offset_us` into this run, under the parent interval `within`
    /// (clamped to it, so nesting survives clock skew between the origins).
    pub fn import(
        &mut self,
        spans: impl IntoIterator<Item = (String, u64, u64)>,
        offset_us: u64,
        within: (u64, u64),
    ) {
        if !self.enabled {
            return;
        }
        let clamp = |t: u64| (t + offset_us).clamp(within.0, within.1);
        for (name, start, end) in spans {
            let span =
                TraceSpan { name, tid: self.tid, start_us: clamp(start), end_us: clamp(end) };
            self.push(span);
        }
    }

    /// Imports the `B`/`E` events of a Chrome trace document (the `trace`
    /// member of a traced `ppsimd` run response), shifted by `offset_us`.
    /// The document's lane `t` lands on lane `lane_base + t`, since its
    /// lanes (one per trial) overlap one another in time.
    pub fn import_chrome(
        &mut self,
        doc: &Json,
        offset_us: u64,
        within: (u64, u64),
        lane_base: u64,
    ) {
        if !self.enabled {
            return;
        }
        let clamp = |t: u64| (t + offset_us).clamp(within.0, within.1);
        for (tid, name, start, end) in chrome_spans(doc) {
            let span = TraceSpan {
                name,
                tid: lane_base + tid,
                start_us: clamp(start),
                end_us: clamp(end),
            };
            self.push(span);
        }
    }

    /// Moves this lane's spans out, with the count of spans dropped past
    /// [`MAX_SPANS`].
    pub fn finish(self) -> (Vec<TraceSpan>, u64) {
        (self.spans, self.dropped)
    }
}

/// Recovers `(lane, name, start, end)` spans from a Chrome trace document's
/// `B`/`E` events with a per-lane stack walk. Malformed documents yield the
/// spans recovered so far.
pub fn chrome_spans(doc: &Json) -> Vec<(u64, String, u64, u64)> {
    let mut out = Vec::new();
    let Some(events) = doc.get("traceEvents").and_then(Json::as_array) else {
        return out;
    };
    let mut open: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    for event in events {
        let name = event.get("name").and_then(Json::as_str).unwrap_or_default().to_owned();
        let ts = event.get("ts").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tid = event.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        match event.get("ph").and_then(Json::as_str) {
            Some("B") => open.entry(tid).or_default().push((name, ts)),
            Some("E") => {
                if let Some((name, start)) = open.get_mut(&tid).and_then(Vec::pop) {
                    out.push((tid, name, start, ts));
                }
            }
            _ => {}
        }
    }
    out
}

/// Self time per span name, in µs: each span's duration minus the time its
/// direct children cover, summed over every span of that name.
pub fn self_times(spans: &[TraceSpan]) -> BTreeMap<String, u64> {
    let mut lanes: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
    for span in spans {
        lanes.entry(span.tid).or_default().push(span);
    }
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for lane in lanes.values_mut() {
        // Outer spans first at equal starts, as `chrome_trace` orders them.
        lane.sort_by_key(|s| (s.start_us, u64::MAX - (s.end_us - s.start_us)));
        // Stack of (span, time covered by its direct children so far).
        let mut stack: Vec<(&TraceSpan, u64)> = Vec::new();
        let mut close = |stack: &mut Vec<(&TraceSpan, u64)>| {
            let (span, covered) = stack.pop().expect("non-empty stack");
            let duration = span.end_us - span.start_us;
            *totals.entry(span.name.clone()).or_default() += duration.saturating_sub(covered);
            if let Some((_, parent_covered)) = stack.last_mut() {
                *parent_covered += duration;
            }
        };
        for &span in lane.iter() {
            while stack.last().is_some_and(|(top, _)| top.end_us <= span.start_us) {
                close(&mut stack);
            }
            stack.push((span, 0));
        }
        while !stack.is_empty() {
            close(&mut stack);
        }
    }
    totals
}

/// Serializes the spans as a Chrome trace and checks it with
/// [`bench::perf::validate_chrome_trace`]; returns the text and the event
/// count.
pub fn render(spans: &[TraceSpan]) -> Result<(String, usize), String> {
    let doc = perf::chrome_trace(spans);
    let events = perf::validate_chrome_trace(&doc)?;
    Ok((perf::to_string(&doc), events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_us: u64, end_us: u64) -> TraceSpan {
        TraceSpan { name: name.to_owned(), tid, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("trial", 1, 0, 100),
            span("epoch.draw", 1, 10, 30),
            span("epoch.apply", 1, 30, 60),
            span("inner", 1, 35, 45),
            span("trial", 2, 0, 50),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["trial"], (100 - 20 - 30) + 50);
        assert_eq!(totals["epoch.draw"], 20);
        assert_eq!(totals["epoch.apply"], 30 - 10);
        assert_eq!(totals["inner"], 10);
    }

    #[test]
    fn imported_spans_are_clamped_into_their_parent() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, 1, true);
        tracer.import(vec![("epoch.draw".to_owned(), 0, 50)], 100, (120, 140));
        let (spans, dropped) = tracer.finish();
        assert_eq!(dropped, 0);
        assert_eq!((spans[0].start_us, spans[0].end_us), (120, 140));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 1, false);
        tracer.begin("x");
        assert_eq!(tracer.end(), None);
        tracer.import(vec![("y".to_owned(), 0, 1)], 0, (0, 1));
        assert!(tracer.finish().0.is_empty());
    }

    #[test]
    fn recorded_spans_render_to_a_valid_trace() {
        let mut tracer = Tracer::new(Instant::now(), 1, true);
        tracer.begin("outer");
        tracer.end();
        tracer.begin("trial");
        let within = tracer.end().expect("enabled tracer");
        tracer.import(vec![("silence.check".to_owned(), 0, 0)], within.0, within);
        let (spans, _) = tracer.finish();
        let (text, events) = render(&spans).expect("valid trace");
        assert_eq!(events, 6);
        let doc = perf::parse(&text).expect("trace text parses");
        assert_eq!(chrome_spans(&doc).len(), 3);
        // Re-importing the document keeps its lanes apart.
        let mut again = Tracer::new(Instant::now(), 1, true);
        again.import_chrome(&doc, 0, (0, u64::MAX), 10);
        let (spans, _) = again.finish();
        assert!(spans.iter().all(|s| s.tid == 11));
    }
}
