//! The benchmark's own span recorder: wall-clock spans around each call
//! into a library layer and around the iteration that contains it.
//!
//! Spans stay in memory and are written once, at the end of a traced
//! run, as Chrome/Perfetto `trace_event` JSON and as a per-layer table
//! whose self time is a span's duration minus the time its child spans
//! cover. When disabled, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name, `layer.call[.variant]`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The iteration the span belongs to (shared by all its spans).
    pub iteration: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed duration minus the time covered by child spans, ms.
    pub self_ms: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u64,
}

impl Tracer {
    /// A recorder that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-name count, total time and self time.
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let row = table.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            row.count += 1;
            row.total_ms += total as f64 / 1e6;
            row.self_ms += total.saturating_sub(child) as f64 / 1e6;
        }
        table
    }

    /// The per-layer table as aligned text.
    pub fn render_table(&self) -> String {
        let table = self.layer_table();
        let all_self: f64 = table.values().map(|r| r.self_ms).sum();
        let mut out = format!(
            "{:<32} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, row) in &table {
            let share = 100.0 * crate::stats::ratio(row.self_ms, all_self);
            let _ = writeln!(
                out,
                "{name:<32} {:>8} {:>12.3} {:>12.3} {share:>6.1}%",
                row.count, row.total_ms, row.self_ms
            );
        }
        out
    }

    /// Chrome/Perfetto `trace_event` JSON: one complete (`"X"`) event
    /// per span, microsecond timestamps, the iteration and parent in
    /// `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"iteration\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.iteration
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_iteration(3);
        t.span("outer", |t| {
            spin(2);
            t.span("inner", |_| spin(4));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iteration, 3);
        let table = t.layer_table();
        let (outer, inner) = (&table["outer"], &table["inner"]);
        assert!((outer.total_ms - outer.self_ms - inner.total_ms).abs() < 1e-6);
        assert!(inner.self_ms == inner.total_ms && inner.total_ms >= 4.0);
        assert!(t.to_chrome_json().contains("\"parent\":0"));
    }
}
