//! The one instrumentation interface every layer of the suite takes:
//! an [`Observer`] hands out up to three sinks — a
//! [`MetricsRegistry`], a [`ProvenanceTrace`] and a
//! [`FlightRecorder`] — and its provided methods record into whichever
//! of them is present.
//!
//! # Zero cost when off
//!
//! `()` is the no-op observer: its three accessors are the constant
//! `None` defaults, so once a layer's generic body is monomorphized
//! over `()` every provided method inlines to nothing and the loop is
//! the uninstrumented one (the `engine_step_loop` microbench is the
//! regression guard). Code that must *compute* something before
//! recording it guards on the accessor, e.g.
//! `if let Some(trace) = obs.provenance() { .. }`, which folds to
//! `false` the same way.
//!
//! # Composition
//!
//! Each sink is itself an observer, and observers compose: `&mut T`
//! forwards to `T`, a pair or triple offers the first sink of each
//! kind any member provides, and `Option<T>` offers `T`'s sinks when
//! it is `Some` — the form for sinks a caller decides on at run time.
//! A caller owns its sinks and reads them after the run:
//!
//! ```
//! use ocd_core::{FlightRecorder, MetricsRegistry, Observer};
//!
//! fn work<O: Observer>(obs: &mut O) {
//!     let steps = obs.counter("demo.steps");
//!     let span = obs.open("demo.step");
//!     obs.add(steps, 1);
//!     obs.close(span);
//! }
//!
//! work(&mut ()); // nothing recorded, nothing paid
//! let mut both = (MetricsRegistry::new(), FlightRecorder::logical());
//! work(&mut both);
//! assert_eq!(both.0.snapshot().counter("demo.steps"), Some(1));
//! assert_eq!(both.1.count("demo."), 1);
//! ```

use crate::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry, SeriesId};
use crate::provenance::ProvenanceTrace;
use crate::span::{FlightRecorder, SpanId};
use crate::TokenSet;
use ocd_graph::{EdgeId, NodeId};

/// The instrumentation interface instrumented code is generic over.
///
/// Implementors provide only the sink accessors (each defaults to
/// `None`); the recording methods are provided on top of them.
/// Registration methods (`counter`, `gauge`, `histogram`, `series`)
/// intern a name into a handle — call them once per run, outside hot
/// loops; without a metrics sink they return a placeholder handle the
/// recording methods ignore. Spans are strictly nested (LIFO), and span
/// counters must be deterministic quantities, never clock readings.
pub trait Observer {
    /// The metrics sink, if this observer keeps metrics.
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        None
    }

    /// The provenance sink, if this observer keeps provenance.
    #[inline]
    fn provenance(&mut self) -> Option<&mut ProvenanceTrace> {
        None
    }

    /// The span sink, if this observer keeps spans.
    #[inline]
    fn spans(&mut self) -> Option<&mut FlightRecorder> {
        None
    }

    /// Interns (or retrieves) the counter `name`.
    #[inline]
    fn counter(&mut self, name: &str) -> CounterId {
        self.metrics().map_or(CounterId::NONE, |m| m.counter(name))
    }

    /// Interns (or retrieves) the gauge `name`.
    #[inline]
    fn gauge(&mut self, name: &str) -> GaugeId {
        self.metrics().map_or(GaugeId::NONE, |m| m.gauge(name))
    }

    /// Interns (or retrieves) the histogram `name`.
    #[inline]
    fn histogram(&mut self, name: &str) -> HistogramId {
        self.metrics()
            .map_or(HistogramId::NONE, |m| m.histogram(name))
    }

    /// Interns (or retrieves) the counter series `name`, growing it to
    /// at least `len` slots.
    #[inline]
    fn series(&mut self, name: &str, len: usize) -> SeriesId {
        self.metrics()
            .map_or(SeriesId::NONE, |m| m.series(name, len))
    }

    /// Adds `delta` to a counter.
    #[inline]
    fn add(&mut self, id: CounterId, delta: u64) {
        if let Some(m) = self.metrics() {
            m.add(id, delta);
        }
    }

    /// Sets a gauge (last write wins).
    #[inline]
    fn set(&mut self, id: GaugeId, value: i64) {
        if let Some(m) = self.metrics() {
            m.set(id, value);
        }
    }

    /// Records `value` into a histogram's log2 bucket.
    #[inline]
    fn observe(&mut self, id: HistogramId, value: u64) {
        if let Some(m) = self.metrics() {
            m.observe(id, value);
        }
    }

    /// Adds `delta` to slot `index` of a counter series.
    #[inline]
    fn series_add(&mut self, id: SeriesId, index: usize, delta: u64) {
        if let Some(m) = self.metrics() {
            m.series_add(id, index, delta);
        }
    }

    /// Records that `delta` (tokens the receiver did **not** already
    /// hold) was delivered to `dst` over `edge` from `src` during
    /// timestep `step`; see [`ProvenanceTrace::record_delivery`].
    #[inline]
    fn record_delivery(
        &mut self,
        step: u64,
        edge: EdgeId,
        src: NodeId,
        dst: NodeId,
        delta: &TokenSet,
    ) {
        if let Some(p) = self.provenance() {
            p.record_delivery(step, edge, src, dst, delta);
        }
    }

    /// Opens a named span nested under the innermost open span.
    #[inline]
    fn open(&mut self, name: &'static str) -> SpanId {
        self.spans().map_or(SpanId::NONE, |s| s.open(name))
    }

    /// Closes a span. Must be the innermost open span.
    #[inline]
    fn close(&mut self, id: SpanId) {
        if let Some(s) = self.spans() {
            s.close(id);
        }
    }

    /// Attaches a `(key, value)` counter to an open span.
    #[inline]
    fn attach(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(s) = self.spans() {
            s.attach(id, key, value);
        }
    }

    /// Records an instantaneous named event on the span timeline.
    #[inline]
    fn event(&mut self, name: &'static str, value: u64) {
        if let Some(s) = self.spans() {
            s.event(name, value);
        }
    }
}

/// The no-op observer: nothing recorded, nothing paid.
impl Observer for () {}

impl Observer for MetricsRegistry {
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        Some(self)
    }
}

impl Observer for ProvenanceTrace {
    #[inline]
    fn provenance(&mut self) -> Option<&mut ProvenanceTrace> {
        Some(self)
    }
}

impl Observer for FlightRecorder {
    #[inline]
    fn spans(&mut self) -> Option<&mut FlightRecorder> {
        Some(self)
    }
}

impl<T: Observer + ?Sized> Observer for &mut T {
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        (**self).metrics()
    }
    #[inline]
    fn provenance(&mut self) -> Option<&mut ProvenanceTrace> {
        (**self).provenance()
    }
    #[inline]
    fn spans(&mut self) -> Option<&mut FlightRecorder> {
        (**self).spans()
    }
}

impl<T: Observer> Observer for Option<T> {
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.as_mut()?.metrics()
    }
    #[inline]
    fn provenance(&mut self) -> Option<&mut ProvenanceTrace> {
        self.as_mut()?.provenance()
    }
    #[inline]
    fn spans(&mut self) -> Option<&mut FlightRecorder> {
        self.as_mut()?.spans()
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.0.metrics().or_else(|| self.1.metrics())
    }
    #[inline]
    fn provenance(&mut self) -> Option<&mut ProvenanceTrace> {
        self.0.provenance().or_else(|| self.1.provenance())
    }
    #[inline]
    fn spans(&mut self) -> Option<&mut FlightRecorder> {
        self.0.spans().or_else(|| self.1.spans())
    }
}

impl<A: Observer, B: Observer, C: Observer> Observer for (A, B, C) {
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.0
            .metrics()
            .or_else(|| self.1.metrics())
            .or_else(|| self.2.metrics())
    }
    #[inline]
    fn provenance(&mut self) -> Option<&mut ProvenanceTrace> {
        self.0
            .provenance()
            .or_else(|| self.1.provenance())
            .or_else(|| self.2.provenance())
    }
    #[inline]
    fn spans(&mut self) -> Option<&mut FlightRecorder> {
        self.0
            .spans()
            .or_else(|| self.1.spans())
            .or_else(|| self.2.spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Token;

    fn drive<O: Observer>(obs: &mut O) {
        let c = obs.counter("c");
        let g = obs.gauge("g");
        let h = obs.histogram("h");
        let s = obs.series("s", 2);
        let span = obs.open("span");
        obs.add(c, 3);
        obs.set(g, -1);
        obs.observe(h, 5);
        obs.series_add(s, 1, 7);
        obs.attach(span, "k", 9);
        obs.event("e", 1);
        let delta = TokenSet::from_tokens(2, [Token::new(1)]);
        obs.record_delivery(0, EdgeId::new(0), NodeId::new(0), NodeId::new(1), &delta);
        obs.close(span);
    }

    #[test]
    fn unit_observer_is_inert() {
        let mut unit = ();
        assert!(unit.metrics().is_none());
        assert!(unit.provenance().is_none());
        assert!(unit.spans().is_none());
        drive(&mut unit);
    }

    #[test]
    fn composed_sinks_equal_lone_sinks() {
        let mut metrics = MetricsRegistry::new();
        let mut trace = ProvenanceTrace::new(2, 2);
        let mut spans = FlightRecorder::logical();
        drive(&mut metrics);
        drive(&mut trace);
        drive(&mut spans);

        let mut all = (
            MetricsRegistry::new(),
            ProvenanceTrace::new(2, 2),
            FlightRecorder::logical(),
        );
        drive(&mut all);
        assert_eq!(all.0.snapshot().to_json(), metrics.snapshot().to_json());
        assert_eq!(all.1, trace);
        assert_eq!(all.2.to_json(), spans.to_json());
        assert_eq!(trace.len(), 1);

        // Pairs, references and options forward the same sinks.
        let mut pair = (None::<MetricsRegistry>, Some(FlightRecorder::logical()));
        drive(&mut &mut pair);
        assert!(pair.metrics().is_none());
        assert_eq!(pair.1.unwrap().to_json(), spans.to_json());
    }
}
