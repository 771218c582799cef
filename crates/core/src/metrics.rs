//! The suite-wide **metrics/observability layer**: a lightweight,
//! dependency-free registry of named counters, gauges, fixed-boundary
//! log2 histograms, and per-index counter series, shared by the
//! lockstep engine (`ocd-heuristics`), the asynchronous swarm runtime
//! (`ocd-net`), and the experiment harness (`ocd-bench`).
//!
//! # Design
//!
//! [`MetricsRegistry`] is the store. Metric *handles* are interned once
//! per run (string lookup at registration, index arithmetic on the hot
//! path), and [`MetricsRegistry::snapshot`] freezes the state into a
//! [`MetricsSnapshot`]. Instrumented code records through the
//! [`Observer`](crate::Observer) it is generic over; the registry is
//! the observer's metrics sink, and the `()` observer, which has none,
//! compiles the recording calls away — metrics cost **nothing when
//! disabled** (the `engine_step_loop` microbench is the regression
//! guard).
//!
//! # Determinism
//!
//! A [`MetricsSnapshot`] is canonical: metrics are sorted by name, a
//! histogram's bucket boundaries are fixed powers of two, and nothing
//! in the registry depends on wall-clock time or iteration order — so
//! two equal-seed runs of a deterministic system serialize to
//! **byte-identical** snapshots. No layer records wall-clock timings
//! into the registry; timings live in a wall-clock
//! [`FlightRecorder`](crate::FlightRecorder) instead.
//!
//! # Histogram bucket convention
//!
//! Histograms use [`HISTOGRAM_BUCKETS`] = 65 fixed log2 buckets over
//! the full `u64` domain, with half-open boundaries `[2^(i-1), 2^i)`:
//!
//! - **bucket 0** holds exactly the value `0`;
//! - **bucket `i` for `1 ≤ i ≤ 64`** holds `[2^(i-1), 2^i)` — value
//!   `v ≥ 1` lands in bucket `floor(log2 v) + 1` (see [`bucket_of`]);
//! - **bucket 64**, the top bucket, therefore holds `[2^63, u64::MAX]`
//!   — `u64::MAX` included, since `2^64` is not representable.
//!
//! Every `u64` has a well-defined bucket; nothing is clamped or
//! dropped. The running `sum` saturates at `u64::MAX` instead of
//! wrapping, both when observing and when merging snapshots.
//!
//! # Examples
//!
//! ```
//! use ocd_core::metrics::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! let sends = reg.counter("net.sends");
//! let sizes = reg.histogram("net.payload_tokens");
//! reg.add(sends, 3);
//! reg.observe(sizes, 4); // falls in the [4, 8) bucket
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("net.sends"), Some(3));
//! let json = snap.to_json();
//! assert_eq!(ocd_core::metrics::MetricsSnapshot::from_json(&json).unwrap(), snap);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Number of log2 histogram buckets: bucket 0 holds the value 0 and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, so bucket 64
/// catches everything from `2^63` up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a value under the fixed log2 boundaries.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

impl CounterId {
    /// The placeholder an observer without a metrics sink hands out.
    pub(crate) const NONE: CounterId = CounterId(0);
}

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

impl GaugeId {
    /// The placeholder an observer without a metrics sink hands out.
    pub(crate) const NONE: GaugeId = GaugeId(0);
}

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

impl HistogramId {
    /// The placeholder an observer without a metrics sink hands out.
    pub(crate) const NONE: HistogramId = HistogramId(0);
}

/// Handle to a registered counter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

impl SeriesId {
    /// The placeholder an observer without a metrics sink hands out.
    pub(crate) const NONE: SeriesId = SeriesId(0);
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

/// The live metrics store.
///
/// Interning is a linear name scan (registration is once-per-run);
/// recording is index arithmetic. [`MetricsRegistry::snapshot`]
/// produces the canonical serialized form.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, Histogram)>,
    series: Vec<(String, Vec<u64>)>,
}

fn intern<T>(items: &mut Vec<(String, T)>, name: &str, make: impl FnOnce() -> T) -> usize {
    match items.iter().position(|(n, _)| n == name) {
        Some(i) => i,
        None => {
            items.push((name.to_string(), make()));
            items.len() - 1
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or retrieves) the counter `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        CounterId(intern(&mut self.counters, name, || 0))
    }

    /// Interns (or retrieves) the gauge `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(intern(&mut self.gauges, name, || 0))
    }

    /// Interns (or retrieves) the histogram `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        HistogramId(intern(&mut self.histograms, name, Histogram::new))
    }

    /// Interns (or retrieves) the counter series `name`, growing it to
    /// at least `len` slots.
    pub fn series(&mut self, name: &str, len: usize) -> SeriesId {
        let idx = intern(&mut self.series, name, Vec::new);
        let values = &mut self.series[idx].1;
        if values.len() < len {
            values.resize(len, 0);
        }
        SeriesId(idx)
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Sets a gauge (last write wins).
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0].1 = value;
    }

    /// Records `value` into a histogram's log2 bucket.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0].1;
        h.count += 1;
        h.sum = h.sum.saturating_add(value);
        h.buckets[bucket_of(value)] += 1;
    }

    /// Adds `delta` to slot `index` of a counter series.
    #[inline]
    pub fn series_add(&mut self, id: SeriesId, index: usize, delta: u64) {
        self.series[id.0].1[index] += delta;
    }

    /// Freezes the current state into a canonical (name-sorted)
    /// snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .iter()
            .map(|(name, value)| CounterSnapshot {
                name: name.clone(),
                value: *value,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .iter()
            .map(|(name, value)| GaugeSnapshot {
                name: name.clone(),
                value: *value,
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                buckets: h.buckets.clone(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let mut series: Vec<SeriesSnapshot> = self
            .series
            .iter()
            .map(|(name, values)| SeriesSnapshot {
                name: name.clone(),
                values: values.clone(),
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            series,
        }
    }

    /// Merges a snapshot back in: counters, histogram buckets, and
    /// series slots add; gauges overwrite. The rollup primitive the
    /// bench runner uses to aggregate per-run snapshots.
    pub fn absorb(&mut self, snap: &MetricsSnapshot) {
        for c in &snap.counters {
            let id = self.counter(&c.name);
            self.add(id, c.value);
        }
        for g in &snap.gauges {
            let id = self.gauge(&g.name);
            self.set(id, g.value);
        }
        for h in &snap.histograms {
            let id = self.histogram(&h.name);
            let slot = &mut self.histograms[id.0].1;
            slot.count += h.count;
            // Saturating like `observe`, so merging snapshots that
            // recorded near-u64::MAX observations cannot wrap.
            slot.sum = slot.sum.saturating_add(h.sum);
            for (mine, theirs) in slot.buckets.iter_mut().zip(&h.buckets) {
                *mine += theirs;
            }
        }
        for s in &snap.series {
            let id = self.series(&s.name, s.values.len());
            for (i, v) in s.values.iter().enumerate() {
                self.series_add(id, i, *v);
            }
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last written value.
    pub value: i64,
}

/// One log2 histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// [`HISTOGRAM_BUCKETS`] fixed log2 buckets (see [`bucket_of`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One counter series (per-arc / per-vertex values) in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Per-index accumulated values.
    pub values: Vec<u64>,
}

/// A frozen, canonical view of a [`MetricsRegistry`]: every metric
/// sorted by name, serializable to JSON and CSV, embeddable in a
/// [`RunRecord`](crate::RunRecord).
///
/// Snapshots of deterministic same-seed runs are byte-identical when
/// serialized.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Counter series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a counter series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&[u64]> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.values.as_slice())
    }

    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("metrics snapshot: {e}"))
    }

    /// Serializes as CSV: one `kind,name,key,value` row per datum.
    /// Counters and gauges use an empty `key`; histograms emit `count`,
    /// `sum`, and one `bucket_<i>` row per non-empty bucket; series
    /// emit one row per non-zero slot (the slot index as `key`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,key,value\n");
        for c in &self.counters {
            let _ = writeln!(out, "counter,{},,{}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "gauge,{},,{}", g.name, g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "histogram,{},count,{}", h.name, h.count);
            let _ = writeln!(out, "histogram,{},sum,{}", h.name, h.sum);
            for (i, b) in h.buckets.iter().enumerate() {
                if *b > 0 {
                    let _ = writeln!(out, "histogram,{},bucket_{i},{b}", h.name);
                }
            }
        }
        for s in &self.series {
            for (i, v) in s.values.iter().enumerate() {
                if *v > 0 {
                    let _ = writeln!(out, "series,{},{i},{v}", s.name);
                }
            }
        }
        out
    }

    /// Merges `other` into `self` (counters/histograms/series add,
    /// gauges overwrite) — the per-strategy rollup operation.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut reg = MetricsRegistry::new();
        reg.absorb(self);
        reg.absorb(other);
        *self = reg.snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_fixed_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn registry_records_and_snapshots() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("b.counter");
        let c2 = reg.counter("a.counter");
        let g = reg.gauge("x.gauge");
        let h = reg.histogram("m.hist");
        let s = reg.series("arcs", 3);
        reg.add(c, 5);
        reg.add(c2, 1);
        reg.add(c, 2);
        reg.set(g, -4);
        reg.set(g, 9);
        reg.observe(h, 0);
        reg.observe(h, 6);
        reg.series_add(s, 2, 11);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("b.counter"), Some(7));
        assert_eq!(snap.counter("a.counter"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("x.gauge"), Some(9));
        let hist = snap.histogram("m.hist").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 6);
        assert_eq!(hist.buckets[0], 1, "value 0 lands in bucket 0");
        assert_eq!(hist.buckets[3], 1, "value 6 lands in [4, 8)");
        assert_eq!(hist.mean(), Some(3.0));
        assert_eq!(snap.series("arcs"), Some([0, 0, 11].as_slice()));
        // Snapshots are name-sorted regardless of registration order.
        assert_eq!(snap.counters[0].name, "a.counter");
        assert_eq!(snap.counters[1].name, "b.counter");
    }

    #[test]
    fn interning_is_idempotent_and_series_grow() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        assert_eq!(a, b);
        let s1 = reg.series("s", 2);
        let s2 = reg.series("s", 5);
        assert_eq!(s1, s2);
        reg.series_add(s2, 4, 1);
        assert_eq!(reg.snapshot().series("s").unwrap().len(), 5);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c");
        reg.add(c, 3);
        let h = reg.histogram("h");
        reg.observe(h, 100);
        let s = reg.series("s", 2);
        reg.series_add(s, 1, 7);
        let g = reg.gauge("g");
        reg.set(g, -12);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert!(MetricsSnapshot::from_json("[not json").is_err());
    }

    #[test]
    fn csv_shape() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c");
        reg.add(c, 3);
        let h = reg.histogram("h");
        reg.observe(h, 5);
        let s = reg.series("s", 3);
        reg.series_add(s, 1, 2);
        let g = reg.gauge("g");
        reg.set(g, -1);
        let csv = reg.snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,key,value");
        assert!(lines.contains(&"counter,c,,3"));
        assert!(lines.contains(&"gauge,g,,-1"));
        assert!(lines.contains(&"histogram,h,count,1"));
        assert!(lines.contains(&"histogram,h,sum,5"));
        assert!(lines.contains(&"histogram,h,bucket_3,1"));
        assert!(lines.contains(&"series,s,1,2"));
    }

    #[test]
    fn merge_adds_counts_and_overwrites_gauges() {
        let make = |cv: u64, gv: i64, obs: u64, slot: u64| {
            let mut reg = MetricsRegistry::new();
            let c = reg.counter("c");
            reg.add(c, cv);
            let g = reg.gauge("g");
            reg.set(g, gv);
            let h = reg.histogram("h");
            reg.observe(h, obs);
            let s = reg.series("s", 2);
            reg.series_add(s, 0, slot);
            reg.snapshot()
        };
        let mut a = make(2, 1, 4, 10);
        let b = make(3, 8, 5, 20);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(5));
        assert_eq!(a.gauge("g"), Some(8), "gauges: last write wins");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 9);
        assert_eq!(h.buckets[3], 2, "4 and 5 share the [4, 8) bucket");
        assert_eq!(a.series("s"), Some([30, 0].as_slice()));
        // Merging disjoint snapshots unions the name spaces.
        let mut lone = MetricsSnapshot::default();
        lone.merge(&a);
        assert_eq!(lone, a);
        assert!(MetricsSnapshot::default().is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn extreme_observations_land_in_pinned_buckets() {
        // Regression pin for the domain edges: 0 and u64::MAX must
        // land in well-defined buckets (0 and 64 — the module-doc
        // convention), and the saturating sum must not wrap.
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("edges");
        reg.observe(h, 0);
        reg.observe(h, u64::MAX);
        let snap = reg.snapshot();
        let hist = snap.histogram("edges").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.buckets[0], 1, "value 0 is pinned to bucket 0");
        assert_eq!(
            hist.buckets[64], 1,
            "u64::MAX is pinned to the top bucket [2^63, u64::MAX]"
        );
        assert_eq!(hist.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 2, "no bucket lost it");
        assert_eq!(hist.sum, u64::MAX, "0 + MAX needs no saturation yet");
        // A second MAX observation saturates instead of wrapping...
        reg.observe(h, u64::MAX);
        assert_eq!(reg.snapshot().histogram("edges").unwrap().sum, u64::MAX);
        // ...and so does absorbing two saturated snapshots.
        let mut merged = reg.snapshot();
        merged.merge(&snap);
        assert_eq!(merged.histogram("edges").unwrap().sum, u64::MAX);
        assert_eq!(merged.histogram("edges").unwrap().buckets[64], 3);
        // The boundary neighbours of the top bucket stay distinct.
        assert_eq!(bucket_of((1 << 63) - 1), 63);
        assert_eq!(bucket_of(1 << 63), 64);
    }

    #[test]
    fn absorb_semantics_across_name_set_overlap() {
        let snap_of = |names: &[(&str, u64)], gauge: Option<i64>| {
            let mut reg = MetricsRegistry::new();
            for (name, v) in names {
                let c = reg.counter(name);
                reg.add(c, *v);
            }
            if let Some(g) = gauge {
                let id = reg.gauge("g");
                reg.set(id, g);
            }
            reg.snapshot()
        };

        // Disjoint name sets: absorb unions them, values untouched.
        let mut reg = MetricsRegistry::new();
        reg.absorb(&snap_of(&[("a", 1)], None));
        reg.absorb(&snap_of(&[("b", 2)], None));
        let disjoint = reg.snapshot();
        assert_eq!(disjoint.counter("a"), Some(1));
        assert_eq!(disjoint.counter("b"), Some(2));
        assert_eq!(disjoint.counters.len(), 2);

        // Overlapping name sets: shared counters sum, gauges take the
        // last absorbed value (last-write-wins, like `set`).
        let mut reg = MetricsRegistry::new();
        reg.absorb(&snap_of(&[("a", 1), ("shared", 10)], Some(5)));
        reg.absorb(&snap_of(&[("b", 2), ("shared", 30)], Some(-7)));
        let overlap = reg.snapshot();
        assert_eq!(overlap.counter("shared"), Some(40), "counters sum");
        assert_eq!(overlap.counter("a"), Some(1));
        assert_eq!(overlap.counter("b"), Some(2));
        assert_eq!(overlap.gauge("g"), Some(-7), "gauges last-write-win");

        // Identical snapshots absorbed twice: counters double, the
        // gauge is idempotent.
        let snap = snap_of(&[("a", 3)], Some(9));
        let mut reg = MetricsRegistry::new();
        reg.absorb(&snap);
        reg.absorb(&snap);
        let doubled = reg.snapshot();
        assert_eq!(doubled.counter("a"), Some(6));
        assert_eq!(doubled.gauge("g"), Some(9));

        // Absorbing into a non-empty registry adds onto live state.
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a");
        reg.add(c, 100);
        reg.absorb(&snap);
        assert_eq!(reg.snapshot().counter("a"), Some(103));
    }

    #[test]
    fn snapshot_serialization_is_deterministic() {
        // Two registries fed the same data in different registration
        // orders serialize identically.
        let mut r1 = MetricsRegistry::new();
        let a1 = r1.counter("alpha");
        let b1 = r1.counter("beta");
        r1.add(a1, 1);
        r1.add(b1, 2);
        let mut r2 = MetricsRegistry::new();
        let b2 = r2.counter("beta");
        let a2 = r2.counter("alpha");
        r2.add(b2, 2);
        r2.add(a2, 1);
        assert_eq!(r1.snapshot().to_json(), r2.snapshot().to_json());
    }
}
