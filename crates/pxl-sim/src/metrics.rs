//! Typed metrics registry: counters, gauges and histograms under dotted
//! component paths.
//!
//! Every hardware component in the simulator (PEs, TMUs, P-Stores, caches,
//! networks) reports what happened during a run through a [`Metrics`]
//! registry: how many tasks were executed, how many steals were attempted and
//! how many succeeded, cache hits and misses, peak queue occupancy. The
//! benchmark harness reads these to build the paper's tables and to emit the
//! machine-readable `bench_results.jsonl`.
//!
//! The registry is *typed*: each metric is a [`MetricKind::Counter`]
//! (monotonic sum), [`MetricKind::Gauge`] (high-water mark) or
//! [`MetricKind::Histogram`] (streaming distribution summary). Hot paths
//! register once and then update through copy-sized handles
//! ([`CounterId`]/[`GaugeId`]/[`HistogramId`]) that index straight into a
//! slot vector, skipping the string hashing a map lookup would cost per
//! event. The string-keyed convenience API ([`Metrics::incr`],
//! [`Metrics::max`], [`Metrics::sample`], ...) remains for cold paths and
//! registers metrics lazily with the kind implied by the call.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::{MetricKind, Metrics};
//!
//! let mut m = Metrics::new();
//! let tasks = m.register_counter("pe0.tasks");
//! let peak = m.register_gauge("pe0.queue_peak");
//! m.inc(tasks);
//! m.add_to(tasks, 4);
//! m.raise(peak, 3);
//! m.raise(peak, 2);
//! assert_eq!(m.get("pe0.tasks"), 5);
//! assert_eq!(m.get("pe0.queue_peak"), 3);
//! assert_eq!(m.kind("pe0.queue_peak"), Some(MetricKind::Gauge));
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, FieldError, JsonValue};

/// What a metric measures, which decides how [`Metrics::merge`] combines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count; merged by summing.
    Counter,
    /// High-water mark (peak occupancy and the like); merged by maximum.
    Gauge,
    /// Streaming distribution summary; merged by combining samples.
    Histogram,
}

impl MetricKind {
    /// Lower-case name used in reports and JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Handle to a registered counter; update with [`Metrics::inc`] /
/// [`Metrics::add_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge; update with [`Metrics::raise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram; update with [`Metrics::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    name: String,
    kind: MetricKind,
    value: u64,
    histo: Histogram,
}

/// A registry of typed, named metrics for one simulation run.
///
/// Metric names are free-form dotted component paths
/// (`"tile0.pe1.tasks_executed"`). Reports and exports iterate in name
/// order, which keeps golden-output tests stable across runs.
///
/// # Examples
///
/// ```
/// use pxl_sim::Metrics;
///
/// let mut m = Metrics::new();
/// m.incr("pe0.tasks");
/// m.add("pe0.cycles", 41);
/// m.max("pe0.queue_peak", 3);
/// m.max("pe0.queue_peak", 2);
/// assert_eq!(m.get("pe0.tasks"), 1);
/// assert_eq!(m.get("pe0.cycles"), 41);
/// assert_eq!(m.get("pe0.queue_peak"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    slots: Vec<Slot>,
    index: BTreeMap<String, u32>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> u32 {
        if let Some(&id) = self.index.get(name) {
            let have = self.slots[id as usize].kind;
            assert!(
                have == kind,
                "metric '{name}' already registered as {} (requested {})",
                have.as_str(),
                kind.as_str()
            );
            return id;
        }
        let id = self.slots.len() as u32;
        self.slots.push(Slot {
            name: name.to_owned(),
            kind,
            value: 0,
            histo: Histogram::new(),
        });
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Registers (or looks up) counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        CounterId(self.register(name, MetricKind::Counter))
    }

    /// Registers (or looks up) gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn register_gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.register(name, MetricKind::Gauge))
    }

    /// Registers (or looks up) histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn register_histogram(&mut self, name: &str) -> HistogramId {
        HistogramId(self.register(name, MetricKind::Histogram))
    }

    /// Increments a registered counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.slots[id.0 as usize].value += 1;
    }

    /// Adds `delta` to a registered counter.
    #[inline]
    pub fn add_to(&mut self, id: CounterId, delta: u64) {
        self.slots[id.0 as usize].value += delta;
    }

    /// Raises a registered gauge to `value` if it exceeds the current peak.
    #[inline]
    pub fn raise(&mut self, id: GaugeId, value: u64) {
        let slot = &mut self.slots[id.0 as usize];
        if value > slot.value {
            slot.value = value;
        }
    }

    /// Records one sample in a registered histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.slots[id.0 as usize].histo.record(value);
    }

    /// Increments counter `name` by one, registering it if absent.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name`, registering it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.register(name, MetricKind::Counter);
        self.slots[id as usize].value += delta;
    }

    /// Raises gauge `name` to `value` if `value` exceeds its current value
    /// (a high-water mark), registering it if absent.
    pub fn max(&mut self, name: &str, value: u64) {
        let id = self.register(name, MetricKind::Gauge);
        let slot = &mut self.slots[id as usize];
        if value > slot.value {
            slot.value = value;
        }
    }

    /// Records `value` in histogram `name`, registering it if absent.
    pub fn sample(&mut self, name: &str, value: u64) {
        let id = self.register(name, MetricKind::Histogram);
        self.slots[id as usize].histo.record(value);
    }

    /// Returns the value of counter or gauge `name`, or zero if it was never
    /// touched (histograms report zero; use [`Metrics::histogram`]).
    pub fn get(&self, name: &str) -> u64 {
        match self.index.get(name) {
            Some(&id) => {
                let slot = &self.slots[id as usize];
                match slot.kind {
                    MetricKind::Histogram => 0,
                    _ => slot.value,
                }
            }
            None => 0,
        }
    }

    /// Returns the kind of metric `name`, if registered.
    pub fn kind(&self, name: &str) -> Option<MetricKind> {
        self.index.get(name).map(|&id| self.slots[id as usize].kind)
    }

    /// Sums every counter or gauge whose name ends with `suffix`; convenient
    /// for aggregating per-PE counters (`".steals_ok"`) across a whole
    /// accelerator.
    pub fn sum_suffix(&self, suffix: &str) -> u64 {
        self.scalars()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Returns the maximum over every counter or gauge whose name ends with
    /// `suffix`.
    pub fn max_suffix(&self, suffix: &str) -> u64 {
        self.scalars()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .max()
            .unwrap_or(0)
    }

    /// Returns histogram `name` if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let &id = self.index.get(name)?;
        let slot = &self.slots[id as usize];
        if slot.kind == MetricKind::Histogram && slot.histo.count() > 0 {
            Some(&slot.histo)
        } else {
            None
        }
    }

    fn scalars(&self) -> impl Iterator<Item = (&str, u64)> {
        self.index.iter().filter_map(|(k, &id)| {
            let slot = &self.slots[id as usize];
            match slot.kind {
                MetricKind::Histogram => None,
                _ => Some((k.as_str(), slot.value)),
            }
        })
    }

    /// Iterates over all counters and gauges in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.scalars()
    }

    /// Iterates over every metric in name order as
    /// `(name, kind, scalar value, histogram)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricKind, u64, &Histogram)> {
        self.index.iter().map(|(k, &id)| {
            let slot = &self.slots[id as usize];
            (k.as_str(), slot.kind, slot.value, &slot.histo)
        })
    }

    /// Merges another registry into this one: counters are summed, gauges
    /// take the maximum, histograms are combined. Metrics only present in
    /// `other` are registered with their kind.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, kind, value, histo) in other.iter() {
            let id = self.register(name, kind) as usize;
            match kind {
                MetricKind::Counter => self.slots[id].value += value,
                MetricKind::Gauge => {
                    if value > self.slots[id].value {
                        self.slots[id].value = value;
                    }
                }
                MetricKind::Histogram => self.slots[id].histo.merge(histo),
            }
        }
    }

    /// The registry as one deterministic JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{...}}}`.
    ///
    /// Keys appear in name order so two identical runs export byte-identical
    /// JSON.
    pub fn to_json_value(&self) -> JsonValue {
        let (mut counters, mut gauges, mut histos) = (Vec::new(), Vec::new(), Vec::new());
        for (name, kind, value, histo) in self.iter() {
            let section = match kind {
                MetricKind::Counter => &mut counters,
                MetricKind::Gauge => &mut gauges,
                MetricKind::Histogram => &mut histos,
            };
            let value = match kind {
                MetricKind::Histogram => histo.to_json_value(),
                _ => json::num(value),
            };
            section.push((name.to_owned(), value));
        }
        json::obj(vec![
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histos)),
        ])
    }

    /// [`Metrics::to_json_value`], rendered.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds a registry from [`Metrics::to_json_value`] output.
    ///
    /// The round trip is exact: counters and gauges recover their values,
    /// histograms their `(count, sum, min, max)` summary (an exported
    /// zero-count histogram comes back empty). Snapshot/restore merges the
    /// result into a freshly registered registry, which reproduces the
    /// original values because fresh slots are all zero.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json_value(value: &JsonValue) -> Result<Metrics, String> {
        let mut m = Metrics::new();
        for (name, v) in json::get_u64_map(value, "counters")? {
            m.add(name, v);
        }
        for (name, v) in json::get_u64_map(value, "gauges")? {
            m.max(name, v);
        }
        for (name, h) in json::get_obj(value, "histograms")? {
            let histo = Histogram::from_json_value(h)
                .map_err(|e| format!("metrics: histogram {name:?} missing {}", e.key))?;
            let id = m.register(name, MetricKind::Histogram);
            m.slots[id as usize].histo = histo;
        }
        Ok(m)
    }

    /// Parses [`Metrics::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the syntax error or the missing or
    /// malformed field.
    pub fn from_json(text: &str) -> Result<Metrics, String> {
        let value = JsonValue::parse(text).map_err(|e| format!("metrics: {e}"))?;
        Metrics::from_json_value(&value)
    }
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        // Registration order is irrelevant; compare logical content.
        self.index.len() == other.index.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for Metrics {}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, kind, value, histo) in self.iter() {
            match kind {
                MetricKind::Histogram => writeln!(f, "{name} = {histo}")?,
                _ => writeln!(f, "{name} = {value}")?,
            }
        }
        Ok(())
    }
}

/// A streaming histogram: count, sum, min, max and mean of recorded samples.
///
/// Used for quantities like per-steal latency or task run length where a
/// distribution summary is more useful than a bare counter.
///
/// # Examples
///
/// ```
/// use pxl_sim::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(10);
/// h.record(30);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean(), 20.0);
/// assert_eq!(h.min(), Some(10));
/// assert_eq!(h.max(), Some(30));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Mean of recorded samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Combines another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The summary as one deterministic JSON object; an empty histogram
    /// writes `min` and `max` as 0.
    pub fn to_json_value(&self) -> JsonValue {
        json::obj(vec![
            ("count", json::num(self.count)),
            ("sum", json::num(self.sum)),
            ("min", json::num(self.min.unwrap_or(0))),
            ("max", json::num(self.max.unwrap_or(0))),
        ])
    }

    /// [`Histogram::to_json_value`], rendered.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds a summary from [`Histogram::to_json_value`] output; a
    /// zero-count summary comes back empty.
    fn from_json_value(value: &JsonValue) -> Result<Histogram, FieldError> {
        let count = json::get_word(value, "count")?;
        let extreme = |key| (count > 0).then(|| json::get_word(value, key)).transpose();
        Ok(Histogram {
            count,
            sum: json::get_word(value, "sum")?,
            min: extreme("min")?,
            max: extreme("max")?,
        })
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} mean={:.2} min={} max={}",
            self.count,
            self.mean(),
            self.min.unwrap_or(0),
            self.max.unwrap_or(0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON, "mean of empty is 0");
        assert_eq!(h.to_json(), "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0}");
    }

    #[test]
    fn single_sample_histogram_is_degenerate() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 42);
        assert_eq!((h.min(), h.max()), (Some(42), Some(42)));
        assert!((h.mean() - 42.0).abs() < f64::EPSILON);
        // Zero is a real sample, distinct from "no samples".
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!((z.min(), z.max()), (Some(0), Some(0)));
        assert_eq!(z.count(), 1);
    }

    #[test]
    fn all_equal_histogram_collapses_to_one_value() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(7);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 7000);
        assert_eq!((h.min(), h.max()), (Some(7), Some(7)));
        assert!((h.mean() - 7.0).abs() < f64::EPSILON);
        // Merging an empty histogram changes nothing, either way around.
        let before = h.to_json();
        h.merge(&Histogram::new());
        assert_eq!(h.to_json(), before);
        let mut e = Histogram::new();
        e.merge(&h);
        assert_eq!(e.to_json(), before);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = Metrics::new();
        s.incr("a");
        s.incr("a");
        s.add("a", 3);
        assert_eq!(s.get("a"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn max_is_high_water_mark() {
        let mut s = Metrics::new();
        s.max("peak", 5);
        s.max("peak", 3);
        s.max("peak", 9);
        assert_eq!(s.get("peak"), 9);
        assert_eq!(s.kind("peak"), Some(MetricKind::Gauge));
    }

    #[test]
    fn typed_handles_update_slots() {
        let mut m = Metrics::new();
        let c = m.register_counter("pe0.tasks");
        let g = m.register_gauge("pe0.peak");
        let h = m.register_histogram("pe0.latency");
        m.inc(c);
        m.add_to(c, 9);
        m.raise(g, 7);
        m.raise(g, 2);
        m.observe(h, 100);
        assert_eq!(m.get("pe0.tasks"), 10);
        assert_eq!(m.get("pe0.peak"), 7);
        assert_eq!(m.histogram("pe0.latency").unwrap().count(), 1);
        // Re-registration returns the same slot.
        let c2 = m.register_counter("pe0.tasks");
        m.inc(c2);
        assert_eq!(m.get("pe0.tasks"), 11);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let mut m = Metrics::new();
        m.register_counter("x");
        m.register_gauge("x");
    }

    #[test]
    fn suffix_aggregation() {
        let mut s = Metrics::new();
        s.add("pe0.steals", 2);
        s.add("pe1.steals", 3);
        s.add("pe1.tasks", 100);
        assert_eq!(s.sum_suffix(".steals"), 5);
        assert_eq!(s.max_suffix(".steals"), 3);
        assert_eq!(s.sum_suffix(".nothing"), 0);
        assert_eq!(s.max_suffix(".nothing"), 0);
    }

    #[test]
    fn merge_respects_kinds() {
        let mut a = Metrics::new();
        a.add("x", 1);
        a.max("peak", 9);
        a.sample("h", 10);
        let mut b = Metrics::new();
        b.add("x", 2);
        b.add("y", 7);
        b.max("peak", 4);
        b.sample("h", 20);
        a.merge(&b);
        assert_eq!(a.get("x"), 3, "counters sum");
        assert_eq!(a.get("y"), 7, "new counters appear");
        assert_eq!(a.get("peak"), 9, "gauges take the max");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for v in [4, 8, 6] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.min(), Some(4));
        assert_eq!(h.max(), Some(8));
        assert_eq!(h.mean(), 6.0);
    }

    #[test]
    fn histogram_merge_empty_cases() {
        let mut a = Histogram::new();
        let b = Histogram::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        let mut c = Histogram::new();
        c.record(5);
        a.merge(&c);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(5));
    }

    #[test]
    fn display_is_stable_and_nonempty() {
        let mut s = Metrics::new();
        s.add("b", 2);
        s.add("a", 1);
        let text = s.to_string();
        let a_pos = text.find("a = 1").unwrap();
        let b_pos = text.find("b = 2").unwrap();
        assert!(a_pos < b_pos, "counters must print in name order");
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut m = Metrics::new();
        m.add("pe0.tasks", 42);
        m.max("pe0.peak", 7);
        m.sample("lat", 5);
        m.sample("lat", 15);
        m.register_histogram("empty");
        let back = Metrics::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), m.to_json());
        assert!(back.histogram("empty").is_none());
        // Merging the restored registry into a freshly registered (all-zero)
        // one reproduces the original exactly — the restore path.
        let mut fresh = Metrics::new();
        fresh.add("pe0.tasks", 0);
        fresh.max("pe0.peak", 0);
        fresh.register_histogram("lat");
        fresh.register_histogram("empty");
        fresh.merge(&back);
        assert_eq!(fresh.to_json(), m.to_json());
    }

    #[test]
    fn from_json_names_the_problem() {
        assert!(Metrics::from_json("{}").unwrap_err().contains("counters"));
        assert!(
            Metrics::from_json("{\"counters\":{\"x\":true},\"gauges\":{},\"histograms\":{}}")
                .unwrap_err()
                .contains("not a u64")
        );
        assert!(Metrics::from_json(
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{\"count\":1}}}"
        )
        .unwrap_err()
        .contains("missing sum"));
    }

    #[test]
    fn equality_ignores_registration_order() {
        let mut a = Metrics::new();
        a.add("x", 1);
        a.max("p", 2);
        let mut b = Metrics::new();
        b.max("p", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.add("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn json_export_is_deterministic() {
        let mut m = Metrics::new();
        m.add("b.count", 2);
        m.add("a.count", 1);
        m.max("a.peak", 7);
        m.sample("lat", 5);
        m.sample("lat", 15);
        let j = m.to_json();
        assert_eq!(
            j,
            "{\"counters\":{\"a.count\":1,\"b.count\":2},\
             \"gauges\":{\"a.peak\":7},\
             \"histograms\":{\"lat\":{\"count\":2,\"sum\":20,\"min\":5,\"max\":15}}}"
        );
        assert_eq!(j, m.clone().to_json(), "export is pure");
    }
}
