//! Typed, mergeable metrics keyed by `(layer, name, protocol, group)`.
//!
//! The one metrics sink of a [`crate::Recorder`]: the structured layer
//! the JSONL trace dump, the run manifests and the `bench-diff`
//! regression gate are built on:
//!
//! * [`Key`] is a `Copy` composite of a [`Layer`], a static metric
//!   name and optional protocol/group labels — constructing one
//!   allocates nothing, so hot paths can build keys unconditionally
//!   and let the disabled-telemetry branch throw them away.
//! * [`LogHistogram`] is a log-linear latency histogram reporting
//!   p50/p95/p99 plus the **exact** min/max. Recording never calls a
//!   transcendental function: bucket bounds are precomputed by
//!   repeated multiplication and looked up by binary search, so the
//!   same samples land in the same buckets on every platform — the
//!   property the CI regression gate's exact comparisons rely on.
//! * Merging ([`LogHistogram::merge`], [`MetricsHub::merge`]) is
//!   exact: bucket counts are integer sums and min/max are IEEE
//!   min/max, both associative and commutative, so per-shard hubs can
//!   be folded in any order and render identical bytes.
//!
//! Everything iterates in `BTreeMap` key order — metric output is a
//! deterministic function of the recorded samples, never of hash
//! seeds or insertion order.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::BTreeMap;

/// Which layer of the stack a metric belongs to. Order defines the
/// rendering order of manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The discrete-event simulation core (event loop, CPU model).
    Sim,
    /// The group communication system (token ring, flow control).
    Gcs,
    /// The GKA protocol drivers.
    Protocol,
    /// The cryptographic suite and bignum kernels.
    Crypto,
    /// The experiment harness (workload spans, batch attribution).
    Harness,
}

impl Layer {
    /// Stable lowercase name used in metric paths.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Gcs => "gcs",
            Layer::Protocol => "protocol",
            Layer::Crypto => "crypto",
            Layer::Harness => "harness",
        }
    }
}

/// A metric identity: layer + static name + optional protocol and
/// group labels. `Copy`, allocation-free, totally ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Producing layer.
    pub layer: Layer,
    /// Metric name (stable snake_case identifier).
    pub name: &'static str,
    /// Protocol label (`"GDH"`, …) where the metric is per-protocol.
    pub protocol: Option<&'static str>,
    /// Group label where the metric is per-group.
    pub group: Option<u64>,
}

impl Key {
    /// A key with no protocol/group labels.
    pub const fn new(layer: Layer, name: &'static str) -> Self {
        Key {
            layer,
            name,
            protocol: None,
            group: None,
        }
    }

    /// This key labelled with a protocol.
    pub const fn protocol(mut self, protocol: &'static str) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// This key labelled with a group.
    pub const fn group(mut self, group: u64) -> Self {
        self.group = Some(group);
        self
    }

    /// Canonical path rendering: `layer/name`, `layer/PROTO/name` or
    /// `layer/PROTO/g42/name`. Used as the manifest JSON key.
    pub fn path(&self) -> String {
        let mut s = String::with_capacity(32);
        s.push_str(self.layer.as_str());
        s.push('/');
        if let Some(p) = self.protocol {
            s.push_str(p);
            s.push('/');
        }
        if let Some(g) = self.group {
            s.push('g');
            s.push_str(&g.to_string());
            s.push('/');
        }
        s.push_str(self.name);
        s
    }
}

/// Default histogram shape: 10 µs base, 1.6× growth, 64 buckets
/// (reaches past 10⁹ ms) — the same shape the PR 1 registry uses.
const DEFAULT_BASE: f64 = 0.01;
/// Default growth factor.
const DEFAULT_GROWTH: f64 = 1.6;
/// Default bucket count.
const DEFAULT_BUCKETS: usize = 64;

/// A log-linear histogram with exact min/max, built for deterministic
/// cross-platform merging (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    /// Lower bound of each bucket, ascending; `bounds[0]` is the base.
    /// Precomputed by repeated multiplication — no `ln`/`pow` at
    /// record time.
    bounds: Vec<f64>,
    growth: f64,
    buckets: Vec<u64>,
    underflow: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(DEFAULT_BASE, DEFAULT_GROWTH, DEFAULT_BUCKETS)
    }
}

impl LogHistogram {
    /// Creates a histogram with `buckets` log-spaced buckets starting
    /// at `base` with the given `growth` factor. Degenerate shapes
    /// (non-positive base, growth ≤ 1, zero buckets) fall back to the
    /// default shape rather than panicking.
    pub fn new(base: f64, growth: f64, buckets: usize) -> Self {
        let (base, growth, buckets) = if base > 0.0
            && base.is_finite()
            && growth > 1.0
            && growth.is_finite()
            && buckets > 0
        {
            (base, growth, buckets)
        } else {
            (DEFAULT_BASE, DEFAULT_GROWTH, DEFAULT_BUCKETS)
        };
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = base;
        for _ in 0..buckets {
            bounds.push(b);
            b *= growth;
        }
        LogHistogram {
            bounds,
            growth,
            buckets: vec![0; buckets],
            underflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample. Values below the base land in the underflow
    /// bucket; values beyond the top land in the last bucket;
    /// non-finite values count toward `count` but only clamp min/max
    /// when finite.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records the sample `v` `n` times in one step: the state `n`
    /// calls of [`LogHistogram::record`] leave, at the cost of one
    /// (`n = 0` records nothing).
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        if v.is_finite() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        if !v.is_finite() || v < self.bounds[0] {
            self.underflow += n;
            return;
        }
        // partition_point returns how many bounds are <= v; the sample
        // belongs to the last such bucket.
        let idx = self.bounds.partition_point(|b| *b <= v);
        let idx = idx.saturating_sub(1).min(self.buckets.len() - 1);
        self.buckets[idx] += n;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest finite sample (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            0.0
        }
    }

    /// Exact largest finite sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Approximate quantile (upper bound of the bucket holding the
    /// q-th sample), clamped to the exact max so `quantile(1.0)` never
    /// overstates the tail. `q` outside `[0, 1]` is clamped. Returns
    /// `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        let mut bound = self.bounds[0];
        if seen < target {
            let mut found = false;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    bound = self.bounds[i] * self.growth;
                    found = true;
                    break;
                }
            }
            if !found {
                // Unreachable in practice (every sample lands in a
                // bucket or the underflow), but stay total.
                bound = self.max();
            }
        }
        if self.max.is_finite() {
            bound.min(self.max)
        } else {
            bound
        }
    }

    /// Merges another histogram into this one. Exact, associative and
    /// commutative: integer bucket sums plus IEEE min/max. Histograms
    /// of different shapes refuse to merge and return `false` (the
    /// caller picked incompatible shapes — a programming error
    /// surfaced as a reported, not panicked, condition).
    #[must_use]
    pub fn merge(&mut self, other: &LogHistogram) -> bool {
        if self.bounds.len() != other.bounds.len()
            || self.bounds.first() != other.bounds.first()
            || self.growth != other.growth
        {
            return false;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        true
    }

    /// The five-number summary the manifests serialize.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// The serialized form of a histogram: sample count plus
/// p50/p95/p99 and the exact min/max.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact smallest sample.
    pub min: f64,
    /// Median (bucket upper bound).
    pub p50: f64,
    /// 95th percentile (bucket upper bound).
    pub p95: f64,
    /// 99th percentile (bucket upper bound).
    pub p99: f64,
    /// Exact largest sample.
    pub max: f64,
}

/// The typed metrics store: counters, gauges and histograms, each
/// keyed by [`Key`] and iterated in key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsHub {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, LogHistogram>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter (creating it at zero).
    pub fn inc(&mut self, key: Key, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Current counter value (zero if never incremented).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// Sets a gauge to `v`.
    pub fn gauge_set(&mut self, key: Key, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Raises a gauge to `v` if `v` exceeds its current value (peak
    /// tracking: queue depths, high-water marks).
    pub fn gauge_max(&mut self, key: Key, v: f64) {
        let g = self.gauges.entry(key).or_insert(f64::NEG_INFINITY);
        if v > *g {
            *g = v;
        }
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, key: Key) -> Option<f64> {
        self.gauges.get(&key).copied()
    }

    /// Records a sample into the keyed histogram (default shape on
    /// first use).
    pub fn observe(&mut self, key: Key, v: f64) {
        self.observe_n(key, v, 1);
    }

    /// Records the sample `v` `n` times into the keyed histogram, as
    /// `n` calls of [`MetricsHub::observe`] would (`n = 0` leaves the
    /// hub untouched: no empty histogram appears).
    pub fn observe_n(&mut self, key: Key, v: f64, n: u64) {
        if n > 0 {
            self.histograms.entry(key).or_default().record_n(v, n);
        }
    }

    /// The keyed histogram, if any sample was recorded.
    pub fn histogram(&self, key: Key) -> Option<&LogHistogram> {
        self.histograms.get(&key)
    }

    /// Merges another hub into this one: counters add, gauges take the
    /// max (the merged peak), histograms merge exactly. Returns `false`
    /// if any histogram pair had incompatible shapes (all compatible
    /// metrics are still merged).
    #[must_use]
    pub fn merge(&mut self, other: &MetricsHub) -> bool {
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauge_max(*k, *v);
        }
        let mut ok = true;
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => ok &= mine.merge(h),
                None => {
                    self.histograms.insert(*k, h.clone());
                }
            }
        }
        ok
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, f64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &LogHistogram)> {
        self.histograms.iter()
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_paths_render_all_label_combinations() {
        let k = Key::new(Layer::Gcs, "token_rotation");
        assert_eq!(k.path(), "gcs/token_rotation");
        assert_eq!(k.protocol("TGDH").path(), "gcs/TGDH/token_rotation");
        assert_eq!(
            k.protocol("TGDH").group(3).path(),
            "gcs/TGDH/g3/token_rotation"
        );
        assert_eq!(k.group(9).path(), "gcs/g9/token_rotation");
        // Ordering is total and stable.
        assert!(Key::new(Layer::Sim, "a") < Key::new(Layer::Gcs, "a"));
        assert!(Key::new(Layer::Gcs, "a") < Key::new(Layer::Gcs, "b"));
    }

    #[test]
    fn histogram_percentiles_bracket_and_extremes_are_exact() {
        let mut h = LogHistogram::default();
        for v in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0.5, "min is exact");
        assert_eq!(h.max(), 64.0, "max is exact");
        let p50 = h.quantile(0.5);
        assert!((2.0..=8.0).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 64.0, "p100 clamps to the exact max");
        // Out-of-range q is clamped, not panicked.
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
    }

    #[test]
    fn histogram_empty_and_pathological_inputs_are_total() {
        let mut h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!((h.min(), h.max()), (0.0, 0.0));
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-3.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
        // Degenerate shapes fall back to the default, never panic.
        let d = LogHistogram::new(0.0, 0.5, 0);
        assert_eq!(d, LogHistogram::default());
    }

    #[test]
    fn histogram_bucketing_matches_bounds_without_ln() {
        // A sample exactly on a bucket bound belongs to that bucket:
        // bounds are half-open [b_i, b_{i+1}).
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        h.record(1.0); // bucket [1, 2)
        h.record(2.0); // bucket [2, 4) — a bound belongs to its bucket
        h.record(3.9999); // bucket [2, 4)
        h.record(4.0); // bucket [4, 8)
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), 2.0, "first sample's bucket upper bound");
        assert_eq!(h.quantile(0.75), 4.0, "third sample lands in [2, 4)");
        assert_eq!(h.quantile(1.0), 4.0, "clamped to the exact max");
    }

    #[test]
    fn merge_is_exact_and_refuses_shape_mismatch() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(1.0);
        b.record(100.0);
        b.record(0.001); // underflow
        assert!(a.merge(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0.001);
        assert_eq!(a.max(), 100.0);
        let other_shape = LogHistogram::new(1.0, 2.0, 8);
        assert!(!a.merge(&other_shape));
    }

    #[test]
    fn hub_counters_gauges_histograms_roundtrip() {
        let mut hub = MetricsHub::new();
        let k = Key::new(Layer::Crypto, "exp").protocol("GDH");
        hub.inc(k, 2);
        hub.inc(k, 3);
        assert_eq!(hub.counter(k), 5);
        assert_eq!(hub.counter(Key::new(Layer::Crypto, "exp")), 0);
        hub.gauge_max(Key::new(Layer::Sim, "queue_depth"), 4.0);
        hub.gauge_max(Key::new(Layer::Sim, "queue_depth"), 2.0);
        assert_eq!(hub.gauge(Key::new(Layer::Sim, "queue_depth")), Some(4.0));
        hub.observe(k, 1.5);
        assert_eq!(hub.histogram(k).map(LogHistogram::count), Some(1));
        assert!(!hub.is_empty());
    }

    #[test]
    fn hub_merge_adds_counts_and_peaks_gauges() {
        let k = Key::new(Layer::Gcs, "sequenced");
        let g = Key::new(Layer::Gcs, "pending_peak");
        let mut a = MetricsHub::new();
        let mut b = MetricsHub::new();
        a.inc(k, 1);
        b.inc(k, 2);
        a.gauge_max(g, 3.0);
        b.gauge_max(g, 5.0);
        b.observe(k, 9.0);
        assert!(a.merge(&b));
        assert_eq!(a.counter(k), 3);
        assert_eq!(a.gauge(g), Some(5.0));
        assert_eq!(a.histogram(k).map(LogHistogram::count), Some(1));
    }

    #[test]
    fn summary_reflects_samples() {
        let mut h = LogHistogram::default();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // The p50 is a bucket upper bound: within one growth factor
        // of the true median.
        assert!(
            s.p50 >= 50.0 && s.p50 <= 50.0 * DEFAULT_GROWTH,
            "p50 = {}",
            s.p50
        );
    }
}
