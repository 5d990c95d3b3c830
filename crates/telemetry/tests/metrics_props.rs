//! Property tests for the typed metrics layer: histogram merging must
//! be exactly associative and commutative (integer bucket sums, IEEE
//! min/max), because the manifest writer folds per-protocol hubs in
//! whatever order the harness produces them and the `bench-diff` gate
//! compares the rendered bytes.

use gkap_telemetry::metrics::{Key, Layer, LogHistogram, MetricsHub};
use proptest::prelude::*;

/// Millisecond-scale samples spanning underflow (< 10 µs) through the
/// far tail.
fn sample(raw: u64) -> f64 {
    // Map 0..10_000 to [0.001, ~100_000) ms, log-ish coverage.
    let x = (raw % 10_000) as f64;
    0.001 * (1.0 + x) * (1.0 + (raw % 7) as f64 * x)
}

fn hist_of(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::default();
    for &s in samples {
        h.record(sample(s));
    }
    h
}

/// A sample from the ordinary range, or — for one `raw` in eight — one
/// of the values `record` treats specially: non-finite, negative, zero,
/// below the base, beyond the top bucket.
fn any_sample(raw: u64) -> f64 {
    const ODD: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -3.0,
        0.0,
        0.009_999,
        1e300,
        f64::MIN_POSITIVE,
    ];
    match raw % 8 {
        0 => ODD[(raw / 8 % 8) as usize],
        _ => sample(raw),
    }
}

proptest! {
    /// `record_n(v, n)` is `n` × `record(v)`, whatever came before and
    /// whatever `v` is; `n = 0` changes nothing.
    #[test]
    fn record_n_equals_repeated_record(before in proptest::collection::vec(0u64..1_000_000, 0..40),
                                       runs in proptest::collection::vec((0u64..1_000_000, 0u64..50), 0..40)) {
        let mut bulk = hist_of(&before);
        let mut one_by_one = bulk.clone();
        for &(raw, n) in &runs {
            let v = any_sample(raw);
            let untouched = bulk.clone();
            bulk.record_n(v, n);
            if n == 0 {
                prop_assert_eq!(&bulk, &untouched, "n = 0 must be a no-op");
            }
            for _ in 0..n {
                one_by_one.record(v);
            }
            prop_assert_eq!(&bulk, &one_by_one, "after {} x {}", n, v);
        }
        prop_assert_eq!(bulk.summary(), one_by_one.summary());
    }

    /// The hub forwards: `observe_n` is `n` × `observe`, and with
    /// `n = 0` it does not even create the histogram.
    #[test]
    fn hub_observe_n_equals_repeated_observe(runs in proptest::collection::vec((0u64..4, 0u64..1_000_000, 0u64..20), 0..60)) {
        let (mut bulk, mut one_by_one) = (MetricsHub::new(), MetricsHub::new());
        for &(k, raw, n) in &runs {
            let key = KEYS[(k % 4) as usize];
            bulk.observe_n(key, any_sample(raw), n);
            for _ in 0..n {
                one_by_one.observe(key, any_sample(raw));
            }
        }
        for key in KEYS {
            prop_assert_eq!(bulk.histogram(key), one_by_one.histogram(key));
        }
    }

    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(0u64..1_000_000, 0..200),
                            b in proptest::collection::vec(0u64..1_000_000, 0..200)) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        prop_assert!(ab.merge(&hb));
        let mut ba = hb.clone();
        prop_assert!(ba.merge(&ha));
        prop_assert_eq!(&ab, &ba, "a∪b must equal b∪a bit for bit");
        prop_assert_eq!(ab.summary(), ba.summary());
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(0u64..1_000_000, 0..120),
                            b in proptest::collection::vec(0u64..1_000_000, 0..120),
                            c in proptest::collection::vec(0u64..1_000_000, 0..120)) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ∪ b) ∪ c
        let mut left = ha.clone();
        prop_assert!(left.merge(&hb));
        prop_assert!(left.merge(&hc));
        // a ∪ (b ∪ c)
        let mut bc = hb.clone();
        prop_assert!(bc.merge(&hc));
        let mut right = ha.clone();
        prop_assert!(right.merge(&bc));
        prop_assert_eq!(&left, &right, "merge grouping must not matter");
    }

    #[test]
    fn merge_equals_bulk_recording(a in proptest::collection::vec(0u64..1_000_000, 0..200),
                                   b in proptest::collection::vec(0u64..1_000_000, 0..200)) {
        let mut merged = hist_of(&a);
        prop_assert!(merged.merge(&hist_of(&b)));
        let mut bulk = LogHistogram::default();
        for &s in a.iter().chain(&b) {
            bulk.record(sample(s));
        }
        prop_assert_eq!(&merged, &bulk, "merging shards equals recording the union");
    }

    #[test]
    fn hub_merge_is_commutative(a in proptest::collection::vec((0u64..4, 0u64..1_000_000), 0..100),
                                b in proptest::collection::vec((0u64..4, 0u64..1_000_000), 0..100)) {
        let (ha, hb) = (hub_of(&a), hub_of(&b));
        let mut ab = ha.clone();
        prop_assert!(ab.merge(&hb));
        let mut ba = hb.clone();
        prop_assert!(ba.merge(&ha));
        for key in KEYS {
            prop_assert_eq!(ab.counter(key), ba.counter(key));
            prop_assert_eq!(ab.gauge(key), ba.gauge(key));
            prop_assert_eq!(
                ab.histogram(key).map(LogHistogram::summary),
                ba.histogram(key).map(LogHistogram::summary)
            );
        }
    }

    /// Per-shard hub deltas merge in whatever grouping the fold uses;
    /// the sharded scale engine merges group hubs one by one, so the
    /// grouping (and a pre-merged intermediate) must be invisible.
    #[test]
    fn hub_merge_is_associative(a in proptest::collection::vec((0u64..4, 0u64..1_000_000), 0..80),
                                b in proptest::collection::vec((0u64..4, 0u64..1_000_000), 0..80),
                                c in proptest::collection::vec((0u64..4, 0u64..1_000_000), 0..80)) {
        let (ha, hb, hc) = (hub_of(&a), hub_of(&b), hub_of(&c));
        // (a ∪ b) ∪ c
        let mut left = ha.clone();
        prop_assert!(left.merge(&hb));
        prop_assert!(left.merge(&hc));
        // a ∪ (b ∪ c)
        let mut bc = hb.clone();
        prop_assert!(bc.merge(&hc));
        let mut right = ha.clone();
        prop_assert!(right.merge(&bc));
        for key in KEYS {
            prop_assert_eq!(left.counter(key), right.counter(key));
            prop_assert_eq!(left.gauge(key), right.gauge(key));
            prop_assert_eq!(
                left.histogram(key).map(LogHistogram::summary),
                right.histogram(key).map(LogHistogram::summary)
            );
        }
    }
}

const KEYS: [Key; 4] = [
    Key::new(Layer::Harness, "rekey_ms"),
    Key::new(Layer::Crypto, "exp"),
    Key::new(Layer::Gcs, "sequenced"),
    Key::new(Layer::Sim, "busy_ms"),
];

/// A hub exercising all three metric classes over a fixed key set.
fn hub_of(entries: &[(u64, u64)]) -> MetricsHub {
    let mut hub = MetricsHub::new();
    for &(k, v) in entries {
        let key = KEYS[(k % 4) as usize];
        hub.inc(key, v % 17);
        hub.observe(key, sample(v));
        hub.gauge_max(key, sample(v));
    }
    hub
}
