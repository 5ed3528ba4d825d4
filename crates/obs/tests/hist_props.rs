//! Property tests for the telemetry histogram: merge must be exactly
//! associative and commutative (the whole merge-at-drain design rests on
//! drain order not mattering), and the bucket boundaries must survive a trip
//! through the JSON exporter bit for bit.

use ixp_obs::{Histogram, MetricSheet, RunManifest};
use proptest::prelude::*;

/// Build a histogram from a sample vector (values span underflow, every
/// finite bucket, and overflow).
fn hist_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn merged(a: &Histogram, b: &Histogram) -> Histogram {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #[test]
    fn merge_is_commutative(
        xs in proptest::collection::vec(0u64..2_000_000, 0..40),
        ys in proptest::collection::vec(0u64..2_000_000, 0..40),
    ) {
        // Map raw draws onto a wide magnitude range: 0 .. ~2e3 ms plus
        // occasional giants that overflow the finite buckets.
        let lift = |v: &u64| {
            let x = *v as f64 / 1000.0;
            if v.is_multiple_of(17) { x * 1e6 } else { x }
        };
        let a = hist_of(&xs.iter().map(lift).collect::<Vec<_>>());
        let b = hist_of(&ys.iter().map(lift).collect::<Vec<_>>());
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(
        xs in proptest::collection::vec(0u64..5_000_000, 0..30),
        ys in proptest::collection::vec(0u64..5_000_000, 0..30),
        zs in proptest::collection::vec(0u64..5_000_000, 0..30),
    ) {
        let lift = |vs: &[u64]| vs.iter().map(|&v| v as f64 / 250.0).collect::<Vec<_>>();
        let (a, b, c) = (hist_of(&lift(&xs)), hist_of(&lift(&ys)), hist_of(&lift(&zs)));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_equals_recording_everything_once(
        xs in proptest::collection::vec(0u64..1_000_000, 0..50),
        split in 0usize..50,
    ) {
        let vals: Vec<f64> = xs.iter().map(|&v| v as f64 / 100.0).collect();
        let k = split.min(vals.len());
        let m = merged(&hist_of(&vals[..k]), &hist_of(&vals[k..]));
        prop_assert_eq!(m, hist_of(&vals));
    }

    #[test]
    fn histogram_roundtrips_through_json(
        xs in proptest::collection::vec(0u64..3_000_000, 0..40),
    ) {
        let h = hist_of(&xs.iter().map(|&v| v as f64 / 333.0).collect::<Vec<_>>());
        let mut sheet = MetricSheet::new();
        sheet.merge_hist("rtt", &h);
        let manifest = RunManifest::new(1, 2, 3, 0.5, sheet);
        let back = RunManifest::from_json(&manifest.to_json()).expect("parse");
        prop_assert_eq!(&back.sheet.histograms["rtt"], &h);
    }
}

/// Bucket boundaries are powers of two; the JSON float writer prints
/// shortest-roundtrip forms, so the boundary list itself must survive a
/// serde trip bit for bit.
#[test]
fn boundaries_roundtrip_bit_exact() {
    let bounds = Histogram::boundaries();
    assert!(bounds.windows(2).all(|w| w[0] < w[1]), "boundaries sorted");
    let json = serde_json::to_string(&bounds).unwrap();
    let back: Vec<f64> = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
        bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
    );
    // Every recorded sample lands strictly below its bucket's upper bound.
    for v in [0.0, 1e-9, 0.6, 1.0, 5.0, 1e4, 1e9] {
        let b = Histogram::bucket_of(v).unwrap();
        assert!(v < Histogram::upper_bound(b) || b + 1 == bounds.len() + 1);
        if b > 0 && b < bounds.len() {
            assert!(v >= Histogram::upper_bound(b - 1), "v {v} bucket {b}");
        }
    }
}
