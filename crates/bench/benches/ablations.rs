//! Ablations of the design choices DESIGN.md calls out:
//!
//! - rank-based vs raw-value CUSUM (robustness has a cost);
//! - bootstrap iteration count (confidence resolution vs time);
//! - CUSUM segmentation vs the sliding-window median detector;
//! - the screening pass on/off (the campaign-cost lever).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ixp_chgpt::prelude::*;
use ixp_chgpt::segment::DetectorConfig;
use ixp_chgpt::{detect_window_shifts, WindowConfig};
use ixp_prober::testutil::line_topology;
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::*;
use tslp_core::prelude::*;

/// A week of 5-minute samples with daily business-hour congestion plus noise.
fn synthetic_week(days: usize) -> Vec<f64> {
    (0..days * 288)
        .map(|i| {
            let t = SimTime(i as u64 * 300 * 1_000_000);
            let h = ixp_simnet::rng::splitmix64(i as u64);
            let noise = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.5;
            let base = 2.0 + noise;
            if (10.0..16.0).contains(&t.hour_of_day()) {
                base + 22.0
            } else {
                base
            }
        })
        .collect()
}

fn ablation_rank_vs_raw(c: &mut Criterion) {
    let series = synthetic_week(28);
    let mut g = c.benchmark_group("ablation_rank_vs_raw");
    for (label, use_ranks) in [("rank", true), ("raw", false)] {
        g.bench_function(label, |b| {
            let cfg = DetectorConfig { use_ranks, ..DetectorConfig::default() };
            b.iter(|| detect_change_points(&series, &cfg).len())
        });
    }
    // Robustness check: with outlier contamination, rank survives, raw (at
    // least sometimes) breaks — report, don't assert flakiness.
    let mut dirty = synthetic_week(28);
    let n = dirty.len();
    for k in 0..60 {
        dirty[97 * k % n] = 800.0;
    }
    let rank_cfg = DetectorConfig::default();
    let raw_cfg = DetectorConfig { use_ranks: false, ..DetectorConfig::default() };
    eprintln!(
        "[ablation] change points under 60 outliers: rank={} raw={} (clean series: {})",
        detect_change_points(&dirty, &rank_cfg).len(),
        detect_change_points(&dirty, &raw_cfg).len(),
        detect_change_points(&synthetic_week(28), &rank_cfg).len(),
    );
    g.finish();
}

fn ablation_bootstrap_iters(c: &mut Criterion) {
    let series = synthetic_week(14);
    let mut g = c.benchmark_group("ablation_bootstrap_iters");
    for iters in [49usize, 199, 999] {
        g.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &iters| {
            let cfg = DetectorConfig { bootstrap_iters: iters, ..DetectorConfig::default() };
            b.iter(|| detect_change_points(&series, &cfg).len())
        });
    }
    g.finish();
}

fn ablation_detector_kind(c: &mut Criterion) {
    let series = synthetic_week(14);
    let mut g = c.benchmark_group("ablation_detector_kind");
    g.bench_function("cusum_segmentation", |b| {
        let cfg = DetectorConfig::default();
        b.iter(|| detect_change_points(&series, &cfg).len())
    });
    g.bench_function("sliding_window_median", |b| {
        let cfg = WindowConfig { half_window: 12, threshold: 10.0 };
        b.iter(|| detect_window_shifts(&series, &cfg).len())
    });
    g.bench_function("online_page_cusum", |b| {
        b.iter(|| online_events(&series).len())
    });
    let cusum = detect_change_points(&series, &DetectorConfig::default()).len();
    let window = detect_window_shifts(&series, &WindowConfig { half_window: 12, threshold: 10.0 }).len();
    let online = online_events(&series).len();
    eprintln!(
        "[ablation] detections over 14 days (14 true events = 28 shifts): cusum={cusum} window={window} online-events={online}"
    );
    g.finish();
}

fn ablation_screening(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_screening");
    g.sample_size(10);
    let target = TslpTarget {
        dst: Ipv4::new(10, 0, 2, 2),
        near_ttl: 1,
        far_ttl: 2,
        near_addr: Ipv4::new(10, 0, 0, 1),
        far_addr: Ipv4::new(10, 0, 1, 2),
    };
    let window = (SimTime::ZERO, SimTime::from_date(2016, 2, 1));
    for (label, screening) in [("with_screening", true), ("paper_exact", false)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let (net, vp, _) = line_topology(77);
                let cfg = if screening {
                    CampaignConfig::paper(window.0, window.1)
                } else {
                    CampaignConfig::exact(window.0, window.1)
                };
                let (series, _) = measure_link(&net, vp, &target, &cfg);
                series.len()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablation_rank_vs_raw, ablation_bootstrap_iters, ablation_detector_kind, ablation_screening
}
criterion_main!(ablations);
