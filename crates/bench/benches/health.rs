//! Measurement-integrity overhead (DESIGN.md §5.13): price the health
//! classification + fault-masked assessment against the plain unmasked
//! assessment over the same synthetic corpus. The robustness layer runs on
//! every link of every campaign, so it must be nearly free — the gate is
//! <5% overhead. Writes its record to `target/bench-records/health.json`;
//! the `bench-gate` binary gates it against `BENCH_health.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ixp_bench::detect_corpus;
use ixp_bench::record::Record;
use ixp_chgpt::DetectorScratch;
use ixp_obs::NoopRecorder;
use ixp_simnet::prelude::{SimDuration, SimTime};
use std::time::Duration;
use tslp_core::campaign::pool_try_map;
use tslp_core::detect::{assess_link, AssessConfig};
use tslp_core::health::{classify_link, HealthReport};
use tslp_core::series::{LinkSeries, SeriesConfig};

const LINKS: usize = 16;
const MONTHS: usize = 13;

/// Lift the far-value corpus into full `LinkSeries`, with a quiet near side
/// and campaign-realistic measurement damage: a quarter of the links get
/// maintenance-style gaps punched into the far series so the classifier
/// and the mask have real intervals to chew on, and a (different) quarter
/// get a mid-campaign path change so the fingerprint scan and the
/// path-change masking path are priced in too.
fn health_corpus() -> Vec<LinkSeries> {
    let grid = SeriesConfig {
        start: SimTime::from_date(2016, 2, 22),
        interval: SimDuration::from_mins(5),
    };
    detect_corpus(LINKS, MONTHS)
        .into_iter()
        .enumerate()
        .map(|(k, mut far)| {
            let n = far.len();
            if k % 4 == 0 {
                // Recurring 4-hour outages (48 rounds) every ~5 days.
                let stride = 5 * 288;
                let mut i = stride / 2;
                while i + 48 < n {
                    for v in &mut far[i..i + 48] {
                        *v = f64::NAN;
                    }
                    i += stride;
                }
            }
            let path_fp = far
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if !v.is_finite() {
                        0
                    } else if k % 4 == 1 && i >= n / 2 {
                        0xBBBB // routing event at mid-campaign
                    } else {
                        0xAAAA
                    }
                })
                .collect();
            LinkSeries {
                cfg: grid,
                near_ms: vec![0.4; n],
                far_ms: far,
                far_addr_mismatches: 0,
                path_fp,
            }
        })
        .collect()
}

fn health_overhead(c: &mut Criterion) {
    let corpus = health_corpus();
    let samples = corpus[0].len();
    let cfg = AssessConfig::default();

    let mut g = c.benchmark_group("health_overhead");
    g.throughput(Throughput::Elements(LINKS as u64));
    g.sample_size(2);
    g.measurement_time(Duration::from_secs(6));

    let clean = HealthReport::clean();
    let mut plain_ns = 0.0;
    g.bench_function("assess_unmasked", |b| {
        b.iter(|| {
            pool_try_map(
                0,
                &corpus,
                DetectorScratch::new,
                |sc, _, s| assess_link(s, &cfg, &clean, sc).events.len(),
                &NoopRecorder,
                "pool",
                |i, _| i.to_string(),
            )
            .into_iter()
            .map(Result::unwrap)
            .sum::<usize>()
        });
        plain_ns = b.mean_ns;
    });

    let mut masked_ns = 0.0;
    g.bench_function("classify_and_assess_masked", |b| {
        b.iter(|| {
            pool_try_map(
                0,
                &corpus,
                DetectorScratch::new,
                |sc, _, s| {
                    let mask = classify_link(s, &cfg.health);
                    let a = assess_link(s, &cfg, &mask, sc);
                    a.events.len() + a.artifacts.len()
                },
                &NoopRecorder,
                "pool",
                |i, _| i.to_string(),
            )
            .into_iter()
            .map(Result::unwrap)
            .sum::<usize>()
        });
        masked_ns = b.mean_ns;
    });
    g.finish();

    let rate = |pass_ns: f64| if pass_ns > 0.0 { LINKS as f64 * 1e9 / pass_ns } else { 0.0 };
    let overhead_pct =
        if plain_ns > 0.0 { (masked_ns - plain_ns) / plain_ns * 100.0 } else { 0.0 };
    eprintln!(
        "[health] unmasked {:.0} ns/link ({:.2} links/s), classify+masked {:.0} ns/link ({:.2} links/s): {overhead_pct:+.2}% overhead",
        plain_ns / LINKS as f64,
        rate(plain_ns),
        masked_ns / LINKS as f64,
        rate(masked_ns),
    );

    let mut rec = Record::new("health");
    rec.regime("links", LINKS as u64)
        .regime("months", MONTHS as u64)
        .regime("samples_per_link", samples as u64)
        .regime("threads", 0);
    rec.metric("masked.links_per_sec", "links/s", rate(masked_ns))
        .metric("unmasked.links_per_sec", "links/s", rate(plain_ns))
        .metric("overhead_pct", "%", overhead_pct)
        .metric("unmasked.mean_ns_per_link", "ns", plain_ns / LINKS as f64)
        .metric("masked.mean_ns_per_link", "ns", masked_ns / LINKS as f64);
    rec.write_fresh();
}

criterion_group! {
    name = health;
    config = Criterion::default();
    targets = health_overhead
}
criterion_main!(health);
