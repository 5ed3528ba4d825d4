//! Measurement-integrity overhead (DESIGN.md §5.13): price the health
//! classification + fault-masked assessment against the plain unmasked
//! assessment over the same synthetic corpus. The robustness layer runs on
//! every link of every campaign, so it must be nearly free — the gate is
//! <5% overhead.
//!
//! The arms are timed by the shared protocol of `ixp_bench::paired`: each
//! pass runs the corpus once through the worker pool, and each worker runs
//! both arms back to back on its link. The median over passes of
//! `(masked − unmasked) / unmasked` is written as `overhead_pct` to
//! `target/bench-records/health.json`; the `bench-gate` binary gates it
//! against `BENCH_health.json`. Per-arm rates split each pass's wall clock
//! by the arms' shares of its per-link time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ixp_bench::detect_corpus;
use ixp_bench::paired::{self, Overhead, PASSES};
use ixp_bench::record::Record;
use ixp_chgpt::DetectorScratch;
use ixp_obs::NoopRecorder;
use ixp_simnet::prelude::{SimDuration, SimTime};
use std::time::Instant;
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

/// One pass: every corpus link through both arms — the unmasked
/// assessment (arm 0), and health classification plus the masked
/// assessment (arm 1). Returns the pass's wall clock split by the arms'
/// shares of its per-link time.
fn pass(corpus: &[LinkSeries], cfg: &AssessConfig, pass: usize) -> [f64; 2] {
    let clean = HealthReport::clean();
    let wall = Instant::now();
    let per_link = pool_try_map(
        0,
        corpus,
        DetectorScratch::new,
        |sc, k, s| {
            paired::time_item(pass, k, |arm| {
                black_box(if arm == 1 {
                    let mask = classify_link(s, &cfg.health);
                    let a = assess_link(s, cfg, &mask, sc);
                    a.events.len() + a.artifacts.len()
                } else {
                    assess_link(s, cfg, &clean, sc).events.len()
                });
            })
        },
        &NoopRecorder,
        "pool",
        |i, _| i.to_string(),
    );
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let arms = per_link.into_iter().map(Result::unwrap).fold([0.0; 2], paired::add);
    arms.map(|ns| wall_ns * ns / (arms[0] + arms[1]))
}

fn health_overhead(_c: &mut Criterion) {
    let corpus = health_corpus();
    let samples = corpus[0].len();
    let cfg = AssessConfig::default();

    let passes = paired::passes(|p| pass(&corpus, &cfg, p));
    let overhead = Overhead::of(passes.iter().map(|[plain, masked]| masked / plain - 1.0));
    let [plain_ns, masked_ns] = [0, 1].map(|arm| paired::median(passes.iter().map(|p| p[arm])));

    let rate = |pass_ns: f64| LINKS as f64 * 1e9 / pass_ns;
    eprintln!(
        "[health] unmasked {:.0} ns/link ({:.2} links/s), classify+masked {:.0} ns/link ({:.2} links/s): {:+.2}% overhead (IQR {:.2}, {PASSES} passes)",
        plain_ns / LINKS as f64,
        rate(plain_ns),
        masked_ns / LINKS as f64,
        rate(masked_ns),
        overhead.pct,
        overhead.iqr_pct,
    );

    let mut rec = Record::new("health");
    rec.regime("links", LINKS as u64)
        .regime("months", MONTHS as u64)
        .regime("samples_per_link", samples as u64)
        .regime("threads", 0);
    rec.metric("masked.links_per_sec", "links/s", rate(masked_ns))
        .metric("unmasked.links_per_sec", "links/s", rate(plain_ns));
    overhead.write(&mut rec);
    rec.write_fresh();
}

criterion_group! {
    name = health;
    config = Criterion::default();
    targets = health_overhead
}
criterion_main!(health);
