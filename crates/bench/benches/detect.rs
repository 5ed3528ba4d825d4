//! Detection throughput (DESIGN.md §5.12): links per second through the
//! §5.2 change-point engine over a synthetic 13-month corpus, priced
//! against the frozen pre-change (seed) detector, with heap allocations on
//! the scratch path counted by a wrapping global allocator. Writes its
//! record to `target/bench-records/detect.json`; the `bench-gate` binary
//! gates it against `BENCH_detect.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ixp_bench::record::Record;
use ixp_bench::{detect_corpus, seed_detector};
use ixp_chgpt::segment::DetectorConfig;
use ixp_chgpt::DetectorScratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use ixp_obs::NoopRecorder;
use tslp_core::campaign::pool_try_map;

/// Global allocator wrapper counting allocation calls, so the bench can
/// *prove* the scratch path is allocation-free after warm-up instead of
/// asserting it rhetorically.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A campaign-realistic 16-link corpus (mostly healthy, a few heavy-tailed,
/// two routing steps, two emerging-congestion links) over the paper's
/// 13 months.
const LINKS: usize = 16;
const MONTHS: usize = 13;

fn detect_throughput(c: &mut Criterion) {
    let corpus = detect_corpus(LINKS, MONTHS);
    let samples = corpus[0].len();
    // The campaign's operating point: AssessConfig::default's 4 ms gate.
    let cfg = DetectorConfig { magnitude_gate: 4.0, ..DetectorConfig::default() };

    let mut g = c.benchmark_group("detect_throughput");
    g.throughput(Throughput::Elements(LINKS as u64));
    g.sample_size(2);
    g.measurement_time(Duration::from_secs(6));

    let mut seed_ns = 0.0;
    g.bench_function("seed_baseline", |b| {
        b.iter(|| {
            corpus
                .iter()
                .map(|s| seed_detector::detect_change_points(s, &cfg).len())
                .sum::<usize>()
        });
        seed_ns = b.mean_ns;
    });

    let mut scratch_ns = 0.0;
    let mut scratch = DetectorScratch::new();
    g.bench_function("scratch_early_exit", |b| {
        b.iter(|| {
            corpus.iter().map(|s| scratch.detect_change_points(s, &cfg).len()).sum::<usize>()
        });
        scratch_ns = b.mean_ns;
    });

    let mut pool_ns = 0.0;
    g.bench_function("scratch_parallel", |b| {
        b.iter(|| {
            pool_try_map(
                0,
                &corpus,
                DetectorScratch::new,
                |sc, _, s| sc.detect_change_points(s, &cfg).len(),
                &NoopRecorder,
                "pool",
                |i, _| i.to_string(),
            )
            .into_iter()
            .map(Result::unwrap)
            .sum::<usize>()
        });
        pool_ns = b.mean_ns;
    });
    g.finish();

    // Steady-state allocation count: one full corpus pass through an
    // already-warm scratch. The scratch buffers sit at their high-water
    // mark, so this must be zero.
    let mut total_cps = 0usize;
    for s in &corpus {
        total_cps += scratch.detect_change_points(s, &cfg).len();
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for s in &corpus {
        total_cps += scratch.detect_change_points(s, &cfg).len();
    }
    let steady_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    eprintln!("[detect] steady-state allocations over {LINKS} links: {steady_allocs} (cps seen: {total_cps})");

    let mut rec = Record::new("detect");
    let per_link = |pass_ns: f64| pass_ns / LINKS as f64;
    let rate = |pass_ns: f64| if pass_ns > 0.0 { LINKS as f64 * 1e9 / pass_ns } else { 0.0 };
    let speedup = if pool_ns > 0.0 { seed_ns / pool_ns } else { 0.0 };
    eprintln!(
        "[detect] seed {:.0} ns/link, scratch {:.0} ns/link, pool {:.0} ns/link ({:.2}x vs seed, host parallelism {})",
        per_link(seed_ns),
        per_link(scratch_ns),
        per_link(pool_ns),
        speedup,
        rec.host_parallelism
    );

    rec.regime("links", LINKS as u64)
        .regime("months", MONTHS as u64)
        .regime("samples_per_link", samples as u64)
        .regime("threads", 0);
    for (arm, ns) in
        [("seed_baseline", seed_ns), ("scratch_early_exit", scratch_ns), ("scratch_parallel", pool_ns)]
    {
        rec.metric(format!("{arm}.links_per_sec"), "links/s", rate(ns))
            .metric(format!("{arm}.mean_ns_per_link"), "ns", per_link(ns));
    }
    rec.metric("speedup_vs_seed", "x", speedup)
        .metric("steady_state_allocs", "count", steady_allocs as f64);
    rec.write_fresh();
}

criterion_group! {
    name = detect;
    config = Criterion::default();
    targets = detect_throughput
}
criterion_main!(detect);
