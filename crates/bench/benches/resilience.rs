//! Admission-control overhead (DESIGN.md §5.18): the sequenced ingest path
//! puts every sample behind its link's sequence gate before the detector
//! sees it, and promises that in steady state (in-order telemetry, no
//! overload) admission stays under 3% of the path's cost.
//!
//! Three arms ingest the same precomputed 1k-link, 288-round day at one
//! thread, each into state built before the pass starts:
//!
//! - `a`: a bare [`LinkState::push`] loop over a `Vec<LinkState>`;
//! - `b`: the same loop with each push behind the link's own gate,
//!   [`LinkState::admit`] with `seq = round` — the in-line check on the
//!   link's hot record that the service runs;
//! - `c`: [`MonitorService::ingest_sequenced`].
//!
//! Arms a and b are one loop ([`push_loop`]) that picks push or admit per
//! sample, so they run the same machine code apart from the admit call
//! and wherever the linker places that loop, it places it for both. `b − a`
//! is what admission costs; `c − (b − a)` is the sequenced path without
//! it. The arms are timed by the shared protocol of `ixp_bench::paired`,
//! one round batch per item, and the median over passes of
//! `(b − a) / (c − (b − a))` is written to
//! `target/bench-records/resilience.json` as `overhead_pct`, which the
//! `bench-gate` binary holds under 3%.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ixp_bench::paired::{self, Overhead, PASSES};
use ixp_bench::record::Record;
use ixp_bench::{monitor_sample, DAY_ROUNDS};
use ixp_monitor::{LinkDesc, LinkState, MonitorConfig, MonitorSample, MonitorService};

const LINKS: u32 = 1_000;
const THREADS: usize = 1;

type Batch = Vec<(u32, u64, MonitorSample)>;

/// The whole day as per-round sequenced batches (sequence number = round).
fn day() -> Vec<Batch> {
    (0..DAY_ROUNDS)
        .map(|r| (0..LINKS).map(|id| (id, r as u64, monitor_sample(id, r))).collect())
        .collect()
}

/// Arms a (`gated: false`) and b (`gated: true`) over one batch; returns
/// the samples delivered. The arm is read through `black_box` per sample,
/// which keeps the compiler from splitting the loop into one copy per arm;
/// the predictable branch costs both arms the same.
#[inline(never)]
fn push_loop(
    states: &mut [LinkState],
    batch: &[(u32, u64, MonitorSample)],
    cfg: &MonitorConfig,
    gated: bool,
) -> u64 {
    let mut delivered = 0u64;
    for &(id, seq, s) in batch {
        let st = &mut states[id as usize];
        if black_box(gated) {
            delivered += u64::from(st.admit(seq, s, cfg).delivered);
        } else {
            st.push(&s);
            delivered += 1;
        }
    }
    delivered
}

/// One pass: every round batch of the day through the three arms, each
/// arm into its own fresh state. The arms must reach the same link states,
/// or their differences measure something other than admission.
fn pass(day: &[Batch], cfg: &MonitorConfig, p: usize) -> [f64; 3] {
    let fresh = || (0..LINKS).map(|_| LinkState::new()).collect::<Vec<_>>();
    let (mut bare, mut gated) = (fresh(), fresh());
    let descs: Vec<LinkDesc> = (0..LINKS).map(|i| LinkDesc { ixp: i % 8 }).collect();
    let svc = MonitorService::new(*cfg, &descs);
    let mut delivered = [0u64; 2];
    let ns = paired::time_pass(p, DAY_ROUNDS, |arm, r| match arm {
        0 => delivered[0] += push_loop(&mut bare, &day[r], cfg, false),
        1 => delivered[1] += push_loop(&mut gated, &day[r], cfg, true),
        _ => {
            black_box(svc.ingest_sequenced(&day[r]));
        }
    });
    let total = LINKS as u64 * DAY_ROUNDS as u64;
    assert_eq!((delivered, svc.samples_ingested()), ([total; 2], total));
    let summary = |st: &LinkState| {
        (st.rounds(), st.alarms(), st.masked_alarms(), st.is_elevated(), st.baseline().to_bits())
    };
    for (id, (st, gt)) in bare.iter().zip(&gated).enumerate() {
        assert_eq!(summary(st), summary(gt), "link {id}: admission changed its state");
        let v = svc.verdict(id as u32);
        assert_eq!(
            summary(st),
            (v.round, v.alarms, v.masked_alarms, v.elevated, v.baseline_ms.to_bits()),
            "link {id}: the service diverged from the bare push loop"
        );
    }
    ns
}

fn resilience_overhead(_c: &mut Criterion) {
    let cfg = MonitorConfig { shards: 32, threads: THREADS, ..MonitorConfig::default() };
    let day = day();
    let passes = paired::passes(|p| pass(&day, &cfg, p));
    let overhead = Overhead::of(passes.iter().map(|[a, b, c]| (b - a) / (c - (b - a))));
    let total_samples = (LINKS as usize * DAY_ROUNDS) as f64;
    let [push_ns, gated_ns, seq_ns] =
        [0, 1, 2].map(|arm| paired::median(passes.iter().map(|p| p[arm])) / total_samples);
    let rate = |ns_per_sample: f64| 1e9 / ns_per_sample;
    let arms = [("a push loop ", push_ns), ("b gated loop", gated_ns), ("c sequenced ", seq_ns)];
    for (arm, ns) in arms {
        eprintln!("[resilience] {arm} {ns:>7.2} ns/sample ({:.0} samples/s)", rate(ns));
    }
    eprintln!(
        "[resilience] admission share of sequenced ingest: {:+.2}% (IQR {:.2}, {PASSES} passes)",
        overhead.pct, overhead.iqr_pct
    );

    let mut rec = Record::new("resilience");
    rec.regime("links", LINKS as u64)
        .regime("rounds_per_link", DAY_ROUNDS as u64)
        .regime("threads", THREADS as u64);
    rec.metric("push_loop.samples_per_sec", "samples/s", rate(push_ns))
        .metric("gated_loop.samples_per_sec", "samples/s", rate(gated_ns))
        .metric("sequenced.samples_per_sec", "samples/s", rate(seq_ns));
    overhead.write(&mut rec);
    rec.write_fresh();
}

criterion_group! {
    name = resilience;
    config = Criterion::default();
    targets = resilience_overhead
}
criterion_main!(resilience);
