//! Flight-recorder overhead (DESIGN.md §5.19): live tracing promises to
//! cost under 3% over the uninstrumented path in steady state, on both
//! pipelines. This bench prices the promise twice: a 1k-link monitor
//! (sequenced ingest with and without an attached
//! [`ixp_obs::FlightRecorder`]) and the batch assessment corpus (masked
//! assessment through a tracing recorder vs [`ixp_obs::NoopRecorder`]).
//! Each pass of the shared protocol of `ixp_bench::paired` runs both: two
//! days of round batches through one warm service, two consecutive rounds
//! per item, one with the recorder attached; then each corpus link
//! through both recorders. The per-pass
//! statistic is the worse of the two pipelines' overheads, and its median
//! over passes lands in `target/bench-records/trace.json` as
//! `overhead_pct`, which the `bench-gate` binary holds under 3%.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ixp_bench::paired::{self, Overhead, PASSES};
use ixp_bench::record::Record;
use ixp_bench::{detect_corpus, monitor_sample, DAY_ROUNDS};
use ixp_chgpt::DetectorScratch;
use ixp_monitor::{LinkDesc, MonitorConfig, MonitorSample, MonitorService};
use ixp_obs::{FlightRecorder, LinkKey, NoopRecorder, Recorder};
use ixp_simnet::prelude::SimTime;
use std::sync::Arc;
use tslp_core::detect::{assess_link, record_assessment, AssessConfig};
use tslp_core::health::{classify_link, HealthConfig};
use tslp_core::series::{LinkSeries, SeriesConfig};

// Cache-hot working set, on purpose: with all link state in L2 the
// per-sample base cost is at its floor (~40ns), so the tracing tests are
// the LARGEST fraction of runtime they can ever be. A memory-bound
// continent-scale fleet only dilutes the ratio. Gating the adversarial
// regime is the stronger claim — and it measures reproducibly, where
// DRAM-bound rounds inherit every neighbor's bandwidth spikes.
const LINKS: u32 = 1_000;
const BATCH_LINKS: usize = 8;
const BATCH_MONTHS: usize = 3;
const THREADS: usize = 0; // the monitor arm: one ingest worker per CPU

/// One long-lived service serving both arms, so both meet the same
/// detector state, pages and allocator layout; the traced arm attaches the
/// (shared, warm) recorder for its batch and detaches it after. Tracing
/// never alters detector state — the contract this bench prices.
struct Monitor {
    svc: MonitorService,
    fl: Arc<FlightRecorder>,
    batches: [Vec<(u32, u64, MonitorSample)>; 2],
    round: u64,
}

impl Monitor {
    fn new() -> Monitor {
        let descs: Vec<LinkDesc> = (0..LINKS).map(|i| LinkDesc { ixp: i % 8 }).collect();
        let cfg = MonitorConfig { shards: 32, threads: THREADS, ..MonitorConfig::default() };
        let svc = MonitorService::new(cfg, &descs);
        let fl = Arc::new(FlightRecorder::new(cfg.shards, 4096));
        let batches = [(); 2].map(|()| (0..LINKS).map(|id| (id, 0, MonitorSample::lost())).collect());
        Monitor { svc, fl, batches, round: 0 }
    }

    /// Fill both batches with the next two rounds: sequence numbers keep
    /// advancing and the daily congestion pattern repeats, so detectors
    /// stay in steady state.
    fn next_rounds(&mut self) {
        for batch in &mut self.batches {
            let r = self.round as usize % DAY_ROUNDS;
            for slot in batch.iter_mut() {
                slot.1 = self.round;
                slot.2 = monitor_sample(slot.0, r);
            }
            self.round += 1;
        }
    }
}

fn batch_corpus() -> Vec<LinkSeries> {
    detect_corpus(BATCH_LINKS, BATCH_MONTHS)
        .into_iter()
        .map(|far_ms| {
            let n = far_ms.len();
            LinkSeries {
                cfg: SeriesConfig::five_minute(SimTime::ZERO),
                near_ms: far_ms.iter().map(|x| x / 3.0).collect(),
                far_ms,
                far_addr_mismatches: 0,
                path_fp: vec![1; n],
            }
        })
        .collect()
}

/// The masked assessment of one corpus link through `rec`.
fn assess<R: Recorder>(i: usize, s: &LinkSeries, rec: &R, scratch: &mut DetectorScratch) {
    let mask = classify_link(s, &HealthConfig::default());
    let a = assess_link(s, &AssessConfig::default(), &mask, scratch);
    record_assessment(rec, LinkKey::new(i as u32, i as u32), &a);
    black_box(a.congested);
}

fn trace_overhead(_c: &mut Criterion) {
    let mut mon = Monitor::new();
    let corpus = batch_corpus();
    let fl = FlightRecorder::new(1, 4096);
    let mut scratch = DetectorScratch::new();

    // Per pass: `[untraced, traced]` ns of the monitor days, then
    // `[noop, traced]` ns of the batch corpus.
    let passes = paired::passes(|p| {
        let mut days = [0.0; 2];
        for item in 0..DAY_ROUNDS {
            // Two consecutive rounds per item, the earlier to the arm
            // that runs first: a day's worth of rounds per arm and pass.
            mon.next_rounds();
            let mut k = 0;
            let ns = paired::time_item(p, item, |arm| {
                if arm == 1 {
                    mon.svc.attach_flight_recorder(Arc::clone(&mon.fl));
                }
                black_box(mon.svc.ingest_sequenced(&mon.batches[k]));
                k += 1;
                if arm == 1 {
                    mon.svc.detach_flight_recorder();
                }
            });
            days = paired::add(days, ns);
        }
        let batch = paired::time_pass::<2>(p, corpus.len(), |arm, i| match arm {
            0 => assess(i, &corpus[i], &NoopRecorder, &mut scratch),
            _ => assess(i, &corpus[i], &fl, &mut scratch),
        });
        [days, batch]
    });
    let ratio = |[base, live]: [f64; 2]| live / base - 1.0;
    let monitor = Overhead::of(passes.iter().map(|p| ratio(p[0])));
    let batch = Overhead::of(passes.iter().map(|p| ratio(p[1])));
    let overhead = Overhead::of(passes.iter().map(|p| ratio(p[0]).max(ratio(p[1]))));
    let day_ns = paired::median(passes.iter().map(|p| p[0][0]));
    let mon_sps = (LINKS as usize * DAY_ROUNDS) as f64 * 1e9 / day_ns;
    eprintln!("[trace] monitor untraced {day_ns:>12.0} ns/day ({mon_sps:.0} samples/s)");
    eprintln!("[trace] monitor traced   overhead {:+.2}% (IQR {:.2})", monitor.pct, monitor.iqr_pct);
    eprintln!("[trace] batch traced     overhead {:+.2}% (IQR {:.2})", batch.pct, batch.iqr_pct);
    eprintln!("[trace] worse of the two {:+.2}% (IQR {:.2}, {PASSES} passes)", overhead.pct, overhead.iqr_pct);

    let mut rec = Record::new("trace");
    rec.regime("links", LINKS as u64)
        .regime("rounds_per_link", DAY_ROUNDS as u64)
        .regime("threads", THREADS as u64)
        .regime("batch_links", BATCH_LINKS as u64)
        .regime("batch_months", BATCH_MONTHS as u64);
    rec.metric("monitor.samples_per_sec", "samples/s", mon_sps)
        .metric("monitor.overhead_pct", "%", monitor.pct)
        .metric("batch.overhead_pct", "%", batch.pct);
    overhead.write(&mut rec);
    rec.write_fresh();
}

criterion_group! {
    name = trace;
    config = Criterion::default();
    targets = trace_overhead
}
criterion_main!(trace);
