//! Resident-monitor ingest throughput (DESIGN.md §5.17): the links-scaling
//! curve for the always-on service, written to
//! `target/bench-records/monitor.json`.
//!
//! The headline is ingest samples/s at 1k / 10k / 100k links over a full
//! simulated day (288 five-minute rounds), with dashboard reader threads
//! hammering the verdict index the whole time. Samples are synthesized
//! in-place per round (diurnal plateau on 2% of links, deterministic
//! per-(link, round) noise, occasional gaps and path flips) so the timed
//! loop measures the service — sequenced admission, detector pushes, health
//! bookkeeping, index publication — plus a few ns of arithmetic per sample,
//! not substrate simulation. Each round's samples carry the round as their
//! sequence number, the steady state of an in-order producer. `steady_rss_mb` is VmHWM reset *after* the parameter build:
//! it is what the resident service itself holds — O(links) detector +
//! window state and one reused batch buffer, no series retention — and
//! must sit far below the 85.7 MiB the 100k-link batch campaign peaks at.
//! The `bench-gate` binary regression-gates the 1k point's ingest rate
//! and holds the 100k point's steady RSS under a ceiling, against
//! `BENCH_monitor.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ixp_bench::record::Record;
use ixp_monitor::{
    LinkDesc, MonitorConfig, MonitorSample, MonitorService, COLD_RECORD_BYTES, HOT_RECORD_BYTES,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 288;
const CONGESTED_EVERY: u32 = 50; // 2% of links carry the plateau
const THREADS: usize = 0; // one ingest worker per available CPU

/// Deterministic per-(link, round) noise: splitmix64 on the pair.
fn mix(link: u32, round: u32) -> u64 {
    let mut z = ((link as u64) << 32 | round as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Synthesize round `r` for link `id` into a sample: ~10 ms base RTT, a
/// +14 ms business-hours plateau on congested links, 0.5% probe loss, and
/// a mid-day path flip on every 97th link (exercising the masking path).
fn sample_at(id: u32, r: usize) -> MonitorSample {
    let h = mix(id, r as u32);
    if h.is_multiple_of(200) {
        return MonitorSample::lost();
    }
    let hour = (r % 288) as f64 * 5.0 / 60.0;
    let plateau = id.is_multiple_of(CONGESTED_EVERY) && (9.0..17.0).contains(&hour);
    let jitter = ((h >> 8) % 1000) as f64 / 1000.0; // 0..1 ms
    let far_ms = 10.0 + jitter + if plateau { 14.0 } else { 0.0 };
    let flip = id.is_multiple_of(97) && hour >= 12.0;
    MonitorSample { far_ms, path_fp: if flip { 2 } else { 1 }, far_addr_ok: true }
}

/// One scaling point: run a full day of rounds through a fresh service
/// while `readers` dashboard threads poll the index, and report
/// (ingest samples/s, wall, steady RSS, query reads/s, elevated links).
fn scaling_point(links: u32, readers: usize) -> (f64, f64, f64, f64, u64) {
    let descs: Vec<LinkDesc> = (0..links).map(|i| LinkDesc { ixp: i % 8 }).collect();
    ixp_obs::reset_peak_rss();
    let cfg = MonitorConfig { shards: 32, threads: THREADS, ..MonitorConfig::default() };
    let svc = Arc::new(MonitorService::new(cfg, &descs));
    let mut batch: Vec<(u32, u64, MonitorSample)> =
        (0..links).map(|id| (id, 0, MonitorSample::lost())).collect();

    let stop = AtomicBool::new(false);
    let (wall, reads) = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..readers)
            .map(|k| {
                let svc = Arc::clone(&svc);
                let stop = &stop;
                sc.spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for id in ((k as u32 * 31)..links).step_by(7) {
                            let _ = svc.verdict(id);
                            reads += 1;
                        }
                    }
                    reads
                })
            })
            .collect();
        let t0 = Instant::now();
        for r in 0..ROUNDS {
            for slot in batch.iter_mut() {
                slot.1 = r as u64;
                slot.2 = sample_at(slot.0, r);
            }
            svc.ingest_sequenced(&batch);
        }
        let wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (wall, handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>())
    });

    let rss = ixp_obs::peak_rss_mb().unwrap_or(f64::NAN);
    let samples = links as u64 * ROUNDS as u64;
    assert_eq!(svc.samples_ingested(), samples);
    let v0 = svc.verdict(0); // link 0 is congested: the plateau must alarm
    assert!(v0.alarms >= 1, "congested link never alarmed: {v0:?}");
    let elevated = svc.index().elevated_links();
    (samples as f64 / wall, wall, rss, reads as f64 / wall, elevated)
}

fn monitor_ingest(c: &mut Criterion) {
    // ---- Section 1: per-round ingest latency at 1k links (criterion). ----
    let descs: Vec<LinkDesc> = (0..1_000u32).map(|i| LinkDesc { ixp: i % 8 }).collect();
    let cfg = MonitorConfig { shards: 32, threads: THREADS, ..MonitorConfig::default() };
    let svc = MonitorService::new(cfg, &descs);
    let mut batch: Vec<(u32, u64, MonitorSample)> =
        (0..1_000u32).map(|id| (id, 0, MonitorSample::lost())).collect();
    let mut round = 0usize;
    let mut g = c.benchmark_group("monitor_ingest");
    g.throughput(Throughput::Elements(1_000));
    g.sample_size(20);
    g.bench_function("round_1k_links", |b| {
        b.iter(|| {
            for slot in batch.iter_mut() {
                slot.1 = round as u64;
                slot.2 = sample_at(slot.0, round % ROUNDS);
            }
            round += 1;
            svc.ingest_sequenced(&batch)
        });
    });
    g.finish();

    // ---- Section 2: links-scaling curve with dashboard readers. ----
    let readers = 2usize;
    let mut rec = Record::new("monitor");
    rec.regime("rounds_per_link", ROUNDS as u64)
        .regime("reader_threads", readers as u64)
        .regime("threads", THREADS as u64);
    // Informational: what each link holds in its shard's two record arrays.
    rec.metric("layout.hot_bytes_per_link", "bytes", HOT_RECORD_BYTES as f64)
        .metric("layout.cold_bytes_per_link", "bytes", COLD_RECORD_BYTES as f64);
    for &links in &[1_000u32, 10_000, 100_000] {
        let (sps, wall, rss, qps, elevated) = scaling_point(links, readers);
        let expect_hot = (links / CONGESTED_EVERY) as u64;
        // The day ends at midnight — plateaus have downshifted; elevation
        // must have been caught (alarm counters) even though none is open.
        eprintln!(
            "[monitor] {links:>6} links: {sps:>10.0} samples/s ingest, steady RSS {rss:.1} MiB, \
             {qps:>10.0} index reads/s, {elevated}/{expect_hot} elevated at midnight"
        );
        let point = format!("links_{links}");
        rec.metric(format!("{point}.ingest_samples_per_sec"), "samples/s", sps)
            .metric(format!("{point}.wall_s"), "s", wall)
            .metric(format!("{point}.steady_rss_mb"), "MiB", rss)
            .metric(format!("{point}.query_reads_per_sec"), "reads/s", qps);
    }
    eprintln!("[monitor] host parallelism: {}", rec.host_parallelism);
    rec.write_fresh();
}

criterion_group! {
    name = monitor;
    config = Criterion::default();
    targets = monitor_ingest
}
criterion_main!(monitor);
