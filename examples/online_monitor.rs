//! The resident monitoring service at continent scale: the §8 extension,
//! built from the simulator's probe walk, the sharded [`MonitorService`],
//! and the concurrent verdict index.
//!
//! The retrospective study collects a year of samples and analyzes them
//! afterwards; a production monitor must raise alarms *as probes return*,
//! for every member port at once, while operators hammer the dashboard.
//! This example probes the far end of ~1,200 member links every 5
//! simulated minutes from one vantage point, through one probing context,
//! and ingests each completed round into a shared [`MonitorService`] —
//! sharded Page's-CUSUM detectors plus incremental health state, O(window)
//! memory per link, no series retention. Rounds go through the *sequenced*
//! ingest path: each sample carries a per-link sequence number, and every
//! 20th round is replayed whole to show the admission gates absorbing
//! at-least-once delivery without touching a detector. While the round
//! loop ingests, dashboard reader threads poll the concurrent verdict
//! index; ingestion never stalls behind them. At the end the service's
//! live verdicts are checked against ground truth: every congested port
//! elevated, zero false alarms, and the telemetry gauges published in one
//! line.
//!
//! ```sh
//! cargo run --release --example online_monitor
//! ```

use african_ixp_congestion::monitor::{
    LinkDesc, MonitorConfig, MonitorSample, MonitorService, ServiceMode,
};
use african_ixp_congestion::obs::MetricsRegistry;
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::topology::{build_continent, ContinentSpec, MemberLink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Probe cadence: the paper's 5-minute TSLP rounds.
const ROUND: SimDuration = SimDuration::from_mins(5);
/// Rounds to run: 07:00–14:00 on the first (week)day — two quiet hours to
/// baseline, then the 9–17h business plateau onset the monitor must catch.
const ROUNDS: usize = 84;

/// Probe every link's far end once per round, from 07:00, and ingest each
/// round as one sequenced batch, printing the first alarm edges.
fn monitor_rounds(net: &Network, vp: NodeId, links: &[MemberLink], svc: &MonitorService) {
    let start = SimTime::ZERO + SimDuration::from_hours(7);
    let mut ctx = net.probe_ctx(0);
    // Live (unmasked) alarm count last seen per link, for alarm-edge
    // detection off the verdict index.
    let mut last_alarms = vec![0u64; links.len()];
    let mut upshifts = 0u32;
    let mut dup_absorbed = 0u64;
    for round in 0..ROUNDS {
        let t = start + ROUND.mul(round as u64);
        // Sequenced ingest: every sample carries its per-link sequence
        // number (here simply the round), so the admission gates can
        // detect duplicated, reordered, or stale telemetry.
        let seq = round as u64;
        let batch: Vec<(u32, u64, MonitorSample)> = links
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let sample = match net.send_probe_lite(&mut ctx, vp, ProbeSpec::ttl_limited(l.dst, l.far_ttl), t) {
                    // Path fingerprint, miniaturized: the responder address
                    // (the offline pipeline hashes the whole TTL ladder).
                    Ok(r) => MonitorSample {
                        far_ms: r.rtt.as_millis_f64(),
                        path_fp: 0x8000_0000_0000_0000u64 | u64::from(r.responder.0),
                        far_addr_ok: r.responder == l.far,
                    },
                    Err(_) => MonitorSample::lost(),
                };
                (i as u32, seq, sample)
            })
            .collect();
        let report = svc.ingest_sequenced(&batch);
        assert_eq!(report.delivered, batch.len() as u64);
        assert_eq!(report.mode, ServiceMode::Healthy, "healthy fleet stays Healthy");
        // At-least-once delivery, live: every 20th round the collector
        // replays the whole round it just sent. The gates absorb every
        // copy as a duplicate — nothing reaches the detectors.
        if round % 20 == 19 {
            let replay = svc.ingest_sequenced(&batch);
            assert_eq!(replay.delivered, 0, "replayed round must not re-enter detectors");
            assert_eq!(replay.duplicates, batch.len() as u64);
            dup_absorbed += replay.duplicates;
        }
        // Alarm edges off the verdict index: a link whose unmasked alarm
        // count rose this round just upshifted.
        for (id, last) in last_alarms.iter_mut().enumerate() {
            let v = svc.verdict(id as u32);
            let live = v.alarms - v.masked_alarms;
            if live > *last {
                upshifts += 1;
                if upshifts <= 8 {
                    println!("  [{t}] ⚠ UPSHIFT on link {id}");
                }
            }
            *last = live;
        }
    }
    println!(
        "monitor stopping at {}: {ROUNDS} rounds x {} links ingested, {upshifts} live upshifts, \
         {dup_absorbed} replayed duplicates absorbed",
        start + ROUND.mul(ROUNDS as u64 - 1),
        links.len(),
    );
}

fn main() {
    // ---- The substrate: a generated continent, ~1,200 member links across
    // 8 IXPs, 2% carrying the business-hours diurnal overload.
    let spec = ContinentSpec::with_total_links(1_200);
    let cont = build_continent(&spec, 0xD15C_2017);
    let n = cont.links.len();
    let congested: Vec<bool> = cont.links.iter().map(|l| l.congested).collect();
    let descs: Vec<LinkDesc> =
        (0..n).map(|i| LinkDesc { ixp: i as u32 % spec.ixps.max(1) }).collect();
    println!(
        "monitoring {} member links live ({} seeded congested), 5-minute rounds, {} rounds...",
        n,
        congested.iter().filter(|&&c| c).count(),
        ROUNDS
    );

    let cfg = MonitorConfig { shards: 32, threads: 2, ..MonitorConfig::default() };
    let svc = Arc::new(MonitorService::new(cfg, &descs));

    // ---- Run the rounds with dashboard readers hammering the verdict
    // index from real OS threads the whole time. Ingestion (the round loop)
    // and queries (readers) share nothing but the sharded index.
    let stop = AtomicBool::new(false);
    let dash_reads = std::thread::scope(|sc| {
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let svc = Arc::clone(&svc);
                let stop = &stop;
                sc.spawn(move || {
                    let mut reads = 0u64;
                    let mut elevated_seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for id in ((r * 13)..n as u32).step_by(7) {
                            let v = svc.verdict(id);
                            elevated_seen += u64::from(v.elevated);
                            reads += 1;
                        }
                    }
                    (reads, elevated_seen)
                })
            })
            .collect();
        monitor_rounds(&cont.net, cont.vp, &cont.links, &svc);
        stop.store(true, Ordering::Relaxed);
        let mut reads = 0;
        let mut elevated = 0;
        for r in readers {
            let (n_reads, n_elev) = r.join().unwrap();
            reads += n_reads;
            elevated += n_elev;
        }
        (reads, elevated)
    });
    println!(
        "dashboard readers made {} index reads during ingest ({} saw elevated state)",
        dash_reads.0, dash_reads.1
    );

    // ---- Telemetry: the service publishes its live gauges in one call.
    let reg = MetricsRegistry::new();
    svc.publish_gauges(&reg);
    println!("gauges: {}", reg.snapshot().one_line());

    // ---- Ground truth: live verdicts vs the seeded congestion.
    let mut hot = 0u32;
    let mut hot_elevated = 0u32;
    let mut false_elevated = 0u32;
    for (i, &is_hot) in congested.iter().enumerate() {
        let v = svc.verdict(i as u32);
        assert_eq!(v.round as usize, ROUNDS, "every link must see every round");
        if is_hot {
            hot += 1;
            hot_elevated += u32::from(v.elevated);
        } else {
            false_elevated += u32::from(v.elevated);
        }
    }
    assert_eq!(svc.samples_ingested(), (n * ROUNDS) as u64, "every sample accounted for");
    assert!(hot >= 10, "the 2% congested fraction must materialize: {hot}");
    assert!(
        hot_elevated as f64 >= 0.9 * hot as f64,
        "the monitor must catch the plateau live: {hot_elevated}/{hot} congested links elevated"
    );
    assert_eq!(false_elevated, 0, "no clean link may read elevated");
    assert!(dash_reads.0 > 0, "readers must make progress during ingest");
    assert_eq!(svc.index().elevated_links(), u64::from(hot_elevated));
    println!(
        "ground truth: {hot_elevated}/{hot} congested ports elevated live, 0 false alarms ✓"
    );
}
