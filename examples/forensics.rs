//! Black-box forensics: drive the resident monitor through congestion,
//! routing events, dirty telemetry, a load-shed burst, and a panic →
//! restore → quarantine incident — with the flight recorder live — then
//! replay the dumped trace bundles into per-link timelines that answer the
//! three operator questions: **why is this link elevated**, **why was my
//! sample shed**, and **what exactly happened during the incident**.
//!
//! The run also closes the provenance loop end to end: the service's mode
//! history and a resilient-resume report land in a versioned
//! [`RunManifest`], and the example asserts that *every* alarm, mask
//! decision, shed sample, and supervision step in the final verdicts is
//! explained by a matching trace event — zero unexplained verdicts.
//!
//! ```sh
//! cargo run --release --example forensics
//! ```

use african_ixp_congestion::monitor::{
    monitor_fingerprint, LinkDesc, MaskOutcome, MonitorConfig, MonitorSample, MonitorService,
    ServiceMode, ShardRecovery, MASK_SLACK_ROUNDS,
};
use african_ixp_congestion::obs::{
    parse_dump, recovery_name, FlightRecorder, MetricsRegistry, ModeTransition, ResumeSummary,
    RunManifest, TraceDump, TraceEvent, TraceKind,
};
use african_ixp_congestion::tslp::CheckpointStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fleet size: small enough to read the timelines, big enough to shard.
const LINKS: usize = 48;
/// Five-minute rounds driven through the service.
const ROUNDS: u64 = 160;
/// Links seeded with a genuine congestion step (no route change).
const CONGESTED: [u32; 3] = [5, 17, 29];
/// Link whose level step rides a route change → the causal mask fires.
const MASKED: u32 = 11;
/// Link with an old route change → the mask is considered but rejected.
const REJECTED: u32 = 23;
/// Substrate seed folded into the checkpoint fingerprint.
const SEED: u64 = 0xF0 | 0x2017;

/// Deterministic per-(link, round) jitter in ±0.4 ms.
fn jitter(link: u32, round: u64) -> f64 {
    let mut x = (u64::from(link) << 32) ^ round ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % 800) as f64 / 1000.0 - 0.4
}

/// The far-side RTT stream: flat baselines, three genuine +30 ms steps at
/// round 60, a route-coincident +40 ms step on [`MASKED`] at round 80, and
/// a late +22 ms step on [`REJECTED`] at round 90 (50 rounds after its
/// route change — far outside the mask slack).
fn rtt(link: u32, round: u64) -> f64 {
    let base = 18.0 + f64::from(link) * 0.25;
    let step = if CONGESTED.contains(&link) && round >= 60 {
        30.0
    } else if link == MASKED && round >= 80 {
        40.0
    } else if link == REJECTED && round >= 90 {
        22.0
    } else {
        0.0
    };
    base + step + jitter(link, round)
}

/// The path fingerprint stream: constant except the two routing events.
fn fp(link: u32, round: u64) -> u64 {
    let changed = (link == MASKED && round >= 80) || (link == REJECTED && round >= 40);
    0x9000_0000 + u64::from(link) * 2 + u64::from(changed)
}

fn sample(link: u32, round: u64) -> MonitorSample {
    MonitorSample { far_ms: rtt(link, round), path_fp: fp(link, round), far_addr_ok: true }
}

fn round_batch(seq: u64) -> Vec<(u32, u64, MonitorSample)> {
    (0..LINKS as u32).map(|id| (id, seq, sample(id, seq))).collect()
}

fn main() {
    // ---- The service: 4 shards, 2 workers, admission bounded at 18
    // samples per shard per batch (normal demand is 12), flight recorder
    // and checkpoint store attached from the start.
    let cfg = MonitorConfig { shards: 4, threads: 2, max_shard_batch: 18, ..MonitorConfig::default() };
    let descs: Vec<LinkDesc> = (0..LINKS).map(|i| LinkDesc { ixp: i as u32 % 2 }).collect();
    let dir = std::env::temp_dir().join(format!("forensics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_fp = monitor_fingerprint(&cfg, LINKS);
    let svc = MonitorService::new(cfg, &descs);
    // The armed chaos panics below are the point of the exercise — keep
    // their backtraces out of the narrative (real panics still print).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("armed chaos panic") {
            default_hook(info);
        }
    }));
    let fl = Arc::new(FlightRecorder::new(cfg.shards, 1 << 14));
    svc.attach_flight_recorder(Arc::clone(&fl));
    svc.set_store(CheckpointStore::new(&dir, store_fp).expect("store opens"));
    println!(
        "driving {LINKS} links x {ROUNDS} rounds through a {}-shard monitor, tracing live...",
        cfg.shards
    );

    // ---- The drive: clean rounds plus every fault the admission gates and
    // the supervisor are built for, each at a known round.
    let (mut dups, mut stale, mut reordered, mut shed, mut dropped) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut r: u64 = 0;
    while r < ROUNDS {
        // Round 100 is a collector backlog flush: two rounds arrive as one
        // oversized batch (24 per shard > the 18 bound) — admission sheds
        // the overflow deterministically and the service enters Degraded.
        if r == 100 {
            let mut burst = round_batch(100);
            burst.extend(round_batch(101));
            let rep = svc.ingest_sequenced(&burst);
            assert!(rep.shed > 0, "the burst must overrun the admission bound");
            assert_eq!(rep.mode, ServiceMode::Degraded, "shedding degrades the service");
            shed += rep.shed;
            dropped += rep.dropped;
            r += 2;
            continue;
        }
        // Round 130: one armed worker panic — the supervisor restores the
        // shard from the round-120 checkpoint and replays the batch.
        if r == 130 {
            svc.arm_panic(2, svc.batches_ingested(), 5);
        }
        // Round 140: the worker panics twice in a row — the second panic
        // quarantines the shard for this batch.
        if r == 140 {
            let b = svc.batches_ingested();
            svc.arm_panic(2, b, 3);
            svc.arm_panic(2, b, 6);
        }
        let mut batch = round_batch(r);
        if r == 50 {
            // An ancient replay from a confused collector queue.
            batch.push((7, 10, sample(7, 10)));
        }
        if r == 70 {
            // Link 3's rounds 70/71 swap in flight: send 71 now, 70 next.
            batch[3] = (3, 71, sample(3, 71));
        }
        if r == 71 {
            batch[3] = (3, 70, sample(3, 70));
        }
        let rep = svc.ingest_sequenced(&batch);
        dups += rep.duplicates;
        stale += rep.stale;
        reordered += rep.reordered;
        shed += rep.shed;
        dropped += rep.dropped;
        if r == 30 {
            // At-least-once delivery: the whole round arrives again.
            let replay = svc.ingest_sequenced(&batch);
            assert_eq!(replay.delivered, 0, "replayed round must not re-enter detectors");
            dups += replay.duplicates;
        }
        if r == 120 {
            assert!(svc.checkpoint_attached().expect("checkpoint writes"), "store is attached");
        }
        r += 1;
    }
    assert_eq!(fl.dropped(), 0, "trace rings must hold the whole run");
    println!(
        "run complete: {dups} duplicates, {stale} stale, {reordered} reordered, {shed} shed, \
         {dropped} dropped, {} incident dumps, mode history {:?}",
        svc.trace_dumps(),
        svc.mode_history().iter().map(|(b, m)| format!("{m:?}@{b}")).collect::<Vec<_>>()
    );
    assert!(dups >= LINKS as u64 && stale >= 1 && reordered >= 1 && shed > 0);
    assert!(svc.trace_dumps() >= 3, "degraded entry, panic recovery, quarantine must all dump");

    // ---- The black box: incident bundles were dumped by the service as
    // the incidents happened; a final bundle covers the full run. Replay
    // happens strictly from parsed dumps — nothing below touches the
    // in-memory rings.
    let reader = CheckpointStore::new(&dir, store_fp).expect("store reopens");
    reader.store_blob("trace-dump-final", &fl.dump_jsonl("run-complete")).expect("final dump");
    for i in 0..svc.trace_dumps() {
        let name = format!("trace-dump-{i:03}");
        let bytes = reader.load_blob(&name).expect("incident dump present");
        let dump = parse_dump(&bytes).expect("incident dump parses");
        println!("  {name}: {:>4} events, reason {:?}", dump.events.len(), dump.reason);
    }
    let dump: TraceDump =
        parse_dump(&reader.load_blob("trace-dump-final").expect("final dump present"))
            .expect("final dump parses");
    assert_eq!(dump.reason, "run-complete");
    assert_eq!(dump.dropped, 0);

    // ---- Per-link timelines from the dump.
    let mut by_link: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for ev in &dump.events {
        by_link.entry(ev.link).or_default().push(*ev);
    }
    let count = |link: u32, kind: TraceKind| -> u64 {
        by_link.get(&link).map_or(0, |evs| evs.iter().filter(|e| e.kind == kind).count() as u64)
    };

    // Q1: why is this link elevated? Every elevated verdict must be backed
    // by an OnlineUpshift trace and carry complete evidence; every alarm
    // and mask the verdicts count must appear in the timeline. Zero
    // unexplained verdicts, zero unexplained trace events.
    println!("\nwhy elevated:");
    let mut elevated = 0u32;
    for id in 0..LINKS as u32 {
        let v = svc.verdict(id);
        assert_eq!(count(id, TraceKind::OnlineUpshift), v.alarms, "link {id}: unexplained alarms");
        assert_eq!(
            count(id, TraceKind::MaskApplied),
            v.masked_alarms,
            "link {id}: unexplained masks"
        );
        if v.alarms > 0 {
            let ev = v.evidence;
            assert_ne!(ev.change_round, u64::MAX, "link {id}: alarm without evidence");
            assert!(ev.level_before_ms.is_finite());
            let mask = match ev.mask {
                MaskOutcome::NotConsidered => "no route change on record".to_string(),
                MaskOutcome::Applied { rounds_since_change } => format!(
                    "MASKED: route changed {rounds_since_change} rounds earlier \
                     (fp {:#x} -> {:#x} at round {})",
                    ev.fp_before, ev.fp_after, ev.path_change_round
                ),
                MaskOutcome::Rejected { rounds_since_change } => format!(
                    "mask rejected: route change was {rounds_since_change} rounds earlier \
                     (> slack {})",
                    MASK_SLACK_ROUNDS
                ),
            };
            println!(
                "  link {id:>2}: shifted at round {} from {:.1} ms baseline (+{:.1} ms now) — {mask}",
                ev.change_round, ev.level_before_ms, v.elevation_ms
            );
        } else {
            assert_eq!(v.evidence.change_round, u64::MAX, "link {id}: evidence without alarm");
        }
        elevated += u32::from(v.elevated);
    }
    // The three stories read exactly as seeded.
    for id in CONGESTED {
        let v = svc.verdict(id);
        assert!(v.elevated, "congested link {id} must be elevated");
        assert_eq!(v.evidence.mask, MaskOutcome::NotConsidered, "link {id} never changed route");
    }
    let masked = svc.verdict(MASKED);
    assert!(masked.masked_alarms >= 1, "the route-coincident step must be masked");
    assert!(
        matches!(masked.evidence.mask, MaskOutcome::Applied { rounds_since_change } if rounds_since_change <= MASK_SLACK_ROUNDS),
        "masked link evidence: {:?}",
        masked.evidence.mask
    );
    let rejected = svc.verdict(REJECTED);
    assert!(rejected.elevated && rejected.masked_alarms == 0, "the stale route change must not mask");
    assert!(
        matches!(rejected.evidence.mask, MaskOutcome::Rejected { rounds_since_change } if rounds_since_change > MASK_SLACK_ROUNDS),
        "rejected link evidence: {:?}",
        rejected.evidence.mask
    );
    assert_eq!(u64::from(elevated), svc.index().elevated_links());

    // Q2: why was my sample shed? Every shed decision is in the timeline
    // with its (link, seq, batch) coordinates.
    let shed_events: Vec<&TraceEvent> =
        dump.events.iter().filter(|e| e.kind == TraceKind::SampleShed).collect();
    assert_eq!(shed_events.len() as u64, shed, "unexplained shed samples");
    let mut shed_batches: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &shed_events {
        *shed_batches.entry(e.b).or_default() += 1;
    }
    println!("\nwhy shed:");
    for (batch, n) in &shed_batches {
        let sample = shed_events.iter().find(|e| e.b == *batch).expect("non-empty group");
        println!(
            "  batch {batch}: {n} samples shed by admission control \
             (e.g. link {} seq {}) — demand exceeded {} per shard",
            sample.link, sample.a, cfg.max_shard_batch
        );
    }

    // Q3: what happened during the incident? The supervision chain is
    // complete: every panic is followed by a restore and a replay, the
    // second panic of batch N is followed by a quarantine, and every
    // checkpoint restore says what it restored from.
    println!("\nincident summary:");
    let ops: Vec<&TraceEvent> = dump
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::WorkerPanic
                    | TraceKind::ShardRestore
                    | TraceKind::CheckpointReplay
                    | TraceKind::ShardQuarantine
                    | TraceKind::CheckpointWrite
                    | TraceKind::CheckpointRestore
                    | TraceKind::ModeChange
            )
        })
        .collect();
    for e in &ops {
        let what = match e.kind {
            TraceKind::WorkerPanic => format!("worker PANIC on shard {} (restart #{})", e.shard, e.a),
            TraceKind::ShardRestore => format!("shard {} state restored", e.shard),
            TraceKind::CheckpointRestore => {
                format!("shard {} recovered from checkpoint: {}", e.shard, recovery_name(e.a))
            }
            TraceKind::CheckpointReplay => format!("shard {}: {} items replayed", e.shard, e.a),
            TraceKind::ShardQuarantine => format!("shard {} QUARANTINED for this batch", e.shard),
            TraceKind::CheckpointWrite => format!("shard {} checkpointed ({} links)", e.shard, e.a),
            TraceKind::ModeChange => {
                format!("service mode -> {}", if e.a == 1 { "Degraded" } else { "Healthy" })
            }
            _ => unreachable!(),
        };
        println!("  [batch {:>3}] {what}", e.round);
    }
    let panics = ops.iter().filter(|e| e.kind == TraceKind::WorkerPanic).count();
    let restores = ops.iter().filter(|e| e.kind == TraceKind::ShardRestore).count();
    let quarantines = ops.iter().filter(|e| e.kind == TraceKind::ShardQuarantine).count();
    // Two supervised passes panicked (batches 130 and 140); the double
    // panic's second unwind is recorded as the quarantine, not a restart.
    assert_eq!(panics, 2, "both panicked passes must be in the timeline");
    assert_eq!(restores, panics, "every panic has its restore in the timeline");
    assert_eq!(quarantines, 1, "exactly one quarantine");
    assert_eq!(
        ops.iter().filter(|e| e.kind == TraceKind::ModeChange).count(),
        svc.mode_history().len(),
        "every mode transition is traced"
    );
    assert_eq!(svc.shard_restarts(), panics as u64);
    assert_eq!(svc.quarantined_shards(), 0, "the next clean pass lifted the quarantine");

    // ---- Close the provenance loop: checkpoint, resume resiliently, and
    // fold the operational record into the versioned run manifest.
    let history: Vec<ModeTransition> = svc
        .mode_history()
        .into_iter()
        .map(|(batch, mode)| ModeTransition { batch, mode: format!("{mode:?}") })
        .collect();
    assert!(svc.checkpoint_attached().expect("final checkpoint"));
    drop(svc);
    let (svc2, resume) = MonitorService::resume_resilient(
        cfg,
        &descs,
        CheckpointStore::new(&dir, store_fp).expect("store reopens"),
    );
    assert!(resume.all_restored(), "clean blobs must restore bit-identically: {resume:?}");
    assert_eq!(u64::from(elevated), svc2.index().elevated_links(), "verdicts survive resume");
    let summary = ResumeSummary {
        restored: resume.shards.iter().filter(|s| **s == ShardRecovery::Restored).count(),
        rebuilt_missing: resume.shards.iter().filter(|s| **s == ShardRecovery::RebuiltMissing).count(),
        rebuilt_stale: resume.shards.iter().filter(|s| **s == ShardRecovery::RebuiltStale).count(),
        rebuilt_corrupt: resume.shards.iter().filter(|s| **s == ShardRecovery::RebuiltCorrupt).count(),
    };
    let reg = MetricsRegistry::new();
    svc2.publish_gauges(&reg);
    let manifest = RunManifest::new(store_fp, SEED, cfg.threads, 0.0, reg.snapshot())
        .with_mode_history(history)
        .with_resume_summary(summary);
    let parsed = RunManifest::from_json(&manifest.to_json()).expect("manifest roundtrips");
    assert_eq!(parsed.mode_history, manifest.mode_history);
    assert_eq!(parsed.resume_summary, Some(summary));
    println!(
        "\nmanifest v{}: {} mode transitions, resume {}/{} shards restored — \
     every alarm, shed, and supervision step explained ✓",
        parsed.version,
        parsed.mode_history.len(),
        summary.restored,
        resume.shards.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
