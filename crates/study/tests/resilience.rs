//! The resilience gauntlet: the resident monitor under disordered
//! telemetry, overload, corrupted checkpoints, and mid-ingest panics.
//!
//! Every plan runs at 1 and 3 ingest threads and must produce a
//! **bit-identical** verdict stream at both — admission control, shedding,
//! and supervised recovery are all deterministic. Across every plan:
//!
//! - zero false congestion elevations: links engineered quiet never alarm,
//!   at any snapshot, no matter what the chaos does;
//! - stepped links are recalled (the chaos never touches their shards in
//!   the plans that destroy shard state, by construction);
//! - plans whose perturbation is *absorbable* (duplicates, junk input,
//!   checkpoint+replay recovery, clean kill/resume) leave the entire
//!   verdict stream identical to the unperturbed reference;
//! - plans that destroy one shard (corrupt/missing checkpoint, panic
//!   without a store) leave every *other* shard's stream identical to the
//!   reference.

use ixp_monitor::prelude::*;
use std::path::PathBuf;
use tslp_core::CheckpointStore;

const N: usize = 48;
const SHARDS: usize = 6;
const ROUNDS: u64 = 160;
const STEP_ROUND: u64 = 60;
const CKPT_ROUND: u64 = 100;
/// The shard damaged / panicked by destructive plans. Stepped links are
/// ids ≡ 0 (mod 8) → shards {0, 2, 4}; shard 1 holds none of them.
const VICTIM_SHARD: usize = 1;

fn link_set() -> Vec<LinkDesc> {
    (0..N).map(|i| LinkDesc { ixp: i as u32 % 3 }).collect()
}

fn stepped(id: u32) -> bool {
    id.is_multiple_of(8)
}

/// Deterministic workload: quiet links hold ~2 ms, stepped links jump to
/// ~24 ms at `STEP_ROUND`, link 7 loses every 13th round.
fn sample(id: u32, r: u64) -> MonitorSample {
    let h = (u64::from(id) ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xD134_2543_DE82_EF95);
    let noise = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    let level = if stepped(id) && r >= STEP_ROUND { 24.0 } else { 2.0 };
    let lost = id == 7 && r.is_multiple_of(13);
    MonitorSample {
        far_ms: if lost { f64::NAN } else { level + noise },
        path_fp: if lost { 0 } else { 0xFACE },
        far_addr_ok: true,
    }
}

/// What the checkpoint of the victim shard suffers before a resilient
/// resume.
#[derive(Clone, Copy, PartialEq)]
enum Damage {
    None,
    FlipCrc,
    Truncate,
    Garbage,
    Delete,
}

#[derive(Clone, Copy)]
struct Plan {
    name: &'static str,
    /// Per-shard admission cap (0 = unbounded).
    cap: usize,
    reorder_window: u64,
    /// Emit rounds pairwise swapped: 1,0,3,2,…
    pair_swap: bool,
    /// Re-send the previous round's full batch every `dup_every` rounds.
    dup_every: u64,
    /// Replay an ancient sample every `stale_every` rounds.
    stale_every: u64,
    /// From this round on, sequence numbers jump ahead by 50 (collector
    /// restart that skipped a stretch). 0 = never.
    seq_jump_at: u64,
    /// Quadruple the batch at this round (overload burst). 0 = never.
    burst_at: u64,
    /// Append unknown-link and reserved-sequence junk every round.
    junk: bool,
    /// Arm a panic in this shard at batch `CKPT_ROUND`; `store` decides
    /// whether recovery replays from a checkpoint or rebuilds fresh;
    /// `double` arms a second panic so the replay dies too (quarantine).
    panic_shard: Option<usize>,
    panic_double: bool,
    with_store: bool,
    /// Kill at `CKPT_ROUND`, apply damage, resume resiliently, continue.
    kill_resume: Option<Damage>,
}

const BASE: Plan = Plan {
    name: "inert",
    cap: 0,
    reorder_window: 4,
    pair_swap: false,
    dup_every: 0,
    stale_every: 0,
    seq_jump_at: 0,
    burst_at: 0,
    junk: false,
    panic_shard: None,
    panic_double: false,
    with_store: false,
    kill_resume: None,
};

fn plans() -> Vec<Plan> {
    vec![
        BASE,
        Plan { name: "reorder_pairwise", pair_swap: true, ..BASE },
        Plan { name: "reorder_tight_window", pair_swap: true, reorder_window: 2, ..BASE },
        Plan { name: "duplicate_every_round", dup_every: 1, ..BASE },
        Plan { name: "duplicate_sparse", dup_every: 7, ..BASE },
        Plan { name: "stale_replays", stale_every: 5, ..BASE },
        Plan { name: "collector_restart_jump", seq_jump_at: 80, ..BASE },
        Plan { name: "overload_burst_once", burst_at: 70, cap: 6, ..BASE },
        Plan { name: "overload_sustained", cap: 6, ..BASE },
        Plan { name: "junk_input", junk: true, ..BASE },
        Plan { name: "reorder_plus_duplicates", pair_swap: true, dup_every: 1, ..BASE },
        Plan { name: "reorder_plus_overload", pair_swap: true, cap: 6, ..BASE },
        Plan {
            name: "storm_everything",
            pair_swap: true,
            dup_every: 3,
            stale_every: 5,
            burst_at: 90,
            cap: 6,
            junk: true,
            ..BASE
        },
        Plan {
            name: "panic_replay_from_checkpoint",
            panic_shard: Some(2),
            with_store: true,
            ..BASE
        },
        Plan { name: "panic_without_store", panic_shard: Some(VICTIM_SHARD), ..BASE },
        Plan {
            name: "panic_double_quarantine",
            panic_shard: Some(VICTIM_SHARD),
            panic_double: true,
            ..BASE
        },
        Plan {
            name: "panic_during_reorder_storm",
            pair_swap: true,
            panic_shard: Some(2),
            with_store: true,
            ..BASE
        },
        Plan { name: "ckpt_bitflip", kill_resume: Some(Damage::FlipCrc), ..BASE },
        Plan { name: "ckpt_truncated", kill_resume: Some(Damage::Truncate), ..BASE },
        Plan { name: "ckpt_garbage", kill_resume: Some(Damage::Garbage), ..BASE },
        Plan { name: "ckpt_missing_shard", kill_resume: Some(Damage::Delete), ..BASE },
        Plan { name: "kill_resume_clean", kill_resume: Some(Damage::None), ..BASE },
    ]
}

struct Run {
    /// One snapshot of every link's verdict after each ingested batch.
    stream: Vec<Vec<LinkVerdict>>,
    reports: Vec<IngestReport>,
    resume_report: Option<ResumeReport>,
    sidecar_exists: bool,
    restarts: u64,
    quarantined_after_panic_batch: usize,
    final_mode: ServiceMode,
}

fn batch_for(plan: &Plan, r: u64) -> Vec<(u32, u64, MonitorSample)> {
    let seq = |r: u64| if plan.seq_jump_at > 0 && r >= plan.seq_jump_at { r + 50 } else { r };
    let mut b: Vec<(u32, u64, MonitorSample)> =
        (0..N as u32).map(|id| (id, seq(r), sample(id, r))).collect();
    if plan.dup_every > 0 && r > 0 && r.is_multiple_of(plan.dup_every) {
        b.extend((0..N as u32).map(|id| (id, seq(r - 1), sample(id, r - 1))));
    }
    if plan.stale_every > 0 && r > 10 && r.is_multiple_of(plan.stale_every) {
        b.push((3, seq(1), sample(3, 1)));
    }
    if plan.burst_at > 0 && r == plan.burst_at {
        let once = b.clone();
        for _ in 0..3 {
            b.extend(once.iter().copied());
        }
    }
    if plan.junk {
        b.push((999, seq(r), sample(0, r)));
        b.push((5, u64::MAX, sample(5, r)));
    }
    b
}

fn scratch_dir(plan: &Plan, threads: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "resilience-{}-{}-{}",
        plan.name,
        threads,
        std::process::id()
    ))
}

fn run_plan(plan: &Plan, threads: usize) -> Run {
    let cfg = MonitorConfig {
        threads,
        shards: SHARDS,
        max_shard_batch: plan.cap,
        reorder_window: plan.reorder_window,
    };
    let dir = scratch_dir(plan, threads);
    let _ = std::fs::remove_dir_all(&dir);
    let needs_dir = plan.with_store || plan.kill_resume.is_some();

    let mut svc = MonitorService::new(cfg, &link_set());
    if plan.with_store {
        let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, N)).unwrap();
        svc.set_store(store);
    }
    let mut stream = Vec::new();
    let mut reports = Vec::new();
    let mut resume_report = None;
    let mut sidecar_exists = false;
    let mut quarantined_after_panic_batch = 0;

    // Emission order: identity, or pairwise swapped (r+1 before r).
    let order: Vec<u64> = if plan.pair_swap {
        (0..ROUNDS / 2).flat_map(|p| [p * 2 + 1, p * 2]).collect()
    } else {
        (0..ROUNDS).collect()
    };

    for (step, &r) in order.iter().enumerate() {
        let emitted = step as u64; // batches ingested so far
        if emitted == CKPT_ROUND {
            if let Some(damage) = plan.kill_resume {
                // Kill: checkpoint, damage the victim shard's blob, resume.
                let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, N)).unwrap();
                svc.checkpoint(&store).unwrap();
                let blob = dir.join(format!("blob-monitor-shard-{VICTIM_SHARD:03}.blob"));
                match damage {
                    Damage::None => {}
                    Damage::FlipCrc => {
                        let mut bytes = std::fs::read(&blob).unwrap();
                        let last = bytes.len() - 1;
                        bytes[last] ^= 0xFF;
                        std::fs::write(&blob, &bytes).unwrap();
                    }
                    Damage::Truncate => {
                        let bytes = std::fs::read(&blob).unwrap();
                        std::fs::write(&blob, &bytes[..bytes.len() / 2]).unwrap();
                    }
                    Damage::Garbage => {
                        std::fs::write(&blob, b"not a checkpoint at all").unwrap();
                    }
                    Damage::Delete => {
                        std::fs::remove_file(&blob).unwrap();
                    }
                }
                drop(svc);
                let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, N)).unwrap();
                let (resumed, report) = MonitorService::resume_resilient(cfg, &link_set(), store);
                resume_report = Some(report);
                sidecar_exists = dir
                    .join(format!("blob-monitor-shard-{VICTIM_SHARD:03}.blob.corrupt"))
                    .exists();
                svc = resumed;
            } else if let Some(shard) = plan.panic_shard {
                if plan.with_store {
                    // Checkpoint right before the faulty batch so the
                    // supervisor's replay is bit-identical.
                    assert!(svc.checkpoint_attached().unwrap());
                }
                let b = svc.batches_ingested();
                svc.arm_panic(shard, b, 5);
                if plan.panic_double {
                    svc.arm_panic(shard, b, 7);
                }
            }
        }
        let report = svc.ingest_sequenced(&batch_for(plan, r));
        if emitted == CKPT_ROUND && plan.panic_shard.is_some() {
            quarantined_after_panic_batch = svc.quarantined_shards();
        }
        reports.push(report);
        stream.push((0..N as u32).map(|id| svc.verdict(id)).collect());
    }

    let run = Run {
        stream,
        reports,
        resume_report,
        sidecar_exists,
        restarts: svc.shard_restarts(),
        quarantined_after_panic_batch,
        final_mode: svc.mode(),
    };
    if needs_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    run
}

/// Link ids whose shard is destroyed (rebuilt from nothing) by the plan —
/// excluded from cross-reference stream comparison, never from the
/// false-elevation check.
fn destroyed_shard(plan: &Plan) -> Option<usize> {
    match (plan.kill_resume, plan.panic_shard) {
        (Some(Damage::None), _) | (None, None) => None,
        (Some(_), _) => Some(VICTIM_SHARD),
        // Panic with a fresh pre-batch checkpoint replays bit-identically;
        // without a store the shard rebuilds from scratch.
        (None, Some(shard)) => {
            if plan.with_store && !plan.panic_double {
                None
            } else {
                Some(shard)
            }
        }
    }
}

/// Whether the plan's verdict stream must equal the inert reference on
/// every link outside the destroyed shard. True for plans whose
/// perturbation is fully absorbed by admission control or recovery.
fn absorbable(plan: &Plan) -> bool {
    // Stale replays and duplicates never reach a detector, so they are
    // absorbable too; reordering, shedding, and sequence jumps change what
    // (or when) the detectors legitimately see.
    !plan.pair_swap && plan.cap == 0 && plan.seq_jump_at == 0 && plan.burst_at == 0
}

#[test]
fn resilience_gauntlet() {
    let reference = run_plan(&BASE, 1);
    for plan in plans() {
        let one = run_plan(&plan, 1);
        let three = run_plan(&plan, 3);

        // Bit-identical at any thread count: the full verdict stream and
        // every ingest report.
        assert_eq!(one.stream, three.stream, "{}: thread-variant stream", plan.name);
        assert_eq!(one.reports, three.reports, "{}: thread-variant reports", plan.name);
        assert_eq!(one.resume_report, three.resume_report, "{}", plan.name);

        // Zero false congestion elevations, at every snapshot.
        for (batch, snap) in one.stream.iter().enumerate() {
            for (id, v) in snap.iter().enumerate() {
                if !stepped(id as u32) {
                    assert!(
                        !v.elevated && v.alarms == 0,
                        "{}: false elevation on quiet link {id} at batch {batch}: {v:?}",
                        plan.name
                    );
                }
            }
        }

        // Stepped links are recalled (chaos never lands on their shards).
        let last = one.stream.last().unwrap();
        for id in (0..N as u32).filter(|id| stepped(*id)) {
            assert!(
                last[id as usize].elevated,
                "{}: lost the plateau on stepped link {id}",
                plan.name
            );
        }

        // Streams of links outside the destroyed shard match the inert
        // reference exactly, for plans whose chaos must be absorbed.
        if absorbable(&plan) {
            let skip = destroyed_shard(&plan);
            for (batch, (snap, ref_snap)) in
                one.stream.iter().zip(&reference.stream).enumerate()
            {
                for id in 0..N {
                    if Some(id % SHARDS) == skip {
                        continue;
                    }
                    assert_eq!(
                        snap[id], ref_snap[id],
                        "{}: unaffected link {id} diverged at batch {batch}",
                        plan.name
                    );
                }
            }
        }

        // Plan-specific bookkeeping.
        let totals = |f: fn(&IngestReport) -> u64| one.reports.iter().map(f).sum::<u64>();
        if plan.pair_swap {
            assert!(totals(|r| r.reordered) > 0, "{}: no reorders healed", plan.name);
        }
        if plan.dup_every > 0 || plan.burst_at > 0 {
            assert!(totals(|r| r.duplicates) > 0, "{}: no duplicates seen", plan.name);
        }
        if plan.stale_every > 0 {
            assert!(totals(|r| r.stale) > 0, "{}: no stale replays seen", plan.name);
        }
        if plan.seq_jump_at > 0 {
            assert!(totals(|r| r.dropped) >= 46, "{}: jump not accounted", plan.name);
        }
        if plan.cap > 0 {
            assert!(totals(|r| r.shed) > 0, "{}: nothing shed", plan.name);
            assert!(
                one.reports.iter().any(|r| r.mode == ServiceMode::Degraded),
                "{}: shedding must degrade the mode",
                plan.name
            );
        }
        if plan.junk {
            assert_eq!(totals(|r| r.rejected), 2 * ROUNDS, "{}", plan.name);
        }
        if plan.panic_shard.is_some() {
            assert_eq!(one.restarts, 1, "{}", plan.name);
            assert!(totals(|r| r.restarts) == 1, "{}", plan.name);
            if plan.panic_double {
                assert_eq!(one.quarantined_after_panic_batch, 1, "{}", plan.name);
            } else {
                assert_eq!(one.quarantined_after_panic_batch, 0, "{}", plan.name);
            }
        }
        if let Some(damage) = plan.kill_resume {
            let report = one.resume_report.as_ref().unwrap();
            let expect_victim = match damage {
                Damage::None => ShardRecovery::Restored,
                Damage::Delete => ShardRecovery::RebuiltMissing,
                _ => ShardRecovery::RebuiltCorrupt,
            };
            for (shard, got) in report.shards.iter().enumerate() {
                let want = if shard == VICTIM_SHARD {
                    expect_victim
                } else {
                    ShardRecovery::Restored
                };
                assert_eq!(*got, want, "{}: shard {shard}", plan.name);
            }
            let want_sidecar = !matches!(damage, Damage::None | Damage::Delete);
            assert_eq!(one.sidecar_exists, want_sidecar, "{}", plan.name);
        }
        if plan.name == "inert" {
            assert_eq!(one.final_mode, ServiceMode::Healthy);
            assert_eq!(totals(|r| r.delivered), ROUNDS * N as u64);
        }
    }
}
