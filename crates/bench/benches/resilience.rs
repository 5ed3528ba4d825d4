//! Admission-control overhead (DESIGN.md §5.18): the sequenced ingest path
//! puts every sample behind its link's [`ixp_monitor::SeqGate`] before the
//! detector sees it, and promises that in steady state (in-order
//! telemetry, no overload) admission stays under 3% of the path's cost.
//!
//! Three arms run the same precomputed 1k-link, 288-round day at one
//! thread, each from state built before its clock starts:
//!
//! - `a`: a bare [`LinkState::push`] loop over a `Vec<LinkState>`;
//! - `b`: the same loop with each push behind `SeqGate::admit(seq = round)`;
//! - `c`: [`MonitorService::ingest_sequenced`].
//!
//! `b − a` is what admission costs; `c − (b − a)` is the sequenced path
//! without it. Rounds rotate the arm order, and the median over rounds of
//! `(b − a) / (c − (b − a))` is written to `BENCH_resilience.json` as
//! `overhead_pct`, where `scripts/bench_resilience.sh` gates it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ixp_monitor::{LinkDesc, LinkState, MonitorConfig, MonitorSample, MonitorService, SeqGate};
use std::time::Instant;

const LINKS: u32 = 1_000;
const DAY_ROUNDS: usize = 288;
const CONGESTED_EVERY: u32 = 50;
const ROUNDS: usize = 31;

/// Deterministic per-(link, round) noise: splitmix64 on the pair (same
/// synth workload as the monitor scaling bench).
fn mix(link: u32, round: u32) -> u64 {
    let mut z = ((link as u64) << 32 | round as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sample_at(id: u32, r: usize) -> MonitorSample {
    let h = mix(id, r as u32);
    if h % 200 == 0 {
        return MonitorSample::lost();
    }
    let hour = (r % DAY_ROUNDS) as f64 * 5.0 / 60.0;
    let plateau = id % CONGESTED_EVERY == 0 && (9.0..17.0).contains(&hour);
    let jitter = ((h >> 8) % 1000) as f64 / 1000.0;
    let far_ms = 10.0 + jitter + if plateau { 14.0 } else { 0.0 };
    let flip = id % 97 == 0 && hour >= 12.0;
    MonitorSample { far_ms, path_fp: if flip { 2 } else { 1 }, far_addr_ok: true }
}

type Day = Vec<Vec<(u32, u64, MonitorSample)>>;

/// The whole day as per-round sequenced batches (sequence number = round).
fn day() -> Day {
    (0..DAY_ROUNDS)
        .map(|r| (0..LINKS).map(|id| (id, r as u64, sample_at(id, r))).collect())
        .collect()
}

fn config() -> MonitorConfig {
    MonitorConfig { shards: 32, threads: 1, ..MonitorConfig::default() }
}

/// One arm's state, built before its clock starts.
enum Arm {
    Push(Vec<LinkState>),
    Gated(Vec<LinkState>, Vec<SeqGate>),
    Service(MonitorService),
}

impl Arm {
    fn fresh(arm: usize, cfg: &MonitorConfig) -> Arm {
        let states = || (0..LINKS).map(|_| LinkState::with_config(cfg)).collect();
        match arm {
            0 => Arm::Push(states()),
            1 => Arm::Gated(states(), (0..LINKS).map(|_| SeqGate::new()).collect()),
            _ => {
                let descs: Vec<LinkDesc> = (0..LINKS).map(|i| LinkDesc { ixp: i % 8 }).collect();
                Arm::Service(MonitorService::new(*cfg, &descs))
            }
        }
    }

    /// Ingest the whole day.
    fn run(&mut self, day: &Day, cfg: &MonitorConfig) {
        match self {
            Arm::Push(states) => {
                for batch in day {
                    for &(id, _, s) in batch {
                        states[id as usize].push(&s, cfg);
                    }
                }
            }
            Arm::Gated(states, gates) => {
                let mut delivered = 0u64;
                for batch in day {
                    for &(id, seq, s) in batch {
                        let st = &mut states[id as usize];
                        let d = gates[id as usize].admit(seq, s, cfg.reorder_window, &mut |smp| {
                            st.push(&smp, cfg);
                        });
                        delivered += u64::from(d.delivered);
                    }
                }
                assert_eq!(delivered, LINKS as u64 * DAY_ROUNDS as u64);
            }
            Arm::Service(svc) => {
                for batch in day {
                    black_box(svc.ingest_sequenced(batch));
                }
                assert_eq!(svc.samples_ingested(), LINKS as u64 * DAY_ROUNDS as u64);
            }
        }
    }
}

/// The three arms must reach the same link states, or their differences
/// measure something other than admission.
fn check_arms_agree(day: &Day, cfg: &MonitorConfig) {
    let mut arms = [Arm::fresh(0, cfg), Arm::fresh(1, cfg), Arm::fresh(2, cfg)];
    arms.iter_mut().for_each(|arm| arm.run(day, cfg));
    let [Arm::Push(bare), Arm::Gated(gated, _), Arm::Service(svc)] = &arms else {
        unreachable!("arms are built in order")
    };
    let summary = |st: &LinkState| {
        let det = st.detector();
        (st.rounds(), st.alarms(), st.masked_alarms(), det.is_elevated(), det.baseline().to_bits())
    };
    for (id, (st, gt)) in bare.iter().zip(gated).enumerate() {
        assert_eq!(summary(st), summary(gt), "link {id}: admission changed its state");
        let v = svc.verdict(id as u32);
        assert_eq!(
            summary(st),
            (v.round, v.alarms, v.masked_alarms, v.elevated, v.baseline_ms.to_bits()),
            "link {id}: the service diverged from the bare push loop"
        );
    }
}

fn resilience_overhead(_c: &mut Criterion) {
    let cfg = config();
    let day = day();
    check_arms_agree(&day, &cfg);

    // Warm-up, then rounds in rotating arm order; every arm's state is
    // built before any clock in the round starts.
    let mut ns = [[0.0f64; ROUNDS]; 3];
    for r in 0..ROUNDS + 2 {
        let mut arms: Vec<(usize, Arm)> = (0..3).map(|v| (v, Arm::fresh(v, &cfg))).collect();
        arms.rotate_left(r % 3);
        for (v, arm) in arms.iter_mut() {
            let t = Instant::now();
            arm.run(&day, &cfg);
            let elapsed = t.elapsed().as_nanos() as f64;
            if r >= 2 {
                ns[*v][r - 2] = elapsed;
            }
        }
    }
    let median = |mut s: [f64; ROUNDS]| {
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[ROUNDS / 2]
    };
    let mut shares = [0.0f64; ROUNDS];
    for (i, share) in shares.iter_mut().enumerate() {
        let admission = ns[1][i] - ns[0][i];
        *share = admission / (ns[2][i] - admission);
    }
    let overhead_pct = median(shares) * 100.0;
    let total_samples = (LINKS as usize * DAY_ROUNDS) as f64;
    let [push_ns, gated_ns, seq_ns] = ns.map(|arm| median(arm) / total_samples);
    let rate = |ns_per_sample: f64| 1e9 / ns_per_sample;
    let arms = [("a push loop ", push_ns), ("b gated loop", gated_ns), ("c sequenced ", seq_ns)];
    for (arm, ns) in arms {
        eprintln!("[resilience] {arm} {ns:>7.2} ns/sample ({:.0} samples/s)", rate(ns));
    }
    eprintln!(
        "[resilience] admission share of sequenced ingest: {overhead_pct:+.2}% (median of {ROUNDS})"
    );

    let json = format!(
        "{{\n  \"bench\": \"resilience_overhead\",\n  \"links\": {LINKS},\n  \"rounds_per_link\": {DAY_ROUNDS},\n  \"threads\": 1,\n  \"timed_rounds\": {ROUNDS},\n  \"push_loop_samples_per_sec\": {:.1},\n  \"gated_loop_samples_per_sec\": {:.1},\n  \"sequenced_samples_per_sec\": {:.1},\n  \"overhead_pct\": {overhead_pct:.2}\n}}\n",
        rate(push_ns),
        rate(gated_ns),
        rate(seq_ns),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resilience.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("[resilience] could not write {out}: {e}");
    } else {
        eprintln!("[resilience] baseline written to {out}");
    }
}

criterion_group! {
    name = resilience;
    config = Criterion::default();
    targets = resilience_overhead
}
criterion_main!(resilience);
