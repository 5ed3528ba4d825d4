//! Shared fixtures for the benchmark harness.
//!
//! Holds the synthetic monitor day ([`monitor_sample`]) the monitor,
//! resilience and trace benches ingest, and the synthetic detection corpus
//! used by the `detect` bench plus a frozen copy of the **seed**
//! change-point detector (the implementation as it stood before the
//! allocation-free/early-exit engine), so the bench can price the speedup
//! against the true pre-change baseline rather than against the new code's
//! own allocating wrappers. The gated benches write
//! one [`record::Record`] each, which the `bench-gate` binary judges
//! against the committed `BENCH_<bench>.json` with [`gate`]; the four
//! overhead gates time their arms through [`paired`]; `bench-gate ab`
//! ([`ab`]) runs A/B pairs of the repository benchmark.

use ixp_chgpt::segment::DetectorConfig;
use ixp_monitor::MonitorSample;

pub mod ab;
pub mod gate;
pub mod paired;
pub mod record;

/// Deterministic uniform noise in [-0.5, 0.5) from an avalanche hash.
fn unoise(seed: u64, i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// A 13-month, 5-minute-sample link series in one of the campaign's
/// characteristic shapes. `months` scales the length for quick runs.
fn synth_link(kind: usize, seed: u64, months: usize) -> Vec<f64> {
    let n = months * 30 * 288; // 30-day months of 5-minute samples
    match kind % 4 {
        // Healthy: flat 5 ms with ~1 ms jitter (most of any real campaign).
        0 => (0..n as u64).map(|i| 5.0 + 1.2 * unoise(seed, i)).collect(),
        // Routing change: one permanent step mid-series.
        1 => (0..n as u64)
            .map(|i| {
                let level = if i < n as u64 / 2 { 4.0 } else { 19.0 };
                level + 1.5 * unoise(seed ^ 1, i)
            })
            .collect(),
        // Diurnal congestion episode: an 18 ms business-hours plateau every
        // day over weeks 36–41 of the capture, like the paper's case studies
        // where congestion arrives and later clears rather than spanning the
        // whole 13 months.
        2 => {
            let (onset, clear) = (n as u64 * 7 / 10, n as u64 * 8 / 10);
            (0..n as u64)
                .map(|i| {
                    let hour = (i % 288) as f64 / 12.0;
                    let congested = (onset..clear).contains(&i) && (9.0..17.0).contains(&hour);
                    let lift = if congested { 18.0 } else { 0.0 };
                    3.0 + lift + 2.0 * unoise(seed ^ 2, i)
                })
                .collect()
        }
        // Heavy-tailed: flat RTT with sparse Pareto-ish ICMP spikes on ~2% of
        // samples — the probe-noise signature the paper's level-shift test is
        // designed to see through rather than flag.
        _ => (0..n as u64)
            .map(|i| {
                let base = 2.0 + 1.0 * unoise(seed ^ 4, i);
                if unoise(seed ^ 3, i) > 0.48 {
                    let v = (unoise(seed ^ 5, i) + 0.5).max(1e-6);
                    base + 6.0 * v.powf(-0.5)
                } else {
                    base
                }
            })
            .collect(),
    }
}

/// An `n_links` corpus with a campaign-realistic shape mix: per 8 links,
/// four healthy, two heavy-tailed, one routing step, and one link with
/// emerging diurnal congestion — the paper found persistent congestion on
/// only a small minority of the links it probed.
pub fn detect_corpus(n_links: usize, months: usize) -> Vec<Vec<f64>> {
    const MIX: [usize; 8] = [0, 3, 0, 1, 0, 3, 0, 2];
    (0..n_links).map(|k| synth_link(MIX[k % MIX.len()], k as u64 * 7919, months)).collect()
}

/// Five-minute rounds in one synthetic monitor day.
pub const DAY_ROUNDS: usize = 288;

/// Every `CONGESTED_EVERY`th link of the synthetic monitor day carries the
/// business-hours plateau (2% of links).
pub const CONGESTED_EVERY: u32 = 50;

/// Round `r` of link `id` in the synthetic day the monitor, resilience and
/// trace benches ingest: ~10 ms base RTT, up to 1 ms of per-(link, round)
/// jitter, a +14 ms business-hours plateau on congested links, 0.5% loss,
/// and a mid-day path flip on every 97th link (the masking path).
#[inline]
pub fn monitor_sample(id: u32, r: usize) -> MonitorSample {
    // splitmix64 on the (link, round) pair.
    let mut h = (u64::from(id) << 32 | u64::from(r as u32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    if h.is_multiple_of(200) {
        return MonitorSample::lost();
    }
    let hour = (r % DAY_ROUNDS) as f64 * 5.0 / 60.0;
    let plateau = id.is_multiple_of(CONGESTED_EVERY) && (9.0..17.0).contains(&hour);
    let jitter = ((h >> 8) % 1000) as f64 / 1000.0;
    let far_ms = 10.0 + jitter + if plateau { 14.0 } else { 0.0 };
    let flip = id.is_multiple_of(97) && hour >= 12.0;
    MonitorSample { far_ms, path_fp: if flip { 2 } else { 1 }, far_addr_ok: true }
}

/// The pre-refactor §5.2 detector, frozen for baseline pricing.
pub mod seed_detector {
    use super::DetectorConfig;
    use ixp_chgpt::segment::MAX_WINDOW;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn cusum_peak(window: &[f64]) -> (usize, f64) {
        let n = window.len();
        let mean = window.iter().sum::<f64>() / n as f64;
        let mut s = 0.0;
        let (mut smax, mut smin) = (f64::MIN, f64::MAX);
        let (mut best_abs, mut best_idx) = (-1.0, 0);
        for (i, &x) in window.iter().enumerate() {
            s += x - mean;
            if s > smax {
                smax = s;
            }
            if s < smin {
                smin = s;
            }
            if s.abs() > best_abs {
                best_abs = s.abs();
                best_idx = i;
            }
        }
        (best_idx, smax - smin)
    }

    fn cusum_bootstrap(window: &[f64], iters: usize, seed: u64) -> (usize, f64) {
        let (split, range) = cusum_peak(window);
        if range == 0.0 {
            return (split, 0.0);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut shuffled = window.to_vec();
        let mut below = 0usize;
        for _ in 0..iters {
            shuffled.shuffle(&mut rng);
            let (_, r) = cusum_peak(&shuffled);
            if r < range {
                below += 1;
            }
        }
        (split, below as f64 / iters as f64)
    }

    fn spread_reaches(window: &[f64], min_magnitude: f64) -> bool {
        if window.len() < 4 {
            return false;
        }
        let mut sorted = window.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let baseline = sorted[sorted.len() / 10];
        let threshold = baseline + min_magnitude;
        let first_above = sorted.partition_point(|&v| v <= threshold);
        sorted.len() - first_above >= 4
    }

    fn rank_transform(values: &[f64]) -> Vec<f64> {
        let n = values.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
        let mut ranks = vec![0.0; n];
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && values[idx[j]] == values[idx[i]] {
                j += 1;
            }
            let avg = (i + 1 + j) as f64 / 2.0;
            for &k in &idx[i..j] {
                ranks[k] = avg;
            }
            i = j;
        }
        ranks
    }

    /// The seed `detect_change_points`: allocates per window, always runs
    /// every bootstrap permutation.
    pub fn detect_change_points(series: &[f64], cfg: &DetectorConfig) -> Vec<usize> {
        let mut cps = Vec::new();
        let mut stack = vec![(0usize, series.len())];
        while let Some((lo, hi)) = stack.pop() {
            let len = hi - lo;
            if len < 2 * cfg.min_segment.max(1) {
                continue;
            }
            let window = &series[lo..hi];
            if cfg.magnitude_gate > 0.0 && !spread_reaches(window, cfg.magnitude_gate) {
                continue;
            }
            let ranked;
            let data: &[f64] = if cfg.use_ranks {
                ranked = rank_transform(window);
                &ranked
            } else {
                window
            };
            let seed = cfg.seed ^ ((lo as u64) << 32) ^ hi as u64;
            let (split, confidence) = cusum_bootstrap(data, cfg.bootstrap_iters, seed);
            if confidence < cfg.confidence {
                if len > MAX_WINDOW {
                    let mid = lo + len / 2;
                    stack.push((lo, mid));
                    stack.push((mid, hi));
                }
                continue;
            }
            let split = (lo + split + 1).clamp(lo + cfg.min_segment, hi - cfg.min_segment);
            cps.push(split);
            stack.push((lo, split));
            stack.push((split, hi));
        }
        cps.sort_unstable();
        cps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frozen baseline must agree with today's library — otherwise the
    /// bench prices a speedup against the wrong algorithm.
    #[test]
    fn seed_detector_matches_library() {
        let cfg = DetectorConfig { magnitude_gate: 4.0, ..DetectorConfig::default() };
        for series in detect_corpus(8, 1) {
            assert_eq!(
                seed_detector::detect_change_points(&series, &cfg),
                ixp_chgpt::detect_change_points(&series, &cfg)
            );
        }
    }
}

#[cfg(test)]
mod shape_timing {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn per_shape_cost() {
        let cfg = DetectorConfig { magnitude_gate: 4.0, ..DetectorConfig::default() };
        let mut scratch = ixp_chgpt::DetectorScratch::new();
        for kind in 0..4usize {
            let s = synth_link(kind, kind as u64 * 7919, 13);
            let (mut seed_t, mut new_t) = (f64::MAX, f64::MAX);
            let (mut a, mut b) = (0, 0);
            for _ in 0..3 {
                let t0 = Instant::now();
                a = seed_detector::detect_change_points(&s, &cfg).len();
                seed_t = seed_t.min(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                b = scratch.detect_change_points(&s, &cfg).len();
                new_t = new_t.min(t1.elapsed().as_secs_f64());
            }
            eprintln!("kind {kind}: seed {:.1}ms new {:.1}ms cps {a}/{b}", seed_t * 1e3, new_t * 1e3);
        }
    }
}

#[cfg(test)]
mod component_timing {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn heavy_breakdown() {
        let s = synth_link(3, 3 * 7919, 13);
        let cfg = DetectorConfig { magnitude_gate: 4.0, ..DetectorConfig::default() };
        let mut scratch = ixp_chgpt::DetectorScratch::new();
        // warm
        scratch.detect_change_points(&s, &cfg);

        let t = Instant::now();
        let r = ixp_chgpt::rank_transform(&s, &mut scratch);
        eprintln!("rank_transform full window ({}): {:?}", r.len(), t.elapsed());

        let t = Instant::now();
        let ok = ixp_chgpt::spread_reaches(&s, 4.0, &mut scratch);
        eprintln!("spread gate full window: {:?} -> {ok}", t.elapsed());

        let ranks: Vec<f64> = ixp_chgpt::rank_transform(&s, &mut scratch).to_vec();
        let t = Instant::now();
        let res = ixp_chgpt::cusum_bootstrap(&ranks, 199, 42, Some(0.95), &mut scratch);
        eprintln!("bootstrap early-exit full window: {:?} conf {}", t.elapsed(), res.confidence);

        let t = Instant::now();
        let n = scratch.detect_change_points(&s, &cfg).len();
        eprintln!("full detect: {:?} ({n} cps)", t.elapsed());
    }
}
