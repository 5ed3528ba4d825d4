//! Equivalence suite: the scratch-reuse + early-exit engine must return
//! **byte-identical** change points to the seed implementation.
//!
//! The module below is a frozen, verbatim-in-spirit copy of the detector as
//! it stood before the allocation-free refactor: per-window `to_vec`
//! shuffle buffer, stable-sort rank transform, full-sort median and spread
//! gate, and a bootstrap that always runs every permutation. Everything the
//! refactor touched is re-derived here from first principles so a silent
//! behavior change in the library cannot hide.

use ixp_chgpt::prelude::*;

/// The pre-refactor detector, kept as the ground truth.
mod seed {
    use ixp_chgpt::segment::{DetectorConfig, Segment, MAX_WINDOW};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    pub fn cusum_peak(window: &[f64]) -> (usize, f64) {
        let n = window.len();
        assert!(n >= 2);
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

    pub fn cusum_bootstrap(window: &[f64], iters: usize, seed: u64) -> (usize, f64, f64) {
        let (split, range) = cusum_peak(window);
        if range == 0.0 {
            return (split, range, 0.0);
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
        (split, range, below as f64 / iters as f64)
    }

    pub fn spread_reaches(window: &[f64], min_magnitude: f64) -> bool {
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

    pub fn rank_transform(values: &[f64]) -> Vec<f64> {
        let n = values.len();
        if n == 0 {
            return Vec::new();
        }
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

    fn median(window: &[f64]) -> f64 {
        let mut v = window.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

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
            let (split, _, confidence) = cusum_bootstrap(data, cfg.bootstrap_iters, seed);
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

    pub fn level_segments(series: &[f64], cfg: &DetectorConfig) -> Vec<Segment> {
        let cps = detect_change_points(series, cfg);
        if series.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(cps.len() + 1);
        let mut start = 0usize;
        for &cp in &cps {
            // The seed detector predates boundary confidences; the pin below
            // compares (start, end, level) only.
            out.push(Segment { start, end: cp, level: median(&series[start..cp]), confidence: 1.0 });
            start = cp;
        }
        out.push(Segment {
            start,
            end: series.len(),
            level: median(&series[start..]),
            confidence: 1.0,
        });
        out
    }
}

/// Deterministic uniform noise in [-0.5, 0.5) from an avalanche hash.
fn unoise(seed: u64, i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// The window-shape zoo: flat, step, diurnal, heavy-tailed, quantised.
fn corpus(seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let n = 4 * 288; // four days of 5-minute samples
    let flat: Vec<f64> = (0..n).map(|i| 5.0 + 1.2 * unoise(seed, i)).collect();
    let step: Vec<f64> = (0..n)
        .map(|i| {
            let level = if (n / 3..2 * n / 3).contains(&i) { 24.0 } else { 4.0 };
            level + 1.5 * unoise(seed ^ 1, i)
        })
        .collect();
    let diurnal: Vec<f64> = (0..n)
        .map(|i| {
            let hour = (i % 288) as f64 / 12.0;
            let lift = if (9.0..17.0).contains(&hour) { 18.0 } else { 0.0 };
            3.0 + lift + 2.0 * unoise(seed ^ 2, i)
        })
        .collect();
    let heavy: Vec<f64> = (0..n)
        .map(|i| {
            let u = unoise(seed ^ 3, i) + 0.5; // [0, 1)
            // Pareto-ish tail: most samples near 2 ms, rare 100+ ms spikes.
            2.0 + 2.0 * (1.0 - u).max(1e-6).powf(-0.7)
        })
        .collect();
    // Tie-heavy: RTTs quantised to whole milliseconds around a shift, so
    // most samples share their rank with many others.
    let quantised: Vec<f64> = (0..n)
        .map(|i| {
            let level = if (n / 2..3 * n / 4).contains(&i) { 9.0 } else { 3.0 };
            (level + 4.0 * unoise(seed ^ 4, i)).round()
        })
        .collect();
    vec![
        ("flat", flat),
        ("step", step),
        ("diurnal", diurnal),
        ("heavy", heavy),
        ("quantised", quantised),
    ]
}

#[test]
fn scratch_and_early_exit_match_seed_detector() {
    let mut scratch = DetectorScratch::new();
    for series_seed in [0u64, 7, 42] {
        for (shape, series) in corpus(series_seed) {
            for use_ranks in [true, false] {
                for (gate, iters) in [(0.0, 199usize), (4.0, 199), (4.0, 99)] {
                    let cfg = DetectorConfig {
                        use_ranks,
                        bootstrap_iters: iters,
                        magnitude_gate: gate,
                        seed: series_seed ^ 0xABCD,
                        ..DetectorConfig::default()
                    };
                    let want = seed::detect_change_points(&series, &cfg);
                    // Allocating wrapper (early exit on by default).
                    assert_eq!(
                        detect_change_points(&series, &cfg),
                        want,
                        "{shape} ranks={use_ranks} gate={gate} iters={iters}"
                    );
                    // Scratch reuse across every shape/config in the loop.
                    assert_eq!(
                        scratch.detect_change_points(&series, &cfg),
                        want.as_slice(),
                        "{shape} scratch path diverged"
                    );
                    // Escape hatch: exact confidence, same change points.
                    let exact = DetectorConfig { exact_confidence: true, ..cfg };
                    assert_eq!(detect_change_points(&series, &exact), want);
                }
            }
        }
    }
}

#[test]
fn level_segments_bitwise_identical_to_seed() {
    let mut scratch = DetectorScratch::new();
    for series_seed in [3u64, 11] {
        for (shape, series) in corpus(series_seed) {
            let cfg = DetectorConfig { magnitude_gate: 4.0, ..DetectorConfig::default() };
            // Boundaries and levels must be *bitwise* equal to the seed; the
            // seed detector predates boundary confidences, so the pin
            // compares (start, end, level bits) only.
            let flat = |s: &[Segment]| -> Vec<(usize, usize, u64)> {
                s.iter().map(|g| (g.start, g.end, g.level.to_bits())).collect()
            };
            let want = seed::level_segments(&series, &cfg);
            let got = level_segments(&series, &cfg);
            assert_eq!(flat(&got), flat(&want), "{shape}: segment mismatch");
            assert_eq!(flat(scratch.level_segments(&series, &cfg)), flat(&want), "{shape}");
        }
    }
}

#[test]
fn primitive_equivalence_on_random_windows() {
    let mut scratch = DetectorScratch::new();
    for case in 0..60u64 {
        let n = 8 + (unoise(case, 0).abs() * 500.0) as usize;
        let window: Vec<f64> = (0..n as u64).map(|i| 10.0 + 8.0 * unoise(case, i + 1)).collect();
        // Bootstrap: exact mode must be bitwise identical to the seed.
        let (split, range, confidence) = seed::cusum_bootstrap(&window, 99, case);
        let r = cusum_bootstrap(&window, 99, case, None, &mut scratch);
        assert_eq!((r.split, r.range, r.confidence), (split, range, confidence));
        // Rank transform: unstable index sort is output-identical.
        assert_eq!(rank_transform(&window, &mut scratch), seed::rank_transform(&window).as_slice());
        // Spread gate verdicts.
        for mag in [0.5, 4.0, 20.0] {
            assert_eq!(
                ixp_chgpt::spread_reaches(&window, mag, &mut scratch),
                seed::spread_reaches(&window, mag)
            );
        }
    }
}

/// Lending cannot move the output. With spare lanes forced on the calling
/// thread, segmentation hands windows of 1,024+ samples to helpers; the
/// segments, their levels and their boundary confidences are those of the
/// serial path bit for bit, on the corpus and on a 13-month series with
/// several congestion episodes.
#[test]
fn lent_windows_match_the_serial_path() {
    use ixp_chgpt::lanes::Lanes;
    let n = 395 * 288;
    let months: Vec<f64> = (0..n)
        .map(|i| {
            let (day, hour) = (i / 288, (i % 288) as f64 / 12.0);
            let episode = (30..95).contains(&day) || (180..200).contains(&day) || (300..360).contains(&day);
            let lift = if episode && (18.0..23.0).contains(&hour) { 15.0 } else { 0.0 };
            let step = if day >= 240 { 3.0 } else { 0.0 };
            4.0 + lift + step + 1.5 * unoise(99, i as u64)
        })
        .collect();
    let mut cases = corpus(5);
    cases.push(("13 months", months));
    let bits = |s: &[Segment]| -> Vec<(usize, usize, u64, u64)> {
        s.iter().map(|g| (g.start, g.end, g.level.to_bits(), g.confidence.to_bits())).collect()
    };
    let lanes = Lanes::new(3);
    let mut scratch = DetectorScratch::new();
    for (shape, series) in &cases {
        let cfg = DetectorConfig { magnitude_gate: 2.0, ..DetectorConfig::default() };
        let serial = bits(scratch.level_segments(series, &cfg));
        let _installed = lanes.install();
        assert_eq!(bits(scratch.level_segments(series, &cfg)), serial, "{shape}");
        assert_eq!(lanes.spare(), 3, "{shape}: every lent lane came back");
    }
    assert!(lanes.lent() > 0, "the 13-month series lends windows");
}
