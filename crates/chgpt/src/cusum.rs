//! The CUSUM statistic and bootstrap significance test (Taylor's
//! change-point analysis, the method the paper cites for §5.2).
//!
//! For a window `x₁…xₙ` the cumulative sum `Sᵢ = Σ_{k≤i} (xₖ − x̄)` walks
//! away from zero when the mean shifts; the change point estimate is the
//! index where `|Sᵢ|` peaks, and the evidence strength is the range
//! `S_diff = max S − min S`, calibrated by comparing against the ranges of
//! random permutations of the window (the bootstrap): if the observed range
//! beats, say, 95 % of permuted ranges, a change point is declared.
//!
//! The bootstrap supports a **sequential early exit**: when the caller only
//! needs the accept/reject decision at a fixed confidence (the segmentation
//! loop's case), permutation `k` of `N` can stop as soon as the count of
//! below-range permutations either already reaches the accept threshold or
//! can no longer reach it even if every remaining permutation lands below.
//! Both stopping rules are exact — the decision and the split index are
//! identical to the full run; only the reported confidence value becomes a
//! bound on the correct side of the threshold instead of the exact
//! fraction. `DetectorConfig::exact_confidence` disables the shortcut for
//! callers that need the exact value.
//!
//! Two kernels share that permutation loop. `bootstrap_core` works on any
//! `f64` window — raw data (the ablation) and the public `cusum_bootstrap`.
//! The segmentation's rank path uses `rank_bootstrap_core`, which permutes
//! the doubled, centred mid-ranks held in `DetectorScratch::centred_ranks`
//! in exact `i64` arithmetic and folds the CUSUM range into the shuffle
//! loop: the same permutations, below counts and result bits as
//! `bootstrap_core` on the `f64` ranks, in one pass per permutation instead
//! of two.

use crate::scratch::DetectorScratch;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Result of a single-window CUSUM analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CusumResult {
    /// Index (within the window) of the last sample *before* the estimated
    /// change — the new regime starts at `split + 1`.
    pub split: usize,
    /// The CUSUM range `max S − min S`.
    pub range: f64,
    /// Fraction of bootstrap permutations whose range fell below `range`.
    /// Under an early-exit decision this is a bound that settles the same
    /// side of the decision threshold as the exact fraction.
    pub confidence: f64,
}

/// Compute the CUSUM series range and argmax location for `window`.
///
/// Returns `(split, range)`; `split` is the 0-based index where `|S|` peaks.
pub fn cusum_peak(window: &[f64]) -> (usize, f64) {
    let n = window.len();
    assert!(n >= 2, "CUSUM needs at least two samples");
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

/// CUSUM range only, for bootstrap replicates: permutations are compared
/// purely on `smax - smin`, so tracking the arg-max of `|s|` (a float abs,
/// compare, and two stores per sample) is dead work there. The partial sums
/// are accumulated in exactly the same order as [`cusum_peak`], so the
/// returned range is bit-identical to `cusum_peak(window).1`.
fn cusum_range(window: &[f64]) -> f64 {
    let n = window.len();
    let mean = window.iter().sum::<f64>() / n as f64;
    let mut s = 0.0;
    let (mut smax, mut smin) = (f64::MIN, f64::MAX);
    for &x in window {
        s += x - mean;
        if s > smax {
            smax = s;
        }
        if s < smin {
            smin = s;
        }
    }
    smax - smin
}

/// Smallest below-count `t` such that `t / iters >= conf` — the accept
/// threshold of the decision `confidence >= conf` in integer form. Computed
/// with the same `f64` division the decision itself uses, so the early exit
/// agrees with the full run bit-for-bit. May exceed `iters` when `conf > 1`
/// (accept then being unreachable, exactly like the full run).
fn accept_count(iters: usize, conf: f64) -> usize {
    let mut t = (conf * iters as f64).ceil().max(0.0) as usize;
    while t > 0 && (t - 1) as f64 / iters as f64 >= conf {
        t -= 1;
    }
    while t <= iters && (t as f64 / iters as f64) < conf {
        t += 1;
    }
    t
}

/// The permutation test shared by both bootstrap kernels: the fraction of
/// `iters` permutations for which `next_below` (draw the next permutation,
/// report whether its range fell below the observed one) holds. With
/// `decision = Some(conf)` the loop stops as soon as the accept/reject
/// outcome of `confidence >= conf` is mathematically settled. Zero
/// permutations are no evidence: the confidence is 0, never `0/0`.
fn permutation_confidence(
    iters: usize,
    decision: Option<f64>,
    mut next_below: impl FnMut() -> bool,
) -> f64 {
    if iters == 0 {
        return 0.0;
    }
    let accept_at = decision.map(|conf| accept_count(iters, conf));
    let mut below = 0usize;
    for done in 0..iters {
        if let Some(t) = accept_at {
            if below >= t {
                // Accept settled: below can only grow, and below/iters
                // already clears the threshold.
                return below as f64 / iters as f64;
            }
            if below + (iters - done) < t {
                // Reject settled: even if every remaining permutation lands
                // below, the final count stays under t. Report the upper
                // bound — strictly below the threshold by construction.
                return (below + (iters - done)) as f64 / iters as f64;
            }
        }
        if next_below() {
            below += 1;
        }
    }
    below as f64 / iters as f64
}

/// Core bootstrap loop over a caller-provided shuffle buffer: the kernel for
/// raw data and for arbitrary windows. Rank data takes the exact integer
/// kernel [`rank_bootstrap_core`], which reproduces this one bit for bit.
pub(crate) fn bootstrap_core(
    window: &[f64],
    iters: usize,
    seed: u64,
    decision: Option<f64>,
    shuffle: &mut Vec<f64>,
) -> CusumResult {
    let (split, range) = cusum_peak(window);
    if range == 0.0 {
        // Perfectly flat window: nothing to test.
        return CusumResult { split, range, confidence: 0.0 };
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    shuffle.clear();
    shuffle.extend_from_slice(window);
    let confidence = permutation_confidence(iters, decision, || {
        shuffle.shuffle(&mut rng);
        cusum_range(shuffle) < range
    });
    CusumResult { split, range, confidence }
}

/// The rank bootstrap in exact integer arithmetic: same permutations, same
/// below counts and the same result bits as [`bootstrap_core`] run on the
/// window's `f64` mid-ranks, in one pass per permutation instead of two.
///
/// `d` holds the doubled, centred mid-ranks `d = 2·rank − (n+1)`
/// ([`crate::rank::centred_rank_into`]) and is also the permutation buffer,
/// shuffled in place from one permutation to the next exactly as
/// `bootstrap_core` shuffles its copy of the ranks. Why the bits agree:
///
/// - Mid-ranks are half-integers summing to `n(n+1)/2`, so the `f64` mean
///   is exactly `(n+1)/2` and every partial sum `S_k = Σ (rank − mean)` is
///   exactly `D_k / 2`, `D_k = d_0 + … + d_{k−1}` the integer prefix sum —
///   no rounding anywhere while `n(n+1) < 2^53` (asserted; the rank sums
///   reach `n(n+1)/2`, the prefix sums only `|D_k| ≤ n²/4`). Split (first
///   arg-max of `|S|`) and range (`(max D − min D) / 2`) are therefore the
///   same numbers.
/// - `d` sums to zero, so `D_k = −T_k` with `T_k = d_k + … + d_{n−1}` the
///   suffix sum, and a permutation's range is `(max T − min T) / 2` over
///   `T_1 … T_n` (`T_n = 0`).
/// - The vendored Fisher–Yates shuffle fixes position `i` at step `i`,
///   from the end backwards, so `T_i` accumulates inside the shuffle loop
///   itself: an integer add, max and min per swap, with the same RNG calls
///   in the same order.
pub(crate) fn rank_bootstrap_core(
    d: &mut [i64],
    iters: usize,
    seed: u64,
    decision: Option<f64>,
) -> CusumResult {
    let n = d.len();
    assert!(n >= 2, "CUSUM needs at least two samples");
    assert!(
        (n as u128) * (n as u128 + 1) < 1u128 << 53,
        "window of {n} samples too long for exact rank sums"
    );
    let (mut s, mut smax, mut smin) = (0i64, i64::MIN, i64::MAX);
    let (mut best_abs, mut split) = (-1i64, 0);
    for (i, &x) in d.iter().enumerate() {
        s += x;
        smax = smax.max(s);
        smin = smin.min(s);
        if s.abs() > best_abs {
            best_abs = s.abs();
            split = i;
        }
    }
    let observed = smax - smin;
    let range = observed as f64 / 2.0;
    if observed == 0 {
        // All ranks tied: nothing to test.
        return CusumResult { split, range, confidence: 0.0 };
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let confidence = permutation_confidence(iters, decision, || {
        let (mut t, mut tmax, mut tmin) = (0i64, 0i64, 0i64);
        for i in (1..n).rev() {
            d.swap(i, rng.gen_range(0..=i));
            t += d[i];
            tmax = tmax.max(t);
            tmin = tmin.min(t);
        }
        tmax - tmin < observed
    });
    CusumResult { split, range, confidence }
}

/// Run the permutation bootstrap for `window` over reusable scratch memory.
///
/// `iters` permutations are drawn with an RNG seeded from `seed`, so the
/// whole analysis is deterministic. The achievable confidence resolution is
/// `1/iters`. `decision = Some(conf)` is the sequential early exit: it
/// stops permuting the moment the accept/reject outcome of
/// `confidence >= conf` is settled (identical decision and split as the
/// full run); `None` runs every permutation and reports the exact
/// confidence.
pub fn cusum_bootstrap(
    window: &[f64],
    iters: usize,
    seed: u64,
    decision: Option<f64>,
    scratch: &mut DetectorScratch,
) -> CusumResult {
    bootstrap_core(window, iters, seed, decision, &mut scratch.shuffle)
}

/// Selection-based core of [`spread_reaches`]: one `select_nth_unstable_by`
/// for the decile baseline plus a single counting pass over the raw window
/// — O(n) instead of the seed's O(n log n) sort, with identical verdicts
/// (pinned by `spread_matches_sorting_implementation`).
pub(crate) fn spread_core(window: &[f64], min_magnitude: f64, buf: &mut Vec<f64>) -> bool {
    if window.len() < 4 {
        return false;
    }
    buf.clear();
    buf.extend_from_slice(window);
    let k = buf.len() / 10;
    let (_, &mut baseline, _) =
        buf.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("NaN in series"));
    let threshold = baseline + min_magnitude;
    window.iter().filter(|&&v| v > threshold).count() >= 4
}

/// Cheap necessary condition for a detectable shift: at least four samples
/// must sit `min_magnitude` above the window's low-quantile baseline, or no
/// level shift of that magnitude lasting ≥ a few samples can exist and the
/// bootstrap can be skipped entirely. This is what keeps a 10,000-link
/// campaign tractable: healthy links cost one O(n) selection instead of
/// hundreds of permutations.
///
/// Counting excursions (rather than a percentile spread) matters: a
/// two-month congestion episode inside a 13-month series elevates only a
/// few percent of samples — invisible to a 95th percentile, but thousands
/// of excursions. The selection buffer comes from `scratch`.
pub fn spread_reaches(window: &[f64], min_magnitude: f64, scratch: &mut DetectorScratch) -> bool {
    spread_core(window, min_magnitude, &mut scratch.select)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact bootstrap (no early exit) over a fresh scratch.
    fn exact(window: &[f64], iters: usize, seed: u64) -> CusumResult {
        cusum_bootstrap(window, iters, seed, None, &mut DetectorScratch::new())
    }

    fn spread(window: &[f64], min_magnitude: f64) -> bool {
        spread_reaches(window, min_magnitude, &mut DetectorScratch::new())
    }

    fn step_series(n: usize, at: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|i| if i < at { lo } else { hi }).collect()
    }

    #[test]
    fn range_only_variant_is_bitwise_identical() {
        let mut x = 1u64;
        let series: Vec<f64> = (0..257)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 10.0
            })
            .collect();
        for w in [2, 3, 17, 256, 257] {
            let (_, range) = cusum_peak(&series[..w]);
            assert_eq!(range.to_bits(), cusum_range(&series[..w]).to_bits());
        }
    }

    fn hash_noise(i: u64) -> f64 {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % 1000) as f64
    }

    #[test]
    fn peak_locates_clean_step() {
        let s = step_series(100, 60, 1.0, 2.0);
        let (split, range) = cusum_peak(&s);
        assert_eq!(split, 59);
        assert!(range > 0.0);
    }

    #[test]
    fn flat_window_zero_range() {
        let s = vec![5.0; 50];
        let (_, range) = cusum_peak(&s);
        assert_eq!(range, 0.0);
        let r = exact(&s, 99, 1);
        assert_eq!(r.confidence, 0.0);
    }

    #[test]
    fn bootstrap_confident_on_step() {
        let s = step_series(120, 40, 10.0, 20.0);
        let r = exact(&s, 199, 42);
        assert!(r.confidence > 0.99, "confidence {}", r.confidence);
        assert_eq!(r.split, 39);
    }

    #[test]
    fn bootstrap_unconfident_on_noise() {
        // Deterministic "noise" via a full avalanche hash; no change point.
        let s: Vec<f64> = (0..200u64).map(hash_noise).collect();
        let r = exact(&s, 199, 7);
        assert!(r.confidence < 0.97, "confidence {}", r.confidence);
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let s = step_series(80, 30, 0.0, 1.0);
        assert_eq!(exact(&s, 99, 5), exact(&s, 99, 5));
    }

    /// The sequential early exit must land on the same side of the decision
    /// threshold as the exhaustive run, for both clear accepts, clear
    /// rejects, and borderline windows — and the split must be identical.
    #[test]
    fn early_exit_decision_matches_full_run() {
        let mut scratch = DetectorScratch::new();
        let corpora: Vec<Vec<f64>> = vec![
            step_series(120, 40, 10.0, 20.0),               // clear accept
            (0..200u64).map(hash_noise).collect(),          // clear reject
            (0..120u64).map(|i| hash_noise(i) / 400.0 + if i < 60 { 0.0 } else { 1.0 }).collect(),
            (0..80u64).map(|i| hash_noise(i) / 100.0).collect(),
        ];
        for series in &corpora {
            for conf in [0.0, 0.5, 0.9, 0.95, 0.99] {
                for (iters, seed) in [(99usize, 5u64), (199, 42), (199, 7)] {
                    let full = exact(series, iters, seed);
                    let fast = cusum_bootstrap(series, iters, seed, Some(conf), &mut scratch);
                    assert_eq!(full.split, fast.split);
                    assert_eq!(full.range, fast.range);
                    assert_eq!(
                        full.confidence >= conf,
                        fast.confidence >= conf,
                        "decision diverged at conf {conf}: exact {} fast {}",
                        full.confidence,
                        fast.confidence
                    );
                }
            }
        }
    }

    /// A scratch reused across windows of other lengths gives the same bits
    /// as a fresh one: no state leaks from one call into the next.
    #[test]
    fn exact_mode_with_scratch_is_bitwise_identical() {
        let mut scratch = DetectorScratch::new();
        let s: Vec<f64> = (0..150u64).map(hash_noise).collect();
        for len in [150, 40, 150, 2] {
            let got = cusum_bootstrap(&s[..len], 199, 9, None, &mut scratch);
            assert_eq!(got, exact(&s[..len], 199, 9), "len {len}");
        }
    }

    /// The integer rank kernel against `bootstrap_core` run on the same
    /// windows' `f64` mid-ranks: bitwise equal (split, range, confidence)
    /// in early-exit and exact mode, over tie-heavy windows (RTTs quantised
    /// to whole milliseconds) from 12 samples to one 13-month window.
    #[test]
    fn rank_kernel_is_bitwise_identical_to_f64_kernel() {
        let (mut shuffle, mut scratch) = (Vec::new(), DetectorScratch::new());
        let (mut idx, mut d) = (Vec::new(), Vec::new());
        let (mut accepts, mut rejects) = (0, 0);
        for (case, n) in [12usize, 13, 24, 61, 288, 1_000, 4_096, 13 * 30 * 288].into_iter().enumerate() {
            for shift in [0.0, 2.0, 9.0] {
                let window: Vec<f64> = (0..n)
                    .map(|i| {
                        let q = hash_noise(i as u64 ^ ((case as u64) << 40)) % 9.0;
                        q + if (n / 3..2 * n / 3).contains(&i) { shift } else { 0.0 }
                    })
                    .collect();
                let ranks = crate::rank::rank_transform(&window, &mut scratch).to_vec();
                for decision in [Some(0.95), Some(0.99), None] {
                    for iters in [49, 99, 199] {
                        let seed = (case as u64) << 32 ^ iters as u64;
                        let want = bootstrap_core(&ranks, iters, seed, decision, &mut shuffle);
                        crate::rank::centred_rank_into(&window, &mut idx, &mut d);
                        let got = rank_bootstrap_core(&mut d, iters, seed, decision);
                        assert_eq!(
                            (got.split, got.range.to_bits(), got.confidence.to_bits()),
                            (want.split, want.range.to_bits(), want.confidence.to_bits()),
                            "n {n} shift {shift} decision {decision:?} iters {iters}"
                        );
                        if decision == Some(0.95) {
                            if got.confidence >= 0.95 { accepts += 1 } else { rejects += 1 }
                        }
                    }
                }
            }
        }
        // The corpus exercises both early exits, not just one of them.
        assert!(accepts > 0 && rejects > 0, "accepts {accepts} rejects {rejects}");
        // An all-tied window has zero range in both kernels.
        crate::rank::centred_rank_into(&[5.0; 12], &mut idx, &mut d);
        assert_eq!(rank_bootstrap_core(&mut d, 99, 3, None), exact(&[6.5; 12], 99, 3));
    }

    #[test]
    fn accept_count_is_the_decision_boundary() {
        for iters in [10usize, 99, 100, 199, 500] {
            for conf in [0.0, 0.5, 0.9, 0.95, 0.975, 0.99, 1.0] {
                let t = accept_count(iters, conf);
                if t > 0 {
                    assert!((t - 1) as f64 / (iters as f64) < conf, "t-1 accepts: {iters} {conf}");
                }
                if t <= iters {
                    assert!(t as f64 / iters as f64 >= conf, "t rejects: {iters} {conf}");
                }
            }
        }
    }

    #[test]
    fn spread_gate() {
        let flat = vec![1.0; 100];
        assert!(!spread(&flat, 0.5));
        let stepped = step_series(100, 50, 1.0, 12.0);
        assert!(spread(&stepped, 10.0));
        assert!(!spread(&stepped, 12.5));
        // Short windows never pass.
        assert!(!spread(&[0.0, 100.0], 1.0));
    }

    #[test]
    fn spread_ignores_rare_outliers() {
        // One spike in 200 samples must not open the gate: the decile
        // baseline plus excursion count clips it.
        let mut s = vec![1.0; 200];
        s[77] = 500.0;
        assert!(!spread(&s, 10.0));
    }

    /// Pin the selection-based `spread_reaches` against the seed's sorting
    /// implementation on a population of random windows.
    #[test]
    fn spread_matches_sorting_implementation() {
        fn seed_spread(window: &[f64], min_magnitude: f64) -> bool {
            if window.len() < 4 {
                return false;
            }
            let mut sorted = window.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in series"));
            let baseline = sorted[sorted.len() / 10];
            let threshold = baseline + min_magnitude;
            let first_above = sorted.partition_point(|&v| v <= threshold);
            sorted.len() - first_above >= 4
        }
        let mut scratch = DetectorScratch::new();
        for case in 0..200u64 {
            let n = (hash_noise(case * 31) as usize) % 60;
            let window: Vec<f64> = (0..n as u64)
                .map(|i| hash_noise(case.wrapping_mul(1000).wrapping_add(i)) / 20.0)
                .collect();
            for mag in [0.0, 1.0, 5.0, 12.0, 40.0] {
                let want = seed_spread(&window, mag);
                let got = spread_reaches(&window, mag, &mut scratch);
                assert_eq!(got, want, "case {case} mag {mag}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn cusum_rejects_tiny_window() {
        cusum_peak(&[1.0]);
    }
}
