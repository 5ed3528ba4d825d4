//! Binary segmentation: from one change point to all of them.
//!
//! Taylor's procedure applies the bootstrap CUSUM recursively: find a
//! significant change in the window, split there, recurse on both halves
//! until no significant change remains or segments reach the minimum length
//! (the paper tunes this to level shifts "that last at least 30 minutes",
//! i.e. six 5-minute samples).

use crate::cusum::{bootstrap_core, rank_bootstrap_core, spread_core};
use crate::lanes::{self, Lanes, LEND_MIN_SAMPLES};
use crate::rank::centred_rank_into;
use crate::scratch::DetectorScratch;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Detector configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Use the rank transform inside each window (the paper's non-parametric
    /// variant). Raw-value CUSUM is kept for the ablation bench.
    pub use_ranks: bool,
    /// Bootstrap permutations per window (confidence resolution = 1/iters).
    pub bootstrap_iters: usize,
    /// Confidence required to accept a change point.
    pub confidence: f64,
    /// Minimum segment length in samples (30 min at 5-min sampling = 6).
    pub min_segment: usize,
    /// Skip the bootstrap entirely when the window spread cannot support a
    /// shift of this magnitude (same units as the series). Set to 0 to
    /// disable the shortcut.
    pub magnitude_gate: f64,
    /// Windows longer than this are *forcibly descended* (split in half,
    /// without recording a change point) even when no significant change is
    /// found at the top. A year-long series of stationary diurnal bumps has
    /// no whole-series mean shift — the permutation null (a random walk of
    /// the full length) beats the periodic signal's CUSUM range — so
    /// retrospective segmentation must work at a window scale where one
    /// event is a mean shift. Default: one day of 5-minute samples.
    pub max_window: usize,
    /// RNG seed for the bootstrap.
    pub seed: u64,
    /// Disable the bootstrap's sequential early exit and always run every
    /// permutation. The early exit settles the accept/reject decision and
    /// split identically, so this only matters to callers that consume the
    /// exact `confidence` *value* (e.g. reporting p-values); the detector
    /// itself only compares against the threshold. Default `false`.
    pub exact_confidence: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            use_ranks: true,
            bootstrap_iters: 199,
            confidence: 0.95,
            min_segment: 6,
            magnitude_gate: 0.0,
            max_window: 288,
            seed: 0x1234_5678,
            exact_confidence: false,
        }
    }
}

/// A maximal run of samples between change points.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Segment {
    /// First sample index (inclusive).
    pub start: usize,
    /// One past the last sample index.
    pub end: usize,
    /// Median of the segment's samples.
    pub level: f64,
    /// Bootstrap confidence of the change point at `start` (the segment's
    /// left boundary). `1.0` for the first segment (the series start is not
    /// a detected boundary) and for segments cut at caller-supplied change
    /// points. With the default early-exit bootstrap this is a decision-side
    /// bound — the permutation loop stops once accept/reject is settled —
    /// so it is exact only under [`DetectorConfig::exact_confidence`]; the
    /// corresponding p-value is `1.0 - confidence`.
    pub confidence: f64,
}

// Hand-written: pre-provenance JSON payloads carry no `confidence` key, and
// the vendored derive has no `#[serde(default)]` — a missing boundary
// confidence reads as 1.0 ("accepted, bound unknown").
impl serde::Deserialize for Segment {
    fn from_value(v: &serde::Value) -> Result<Segment, serde::Error> {
        let m = v.as_map().ok_or_else(|| serde::Error::msg("expected map for Segment"))?;
        Ok(Segment {
            start: serde::Deserialize::from_value(serde::field(m, "start")?)?,
            end: serde::Deserialize::from_value(serde::field(m, "end")?)?,
            level: serde::Deserialize::from_value(serde::field(m, "level")?)?,
            confidence: match serde::field(m, "confidence") {
                Ok(c) => serde::Deserialize::from_value(c)?,
                Err(_) => 1.0,
            },
        })
    }
}

impl Segment {
    /// Number of samples in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }
    /// True when the segment holds no samples.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Selection-based median over a caller-provided buffer: one
/// `select_nth_unstable_by` instead of a full sort. For even `n` the lower
/// middle value is the maximum of the left partition the selection leaves
/// behind — bitwise identical to the sorted formula, since `f64` addition
/// is commutative.
pub(crate) fn median_core(window: &[f64], buf: &mut Vec<f64>) -> f64 {
    let n = window.len();
    if n == 0 {
        return f64::NAN;
    }
    buf.clear();
    buf.extend_from_slice(window);
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in series");
    let (left, &mut upper, _) = buf.select_nth_unstable_by(n / 2, cmp);
    if n % 2 == 1 {
        upper
    } else {
        let lower = left.iter().copied().fold(f64::MIN, f64::max);
        (lower + upper) / 2.0
    }
}

/// Core segmentation loop over caller-provided scratch. Leaves the sorted
/// change points in `scratch.cps`.
///
/// With [lanes](crate::lanes) installed on this thread, a decided window
/// whose larger child has at least [`LEND_MIN_SAMPLES`] samples hands that
/// child to a helper when a lane is spare. Every window is a pure function
/// of `(series[lo..hi], cfg, lo, hi)`, so the sorted output is the serial
/// one bit for bit.
pub(crate) fn detect_into(series: &[f64], cfg: &DetectorConfig, scratch: &mut DetectorScratch) {
    scratch.cps.clear();
    scratch.confs.clear();
    scratch.stack.clear();
    scratch.stack.push((0usize, series.len()));
    split_all(series, cfg, scratch, lanes::current().as_ref());
    let DetectorScratch { cps, confs, .. } = scratch;
    // Insertion co-sort of (cps, confs) by change-point index: the list is
    // short (≤ len/min_segment) and splits are unique, and sorting in place
    // keeps the pass allocation-free.
    for i in 1..cps.len() {
        let (c, f) = (cps[i], confs[i]);
        let mut j = i;
        while j > 0 && cps[j - 1] > c {
            cps[j] = cps[j - 1];
            confs[j] = confs[j - 1];
            j -= 1;
        }
        cps[j] = c;
        confs[j] = f;
    }
}

/// Segment every window on `scratch.stack`, appending the change points
/// and their confidences, unsorted, to `scratch.cps` and `scratch.confs`.
/// The thread scope is entered only once a window has been lent, so the
/// serial path starts no thread and allocates nothing.
fn split_all(series: &[f64], cfg: &DetectorConfig, scratch: &mut DetectorScratch, lanes: Option<&Arc<Lanes>>) {
    let Some(first) = walk(series, cfg, scratch, lanes) else { return };
    let lanes = lanes.expect("only installed lanes lend a window");
    std::thread::scope(|scope| {
        let mut helpers = Vec::new();
        let mut lent = Some(first);
        while let Some(window) = lent {
            let sub = helper_scratch(window.1 - window.0, cfg);
            helpers.push(lanes.spawn_helper(scope, move || subtree(series, cfg, window, sub)));
            lent = walk(series, cfg, scratch, Some(lanes));
        }
        for (cps, confs) in lanes.join_all(helpers) {
            scratch.cps.extend(cps);
            scratch.confs.extend(confs);
        }
    });
}

/// A helper's scratch, sized for a `len`-sample window. It is allocated on
/// the lending thread, so its buffers come from (and go back to) that
/// thread's allocator arena. Allocated on each short-lived helper thread
/// instead, in a fresh arena, they raised `paper_case_studies`' peak RSS
/// by about 4% on a 2-CPU host.
fn helper_scratch(len: usize, cfg: &DetectorConfig) -> DetectorScratch {
    let mut s = DetectorScratch::new();
    if cfg.use_ranks {
        s.centred_ranks.reserve_exact(len);
        s.sort_idx.reserve_exact(len);
    } else {
        s.shuffle.reserve_exact(len);
    }
    if cfg.magnitude_gate > 0.0 {
        s.select.reserve_exact(len);
    }
    s
}

/// A helper's share: segment `window` and everything below it with a
/// scratch of its own.
fn subtree(
    series: &[f64],
    cfg: &DetectorConfig,
    window: (usize, usize),
    mut scratch: DetectorScratch,
) -> (Vec<usize>, Vec<f64>) {
    #[cfg(test)]
    tests::helper_trap(series.len());
    scratch.stack.push(window);
    split_all(series, cfg, &mut scratch, lanes::current().as_ref());
    (scratch.cps, scratch.confs)
}

/// Decide windows from the stack until it is empty (`None`), or until a
/// decided window's larger child has been lent a spare lane
/// (`Some(child)`; the caller starts its helper and calls again).
fn walk(
    series: &[f64],
    cfg: &DetectorConfig,
    scratch: &mut DetectorScratch,
    lanes: Option<&Arc<Lanes>>,
) -> Option<(usize, usize)> {
    let DetectorScratch { shuffle, centred_ranks, sort_idx, select, stack, cps, confs, .. } = scratch;
    let decision = if cfg.exact_confidence { None } else { Some(cfg.confidence) };
    // Depth guard: segmentation of an n-sample series can produce at most
    // n / min_segment change points; anything beyond is a logic error.
    let max_cps = series.len() / cfg.min_segment.max(1) + 1;
    while let Some((lo, hi)) = stack.pop() {
        let len = hi - lo;
        if len < 2 * cfg.min_segment.max(1) {
            continue;
        }
        let mut decide = || {
            let window = &series[lo..hi];
            if cfg.magnitude_gate > 0.0 && !spread_core(window, cfg.magnitude_gate, select) {
                return None;
            }
            // Seed varies per window so sibling windows don't share permutations.
            let seed = cfg.seed ^ ((lo as u64) << 32) ^ hi as u64;
            Some(if cfg.use_ranks {
                centred_rank_into(window, sort_idx, centred_ranks);
                rank_bootstrap_core(centred_ranks, cfg.bootstrap_iters, seed, decision)
            } else {
                bootstrap_core(window, cfg.bootstrap_iters, seed, decision, shuffle)
            })
        };
        let decided = match lanes {
            Some(l) => l.section(decide),
            None => decide(),
        };
        let Some(r) = decided else { continue };
        let children = if r.confidence < cfg.confidence {
            // No whole-window shift; descend into halves (no change point
            // recorded) so window-scale structure stays visible.
            if cfg.max_window == 0 || len <= cfg.max_window {
                continue;
            }
            let mid = lo + len / 2;
            [(lo, mid), (mid, hi)]
        } else {
            // New regime starts after the peak; clamp so both halves respect
            // the minimum segment length.
            let split = (lo + r.split + 1).clamp(lo + cfg.min_segment, hi - cfg.min_segment);
            cps.push(split);
            confs.push(r.confidence);
            assert!(cps.len() <= max_cps, "segmentation runaway");
            [(lo, split), (split, hi)]
        };
        if let Some(l) = lanes {
            let [a, b] = children;
            let (keep, lend) = if a.1 - a.0 > b.1 - b.0 { (b, a) } else { (a, b) };
            if lend.1 - lend.0 >= LEND_MIN_SAMPLES && l.try_lend() {
                stack.push(keep);
                return Some(lend);
            }
        }
        stack.extend(children);
    }
    None
}

/// Cut `series` at the change points already in `scratch.cps`, leaving the
/// segments in `scratch.segs`.
pub(crate) fn segments_into(series: &[f64], scratch: &mut DetectorScratch) {
    let DetectorScratch { select, cps, confs, segs, .. } = scratch;
    segs.clear();
    if series.is_empty() {
        return;
    }
    let mut start = 0usize;
    // Each segment carries the bootstrap confidence of its *left* boundary;
    // the series start — and any caller-supplied change point without a
    // recorded bootstrap (`confs` shorter than `cps`) — reads as 1.0.
    let mut conf = 1.0f64;
    for (k, &cp) in cps.iter().enumerate() {
        assert!(cp > start && cp < series.len(), "change point {cp} out of order/bounds");
        segs.push(Segment {
            start,
            end: cp,
            level: median_core(&series[start..cp], select),
            confidence: conf,
        });
        start = cp;
        conf = confs.get(k).copied().unwrap_or(1.0);
    }
    segs.push(Segment {
        start,
        end: series.len(),
        level: median_core(&series[start..], select),
        confidence: conf,
    });
}

/// Detect all change points in `series`. Returns sorted indices; index `i`
/// means "a new regime begins at sample `i`".
pub fn detect_change_points(series: &[f64], cfg: &DetectorConfig) -> Vec<usize> {
    let mut scratch = DetectorScratch::new();
    detect_into(series, cfg, &mut scratch);
    scratch.cps
}

/// Cut `series` into level segments at `change_points`.
pub fn segments(series: &[f64], change_points: &[usize]) -> Vec<Segment> {
    let mut scratch = DetectorScratch::new();
    scratch.cps.extend_from_slice(change_points);
    segments_into(series, &mut scratch);
    scratch.segs
}

/// Convenience: detect and segment in one call.
pub fn level_segments(series: &[f64], cfg: &DetectorConfig) -> Vec<Segment> {
    let mut scratch = DetectorScratch::new();
    detect_into(series, cfg, &mut scratch);
    segments_into(series, &mut scratch);
    scratch.segs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_steps(levels: &[(usize, f64)], noise_amp: f64) -> Vec<f64> {
        // Deterministic pseudo-noise.
        let mut out = Vec::new();
        for (seg_idx, &(n, level)) in levels.iter().enumerate() {
            for i in 0..n {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seg_idx as u64 * 0x517C_C1B7);
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                out.push(level + noise_amp * u);
            }
        }
        out
    }

    #[test]
    fn finds_single_step() {
        let s = noisy_steps(&[(100, 5.0), (100, 25.0)], 1.0);
        let cps = detect_change_points(&s, &DetectorConfig::default());
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert!((95..=105).contains(&cps[0]), "{cps:?}");
        let segs = segments(&s, &cps);
        assert_eq!(segs.len(), 2);
        assert!((segs[0].level - 5.0).abs() < 1.0);
        assert!((segs[1].level - 25.0).abs() < 1.0);
    }

    #[test]
    fn finds_up_then_down() {
        let s = noisy_steps(&[(120, 2.0), (60, 30.0), (120, 2.0)], 1.5);
        let segs = level_segments(&s, &DetectorConfig::default());
        assert_eq!(segs.len(), 3, "{segs:?}");
        assert!(segs[1].level > segs[0].level + 20.0);
        assert!(segs[1].level > segs[2].level + 20.0);
        // Boundaries near the truth.
        assert!((115..=125).contains(&segs[1].start), "{segs:?}");
        assert!((175..=185).contains(&segs[1].end), "{segs:?}");
    }

    #[test]
    fn flat_noise_yields_one_segment() {
        let s = noisy_steps(&[(400, 10.0)], 2.0);
        let segs = level_segments(&s, &DetectorConfig::default());
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert_eq!(segs[0].len(), 400);
    }

    #[test]
    fn magnitude_gate_skips_small_shifts() {
        let s = noisy_steps(&[(100, 10.0), (100, 13.0)], 0.5);
        let mut cfg = DetectorConfig { magnitude_gate: 10.0, ..DetectorConfig::default() };
        assert!(detect_change_points(&s, &cfg).is_empty());
        cfg.magnitude_gate = 0.0;
        assert_eq!(detect_change_points(&s, &cfg).len(), 1);
    }

    #[test]
    fn min_segment_respected() {
        let s = noisy_steps(&[(50, 0.0), (3, 40.0), (50, 0.0)], 0.5);
        let cfg = DetectorConfig { min_segment: 6, ..DetectorConfig::default() };
        let segs = level_segments(&s, &cfg);
        for seg in &segs {
            assert!(seg.len() >= 6, "{segs:?}");
        }
    }

    #[test]
    fn short_series_is_one_segment() {
        let s = vec![1.0, 2.0, 3.0];
        let segs = level_segments(&s, &DetectorConfig::default());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].level, 2.0);
    }

    #[test]
    fn segments_empty_series() {
        assert!(segments(&[], &[]).is_empty());
    }

    #[test]
    fn raw_mode_also_detects() {
        let s = noisy_steps(&[(100, 5.0), (100, 25.0)], 1.0);
        let cfg = DetectorConfig { use_ranks: false, ..DetectorConfig::default() };
        assert_eq!(detect_change_points(&s, &cfg).len(), 1);
    }

    #[test]
    fn ranks_resist_outlier_contamination() {
        // 10 giant spikes in an otherwise flat series: rank CUSUM must not
        // declare a level shift, raw CUSUM may. This is the reason §5.2 uses
        // the non-parametric variant.
        let mut s = noisy_steps(&[(300, 10.0)], 0.5);
        for k in 0..10 {
            s[30 * k + 7] = 500.0;
        }
        let cfg = DetectorConfig::default();
        assert!(detect_change_points(&s, &cfg).is_empty(), "rank CUSUM flagged outliers");
    }

    #[test]
    fn exact_confidence_mode_same_change_points() {
        // The escape hatch disables the early exit; decisions (and hence
        // change points) must be identical either way.
        let s = noisy_steps(&[(150, 3.0), (80, 19.0), (400, 3.0), (60, 15.0)], 2.0);
        let fast = DetectorConfig::default();
        let exact = DetectorConfig { exact_confidence: true, ..fast.clone() };
        assert_eq!(detect_change_points(&s, &fast), detect_change_points(&s, &exact));
    }

    /// Zero permutations are no evidence: the bootstrap reports confidence
    /// 0 (not `0/0`), so no window is ever accepted.
    #[test]
    fn zero_bootstrap_iterations_accept_nothing() {
        let noise = noisy_steps(&[(2000, 10.0)], 2.0);
        let step = noisy_steps(&[(100, 5.0), (100, 25.0)], 1.0);
        for use_ranks in [true, false] {
            let cfg = DetectorConfig { use_ranks, bootstrap_iters: 0, ..DetectorConfig::default() };
            assert!(detect_change_points(&noise, &cfg).is_empty(), "ranks={use_ranks}");
            assert!(detect_change_points(&step, &cfg).is_empty(), "ranks={use_ranks}");
        }
        let r = crate::cusum::cusum_bootstrap(&step, 0, 7, None, &mut DetectorScratch::new());
        assert_eq!(r.confidence, 0.0);
    }

    #[test]
    fn median_core_matches_sorting() {
        fn sorted_median(window: &[f64]) -> f64 {
            let mut v = window.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = v.len();
            if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 }
        }
        let mut buf = Vec::new();
        for n in 1usize..40 {
            let window: Vec<f64> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    ((h >> 40) % 17) as f64 // plenty of ties
                })
                .collect();
            assert_eq!(median_core(&window, &mut buf), sorted_median(&window), "n={n}");
        }
        assert!(median_core(&[], &mut buf).is_nan());
    }

    /// Series of this length panic in every helper (no other test uses
    /// the length): the trap for the helper-panic test.
    const TRAP_LEN: usize = 6007;

    pub(super) fn helper_trap(len: usize) {
        assert_ne!(len, TRAP_LEN, "helper window trap");
    }

    #[test]
    fn a_helper_panic_fails_the_owner_and_returns_the_lanes() {
        let s = noisy_steps(&[(1500, 5.0), (TRAP_LEN - 1500, 25.0)], 1.0);
        let cfg = DetectorConfig::default();
        let serial = detect_change_points(&s, &cfg);
        assert_eq!(serial.len(), 1, "the serial path never meets the trap: {serial:?}");
        let lanes = Lanes::new(1);
        let _g = lanes.install();
        let err = std::panic::catch_unwind(|| detect_change_points(&s, &cfg)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("helper window trap"), "{msg}");
        assert_eq!((lanes.lent(), lanes.spare()), (1, 1));
    }

    #[test]
    fn detection_is_deterministic() {
        let s = noisy_steps(&[(150, 3.0), (80, 19.0), (150, 3.0)], 2.0);
        let cfg = DetectorConfig::default();
        assert_eq!(detect_change_points(&s, &cfg), detect_change_points(&s, &cfg));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A planted step of magnitude ≥ 8× the noise amplitude is always
        /// found, within ±min_segment of the true location, with level
        /// estimates within the noise amplitude.
        #[test]
        fn planted_step_is_found(
            at in 30usize..170,
            lo_level in 0.0f64..20.0,
            jump in 8.0f64..60.0,
            seed in 0u64..1000,
        ) {
            let n = 200;
            let noise_amp = 1.0;
            let series: Vec<f64> = (0..n).map(|i| {
                let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                let level = if i < at { lo_level } else { lo_level + jump };
                level + noise_amp * u
            }).collect();
            let cfg = DetectorConfig::default();
            let cps = detect_change_points(&series, &cfg);
            prop_assert!(!cps.is_empty(), "missed a {jump}-unit step at {at}");
            let nearest = cps.iter().map(|&c| (c as i64 - at as i64).abs()).min().unwrap();
            prop_assert!(nearest <= cfg.min_segment as i64, "nearest cp {nearest} samples away");
        }

        /// Segments always tile the series exactly.
        #[test]
        fn segments_tile(series in proptest::collection::vec(0.0f64..100.0, 12..300)) {
            let segs = level_segments(&series, &DetectorConfig::default());
            prop_assert_eq!(segs[0].start, 0);
            prop_assert_eq!(segs.last().unwrap().end, series.len());
            for w in segs.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
        }
    }
}
