//! Reusable detector working memory: the allocation-free fast path.
//!
//! Every routine in this crate that historically allocated per call — the
//! bootstrap's shuffle buffers (`shuffle` for `f64` windows,
//! `centred_ranks` for the segmentation's integer rank kernel, which is
//! both its rank output and its permutation buffer), the rank transform's
//! index + output buffers,
//! the selection buffers behind `median`, `spread_reaches` and the
//! segment-level baseline quantile, and the segmentation work stack
//! itself — can instead borrow its
//! memory from a [`DetectorScratch`]. A campaign assessing thousands of
//! links holds one scratch per worker thread; after the first (warm-up)
//! series every subsequent `detect → segment → baseline` pass performs zero
//! heap allocation, which the `detect_throughput` bench asserts with a
//! counting allocator.
//!
//! The window primitives (`cusum_bootstrap`, `rank_transform`,
//! `spread_reaches`) take a scratch; the segmentation entry points keep
//! allocating free functions (`detect_change_points`, `level_segments`) as
//! thin wrappers over the scratch paths. An equivalence suite
//! (`tests/equivalence.rs`) pins the scratch + early-exit engine
//! byte-identical to the seed implementation.

use crate::segment::{DetectorConfig, Segment};

/// Working buffers for one detector instance (one per worker thread).
///
/// All buffers grow to the high-water mark of the series they have seen and
/// are then reused; dropping the scratch releases everything at once.
#[derive(Clone, Debug, Default)]
pub struct DetectorScratch {
    /// Permutation buffer for the `f64` bootstrap (raw-data segmentation,
    /// `cusum_bootstrap`).
    pub(crate) shuffle: Vec<f64>,
    /// Doubled, centred mid-ranks `2·rank − (n+1)` of the current window:
    /// the rank-path segmentation's rank output and, shuffled in place, its
    /// integer bootstrap's permutation buffer.
    pub(crate) centred_ranks: Vec<i64>,
    /// Rank-transform output (`rank_transform`).
    pub(crate) ranks: Vec<f64>,
    /// Sort-index buffer (`rank_transform`).
    pub(crate) sort_idx: Vec<usize>,
    /// Selection buffer (`median`, `spread_reaches`, window quantiles).
    pub(crate) select: Vec<f64>,
    /// Binary-segmentation work stack.
    pub(crate) stack: Vec<(usize, usize)>,
    /// Change-point output buffer.
    pub(crate) cps: Vec<usize>,
    /// Bootstrap confidences aligned with `cps` (empty for caller-supplied
    /// change points).
    pub(crate) confs: Vec<f64>,
    /// Level-segment output buffer.
    pub(crate) segs: Vec<Segment>,
    /// `(level, len)` pairs for the weighted baseline quantile.
    pub(crate) weights: Vec<(f64, usize)>,
}

impl DetectorScratch {
    /// Fresh scratch with empty buffers (they size themselves on first use).
    pub fn new() -> DetectorScratch {
        DetectorScratch::default()
    }

    /// Detect all change points in `series` without allocating (after
    /// warm-up). Same results as [`crate::segment::detect_change_points`];
    /// the returned slice borrows this scratch and is valid until the next
    /// call.
    pub fn detect_change_points(&mut self, series: &[f64], cfg: &DetectorConfig) -> &[usize] {
        crate::segment::detect_into(series, cfg, self);
        &self.cps
    }

    /// Detect and cut `series` into level segments without allocating
    /// (after warm-up). Same results as
    /// [`crate::segment::level_segments`]; the returned slice borrows this
    /// scratch and is valid until the next call.
    pub fn level_segments(&mut self, series: &[f64], cfg: &DetectorConfig) -> &[Segment] {
        crate::segment::detect_into(series, cfg, self);
        crate::segment::segments_into(series, self);
        &self.segs
    }

    /// Level segments plus the length-weighted baseline quantile of their
    /// levels, in one call (the shape `assess_link` needs). Computing both
    /// here lets the baseline reuse this scratch while the segment slice it
    /// describes is borrowed out.
    pub fn segment_series(
        &mut self,
        series: &[f64],
        cfg: &DetectorConfig,
        baseline_quantile: f64,
    ) -> (&[Segment], f64) {
        crate::segment::detect_into(series, cfg, self);
        crate::segment::segments_into(series, self);
        let base = crate::events::baseline_core(&self.segs, baseline_quantile, &mut self.weights);
        (&self.segs, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::baseline_level;
    use crate::segment::{detect_change_points, level_segments};

    fn steps(levels: &[(usize, f64)], noise_amp: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for (k, &(n, level)) in levels.iter().enumerate() {
            for i in 0..n {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(k as u64 * 0x517C_C1B7);
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                out.push(level + noise_amp * u);
            }
        }
        out
    }

    #[test]
    fn scratch_matches_wrappers_and_reuse_is_clean() {
        let mut scratch = DetectorScratch::new();
        let cfg = DetectorConfig::default();
        // Interleave very different series through ONE scratch: stale state
        // from a previous call must never leak into the next.
        let corpora = [
            steps(&[(400, 5.0)], 1.0),
            steps(&[(150, 2.0), (90, 30.0), (150, 2.0)], 1.5),
            steps(&[(40, 1.0)], 0.2),
            steps(&[(100, 10.0), (100, 25.0), (100, 8.0)], 2.0),
        ];
        for series in &corpora {
            assert_eq!(scratch.detect_change_points(series, &cfg), detect_change_points(series, &cfg));
            assert_eq!(scratch.level_segments(series, &cfg), level_segments(series, &cfg));
            let (segs, base) = scratch.segment_series(series, &cfg, 0.10);
            let expect_segs = level_segments(series, &cfg);
            assert_eq!(segs, expect_segs.as_slice());
            assert_eq!(base, baseline_level(&expect_segs, 0.10));
        }
    }

    #[test]
    fn returned_slices_track_latest_call() {
        let mut scratch = DetectorScratch::new();
        let cfg = DetectorConfig::default();
        let long = steps(&[(120, 1.0), (120, 20.0)], 1.0);
        let short = steps(&[(50, 3.0)], 0.5);
        scratch.detect_change_points(&long, &cfg);
        let cps = scratch.detect_change_points(&short, &cfg);
        assert!(cps.is_empty(), "{cps:?}");
        let segs = scratch.level_segments(&short, &cfg);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, 50);
    }
}
