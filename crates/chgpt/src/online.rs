//! Page's sequential CUSUM: online level-shift detection.
//!
//! The paper closes with "we plan to keep analyzing collected TSLP data to
//! delve into the dynamics and causes of congestion" (§8) — continuous
//! monitoring, for which the retrospective Taylor procedure is the wrong
//! tool: it wants the whole series. Page's test is its streaming
//! counterpart: maintain one-sided cumulative sums
//!
//! ```text
//!   S⁺ ← max(0, S⁺ + (x − μ − κ))     (upshift detector)
//!   S⁻ ← max(0, S⁻ + (μ − x − κ))     (downshift detector)
//! ```
//!
//! with reference level `μ` (the running baseline), slack `κ` ([`KAPPA`],
//! half the shift magnitude worth caring about) and alarm threshold `h`
//! ([`H`]). The paper fixes the shift worth caring about (10 ms), so these
//! are constants, not settings. Alarms fire one sample at a time, with O(1)
//! state per link — the shape a production IXP monitor would deploy. The
//! `ablation_detectors` bench compares it to the retrospective pipeline.

use serde::{Deserialize, Serialize};

/// Slack per sample, same units as the series: half the target shift
/// magnitude, 5 for the paper's 10 ms threshold.
pub const KAPPA: f64 = 5.0;
/// Alarm threshold on the cumulative statistic, `5 × KAPPA`. Larger means
/// fewer false alarms and slower detection.
pub const H: f64 = 25.0;
/// Samples of warm-up used to seed the baseline estimate (one hour of
/// 5-minute rounds).
pub const WARMUP: usize = 12;
/// Exponential baseline adaptation rate once out of an alarm (per sample).
/// Keeps `μ` tracking slow drifts without chasing shifts.
pub const BASELINE_GAIN: f64 = 0.005;

/// What one sample did to the detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OnlineVerdict {
    /// Still learning the baseline.
    Warmup,
    /// Nothing happening.
    Quiet,
    /// An upshift alarm fired at this sample.
    UpshiftAlarm,
    /// A downshift alarm fired at this sample (inside an elevated period,
    /// this marks the end of a congestion event).
    DownshiftAlarm,
    /// Inside an elevated period (after an upshift, before the downshift).
    Elevated,
    /// The sample was non-finite (lost probe): counted as a gap, detector
    /// state untouched. A resident monitor sees these routinely.
    Gap,
}

/// The part of the detector state a quiet sample touches: the running
/// baseline, the upshift statistic, and the two regime flags. A resident
/// monitor keeps it in the same cache line as the rest of a link's hot
/// state; [`OnlineCold`] holds what only warm-up, elevated periods and gaps
/// touch.
///
/// A private flag caches `warmup_seen < WARMUP`, so a quiet sample
/// never reads the cold half: build a fresh pair with [`OnlineHot::new`]
/// and [`OnlineCold::default`], or a resumed one with
/// [`OnlineHot::restore`], which establish it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineHot {
    /// Running baseline estimate.
    pub baseline: f64,
    /// Upshift cumulative statistic.
    pub s_up: f64,
    /// Still consuming warm-up samples?
    warming: bool,
    /// Inside an elevated period?
    pub elevated: bool,
}

impl OnlineHot {
    /// The hot half of a fresh detector.
    pub fn new() -> OnlineHot {
        OnlineHot { baseline: 0.0, s_up: 0.0, warming: WARMUP > 0, elevated: false }
    }

    /// The hot half of a resumed detector — its saved baseline, upshift
    /// statistic and elevated flag — to run beside `cold`. The warm-up flag
    /// is derived from `cold.warmup_seen`, so the pair continues
    /// bit-identically to one that never stopped.
    pub fn restore(baseline: f64, s_up: f64, elevated: bool, cold: &OnlineCold) -> OnlineHot {
        OnlineHot { baseline, s_up, warming: cold.warmup_seen < WARMUP, elevated }
    }
}

impl Default for OnlineHot {
    fn default() -> Self {
        OnlineHot::new()
    }
}

/// The part of the detector state only warm-up samples, elevated periods
/// and gaps touch (see [`OnlineHot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineCold {
    /// Warm-up samples consumed so far. Advanced by [`online_step`] alone:
    /// [`OnlineHot`] caches whether it is still below the warm-up length.
    pub warmup_seen: usize,
    /// Sum of warm-up samples.
    pub warmup_sum: f64,
    /// Downshift cumulative statistic.
    pub s_down: f64,
    /// Baseline captured at the last upshift (magnitude estimation).
    pub level_before: f64,
    /// Sum of samples while elevated.
    pub elevated_sum: f64,
    /// Count of samples while elevated.
    pub elevated_n: usize,
    /// Non-finite samples seen (each counted, state otherwise untouched).
    pub gaps: u64,
}

/// Feed one sample to a detector kept as two halves — the one
/// implementation of the CUSUM step.
/// Non-finite samples (lost probes) and subnormals (no real RTT is below
/// ~10⁻³⁰⁸ ms — only a corrupted or fabricated measurement carries one)
/// are gaps: counted, detector state untouched, [`OnlineVerdict::Gap`]
/// returned — a resident service must not die on a dropped response or let
/// garbage bend its baseline. Zero is a legitimate sample; it is not
/// subnormal. A quiet sample after warm-up reads and writes `hot` alone.
#[inline(always)]
pub fn online_step(hot: &mut OnlineHot, cold: &mut OnlineCold, x: f64) -> OnlineVerdict {
    if !x.is_finite() || x.is_subnormal() {
        cold.gaps += 1;
        return OnlineVerdict::Gap;
    }
    if hot.warming {
        cold.warmup_seen += 1;
        cold.warmup_sum += x;
        hot.baseline = cold.warmup_sum / cold.warmup_seen as f64;
        hot.warming = cold.warmup_seen < WARMUP;
        return OnlineVerdict::Warmup;
    }
    if hot.elevated {
        return elevated_step(hot, cold, x);
    }
    // Quiet regime: adapt the baseline slowly, watch for upshifts.
    hot.baseline += BASELINE_GAIN * (x - hot.baseline);
    hot.s_up = (hot.s_up + (x - hot.baseline - KAPPA)).max(0.0);
    if hot.s_up > H {
        hot.elevated = true;
        cold.level_before = hot.baseline;
        hot.s_up = 0.0;
        cold.s_down = 0.0;
        cold.elevated_sum = x;
        cold.elevated_n = 1;
        return OnlineVerdict::UpshiftAlarm;
    }
    OnlineVerdict::Quiet
}

/// One sample inside an elevated period: look for the downshift back
/// toward the remembered level.
fn elevated_step(hot: &mut OnlineHot, cold: &mut OnlineCold, x: f64) -> OnlineVerdict {
    cold.elevated_sum += x;
    cold.elevated_n += 1;
    cold.s_down = (cold.s_down + (elevated_mean(hot, cold) - x - KAPPA)).max(0.0);
    if cold.s_down > H && x < elevated_mean(hot, cold) {
        hot.elevated = false;
        cold.s_down = 0.0;
        hot.s_up = 0.0;
        hot.baseline = cold.level_before;
        cold.elevated_sum = 0.0;
        cold.elevated_n = 0;
        return OnlineVerdict::DownshiftAlarm;
    }
    OnlineVerdict::Elevated
}

fn elevated_mean(hot: &OnlineHot, cold: &OnlineCold) -> f64 {
    if cold.elevated_n == 0 {
        hot.baseline
    } else {
        cold.elevated_sum / cold.elevated_n as f64
    }
}

/// Estimated magnitude of the current elevation (0 when quiet); reads the
/// cold half only while elevated.
#[inline]
pub fn elevation_estimate(hot: &OnlineHot, cold: &OnlineCold) -> f64 {
    if !hot.elevated || cold.elevated_n == 0 {
        0.0
    } else {
        cold.elevated_sum / cold.elevated_n as f64 - cold.level_before
    }
}

/// Run the detector over a whole series, returning `(upshift, downshift)`
/// sample indices — the offline-compatible view used by tests and benches.
pub fn online_events(series: &[f64]) -> Vec<(usize, usize)> {
    let (mut hot, mut cold) = (OnlineHot::new(), OnlineCold::default());
    let mut out = Vec::new();
    let mut open: Option<usize> = None;
    for (i, &x) in series.iter().enumerate() {
        match online_step(&mut hot, &mut cold, x) {
            OnlineVerdict::UpshiftAlarm => open = Some(i),
            OnlineVerdict::DownshiftAlarm => {
                if let Some(s) = open.take() {
                    out.push((s, i));
                }
            }
            _ => {}
        }
    }
    if let Some(s) = open {
        out.push((s, series.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh detector, as its two halves.
    pub(super) fn fresh() -> (OnlineHot, OnlineCold) {
        (OnlineHot::new(), OnlineCold::default())
    }

    /// Feed one sample to a pair from [`fresh`].
    pub(super) fn push(det: &mut (OnlineHot, OnlineCold), x: f64) -> OnlineVerdict {
        online_step(&mut det.0, &mut det.1, x)
    }

    fn step_series(pattern: &[(usize, f64)], noise_amp: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for &(n, level) in pattern {
            for i in 0..n {
                let h = (out.len() as u64 ^ (i as u64) << 7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                out.push(level + noise_amp * u);
            }
        }
        out
    }

    #[test]
    fn detects_single_event() {
        let s = step_series(&[(200, 2.0), (60, 25.0), (200, 2.0)], 1.0);
        let ev = online_events(&s);
        assert_eq!(ev.len(), 1, "{ev:?}");
        let (up, down) = ev[0];
        assert!((198..=215).contains(&up), "up at {up}");
        assert!((258..=280).contains(&down), "down at {down}");
    }

    #[test]
    fn quiet_series_no_alarms() {
        let s = step_series(&[(2000, 3.0)], 1.5);
        assert!(online_events(&s).is_empty());
    }

    #[test]
    fn repeated_daily_events() {
        // Five days: elevated samples 100..150 each 288-sample day.
        let mut s = Vec::new();
        for _ in 0..5 {
            s.extend(step_series(&[(100, 2.0), (50, 20.0), (138, 2.0)], 0.8));
        }
        let ev = online_events(&s);
        assert_eq!(ev.len(), 5, "{ev:?}");
        for (i, (up, down)) in ev.iter().enumerate() {
            assert!((i * 288 + 95..i * 288 + 120).contains(up), "event {i} up {up}");
            assert!((i * 288 + 145..i * 288 + 175).contains(down), "event {i} down {down}");
        }
    }

    #[test]
    fn magnitude_estimate_tracks_shift() {
        let mut det = fresh();
        for _ in 0..50 {
            push(&mut det, 2.0);
        }
        for _ in 0..40 {
            push(&mut det, 27.0);
        }
        assert!(det.0.elevated);
        let m = elevation_estimate(&det.0, &det.1);
        assert!((20.0..27.5).contains(&m), "estimate {m}");
    }

    #[test]
    fn baseline_adapts_to_slow_drift() {
        let mut det = fresh();
        // Drift from 2 to 6 over 4000 samples: ~0.001/sample, below kappa.
        let mut alarms = 0;
        for i in 0..4000 {
            let x = 2.0 + 4.0 * i as f64 / 4000.0;
            if push(&mut det, x) == OnlineVerdict::UpshiftAlarm {
                alarms += 1;
            }
        }
        assert_eq!(alarms, 0, "slow drift must not alarm");
        assert!(det.0.baseline > 4.0, "baseline tracked the drift: {}", det.0.baseline);
    }

    #[test]
    fn trailing_open_event_closed_at_end() {
        let s = step_series(&[(100, 2.0), (100, 30.0)], 0.5);
        let ev = online_events(&s);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].1, s.len());
    }

    #[test]
    fn non_finite_is_a_gap_not_a_panic() {
        let mut det = fresh();
        for _ in 0..50 {
            push(&mut det, 2.0);
        }
        let before = det;
        assert_eq!(push(&mut det, f64::NAN), OnlineVerdict::Gap);
        assert_eq!(push(&mut det, f64::INFINITY), OnlineVerdict::Gap);
        assert_eq!(push(&mut det, f64::NEG_INFINITY), OnlineVerdict::Gap);
        assert_eq!(det.1.gaps, before.1.gaps + 3);
        let after = (det.0, OnlineCold { gaps: before.1.gaps, ..det.1 });
        assert_eq!(after, before, "gaps must not move state");
    }

    #[test]
    fn gaps_do_not_change_events() {
        let clean = step_series(&[(200, 2.0), (60, 25.0), (200, 2.0)], 1.0);
        let mut gappy = clean.clone();
        for i in (0..gappy.len()).step_by(17) {
            gappy.insert(i, f64::NAN);
        }
        let ev_clean = online_events(&clean);
        let ev_gappy = online_events(&gappy);
        // Same number of events, same finite-sample ordering.
        assert_eq!(ev_clean.len(), ev_gappy.len());
    }

    /// A pair rebuilt through [`OnlineHot::restore`] from its saved fields
    /// continues exactly like one that never stopped, whether cut inside
    /// warm-up, in a quiet stretch or inside an elevated period.
    #[test]
    fn snapshot_restore_bit_identical() {
        let s = step_series(&[(150, 2.0), (60, 25.0), (150, 2.0)], 1.0);
        for cut in [5, 100, 170] {
            let mut straight = fresh();
            for &x in &s[..cut] {
                push(&mut straight, x);
            }
            let (h, cold) = straight;
            let hot = OnlineHot::restore(h.baseline, h.s_up, h.elevated, &cold);
            let mut resumed = (hot, cold);
            assert_eq!(resumed, straight, "cut {cut}");
            for &x in &s[cut..] {
                assert_eq!(push(&mut straight, x), push(&mut resumed, x), "cut {cut}");
            }
            assert_eq!(resumed, straight, "cut {cut}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{fresh, push};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events are well-formed and ordered for arbitrary finite series.
        #[test]
        fn events_well_formed(series in proptest::collection::vec(0.0f64..100.0, 20..600)) {
            let ev = online_events(&series);
            for w in ev.windows(2) {
                prop_assert!(w[0].1 <= w[1].0);
            }
            for (up, down) in ev {
                prop_assert!(up < down);
                prop_assert!(down <= series.len());
            }
        }

        /// A planted large step is always caught within a bounded delay.
        #[test]
        fn planted_step_caught(at in 60usize..200, mag in 15.0f64..80.0) {
            let series: Vec<f64> = (0..400).map(|i| if i < at { 2.0 } else { 2.0 + mag }).collect();
            let ev = online_events(&series);
            prop_assert!(!ev.is_empty());
            let delay = ev[0].0 as i64 - at as i64;
            prop_assert!((0..=10).contains(&delay), "alarm delay {delay}");
        }

        /// Any interleaving of NaN / ±Inf / subnormal junk yields `Gap` for
        /// every junk sample and leaves the event stream identical to the
        /// gap-free projection of the same series (the stronger form of
        /// `gaps_do_not_change_events`: positions are mapped back through
        /// the interleaving, so boundaries must agree exactly, not merely
        /// in count).
        #[test]
        fn junk_interleavings_are_inert(
            clean in proptest::collection::vec(0.5f64..60.0, 30..400),
            junk_at in proptest::collection::vec((0usize..400, 0usize..5), 0..60),
        ) {
            const JUNK: [f64; 5] =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-310, -4.9e-324];
    
            // Build the interleaved series: insert junk at (clamped) clean
            // positions, keeping the clean subsequence order intact.
            let mut inserts: Vec<(usize, f64)> = junk_at
                .iter()
                .map(|&(pos, kind)| (pos.min(clean.len()), JUNK[kind]))
                .collect();
            inserts.sort_by_key(|&(pos, _)| pos);
            let mut mixed = Vec::with_capacity(clean.len() + inserts.len());
            let mut is_junk = Vec::with_capacity(mixed.capacity());
            let mut next = inserts.iter().peekable();
            for (i, &x) in clean.iter().enumerate() {
                while next.peek().is_some_and(|&&(pos, _)| pos == i) {
                    mixed.push(next.next().unwrap().1);
                    is_junk.push(true);
                }
                mixed.push(x);
                is_junk.push(false);
            }
            for &(_, j) in next {
                mixed.push(j);
                is_junk.push(true);
            }

            // Every junk sample reads Gap; clean samples never do. The
            // detector states must agree except for the gap counter.
            let mut det_clean = fresh();
            for &x in &clean {
                prop_assert_ne!(push(&mut det_clean, x), OnlineVerdict::Gap);
            }
            let mut det_mixed = fresh();
            // clean_before[i] = clean samples strictly before mixed[i];
            // one extra entry so a trailing open event maps to clean.len().
            let mut clean_before = Vec::with_capacity(mixed.len() + 1);
            let mut seen = 0usize;
            for (i, &x) in mixed.iter().enumerate() {
                clean_before.push(seen);
                let v = push(&mut det_mixed, x);
                if is_junk[i] {
                    prop_assert_eq!(v, OnlineVerdict::Gap, "junk at {} must be a gap", i);
                } else {
                    prop_assert_ne!(v, OnlineVerdict::Gap);
                    seen += 1;
                }
            }
            clean_before.push(seen);
            let (a, b) = (det_clean, det_mixed);
            prop_assert_eq!(b.1.gaps, is_junk.iter().filter(|&&j| j).count() as u64);
            prop_assert_eq!((b.0, OnlineCold { gaps: a.1.gaps, ..b.1 }), a,
                "junk moved detector state");

            // The event stream, projected back to clean positions, is
            // exactly the clean event stream.
            let ev_clean = online_events(&clean);
            let ev_mixed: Vec<(usize, usize)> = online_events(&mixed)
                .into_iter()
                .map(|(up, down)| (clean_before[up], clean_before[down]))
                .collect();
            prop_assert_eq!(ev_mixed, ev_clean);
        }
    }
}
