//! From level segments to congestion-candidate *shift events*.
//!
//! §5.2: "We impose a threshold on the minimum magnitude of the level shifts
//! that we label as potentially caused by congestion" (the Table 1 sweep:
//! 5/10/15/20 ms), compute "the average magnitude `A_w` and the average
//! duration `Δt_UD` between consecutive upshift and downshift", and
//! *sanitize* the raw level-shift output before measuring widths (merging
//! stutters where the detector briefly dips between adjacent events).

use crate::segment::Segment;
use serde::{Deserialize, Serialize};

/// One elevated period: consecutive segments whose level sits at least the
/// threshold above baseline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShiftEvent {
    /// First elevated sample index.
    pub start: usize,
    /// One past the last elevated sample index.
    pub end: usize,
    /// Length-weighted mean elevation above baseline during the event.
    pub magnitude: f64,
}

impl ShiftEvent {
    /// Width in samples (the `Δt_UD` contribution).
    pub fn width(&self) -> usize {
        self.end - self.start
    }
}

/// Aggregate event statistics: the numbers §6.2 reports per link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EventStats {
    /// Number of events.
    pub count: usize,
    /// `A_w`: average event magnitude.
    pub avg_magnitude: f64,
    /// `Δt_UD`: average width, in samples.
    pub avg_width_samples: f64,
    /// Fraction of the observed span inside events.
    pub duty_cycle: f64,
}

/// The reference level shifts are measured against: the length-weighted
/// low quantile (default 0.10) of segment levels — "where RTT sits when the
/// queue is empty". Using a low quantile instead of the minimum keeps a
/// single anomalously low segment from dragging the baseline down.
pub fn baseline_level(segments: &[Segment], quantile: f64) -> f64 {
    let mut buf = Vec::new();
    baseline_core(segments, quantile, &mut buf)
}

/// Weighted-quantile core: instead of sorting all segments by level
/// (O(n log n)), run a quickselect-style narrowing — partition around the
/// median position, sum the left partition's lengths, and recurse into the
/// half holding the target cumulative length. Shrinking ranges make the
/// selection work n + n/2 + n/4 + … = O(n) expected. Level ties return the
/// identical value under any ordering, so the result matches the sorted
/// walk exactly.
pub(crate) fn baseline_core(
    segments: &[Segment],
    quantile: f64,
    buf: &mut Vec<(f64, usize)>,
) -> f64 {
    assert!((0.0..=1.0).contains(&quantile), "quantile out of range");
    let total: usize = segments.iter().map(|s| s.len()).sum();
    if total == 0 {
        return f64::NAN;
    }
    buf.clear();
    buf.extend(segments.iter().map(|s| (s.level, s.len())));
    // The answer is the level of the first segment (in level order) whose
    // cumulative length exceeds `target`.
    let mut target = (quantile * total as f64) as usize;
    let (mut lo, mut hi) = (0usize, buf.len());
    loop {
        if hi - lo == 1 {
            return buf[lo].0;
        }
        let mid = lo + (hi - lo) / 2;
        buf[lo..hi]
            .select_nth_unstable_by(mid - lo, |a, b| a.0.partial_cmp(&b.0).expect("NaN level"));
        let left_len: usize = buf[lo..mid].iter().map(|p| p.1).sum();
        if left_len > target {
            hi = mid;
        } else {
            target -= left_len;
            lo = mid;
        }
    }
}

/// Extract events: maximal runs of segments elevated ≥ `threshold` above
/// `baseline`, keeping only runs of at least `min_width` samples.
pub fn extract_events(segments: &[Segment], baseline: f64, threshold: f64, min_width: usize) -> Vec<ShiftEvent> {
    let mut out = Vec::new();
    let mut run: Option<(usize, usize, f64)> = None; // (start, end, weighted sum)
    for s in segments {
        let elevated = s.level - baseline >= threshold;
        match (&mut run, elevated) {
            (None, true) => run = Some((s.start, s.end, (s.level - baseline) * s.len() as f64)),
            (Some((_, end, sum)), true) => {
                *end = s.end;
                *sum += (s.level - baseline) * s.len() as f64;
            }
            (Some((start, end, sum)), false) => {
                let width = *end - *start;
                if width >= min_width {
                    out.push(ShiftEvent { start: *start, end: *end, magnitude: *sum / width as f64 });
                }
                run = None;
            }
            (None, false) => {}
        }
    }
    if let Some((start, end, sum)) = run {
        let width = end - start;
        if width >= min_width {
            out.push(ShiftEvent { start, end, magnitude: sum / width as f64 });
        }
    }
    out
}

/// Level-shift sanitization (§5.2): merge events separated by gaps shorter
/// than `max_gap` samples — the detector's brief dips inside one congestion
/// episode would otherwise split a 20-hour event into fragments and skew
/// `Δt_UD` low.
pub fn sanitize_events(events: &[ShiftEvent], max_gap: usize) -> Vec<ShiftEvent> {
    let mut out: Vec<ShiftEvent> = Vec::with_capacity(events.len());
    for &e in events {
        match out.last_mut() {
            Some(prev) if e.start.saturating_sub(prev.end) <= max_gap => {
                // Width-weighted magnitude merge.
                let (w1, w2) = (prev.width() as f64, e.width() as f64);
                prev.magnitude = (prev.magnitude * w1 + e.magnitude * w2) / (w1 + w2);
                prev.end = e.end;
            }
            _ => out.push(e),
        }
    }
    out
}

/// Aggregate statistics over `events`, with `span` the total number of
/// samples observed.
pub fn event_stats(events: &[ShiftEvent], span: usize) -> EventStats {
    if events.is_empty() {
        return EventStats::default();
    }
    let count = events.len();
    let total_width: usize = events.iter().map(|e| e.width()).sum();
    EventStats {
        count,
        avg_magnitude: events.iter().map(|e| e.magnitude).sum::<f64>() / count as f64,
        avg_width_samples: total_width as f64 / count as f64,
        duty_cycle: if span == 0 { 0.0 } else { total_width as f64 / span as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: usize, end: usize, level: f64) -> Segment {
        Segment { start, end, level, confidence: 1.0 }
    }

    #[test]
    fn baseline_is_low_quantile() {
        let segs = vec![seg(0, 800, 1.0), seg(800, 900, 30.0), seg(900, 1000, 2.0)];
        let b = baseline_level(&segs, 0.10);
        assert_eq!(b, 1.0);
        // A tiny rogue low segment does not own the baseline at q=0.10.
        let segs2 = vec![seg(0, 5, -20.0), seg(5, 1000, 1.0)];
        assert_eq!(baseline_level(&segs2, 0.10), 1.0);
    }

    #[test]
    fn baseline_quickselect_matches_sorted_walk() {
        fn sorted_walk(segments: &[Segment], quantile: f64) -> f64 {
            let total: usize = segments.iter().map(|s| s.len()).sum();
            let mut sorted: Vec<&Segment> = segments.iter().collect();
            sorted.sort_by(|a, b| a.level.partial_cmp(&b.level).unwrap());
            let target = (quantile * total as f64) as usize;
            let mut seen = 0usize;
            for s in sorted {
                seen += s.len();
                if seen > target {
                    return s.level;
                }
            }
            unreachable!()
        }
        for case in 0..150u64 {
            let mut h = case.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = || {
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h >> 32
            };
            let n = 1 + (next() % 40) as usize;
            let mut start = 0usize;
            let segs: Vec<Segment> = (0..n)
                .map(|_| {
                    let len = 1 + (next() % 60) as usize;
                    let level = (next() % 9) as f64; // few distinct levels → ties
                    let s = seg(start, start + len, level);
                    start += len;
                    s
                })
                .collect();
            for q in [0.0, 0.05, 0.10, 0.5, 0.9] {
                let want = sorted_walk(&segs, q);
                assert_eq!(baseline_level(&segs, q), want, "case {case} q {q}");
            }
        }
    }

    #[test]
    fn extract_simple_event() {
        let segs = vec![seg(0, 100, 1.0), seg(100, 160, 28.0), seg(160, 300, 1.2)];
        let ev = extract_events(&segs, 1.0, 10.0, 6);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].start, 100);
        assert_eq!(ev[0].end, 160);
        assert!((ev[0].magnitude - 27.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_elevated_segments_merge() {
        let segs = vec![seg(0, 50, 0.0), seg(50, 80, 20.0), seg(80, 120, 35.0), seg(120, 200, 0.5)];
        let ev = extract_events(&segs, 0.0, 10.0, 6);
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].start, ev[0].end), (50, 120));
        let expect = (20.0 * 30.0 + 35.0 * 40.0) / 70.0;
        assert!((ev[0].magnitude - expect).abs() < 1e-9);
    }

    #[test]
    fn short_events_dropped() {
        let segs = vec![seg(0, 100, 0.0), seg(100, 103, 50.0), seg(103, 200, 0.0)];
        assert!(extract_events(&segs, 0.0, 10.0, 6).is_empty());
    }

    #[test]
    fn threshold_sweep_monotone() {
        // Events at 6, 12, 18, 25 above baseline: higher thresholds see fewer.
        let segs = vec![
            seg(0, 100, 0.0),
            seg(100, 150, 6.0),
            seg(150, 250, 0.0),
            seg(250, 300, 12.0),
            seg(300, 400, 0.0),
            seg(400, 450, 18.0),
            seg(450, 550, 0.0),
            seg(550, 600, 25.0),
            seg(600, 700, 0.0),
        ];
        let counts: Vec<usize> =
            [5.0, 10.0, 15.0, 20.0].iter().map(|&t| extract_events(&segs, 0.0, t, 6).len()).collect();
        assert_eq!(counts, vec![4, 3, 2, 1]);
    }

    #[test]
    fn trailing_event_closed() {
        let segs = vec![seg(0, 100, 0.0), seg(100, 200, 30.0)];
        let ev = extract_events(&segs, 0.0, 10.0, 6);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].end, 200);
    }

    #[test]
    fn sanitize_merges_stutter() {
        let events = vec![
            ShiftEvent { start: 100, end: 200, magnitude: 20.0 },
            ShiftEvent { start: 203, end: 300, magnitude: 30.0 },
            ShiftEvent { start: 500, end: 600, magnitude: 10.0 },
        ];
        let merged = sanitize_events(&events, 6);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].start, merged[0].end), (100, 300));
        let expect = (20.0 * 100.0 + 30.0 * 97.0) / 197.0;
        assert!((merged[0].magnitude - expect).abs() < 1e-9);
        assert_eq!(merged[1].start, 500);
    }

    #[test]
    fn stats_compute_aw_and_width() {
        let events = vec![
            ShiftEvent { start: 0, end: 240, magnitude: 30.0 }, // 20h at 5-min samples
            ShiftEvent { start: 300, end: 540, magnitude: 25.8 },
        ];
        let st = event_stats(&events, 1000);
        assert_eq!(st.count, 2);
        assert!((st.avg_magnitude - 27.9).abs() < 1e-9);
        assert!((st.avg_width_samples - 240.0).abs() < 1e-9);
        assert!((st.duty_cycle - 0.48).abs() < 1e-9);
    }

    #[test]
    fn stats_empty() {
        assert_eq!(event_stats(&[], 100), EventStats::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
        proptest::collection::vec((1usize..50, 0.0f64..50.0), 1..40).prop_map(|pieces| {
            let mut segs = Vec::new();
            let mut start = 0usize;
            for (len, level) in pieces {
                segs.push(Segment { start, end: start + len, level, confidence: 1.0 });
                start += len;
            }
            segs
        })
    }

    proptest! {
        /// Events are disjoint, ordered, within bounds, and at least min width.
        #[test]
        fn event_invariants(segs in arb_segments(), threshold in 1.0f64..30.0) {
            let base = baseline_level(&segs, 0.10);
            let ev = extract_events(&segs, base, threshold, 6);
            let span = segs.last().unwrap().end;
            for e in &ev {
                prop_assert!(e.start < e.end);
                prop_assert!(e.end <= span);
                prop_assert!(e.width() >= 6);
                prop_assert!(e.magnitude >= threshold - 1e-9);
            }
            for w in ev.windows(2) {
                prop_assert!(w[0].end <= w[1].start);
            }
        }

        /// Raising the threshold never increases the number of events... per
        /// elevated region it can split/merge, but total elevated samples
        /// must shrink (weaker, always-true invariant).
        #[test]
        fn higher_threshold_covers_less(segs in arb_segments()) {
            let base = baseline_level(&segs, 0.10);
            let cover = |t: f64| -> usize {
                extract_events(&segs, base, t, 1).iter().map(|e| e.width()).sum()
            };
            prop_assert!(cover(5.0) >= cover(10.0));
            prop_assert!(cover(10.0) >= cover(15.0));
            prop_assert!(cover(15.0) >= cover(20.0));
        }

        /// Sanitization preserves total ordering and never loses coverage.
        #[test]
        fn sanitize_invariants(segs in arb_segments(), gap in 0usize..20) {
            let base = baseline_level(&segs, 0.10);
            let ev = extract_events(&segs, base, 5.0, 3);
            let merged = sanitize_events(&ev, gap);
            let before: usize = ev.iter().map(|e| e.width()).sum();
            let after: usize = merged.iter().map(|e| e.width()).sum();
            prop_assert!(after >= before);
            for w in merged.windows(2) {
                prop_assert!(w[0].end < w[1].start);
                prop_assert!(w[1].start - w[0].end > gap);
            }
        }
    }
}
