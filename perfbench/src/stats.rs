//! Order statistics for the report: medians, interpolated percentiles, the
//! tail-percentile rule, and a nanosecond histogram for per-call timings
//! too numerous to keep one by one.

/// Percentiles the report may quote, lowest first.
pub const LADDER: [f64; 7] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`LADDER`] that still has at least ten of `n`
/// samples above it, so the quoted tail rests on ten observations or more.
/// `None` when even the median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| above(n, p) >= 10.0)
}

/// Samples above the `p`-th percentile of `n` (rounding slack for the
/// decimal percentiles, which binary floats cannot hold exactly).
fn above(n: usize, p: f64) -> f64 {
    n as f64 * (100.0 - p) / 100.0 + 1e-9
}

/// The `p`-th percentile (0..=100) of `sorted`, interpolating linearly
/// between the two nearest ranks. `sorted` must be ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `p`-th percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A timing summary: median, the tail the rule allows, and the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile with at least ten samples above it, and its
    /// value; `None` when there are too few samples for any tail.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Summarize raw samples.
    pub fn of(samples: &[f64]) -> Timing {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Timing {
            n: v.len(),
            p50: percentile_sorted(&v, 50.0),
            tail: tail_percentile(v.len()).map(|p| (p, percentile_sorted(&v, p))),
        }
    }

    /// One report line: `p50 … p<tail> … (n=…)`.
    pub fn line(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) if p > 50.0 => format!(
                "p50 {:.4} {unit}, p{p} {v:.4} {unit} (n={})",
                self.p50, self.n
            ),
            _ => format!(
                "p50 {:.4} {unit} (n={}, too few for a higher percentile)",
                self.p50, self.n
            ),
        }
    }
}

/// Histogram of per-call durations in whole nanoseconds: one bucket per
/// nanosecond below [`NsHist::LINEAR`], then one per power of two.
#[derive(Clone, Debug)]
pub struct NsHist {
    linear: Vec<u64>,
    log2: [u64; 64],
    n: u64,
    sum_ns: u128,
}

impl Default for NsHist {
    fn default() -> Self {
        NsHist {
            linear: vec![0; Self::LINEAR as usize],
            log2: [0; 64],
            n: 0,
            sum_ns: 0,
        }
    }
}

impl NsHist {
    /// Durations below this many ns get a bucket of their own.
    pub const LINEAR: u64 = 4096;

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        if ns < Self::LINEAR {
            self.linear[ns as usize] += 1;
        } else {
            self.log2[63 - ns.leading_zeros() as usize] += 1;
        }
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    /// Mean duration in ns (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64
        }
    }

    /// The `p`-th percentile in ns. Inside a bucket the samples are taken
    /// as evenly spread over its width (the grouped-data estimate), so a
    /// percentile moves continuously with the counts instead of snapping to
    /// whole nanoseconds. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = p / 100.0 * self.n as f64;
        let mut below = 0u64;
        let buckets = self
            .linear
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64, 1.0, c))
            .chain(
                self.log2
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| ((1u64 << k) as f64, (1u64 << k) as f64, c)),
            );
        let mut last = 0.0;
        for (lo, width, c) in buckets {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let inside = (target - below as f64).max(0.0) / c as f64;
                return lo + width * inside;
            }
            below += c;
            last = lo + width;
        }
        last
    }

    /// Summary in the same shape as [`Timing`].
    pub fn timing(&self) -> Timing {
        let n = self.n as usize;
        Timing {
            n,
            p50: self.percentile(50.0),
            tail: tail_percentile(n).map(|p| (p, self.percentile(p))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_above() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        // 288 rounds in a day: p95 leaves 14.4 above, p99 only 2.9.
        assert_eq!(tail_percentile(288), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000_000), Some(99.999));
        // The rule itself, at every size around each boundary.
        for n in 20..5000usize {
            let p = tail_percentile(n).unwrap();
            assert!(above(n, p) >= 10.0, "n={n} p={p}");
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(above(n, next) < 10.0, "n={n}: p{next} also qualifies");
            }
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&[4.0, 1.0], 50.0), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn timing_reports_the_rule_tail() {
        let v: Vec<f64> = (0..288).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t.n, 288);
        assert_eq!(t.p50, 143.5);
        let (p, val) = t.tail.unwrap();
        assert_eq!(p, 95.0);
        assert_eq!(val, percentile(&v, 95.0));
        assert!(Timing::of(&[1.0, 2.0]).tail.is_none());
        assert!(t.line("ms").starts_with("p50 143.5000 ms, p95 "));
        let few = Timing::of(&v[..50]);
        assert_eq!(few.tail.map(|t| t.0), Some(50.0));
        assert_eq!(
            few.line("ms"),
            "p50 24.5000 ms (n=50, too few for a higher percentile)"
        );
    }

    #[test]
    fn histogram_percentiles_spread_inside_buckets() {
        let mut h = NsHist::default();
        for _ in 0..100 {
            h.record(40);
        }
        for _ in 0..100 {
            h.record(50);
        }
        assert_eq!(h.timing().n, 200);
        assert_eq!(h.mean(), 45.0);
        // Half the mass sits in [40, 41): the median is its upper edge.
        assert!((h.percentile(50.0) - 41.0).abs() < 1e-9);
        assert!((h.percentile(25.0) - 40.5).abs() < 1e-9);
        assert!((h.percentile(75.0) - 50.5).abs() < 1e-9);
        h.record(10_000);
        assert_eq!(h.timing().n, 201);
        let top = h.percentile(100.0);
        assert!((8192.0..=16384.0).contains(&top), "{top}");
        assert_eq!(NsHist::default().percentile(50.0), 0.0);
    }
}
