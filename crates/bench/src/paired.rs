//! The one timing protocol of the overhead gates (`health`, `obs`,
//! `resilience`, `trace`; DESIGN.md §5.20): one warm-up pass, then
//! [`PASSES`] timed passes ([`passes`]); within a pass each item runs
//! through every arm back to back ([`time_item`]), the first arm rotating
//! with `pass + item` ([`order`]); the gated value is the median over
//! passes of each bench's per-pass statistic, beside its interquartile
//! range ([`Overhead`]), from the quartiles `bench-gate ab` uses. Timing
//! noise on a shared host is heavy-tailed, so a median, not a minimum
//! (the luckiest arm) or a mean (the spike).

use crate::ab::quartiles;
use crate::record::Record;
use std::time::Instant;

/// Timed passes per measurement (odd, so the median is one pass's reading).
pub const PASSES: usize = 11;

/// The order in which item `item` of pass `pass` runs its arms: arm
/// `(pass + item) % ARMS` first, then the others in rotation.
pub fn order<const ARMS: usize>(pass: usize, item: usize) -> [usize; ARMS] {
    std::array::from_fn(|k| (pass + item + k) % ARMS)
}

/// Run `arm(a)` once for every arm `a`, in [`order`], timing each call;
/// nanoseconds per arm.
pub fn time_item<const ARMS: usize>(
    pass: usize,
    item: usize,
    mut arm: impl FnMut(usize),
) -> [f64; ARMS] {
    let mut ns = [0.0; ARMS];
    for a in order::<ARMS>(pass, item) {
        let t = Instant::now();
        arm(a);
        ns[a] = t.elapsed().as_nanos() as f64;
    }
    ns
}

/// [`time_item`] over items `0..items` of pass `pass`, summed per arm;
/// `arm(a, item)` runs arm `a` on `item`.
pub fn time_pass<const ARMS: usize>(
    pass: usize,
    items: usize,
    mut arm: impl FnMut(usize, usize),
) -> [f64; ARMS] {
    (0..items).map(|i| time_item(pass, i, |a| arm(a, i))).fold([0.0; ARMS], add)
}

/// Per-arm sum of two timings.
pub fn add<const ARMS: usize>(a: [f64; ARMS], b: [f64; ARMS]) -> [f64; ARMS] {
    std::array::from_fn(|k| a[k] + b[k])
}

/// One warm-up pass, then [`PASSES`] timed ones; what each timed pass
/// returned. `pass(p)` runs pass `p` (the warm-up runs as pass 0).
pub fn passes<T>(mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    pass(0);
    (0..PASSES).map(pass).collect()
}

/// The median of `values`.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quartiles(&values.into_iter().collect::<Vec<_>>()).1
}

/// A measured overhead in percent: the median over passes of a per-pass
/// statistic, and that statistic's interquartile range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Overhead {
    /// Median over passes.
    pub pct: f64,
    /// Third minus first quartile over passes.
    pub iqr_pct: f64,
}

impl Overhead {
    /// Summarise per-pass overheads given as fractions (0.15 is 15% slower).
    pub fn of(per_pass: impl IntoIterator<Item = f64>) -> Overhead {
        let pct: Vec<f64> = per_pass.into_iter().map(|f| f * 100.0).collect();
        let (q1, median, q3) = quartiles(&pct);
        Overhead { pct: median, iqr_pct: q3 - q1 }
    }

    /// Write this as the record's gated `overhead_pct`, with
    /// `overhead_iqr_pct` and the pass count beside it.
    pub fn write(&self, rec: &mut Record) {
        rec.regime("passes", PASSES as u64);
        rec.metric("overhead_pct", "%", self.pct).metric("overhead_iqr_pct", "%", self.iqr_pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::judge;

    /// The overhead of eleven synthetic passes `[plain, slow]`: `slow`
    /// reads `1 + extra` times `plain`, the plain time drifts from pass to
    /// pass, and each `(pass, arm)` in `spikes` reads 2× on that arm.
    fn overhead(extra: f64, spikes: &[(usize, usize)]) -> Overhead {
        Overhead::of((0..PASSES).map(|p| {
            let mut pass = [1.0, 1.0 + extra].map(|x| x * 1e6 * (1.0 + 0.01 * (p % 4) as f64));
            spikes.iter().filter(|s| s.0 == p).for_each(|&(_, arm)| pass[arm] *= 2.0);
            pass[1] / pass[0] - 1.0
        }))
    }

    #[test]
    fn equal_arms_read_zero() {
        assert_eq!(overhead(0.0, &[]), Overhead { pct: 0.0, iqr_pct: 0.0 });
        assert_eq!(overhead(0.0, &[(1, 0), (5, 1), (9, 1)]).pct, 0.0);
    }

    #[test]
    fn a_slower_arm_reads_its_slowdown_through_spikes_and_fails_a_ceiling() {
        let spike_sets: [&[(usize, usize)]; 4] =
            [&[], &[(0, 0), (4, 0), (8, 0)], &[(2, 1), (3, 1), (10, 1)], &[(1, 0), (6, 1), (7, 1)]];
        for spikes in spike_sets {
            let o = overhead(0.15, spikes);
            assert!((o.pct - 15.0).abs() <= 1.0, "{spikes:?}: read {}%", o.pct);
            let mut rec = Record::new("obs");
            o.write(&mut rec);
            assert_eq!(rec.regime["passes"], PASSES as u64);
            let blocked = judge("obs", &rec, None).iter().any(|j| j.blocks(false));
            assert!(blocked, "{spikes:?}: {}% passed the 3% ceiling", o.pct);
        }
    }

    #[test]
    fn every_arm_goes_first_equally_often() {
        fn equal_shares<const ARMS: usize>(items: usize) -> bool {
            let mut firsts = [0usize; ARMS];
            for (p, i) in (0..PASSES).flat_map(|p| (0..items).map(move |i| (p, i))) {
                firsts[order::<ARMS>(p, i)[0]] += 1;
            }
            firsts.iter().all(|&n| n.abs_diff(PASSES * items / ARMS) <= 1)
        }
        for items in [1, 2, 3, 8, 16, 288] {
            assert!(equal_shares::<2>(items) && equal_shares::<3>(items), "{items} items");
        }
        // Every item runs every arm exactly once.
        let mut o = order::<3>(4, 7);
        o.sort_unstable();
        assert_eq!(o, [0, 1, 2]);
    }
}
