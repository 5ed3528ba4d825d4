//! Rank transform for non-parametric change-point analysis.
//!
//! The paper's detector "identifies changes in the direction of the
//! rank-based non-parametric statistical cumulative sum (CUSUM) test" (§5.2).
//! Working on ranks instead of raw RTTs makes the statistic insensitive to
//! the heavy-tailed spikes ICMP time series are full of (a single 500 ms
//! outlier moves a mean-CUSUM a lot, but only one rank step).

use crate::scratch::DetectorScratch;

/// Sort the indices of `values` into `idx` and call `emit(members, i, j)`
/// for each tie run, `members` being the original indices occupying sorted
/// positions `[i, j)`. The index sort is unstable — output-identical to a
/// stable sort, because every member of a tie run receives the same
/// averaged rank no matter how the run is ordered internally.
fn for_each_tie_run(values: &[f64], idx: &mut Vec<usize>, mut emit: impl FnMut(&[usize], usize, usize)) {
    let n = values.len();
    idx.clear();
    idx.extend(0..n);
    idx.sort_unstable_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN in series"));
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && values[idx[j]] == values[idx[i]] {
            j += 1;
        }
        emit(&idx[i..j], i, j);
        i = j;
    }
}

/// Core of [`rank_transform`] over caller-provided buffers.
pub(crate) fn rank_into(values: &[f64], idx: &mut Vec<usize>, out: &mut Vec<f64>) {
    out.clear();
    out.resize(values.len(), 0.0);
    for_each_tie_run(values, idx, |members, i, j| {
        // Average rank of positions i..j (1-based ranks i+1 ..= j).
        let avg = (i + 1 + j) as f64 / 2.0;
        for &k in members {
            out[k] = avg;
        }
    });
}

/// Doubled, centred mid-ranks `d = 2·rank − (n+1)` — exact integers that
/// sum to zero — for the integer rank bootstrap
/// (`cusum::rank_bootstrap_core`). A tie run at sorted positions `[i, j)`
/// has mid-rank `(i + 1 + j) / 2`, so `d = i + j − n`.
pub(crate) fn centred_rank_into(values: &[f64], idx: &mut Vec<usize>, out: &mut Vec<i64>) {
    let n = values.len() as i64;
    out.clear();
    out.resize(values.len(), 0);
    for_each_tie_run(values, idx, |members, i, j| {
        let d = (i + j) as i64 - n;
        for &k in members {
            out[k] = d;
        }
    });
}

/// Replace each value by its 1-based rank; ties receive the average of the
/// ranks they span (the standard mid-rank convention). The returned slice
/// borrows `scratch` and is valid until the next call that uses it.
pub fn rank_transform<'a>(values: &[f64], scratch: &'a mut DetectorScratch) -> &'a [f64] {
    let DetectorScratch { ranks, sort_idx, .. } = scratch;
    rank_into(values, sort_idx, ranks);
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mid-ranks of `values` through a fresh scratch.
    fn ranks(values: &[f64]) -> Vec<f64> {
        rank_transform(values, &mut DetectorScratch::new()).to_vec()
    }

    #[test]
    fn simple_ranks() {
        assert_eq!(ranks(&[10.0, 30.0, 20.0]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn ties_get_midranks() {
        // 5,5 occupy ranks 2 and 3 → both 2.5.
        assert_eq!(ranks(&[1.0, 5.0, 5.0, 9.0]), vec![1.0, 2.5, 2.5, 4.0]);
        // All equal.
        assert_eq!(ranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn empty_and_single() {
        assert!(ranks(&[]).is_empty());
        assert_eq!(ranks(&[42.0]), vec![1.0]);
    }

    /// One scratch reused across inputs of other lengths ranks each exactly
    /// like a fresh one.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let mut scratch = DetectorScratch::new();
        let cases: [&[f64]; 5] = [
            &[3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 2.6],
            &[],
            &[42.0],
            &[1.0, 5.0, 5.0, 9.0],
            &[2.0, 1.0],
        ];
        for values in cases {
            assert_eq!(rank_transform(values, &mut scratch), ranks(values));
        }
    }

    #[test]
    fn centred_ranks_are_doubled_centred_midranks() {
        let (mut idx, mut d) = (Vec::new(), Vec::new());
        let cases: [&[f64]; 4] =
            [&[], &[42.0], &[1.0, 5.0, 5.0, 9.0], &[3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 2.6, 3.0]];
        for values in cases {
            centred_rank_into(values, &mut idx, &mut d);
            let n = values.len() as f64;
            let want: Vec<i64> = ranks(values).iter().map(|r| (2.0 * r - (n + 1.0)) as i64).collect();
            assert_eq!(d, want, "{values:?}");
            assert_eq!(d.iter().sum::<i64>(), 0);
        }
    }

    #[test]
    fn monotone_invariance() {
        // Ranks are invariant under any strictly increasing transform.
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6];
        let ys: Vec<f64> = xs.iter().map(|v: &f64| v.exp()).collect();
        assert_eq!(ranks(&xs), ranks(&ys));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Ranks are a permutation-with-ties of 1..=n: they sum to n(n+1)/2.
        #[test]
        fn ranks_sum_invariant(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut scratch = DetectorScratch::new();
            let r = rank_transform(&values, &mut scratch);
            let n = values.len() as f64;
            let sum: f64 = r.iter().sum();
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        }

        /// Order is preserved: v[i] < v[j] implies rank[i] < rank[j].
        #[test]
        fn ranks_preserve_order(values in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
            let mut scratch = DetectorScratch::new();
            let r = rank_transform(&values, &mut scratch);
            for i in 0..values.len() {
                for j in 0..values.len() {
                    if values[i] < values[j] {
                        prop_assert!(r[i] < r[j]);
                    }
                }
            }
        }
    }
}
