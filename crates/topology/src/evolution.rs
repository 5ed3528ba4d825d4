//! Membership evolution.
//!
//! §6.1 documents heavy churn: GIXA's neighbor count drops 13 → 8 → 7 as
//! non-registered members are disconnected, while Liquid Telecom's neighbor
//! set grows from 244 to 1,215. [`windows_from_schedule`] produces, for a
//! target alive-count schedule, a deterministic set of `(join, leave)`
//! windows whose alive count matches every checkpoint exactly.
//!
//! Routing events (a transit shutdown, a link removed from an IXP) reach the
//! forwarding plane as `simnet::fault::Fault` plans, not through this module.

use crate::spec::CountAt;
use ixp_simnet::rng::HashNoise;
use ixp_simnet::time::{SimDuration, SimTime};

/// One entity's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lifetime {
    /// Join instant.
    pub join: SimTime,
    /// Departure instant; `None` = alive through the end.
    pub leave: Option<SimTime>,
}

impl Lifetime {
    /// Is the entity alive at `t`?
    pub fn alive_at(&self, t: SimTime) -> bool {
        t >= self.join && self.leave.map(|l| t < l).unwrap_or(true)
    }
}

/// Spread `n` instants strictly inside `(lo, hi)`, deterministically.
fn spread(lo: SimTime, hi: SimTime, n: usize, noise: &HashNoise, stream: u64) -> Vec<SimTime> {
    let span = hi.since(lo).as_micros();
    (0..n)
        .map(|i| {
            // Deterministic stratified jitter: slot i plus hash jitter.
            let slot = span * (i as u64 + 1) / (n as u64 + 1);
            let jitter = (noise.unit_f64(stream, i as u64) - 0.5) * (span as f64 / (n as f64 + 1.0)) * 0.8;
            let off = (slot as i64 + jitter as i64).clamp(1, span.saturating_sub(1).max(1) as i64);
            lo + SimDuration::from_micros(off as u64)
        })
        .collect()
}

/// Build lifetime windows so that exactly `schedule[k].count` entities are
/// alive at each checkpoint. `start` is when the initial population joins
/// (use a date before the campaign so bdrmap's first snapshot sees them).
///
/// Churn policy: departures retire the most recently joined entities first
/// (LIFO), which matches the intuition that long-standing members persist.
pub fn windows_from_schedule(
    schedule: &[CountAt],
    start: SimTime,
    noise: &HashNoise,
    stream: u64,
) -> Vec<Lifetime> {
    assert!(!schedule.is_empty(), "empty count schedule");
    for w in schedule.windows(2) {
        assert!(w[0].at < w[1].at, "schedule checkpoints out of order");
    }
    assert!(start < schedule[0].at, "start must precede the first checkpoint");

    let mut entities: Vec<Lifetime> = Vec::new();
    let mut alive: Vec<usize> = Vec::new(); // indices, join order

    // Initial population, all joining at `start`.
    for _ in 0..schedule[0].count {
        alive.push(entities.len());
        entities.push(Lifetime { join: start, leave: None });
    }

    for k in 1..schedule.len() {
        let prev_t = schedule[k - 1].at;
        let next_t = schedule[k].at;
        let target = schedule[k].count;
        if target > alive.len() {
            let n_new = target - alive.len();
            let joins = spread(prev_t, next_t, n_new, noise, stream ^ (k as u64) << 8);
            for j in joins {
                alive.push(entities.len());
                entities.push(Lifetime { join: j, leave: None });
            }
        } else if target < alive.len() {
            let n_gone = alive.len() - target;
            let leaves = spread(prev_t, next_t, n_gone, noise, stream ^ (k as u64) << 8 ^ 1);
            for (i, l) in leaves.into_iter().enumerate() {
                // LIFO: retire the most recent joiner still alive.
                let idx = alive[alive.len() - 1 - i];
                // A leave must not precede the entity's own join.
                entities[idx].leave = Some(l.max(entities[idx].join + SimDuration::from_days(1)));
            }
            alive.truncate(target);
        }
    }
    entities
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count how many of `windows` are alive at `t`.
    pub(super) fn alive_count(windows: &[Lifetime], t: SimTime) -> usize {
        windows.iter().filter(|w| w.alive_at(t)).count()
    }

    fn d(y: i32, m: u32, day: u32) -> SimTime {
        SimTime::from_date(y, m, day)
    }

    fn noise() -> HashNoise {
        HashNoise::new(99)
    }

    #[test]
    fn constant_schedule_all_survive() {
        let sched = vec![CountAt { at: d(2016, 3, 1), count: 10 }];
        let w = windows_from_schedule(&sched, d(2016, 1, 1), &noise(), 1);
        assert_eq!(w.len(), 10);
        assert_eq!(alive_count(&w, d(2017, 1, 1)), 10);
    }

    #[test]
    fn decline_matches_checkpoints() {
        // The GIXA purge: 13 → 8 → 7.
        let sched = vec![
            CountAt { at: d(2016, 3, 17), count: 13 },
            CountAt { at: d(2016, 6, 18), count: 8 },
            CountAt { at: d(2016, 11, 15), count: 7 },
        ];
        let w = windows_from_schedule(&sched, d(2016, 1, 15), &noise(), 2);
        assert_eq!(alive_count(&w, d(2016, 3, 17)), 13);
        assert_eq!(alive_count(&w, d(2016, 6, 18)), 8);
        assert_eq!(alive_count(&w, d(2016, 11, 15)), 7);
        assert_eq!(alive_count(&w, d(2017, 3, 27)), 7);
        // Departures fall inside the intervals.
        for e in &w {
            if let Some(l) = e.leave {
                assert!(l > d(2016, 3, 17) && l < d(2016, 11, 15));
            }
        }
    }

    #[test]
    fn growth_matches_checkpoints() {
        // The Liquid Telecom ramp: 244 → 1009 → 1018.
        let sched = vec![
            CountAt { at: d(2016, 3, 11), count: 244 },
            CountAt { at: d(2017, 3, 23), count: 1009 },
            CountAt { at: d(2017, 4, 7), count: 1018 },
        ];
        let w = windows_from_schedule(&sched, d(2016, 1, 15), &noise(), 3);
        assert_eq!(w.len(), 1018);
        assert_eq!(alive_count(&w, d(2016, 3, 11)), 244);
        assert_eq!(alive_count(&w, d(2017, 3, 23)), 1009);
        assert_eq!(alive_count(&w, d(2017, 4, 7)), 1018);
        // Growth is spread out: midway through the long interval roughly
        // half the new members have joined.
        let mid = alive_count(&w, d(2016, 9, 15));
        assert!((500..800).contains(&mid), "midway count {mid}");
    }

    #[test]
    fn up_down_up() {
        let sched = vec![
            CountAt { at: d(2016, 3, 1), count: 5 },
            CountAt { at: d(2016, 6, 1), count: 2 },
            CountAt { at: d(2016, 9, 1), count: 6 },
        ];
        let w = windows_from_schedule(&sched, d(2016, 1, 1), &noise(), 4);
        assert_eq!(alive_count(&w, d(2016, 3, 1)), 5);
        assert_eq!(alive_count(&w, d(2016, 6, 1)), 2);
        assert_eq!(alive_count(&w, d(2016, 9, 1)), 6);
    }

    #[test]
    fn deterministic() {
        let sched = vec![
            CountAt { at: d(2016, 3, 1), count: 30 },
            CountAt { at: d(2016, 8, 1), count: 12 },
        ];
        let a = windows_from_schedule(&sched, d(2016, 1, 1), &noise(), 5);
        let b = windows_from_schedule(&sched, d(2016, 1, 1), &noise(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn joins_never_after_leaves() {
        let sched = vec![
            CountAt { at: d(2016, 3, 1), count: 20 },
            CountAt { at: d(2016, 4, 1), count: 1 },
        ];
        let w = windows_from_schedule(&sched, d(2016, 2, 1), &noise(), 6);
        for e in &w {
            if let Some(l) = e.leave {
                assert!(l > e.join);
            }
        }
    }

    #[test]
    #[should_panic(expected = "start must precede")]
    fn bad_start_rejected() {
        let sched = vec![CountAt { at: d(2016, 1, 1), count: 1 }];
        windows_from_schedule(&sched, d(2016, 6, 1), &noise(), 7);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::alive_count;
    use super::*;
    use proptest::prelude::*;

    fn arb_schedule() -> impl Strategy<Value = Vec<CountAt>> {
        // 1-4 checkpoints, strictly increasing dates, counts 0..400.
        (1usize..=4, proptest::collection::vec(0usize..400, 4))
            .prop_map(|(n, counts)| {
                (0..n)
                    .map(|k| CountAt {
                        at: SimTime::from_date(2016, 2 + k as u32 * 3, 10),
                        count: counts[k],
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The alive count matches every checkpoint exactly, for arbitrary
        /// up/down schedules and seeds.
        #[test]
        fn counts_match_all_checkpoints(sched in arb_schedule(), seed in 0u64..10_000) {
            let noise = HashNoise::new(seed);
            let w = windows_from_schedule(&sched, SimTime::from_date(2016, 1, 5), &noise, 0x77);
            for c in &sched {
                prop_assert_eq!(alive_count(&w, c.at), c.count, "at {}", c.at);
            }
            // Windows are well-formed.
            for e in &w {
                if let Some(l) = e.leave {
                    prop_assert!(l > e.join);
                }
            }
            // Total entities never exceeds the sum of increases.
            let max_possible: usize = sched.iter().map(|c| c.count).sum::<usize>().max(1);
            prop_assert!(w.len() <= max_possible);
        }
    }
}
