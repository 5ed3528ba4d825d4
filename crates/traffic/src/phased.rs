//! Phase-structured loads: scenarios change regime on specific dates.
//!
//! The paper's case studies are narrated in phases with sharp boundaries:
//! GIXA–GHANATEL *phase 1* (03/03–14/06/2016, transit link congested) gives
//! way to *phase 2* (15/06–06/08/2016, link repurposed for peering) when
//! "GHANATEL shut off the transit service"; QCELL–NETPAGE's diurnal waveform
//! disappears at the 28/04/2016 capacity upgrade. [`PhasedLoad`] composes
//! any sequence of [`OfferedLoad`]s along a timeline.

use ixp_simnet::link::OfferedLoad;
use ixp_simnet::time::SimTime;
use std::sync::Arc;

/// An offered load that switches between regimes at fixed instants.
pub struct PhasedLoad {
    // (start, load); sorted by start. Before the first start: zero load.
    phases: Vec<(SimTime, Arc<dyn OfferedLoad>)>,
}

impl PhasedLoad {
    /// Build from `(start, load)` pairs; sorts by start time.
    pub fn new(mut phases: Vec<(SimTime, Arc<dyn OfferedLoad>)>) -> PhasedLoad {
        assert!(!phases.is_empty(), "a phased load needs at least one phase");
        phases.sort_by_key(|p| p.0);
        PhasedLoad { phases }
    }

    /// A builder-style single-phase load starting at `t`.
    pub fn starting(t: SimTime, load: Arc<dyn OfferedLoad>) -> PhasedLoad {
        PhasedLoad::new(vec![(t, load)])
    }

    /// Append a phase beginning at `t` (must not predate the last phase).
    pub fn then(mut self, t: SimTime, load: Arc<dyn OfferedLoad>) -> PhasedLoad {
        assert!(t >= self.phases.last().unwrap().0, "phases must be appended in order");
        self.phases.push((t, load));
        self
    }

    fn active(&self, t: SimTime) -> Option<&Arc<dyn OfferedLoad>> {
        match self.phases.binary_search_by_key(&t, |p| p.0) {
            Ok(i) => Some(&self.phases[i].1),
            Err(0) => None,
            Err(i) => Some(&self.phases[i - 1].1),
        }
    }
}

impl OfferedLoad for PhasedLoad {
    fn bps(&self, t: SimTime) -> f64 {
        self.active(t).map(|l| l.bps(t)).unwrap_or(0.0)
    }

    fn peak_bps(&self) -> f64 {
        self.phases.iter().map(|(_, l)| l.peak_bps()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_simnet::link::ConstantLoad;

    #[test]
    fn switches_at_boundaries() {
        let p = PhasedLoad::starting(SimTime::from_date(2016, 3, 3), Arc::new(ConstantLoad(1e8)))
            .then(SimTime::from_date(2016, 6, 15), Arc::new(ConstantLoad(2e7)));
        assert_eq!(p.bps(SimTime::from_date(2016, 2, 1)), 0.0);
        assert_eq!(p.bps(SimTime::from_date(2016, 3, 3)), 1e8);
        assert_eq!(p.bps(SimTime::from_date(2016, 6, 14)), 1e8);
        assert_eq!(p.bps(SimTime::from_date(2016, 6, 15)), 2e7);
        assert_eq!(p.bps(SimTime::from_date(2017, 1, 1)), 2e7);
        assert_eq!(p.phases.len(), 2);
    }

    #[test]
    fn peak_is_max_over_phases() {
        let p = PhasedLoad::new(vec![
            (SimTime::ZERO, Arc::new(ConstantLoad(5e7)) as Arc<dyn OfferedLoad>),
            (SimTime::from_date(2016, 7, 1), Arc::new(ConstantLoad(3e8)) as Arc<dyn OfferedLoad>),
        ]);
        assert_eq!(p.peak_bps(), 3e8);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let p = PhasedLoad::new(vec![
            (SimTime::from_date(2016, 7, 1), Arc::new(ConstantLoad(2.0)) as Arc<dyn OfferedLoad>),
            (SimTime::ZERO, Arc::new(ConstantLoad(1.0)) as Arc<dyn OfferedLoad>),
        ]);
        assert_eq!(p.bps(SimTime::from_date(2016, 1, 15)), 1.0);
        assert_eq!(p.bps(SimTime::from_date(2016, 8, 1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn then_rejects_backwards() {
        let _ = PhasedLoad::starting(SimTime::from_date(2016, 6, 1), Arc::new(ConstantLoad(1.0)))
            .then(SimTime::from_date(2016, 5, 1), Arc::new(ConstantLoad(2.0)));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_rejected() {
        let _ = PhasedLoad::new(vec![]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ixp_simnet::link::ConstantLoad;
    use proptest::prelude::*;

    proptest! {
        /// At any instant the phased load equals exactly the load of the
        /// active phase (or zero before the first), and peak_bps bounds bps.
        #[test]
        fn phased_matches_active_phase(
            starts in proptest::collection::vec(0u64..1000, 1..6),
            probe in 0u64..1200,
        ) {
            let mut sorted = starts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let phases: Vec<(SimTime, Arc<dyn OfferedLoad>)> = sorted
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    (SimTime(d * 86_400_000_000), Arc::new(ConstantLoad((i + 1) as f64 * 1e6)) as Arc<dyn OfferedLoad>)
                })
                .collect();
            let p = PhasedLoad::new(phases);
            let t = SimTime(probe * 86_400_000_000);
            let expect = sorted.iter().filter(|&&d| d <= probe).count() as f64 * 1e6;
            prop_assert_eq!(p.bps(t), expect);
            prop_assert!(p.bps(t) <= p.peak_bps());
        }
    }
}
