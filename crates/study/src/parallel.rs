//! Running several vantage points concurrently.
//!
//! The six VPs are fully independent (separate networks, separate probing),
//! so the campaign parallelizes perfectly across them. Crossbeam scoped
//! threads keep borrows simple; results come back in spec order.
//!
//! This is the outer of two parallelism levels: within each VP,
//! [`run_vp_study`](crate::run_vp_study) hands its target list to
//! `stream_vp_links_rec`, which fans out at *link* granularity over a
//! work-stealing pool against the shared immutable `&Network`, measuring
//! and assessing each link in one worker pass (see DESIGN.md §5.11 and
//! `VpStudyConfig::threads`).
//! Both levels are deterministic — each target's walk seeds its own
//! `ProbeCtx` — so output is bit-identical at any thread count.

use crate::vpstudy::{run_vp_study_rec, VpStudy, VpStudyConfig};
use ixp_obs::{NoopRecorder, Recorder};
use ixp_topology::VpSpec;

/// Run a study for every spec, one thread per VP (bounded by the platform).
pub fn run_all_vps(specs: &[VpSpec], cfg: &VpStudyConfig) -> Vec<VpStudy> {
    run_all_vps_rec(specs, cfg, &NoopRecorder)
}

/// [`run_all_vps`] with telemetry: all VP studies share one recorder. Stage
/// paths are namespaced per VP (`vp/<name>/…`), per-link ledgers are keyed by
/// address pair, and counter merges are commutative — so the combined
/// snapshot is identical no matter how the VP threads interleave.
pub fn run_all_vps_rec<R: Recorder + Sync>(
    specs: &[VpSpec],
    cfg: &VpStudyConfig,
    rec: &R,
) -> Vec<VpStudy> {
    let mut slots: Vec<Option<VpStudy>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    crossbeam::thread::scope(|scope| {
        for (slot, spec) in slots.iter_mut().zip(specs) {
            let cfg = cfg.clone();
            scope.spawn(move |_| {
                *slot = Some(run_vp_study_rec(spec, &cfg, rec));
            });
        }
    })
    .expect("a VP study thread panicked");
    slots.into_iter().map(|s| s.expect("missing study result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpstudy::run_vp_study;
    use ixp_simnet::prelude::SimTime;
    use ixp_topology::paper_vps;

    #[test]
    fn parallel_matches_sequential() {
        // Two small VPs over a short window; parallel must equal sequential.
        let specs: Vec<VpSpec> = vec![paper_vps()[0].clone(), paper_vps()[3].clone()];
        let cfg = VpStudyConfig {
            window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 3, 22))),
            with_loss: false,
            with_rr: false,
            keep_series: false,
            ..Default::default()
        };
        let par = run_all_vps(&specs, &cfg);
        let seq: Vec<_> = specs.iter().map(|s| run_vp_study(s, &cfg)).collect();
        assert_eq!(par.len(), 2);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.spec.name, s.spec.name);
            assert_eq!(p.outcomes.len(), s.outcomes.len());
            assert_eq!(p.snapshots[0].links, s.snapshots[0].links);
            for (po, so) in p.outcomes.iter().zip(&s.outcomes) {
                assert_eq!(po.far, so.far);
                assert_eq!(po.assessment.flagged, so.assessment.flagged);
            }
        }
    }
}
