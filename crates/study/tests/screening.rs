//! The screening pass against paper-exact probing.
//!
//! EXPERIMENTS.md claims the hourly screen-then-refine campaign gives the
//! verdicts of probing every link every 5 minutes: a link the screen drops
//! keeps its coarse series, and the excursion gate is a necessary condition
//! for any flaggable shift. This suite streams the same sample of VP5's
//! targets over the same eight weeks under [`CampaignConfig::paper`] and
//! [`CampaignConfig::exact`] and assesses every series the way the study
//! does, so the claim is checked rather than assumed.

use ixp_chgpt::DetectorScratch;
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::*;
use ixp_topology::{build_vp, paper_vps};
use tslp_core::campaign::{stream_vp_links, CampaignConfig};
use tslp_core::detect::{assess_at_thresholds_masked_with, AssessConfig};
use tslp_core::health::classify_link;

/// The default study seed (keep in sync with `VpStudyConfig::default`).
const SEED: u64 = 0xAF12_2017;

/// Responsive truth links probed: every 24th of the continent-scale VP's.
const LINKS: usize = 400;

/// Per link: screened out, flagged at 5 ms, flagged at 10 ms.
fn verdicts(
    net: &Network,
    vp: NodeId,
    targets: &[TslpTarget],
    cfg: &CampaignConfig,
) -> Vec<(bool, bool, bool)> {
    let acfg = AssessConfig::default();
    stream_vp_links(
        net,
        vp,
        targets,
        cfg,
        None,
        DetectorScratch::new,
        |scratch, _, _, series, screened| {
            let mask = classify_link(&series, &acfg.health);
            let sweep =
                assess_at_thresholds_masked_with(&series, &acfg, &[5.0, 10.0], &mask, scratch);
            (screened, sweep[0].1.flagged, sweep[1].1.flagged)
        },
    )
    .into_iter()
    .map(|r| r.expect("no worker panics"))
    .collect()
}

#[test]
fn screening_drops_no_link_exact_probing_flags() {
    let spec = paper_vps()[4].clone();
    let s = build_vp(&spec, SEED);
    let targets: Vec<TslpTarget> = s
        .links
        .iter()
        .filter(|t| t.responsive)
        .step_by(24)
        .take(LINKS)
        .map(|t| TslpTarget {
            dst: t.dst,
            near_ttl: t.near_ttl,
            far_ttl: t.far_ttl,
            near_addr: t.near,
            far_addr: t.far,
        })
        .collect();
    assert_eq!(
        targets.len(),
        LINKS,
        "VP5 substrate must carry {LINKS} sampled responsive truth links"
    );
    let start = spec.measure_start;
    let end = start + SimDuration::from_days(56);
    let paper = verdicts(&s.net, s.vp, &targets, &CampaignConfig::paper(start, end));
    let exact = verdicts(&s.net, s.vp, &targets, &CampaignConfig::exact(start, end));

    let dropped: Vec<usize> = (0..LINKS).filter(|&i| paper[i].0).collect();
    assert!(
        !dropped.is_empty() && dropped.len() < LINKS,
        "the screen must drop some links, not all"
    );
    assert!(exact.iter().all(|v| !v.0), "exact probing screens nothing");
    for &i in &dropped {
        assert!(
            !exact[i].1,
            "link {i}: screened out, yet flagged at 5 ms under exact probing"
        );
    }
    let flagged_10 =
        |v: &[(bool, bool, bool)]| -> Vec<usize> { (0..LINKS).filter(|&i| v[i].2).collect() };
    assert!(
        !flagged_10(&exact).is_empty(),
        "the sample must carry congested links"
    );
    assert_eq!(
        flagged_10(&paper),
        flagged_10(&exact),
        "10 ms verdicts differ between screened and exact probing"
    );
}
