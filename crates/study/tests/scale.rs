//! Continent-scale smoke: a ~1k-link generated substrate routed through the
//! streaming campaign, end to end, in one short midday window. Wired into
//! `scripts/check.sh` as the scaling gate — it proves the generator, the
//! prefix-indexed forwarding, and the streaming measure-and-drop pass hold
//! together at three orders of magnitude above the paper topology without
//! taking bench-scale time.

use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::*;
use ixp_topology::{build_continent, ContinentSpec};
use tslp_core::campaign::{stream_vp_links, CampaignConfig};

#[test]
fn thousand_link_continent_streams_end_to_end() {
    let spec = ContinentSpec::with_total_links(1_000);
    let cont = build_continent(&spec, 0x5_CA1E_2017);
    let targets: Vec<TslpTarget> = cont
        .links
        .iter()
        .map(|l| TslpTarget {
            dst: l.dst,
            near_ttl: l.near_ttl,
            far_ttl: l.far_ttl,
            near_addr: l.near,
            far_addr: l.far,
        })
        .collect();
    assert!(
        targets.len() >= 650 && targets.len() <= 1_350,
        "generator missed the 1k target: {}",
        targets.len()
    );

    // Six midday hours (the congested plateau runs 9–17h): 72 rounds per
    // link, enough for every TTL rung and a clear congestion signature.
    let start = SimTime(SimTime::from_date(2016, 3, 1).0 + SimDuration::from_mins(10 * 60).as_micros());
    let end = SimTime(start.0 + SimDuration::from_mins(6 * 60).as_micros());
    let cfg = CampaignConfig::exact(start, end);

    // Stream every link: each series is summarized and dropped inside the
    // consumer, exactly as the full study does.
    let out = stream_vp_links(&cont.net, cont.vp, &targets, &cfg, None, || (), |_, i, _, series, _| {
        let (far, _) = series.far_clean();
        let mean = far.iter().sum::<f64>() / far.len().max(1) as f64;
        (series.len(), series.far_validity(), mean, cont.links[i].congested)
    });

    assert_eq!(out.len(), targets.len());
    let rows: Vec<_> = out.into_iter().map(|r| r.expect("no link may quarantine")).collect();

    let mut hot = (0.0f64, 0u32);
    let mut cool = (0.0f64, 0u32);
    for &(len, validity, mean, congested) in &rows {
        assert_eq!(len, 72, "every link gets the full window");
        assert!(validity > 0.95, "far responses must come back: {validity}");
        if congested {
            hot = (hot.0 + mean, hot.1 + 1);
        } else {
            cool = (cool.0 + mean, cool.1 + 1);
        }
    }
    assert!(hot.1 > 0, "the 2% congested fraction must materialize at 1k links");
    let (hot_ms, cool_ms) = (hot.0 / hot.1 as f64, cool.0 / cool.1 as f64);
    assert!(
        hot_ms > cool_ms + 4.0,
        "congested links must ride the midday plateau: hot {hot_ms:.2}ms vs cool {cool_ms:.2}ms"
    );
}
