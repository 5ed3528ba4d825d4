//! End-to-end integration tests: substrate → bdrmap → TSLP → assessment,
//! exercising the decision chain of §5.2 across crate boundaries.

use african_ixp_congestion::prober::prelude::*;
use african_ixp_congestion::prober::tslp::TslpTarget;
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::study::prelude::*;
use african_ixp_congestion::topology::paper_vps;
use african_ixp_congestion::traffic::{DiurnalLoad, Shape};
use african_ixp_congestion::tslp::prelude::*;
use std::sync::Arc;

/// A small custom network where congestion sits on the *internal* link —
/// the near-side guard must reject the far elevation.
#[test]
fn near_guard_rejects_upstream_congestion() {
    let mut net = Network::new(91);
    let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
    let core = net.add_node(NodeKind::Router, Asn(1), "core");
    let border = net.add_node(NodeKind::Router, Asn(1), "border");
    let peer = net.add_node(NodeKind::Router, Asn(2), "peer");

    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), core, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    // Internal core→border link is the congested one.
    let hot = LinkConfig {
        capacity_bps: Schedule::constant(1e8),
        buffer_bytes: Schedule::constant(250_000.0),
        ..LinkConfig::default()
    };
    let load = DiurnalLoad {
        base_bps: 5.5e7,
        weekday_peak_bps: 5.5e7,
        weekend_peak_bps: 5.5e7,
        shape: Shape::Plateau { start_hour: 9.0, end_hour: 17.0, ramp_hours: 2.0 },
        noise_frac: 0.03,
        noise_bin: SimDuration::from_mins(5),
        noise: net.noise().child(9, 9),
    };
    net.connect(core, Ipv4::new(10, 0, 1, 1), border, Ipv4::new(10, 0, 1, 2), hot, Arc::new(load), Arc::new(NoLoad));
    // Healthy interdomain link.
    net.connect_idle(border, Ipv4::new(10, 0, 2, 1), peer, Ipv4::new(10, 0, 2, 2), LinkConfig::default());

    let prefix: Prefix = "41.9.0.0/24".parse().unwrap();
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
    net.add_route(core, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
    net.add_route(core, Prefix::DEFAULT, IfaceId(1));
    net.add_route(border, Prefix::DEFAULT, IfaceId(0));
    net.add_route(border, prefix, IfaceId(1));
    net.add_route(peer, Prefix::DEFAULT, IfaceId(0));
    net.add_route(peer, prefix, IfaceId(0));

    let target = TslpTarget {
        dst: prefix.addr(9),
        near_ttl: 2, // border
        far_ttl: 3,  // peer
        near_addr: Ipv4::new(10, 0, 1, 2),
        far_addr: Ipv4::new(10, 0, 2, 2),
    };
    let campaign = CampaignConfig::exact(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 22));
    let (series, _) = measure_link(&net, vp, &target, &campaign);
    let a = assess_link(&series, &AssessConfig::default(), &HealthReport::clean(), &mut DetectorScratch::new());
    // Far series rises diurnally (it crosses the hot internal link), but so
    // does the near series: the link must NOT be called congested.
    assert!(a.flagged, "the elevation itself must be seen");
    assert_eq!(a.near_guard, NearGuard::CoincidentShifts);
    assert!(!a.congested);
}

/// Threshold sensitivity end-to-end: a ~12 ms diurnal queue is potentially
/// congested at 5 and 10 ms but disappears at 15/20 ms (Table 1 mechanics).
#[test]
fn threshold_sweep_end_to_end() {
    let mut net = Network::new(92);
    let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
    let border = net.add_node(NodeKind::Router, Asn(1), "border");
    let peer = net.add_node(NodeKind::Router, Asn(2), "peer");
    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), border, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    let port = LinkConfig {
        capacity_bps: Schedule::constant(1e8),
        buffer_bytes: Schedule::constant(150_000.0), // 12 ms at 100 Mbps
        ..LinkConfig::default()
    };
    let load = DiurnalLoad {
        base_bps: 6e7,
        weekday_peak_bps: 5e7,
        weekend_peak_bps: 5e7,
        shape: Shape::Plateau { start_hour: 11.0, end_hour: 15.0, ramp_hours: 1.5 },
        noise_frac: 0.02,
        noise_bin: SimDuration::from_mins(5),
        noise: net.noise().child(3, 3),
    };
    net.connect(border, Ipv4::new(10, 0, 1, 1), peer, Ipv4::new(196, 49, 14, 30), port, Arc::new(load), Arc::new(NoLoad));
    let prefix: Prefix = "41.8.0.0/24".parse().unwrap();
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
    net.add_route(border, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
    net.add_route(border, prefix, IfaceId(1));
    net.add_route(peer, Prefix::DEFAULT, IfaceId(0));
    net.add_route(peer, prefix, IfaceId(0));

    let target = TslpTarget {
        dst: prefix.addr(9),
        near_ttl: 1,
        far_ttl: 2,
        near_addr: Ipv4::new(10, 0, 0, 1),
        far_addr: Ipv4::new(196, 49, 14, 30),
    };
    let campaign = CampaignConfig::exact(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 29));
    let (series, _) = measure_link(&net, vp, &target, &campaign);
    let sweep = assess_at_thresholds_masked_with(
        &series,
        &AssessConfig::default(),
        &[5.0, 10.0, 15.0, 20.0],
        &HealthReport::clean(),
        &mut DetectorScratch::new(),
    );
    let flags: Vec<bool> = sweep.iter().map(|(_, a)| a.flagged).collect();
    assert_eq!(flags, vec![true, true, false, false], "{flags:?}");
    assert!(sweep[0].1.diurnal && sweep[1].1.diurnal);
}

/// Asymmetric return path: the RR check must catch it, and the §6.1 link
/// verdict must not count an asymmetric candidate as congested.
#[test]
fn rr_asymmetry_detected_end_to_end() {
    let mut net = Network::new(93);
    let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
    let border = net.add_node(NodeKind::Router, Asn(1), "border");
    let peer = net.add_node(NodeKind::Router, Asn(2), "peer");
    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), border, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    net.connect_idle(border, Ipv4::new(10, 0, 1, 1), peer, Ipv4::new(10, 0, 1, 2), LinkConfig::default());
    // Parallel return-only link.
    net.connect_idle(peer, Ipv4::new(10, 0, 3, 1), border, Ipv4::new(10, 0, 3, 2), LinkConfig::default());
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
    net.add_route(border, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
    net.add_route(border, "10.0.1.2/32".parse().unwrap(), IfaceId(1));
    // Peer returns everything via the second link.
    let back = net.node(peer).iface_by_addr(Ipv4::new(10, 0, 3, 1)).unwrap();
    net.add_route(peer, Prefix::DEFAULT, back);

    let mut links = std::collections::HashMap::new();
    for nid in net.node_ids() {
        for iface in &net.node(nid).ifaces {
            if let Some((lid, _)) = iface.link {
                links.insert(iface.addr, lid.0 as u64);
            }
        }
    }
    let resolve = |a: Ipv4| links.get(&a).copied();
    let mut ctx = net.probe_ctx(0);
    let verdict = record_route_symmetry(&net, &mut ctx, vp, Ipv4::new(10, 0, 1, 2), resolve, SimTime::ZERO);
    assert_eq!(verdict, Symmetry::Asymmetric);
}

/// The QCELL–NETPAGE story end to end over a short window, through the full
/// study orchestration (discovery included).
#[test]
fn netpage_detected_and_transient() {
    let spec = &paper_vps()[3];
    let cfg = VpStudyConfig {
        window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 6, 1))),
        with_loss: false,
        keep_series: false,
        ..Default::default()
    };
    let study = run_vp_study(spec, &cfg);
    let netpage = study.outcomes.iter().find(|o| o.far_name == "NETPAGE").expect("NETPAGE discovered");
    assert!(netpage.congested(), "NETPAGE must be called congested");
    assert_eq!(netpage.assessment.sustained, Some(false), "mitigated by the upgrade");
    assert_eq!(netpage.symmetry, Some(Symmetry::Symmetric));
    // No healthy link is called congested.
    let c = confusion(&study);
    assert_eq!(c.false_positives, 0, "{c:?}");
    assert!(c.true_positives >= 1);
}

/// Loss probing ties into events: during NETPAGE phase-1 events loss is
/// substantial; after the upgrade it vanishes.
#[test]
fn loss_correlates_with_congestion() {
    let spec = &paper_vps()[3];
    let substrate = african_ixp_congestion::topology::build_vp(spec, 0xAF12_2017);
    let netpage = substrate.links.iter().find(|l| l.far_name == "NETPAGE").unwrap().clone();
    let lc = LossCampaignConfig {
        start: SimTime::from_datetime(2016, 3, 9, 11, 0, 0), // Wed, phase-1 peak
        end: SimTime::from_datetime(2016, 3, 9, 15, 0, 0),
        every: SimDuration::from_hours(1),
        batch_size: 100,
        probe_interval: SimDuration::from_secs(1),
    };
    let during = measure_loss_series(&substrate.net, substrate.vp, netpage.dst, netpage.far_ttl, &lc);
    assert!(during.mean() > 0.05, "peak-hour loss {}", during.mean());

    let lc2 = LossCampaignConfig {
        start: SimTime::from_datetime(2016, 6, 8, 11, 0, 0), // after the upgrade
        end: SimTime::from_datetime(2016, 6, 8, 15, 0, 0),
        ..lc
    };
    // No reset needed: measure_loss_series walks a fresh per-call ProbeCtx.
    let after = measure_loss_series(&substrate.net, substrate.vp, netpage.dst, netpage.far_ttl, &lc2);
    assert!(after.mean() < 0.02, "post-upgrade loss {}", after.mean());
}
