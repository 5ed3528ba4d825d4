//! Failure injection: the pipeline must degrade the way §5.2 describes —
//! tagging links "unclear" or leaving them unflagged — rather than invent
//! congestion when routers rate-limit ICMP, go silent mid-campaign, or
//! drop probes randomly.

use african_ixp_congestion::prober::tslp::TslpTarget;
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::tslp::prelude::*;
use std::sync::Arc;

fn line() -> (Network, NodeId, TslpTarget) {
    let mut net = Network::new(123);
    let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
    let border = net.add_node(NodeKind::Router, Asn(1), "border");
    let peer = net.add_node(NodeKind::Router, Asn(2), "peer");
    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), border, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    net.connect_idle(border, Ipv4::new(10, 0, 1, 1), peer, Ipv4::new(10, 0, 1, 2), LinkConfig::default());
    let prefix: Prefix = "41.5.0.0/24".parse().unwrap();
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
        far_addr: Ipv4::new(10, 0, 1, 2),
    };
    (net, vp, target)
}

/// The default assessment under `mask` (a clean report masks nothing).
fn assess_masked(series: &LinkSeries, mask: &HealthReport) -> Assessment {
    assess_link(series, &AssessConfig::default(), mask, &mut DetectorScratch::new())
}

fn week_campaign() -> CampaignConfig {
    CampaignConfig::exact(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 15))
}

#[test]
fn icmp_rate_limited_far_router_not_flagged() {
    let (mut net, vp, target) = line();
    // Severe rate limiting: most probes unanswered, survivors normal.
    net.node_mut(NodeId(2)).icmp.rate_limit_pps = Some(0.002); // ~1 per 8 min
    let (series, _) = measure_link(&net, vp, &target, &week_campaign());
    assert!(series.far_validity() < 0.9, "rate limiter had no effect");
    let a = assess_masked(&series, &HealthReport::clean());
    assert!(!a.flagged, "rate limiting alone must not look like congestion");
    assert!(!a.congested);
}

#[test]
fn mid_campaign_silence_handled() {
    // Far router stops answering after a week (maintenance, ACL change).
    let (mut net, vp, target) = line();
    let cfg = week_campaign();
    // Run the first half, mute, run the second half.
    let half = SimTime::from_date(2016, 3, 8);
    let c1 = CampaignConfig { end: half, ..cfg };
    let (mut series, _) = measure_link(&net, vp, &target, &c1);
    net.node_mut(NodeId(2)).icmp.responsive = false;
    let c2 = CampaignConfig { start: half, ..cfg };
    let (tail, _) = measure_link(&net, vp, &target, &c2);
    series.near_ms.extend_from_slice(&tail.near_ms);
    series.far_ms.extend_from_slice(&tail.far_ms);
    let a = assess_masked(&series, &HealthReport::clean());
    assert!((0.4..0.6).contains(&a.far_validity), "{}", a.far_validity);
    assert!(!a.congested, "silence is not congestion");
}

#[test]
fn random_loss_floor_not_flagged() {
    // 10% random loss on the interdomain link, no queueing. base_loss is
    // fixed at link construction, so build the topology directly.
    let (_, _, target) = line();
    let mut net2 = Network::new(124);
    let vp2 = net2.add_node(NodeKind::Host, Asn(1), "vp");
    let border = net2.add_node(NodeKind::Router, Asn(1), "border");
    let peer = net2.add_node(NodeKind::Router, Asn(2), "peer");
    net2.connect_idle(vp2, Ipv4::new(10, 0, 0, 2), border, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    net2.connect(
        border,
        Ipv4::new(10, 0, 1, 1),
        peer,
        Ipv4::new(10, 0, 1, 2),
        LinkConfig { base_loss: 0.10, ..LinkConfig::default() },
        Arc::new(NoLoad),
        Arc::new(NoLoad),
    );
    let prefix: Prefix = "41.5.0.0/24".parse().unwrap();
    net2.add_route(vp2, Prefix::DEFAULT, IfaceId(0));
    net2.add_route(border, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
    net2.add_route(border, prefix, IfaceId(1));
    net2.add_route(peer, Prefix::DEFAULT, IfaceId(0));
    net2.add_route(peer, prefix, IfaceId(0));

    let (series, _) = measure_link(&net2, vp2, &target, &week_campaign());
    // Loss shows up in validity (some rounds lose both attempts both ways),
    // but RTTs stay flat: nothing to flag.
    let a = assess_masked(&series, &HealthReport::clean());
    assert!(!a.flagged, "random loss must not create level shifts");
    // And the loss-rate machinery sees it.
    let lc = LossCampaignConfig::paper(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 2));
    let ls = measure_loss_series(&net2, vp2, target.dst, target.far_ttl, &lc);
    assert!((0.10..0.30).contains(&ls.mean()), "loss series mean {}", ls.mean());
}

#[test]
fn loopback_sourced_icmp_breaks_addr_expectations_not_pipeline() {
    // A far router that sources ICMP from a fixed (loopback) address: the
    // far series still measures, but the responder-mismatch counter records
    // the inconsistency instead of silently mislabeling.
    let (mut net, vp, target) = line();
    net.node_mut(NodeId(2)).icmp.respond_from = RespondFrom::Fixed(Ipv4::new(41, 5, 0, 1));
    let (series, _) = measure_link(&net, vp, &target, &week_campaign());
    assert!(series.far_validity() > 0.9);
    assert!(series.far_addr_consistency() < 0.1, "mismatches must be recorded");
    let a = assess_masked(&series, &HealthReport::clean());
    assert!(!a.congested);
}

#[test]
fn fault_plan_loopback_sourcing_reads_addr_unstable_never_congested() {
    // Same pathology injected through the FaultPlan compiler, then pushed
    // through the health classifier and the masked assessment: the link
    // lands in the AddrUnstable class and the verdict stays untrusted.
    let (mut net, vp, target) = line();
    FaultPlan::new()
        .with(Fault::LoopbackSourced { node: NodeId(2), addr: Ipv4::new(198, 51, 100, 9) })
        .apply(&mut net);
    let (series, _) = measure_link(&net, vp, &target, &week_campaign());
    assert!(series.far_validity() > 0.9, "responses still arrive");
    assert!(series.far_addr_consistency() < 0.1, "every reply from the fixed address");
    let mask = classify_link(&series, &HealthConfig::default());
    assert_eq!(mask.overall, LinkHealth::AddrUnstable);
    let a = assess_masked(&series, &mask);
    assert!(!a.congested, "an address-unstable series must never read congested");
}

#[test]
fn fault_plan_rate_limiter_reads_rate_limited_never_congested() {
    // A 0.002 pps limiter starves ~40% of the 5-minute rounds in short
    // scattered runs: the health classifier calls it RateLimited and the
    // masked assessment refuses to flag it.
    let (mut net, vp, target) = line();
    FaultPlan::new().with(Fault::IcmpRateLimit { node: NodeId(2), pps: 0.002 }).apply(&mut net);
    let (series, _) = measure_link(&net, vp, &target, &week_campaign());
    assert!(series.far_validity() < 0.9, "limiter had no effect");
    let mask = classify_link(&series, &HealthConfig::default());
    assert_eq!(mask.overall, LinkHealth::RateLimited);
    let a = assess_masked(&series, &mask);
    assert!(!a.flagged, "token starvation must not look like a level shift");
    assert!(!a.congested);
}
