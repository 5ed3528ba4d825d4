//! Reproducibility and substrate invariants.
//!
//! The whole reproduction leans on determinism — identical seeds must give
//! bit-identical campaigns — and on structural invariants of the generated
//! substrate (schedule-consistent populations, probeable links, disjoint
//! addressing).

use african_ixp_congestion::prober::tslp::{tslp_probe, TslpConfig, TslpTarget};
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::study::prelude::*;
use african_ixp_congestion::topology::{build_vp, paper_vps};
use proptest::prelude::*;

#[test]
fn vp_study_is_bit_deterministic() {
    let spec = &paper_vps()[3];
    let cfg = VpStudyConfig {
        window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 4, 1))),
        with_loss: false,
        keep_series: true,
        ..Default::default()
    };
    let a = run_vp_study(spec, &cfg);
    let b = run_vp_study(spec, &cfg);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!((x.near, x.far, x.far_asn), (y.near, y.far, y.far_asn));
        assert_eq!(x.sweep, y.sweep);
        assert_eq!(x.assessment.events, y.assessment.events);
        match (&x.series, &y.series) {
            (Some(sx), Some(sy)) => {
                assert_eq!(sx.len(), sy.len());
                // Bit-identical RTT streams.
                for (vx, vy) in sx.far_ms.iter().zip(&sy.far_ms) {
                    assert!(vx.to_bits() == vy.to_bits());
                }
            }
            (None, None) => {}
            _ => panic!("series retention differs between runs"),
        }
    }
    for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(x.links, y.links);
        assert_eq!(x.neighbors, y.neighbors);
    }
}

#[test]
fn different_seeds_differ() {
    let spec = &paper_vps()[3];
    let a = build_vp(spec, 1);
    let b = build_vp(spec, 2);
    // Same shape (schedule-driven), different stochastic details.
    let far_a: Vec<_> = a.links.iter().map(|l| l.far).collect();
    let far_b: Vec<_> = b.links.iter().map(|l| l.far).collect();
    assert_ne!(far_a, far_b, "seeds must vary the substrate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Substrate invariants hold for arbitrary seeds (the small VPs).
    #[test]
    fn substrate_invariants(seed in 0u64..1000, vp_idx in prop_oneof![Just(0usize), Just(3), Just(5)]) {
        let spec = &paper_vps()[vp_idx];
        let s = build_vp(spec, seed);

        // Far addresses are unique across links.
        let mut fars: Vec<_> = s.links.iter().map(|l| l.far).collect();
        let n = fars.len();
        fars.sort();
        fars.dedup();
        prop_assert_eq!(fars.len(), n, "duplicate far addresses");

        // Peering links have their far side on the IXP LAN.
        for l in &s.links {
            if l.at_ixp {
                prop_assert!(s.lan.contains(l.far) || s.mgmt.contains(l.far) || s.mgmt.contains(l.near),
                    "at_ixp link without LAN address: {} -> {}", l.near, l.far);
            }
        }

        // Alive links answer TSLP probes at the first snapshot.
        let t = spec.snapshots[0];
        let mut ctx = s.net.probe_ctx(0);
        let mut checked = 0;
        let links: Vec<_> = s.links.iter().filter(|l| l.lifetime.alive_at(t) && l.responsive).take(8).cloned().collect();
        for l in links {
            // Scenario links can legitimately drop probes under overload.
            let is_special = l.far_name == "GHANATEL" || l.far_name == "NETPAGE";
            let target = TslpTarget {
                dst: l.dst, near_ttl: l.near_ttl, far_ttl: l.far_ttl,
                near_addr: l.near, far_addr: l.far,
            };
            let smp = tslp_probe(&s.net, &mut ctx, s.vp, &target, &TslpConfig::default(), t);
            if !is_special {
                prop_assert!(smp.near.is_some(), "near probe failed for {}", l.far_name);
                prop_assert!(smp.far.is_some(), "far probe failed for {}", l.far_name);
            }
            checked += 1;
        }
        prop_assert!(checked > 0);

        // Neighbor counts at snapshots stay within sane bounds of the spec.
        let peers = s.peers_at(t).len();
        let spec_peers = spec.peers.first().map(|c| c.count).unwrap_or(0);
        prop_assert!(peers >= spec_peers, "peers {} < scheduled {}", peers, spec_peers);
    }
}

/// The campaign fan-out contract: `stream_vp_links` returns the same bits
/// in the same order at every thread count, screening decisions included.
#[test]
fn parallel_campaign_is_bit_identical_at_any_thread_count() {
    use african_ixp_congestion::traffic::{DiurnalLoad, Shape};
    use african_ixp_congestion::tslp::prelude::*;
    use std::sync::Arc;

    // A hub with six branches; odd branches carry a diurnal overload, so
    // screening passes some targets through to full fidelity and
    // short-circuits the rest.
    let mut net = Network::new(7777);
    let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
    let hub = net.add_node(NodeKind::Router, Asn(1), "hub");
    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), hub, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
    net.add_route(hub, "10.0.0.0/24".parse().unwrap(), IfaceId(0));

    let mut targets = Vec::new();
    for i in 0..6u8 {
        let border = net.add_node(NodeKind::Router, Asn(1), "border");
        let peer = net.add_node(NodeKind::Router, Asn(100 + i as u32), "peer");
        let port = LinkConfig {
            capacity_bps: Schedule::constant(1e8),
            buffer_bytes: Schedule::constant(150_000.0),
            ..LinkConfig::default()
        };
        let load: Arc<dyn OfferedLoad> = if i % 2 == 1 {
            Arc::new(DiurnalLoad {
                base_bps: 6e7,
                weekday_peak_bps: 5e7,
                weekend_peak_bps: 5e7,
                shape: Shape::Plateau { start_hour: 11.0, end_hour: 15.0, ramp_hours: 1.5 },
                noise_frac: 0.02,
                noise_bin: SimDuration::from_mins(5),
                noise: net.noise().child(40 + i as u64, 7),
            })
        } else {
            Arc::new(NoLoad)
        };
        let near_addr = Ipv4::new(10, i + 1, 1, 2);
        let far_addr = Ipv4::new(10, i + 1, 2, 2);
        net.connect(hub, Ipv4::new(10, i + 1, 1, 1), border, near_addr, port, load, Arc::new(NoLoad));
        net.connect_idle(border, Ipv4::new(10, i + 1, 2, 1), peer, far_addr, LinkConfig::default());
        let prefix: Prefix = format!("41.{i}.0.0/24").parse().unwrap();
        net.add_route(hub, prefix, IfaceId(1 + i as u16));
        net.add_route(border, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(border, prefix, IfaceId(1));
        net.add_route(peer, Prefix::DEFAULT, IfaceId(0));
        targets.push(TslpTarget {
            dst: prefix.addr(9),
            near_ttl: 2,
            far_ttl: 3,
            near_addr,
            far_addr,
        });
    }

    let base = CampaignConfig::paper(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 8));
    // Every series back, in target order, through the identity consumer.
    let measure_all = |threads: usize| -> Vec<(LinkSeries, bool)> {
        let cfg = CampaignConfig { threads, ..base };
        stream_vp_links(&net, vp, &targets, &cfg, None, || (), |_, _, _, s, sc| (s, sc))
            .into_iter()
            .map(|r| r.expect("no quarantines"))
            .collect()
    };
    let seq = measure_all(1);

    let screened = seq.iter().filter(|(_, sc)| *sc).count();
    assert!(screened >= 1, "clean branches should be screened out");
    assert!(screened < seq.len(), "congested branches must reach full fidelity");

    for threads in [2usize, 4, 0] {
        let par = measure_all(threads);
        // The screening count is thread-invariant too.
        assert_eq!(par.iter().filter(|(_, sc)| *sc).count(), screened);
        assert_eq!(par.len(), seq.len());
        for (i, ((ps, psc), (ss, ssc))) in par.iter().zip(&seq).enumerate() {
            assert_eq!(psc, ssc, "screening verdict differs at {threads} threads, target {i}");
            assert_eq!(ps.len(), ss.len(), "series length differs at {threads} threads, target {i}");
            assert_eq!(ps.far_addr_mismatches, ss.far_addr_mismatches);
            for (a, b) in ps.near_ms.iter().zip(&ss.near_ms) {
                assert_eq!(a.to_bits(), b.to_bits(), "near bits differ at {threads} threads, target {i}");
            }
            for (a, b) in ps.far_ms.iter().zip(&ss.far_ms) {
                assert_eq!(a.to_bits(), b.to_bits(), "far bits differ at {threads} threads, target {i}");
            }
        }
    }
}

#[test]
fn table_rendering_is_stable() {
    let spec = &paper_vps()[3];
    let cfg = VpStudyConfig {
        window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 4, 1))),
        with_loss: false,
        keep_series: false,
        ..Default::default()
    };
    let studies = vec![run_vp_study(spec, &cfg)];
    let r1 = StudyReport::build(&studies).render(&studies);
    let r2 = StudyReport::build(&studies).render(&studies);
    assert_eq!(r1, r2);
    // JSON round-trips.
    let report = StudyReport::build(&studies);
    let back: StudyReport = serde_json::from_str(&report.to_json()).unwrap();
    assert_eq!(back.congestion_fraction, report.congestion_fraction);
}
