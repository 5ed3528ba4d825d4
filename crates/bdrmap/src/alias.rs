//! Ally-style IP alias resolution.
//!
//! bdrmap "applies alias resolution techniques to infer routers" (§4). The
//! classic Ally test exploits routers that stamp responses from one shared,
//! monotonically increasing IP-ID counter: probe address X, then Y, then X
//! again — if the three IDs are in-sequence within a small window, X and Y
//! are interfaces of the same router. The simulator's routers model exactly
//! that counter, so the test works for real here (and fails for real across
//! distinct routers).

use ixp_simnet::net::{Network, ProbeCtx, ProbeSpec};
use ixp_simnet::node::NodeId;
use ixp_simnet::prelude::{Ipv4, PacketKind};
use ixp_simnet::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Maximum ID advance allowed between consecutive in-sequence observations.
const ALLY_WINDOW: u16 = 200;

fn ping_id(net: &Network, ctx: &mut ProbeCtx, from: NodeId, dst: Ipv4, t: SimTime) -> Option<u16> {
    match net.send_probe(ctx, from, ProbeSpec::echo(dst), t) {
        Ok(r) if r.kind == PacketKind::EchoReply => Some(r.ip_id),
        _ => None,
    }
}

fn in_sequence(a: u16, b: u16) -> bool {
    b.wrapping_sub(a) <= ALLY_WINDOW
}

/// The Ally test: are `x` and `y` interfaces of the same router?
/// Returns `None` when either address does not answer.
pub fn ally_test(net: &Network, ctx: &mut ProbeCtx, from: NodeId, x: Ipv4, y: Ipv4, t: SimTime) -> Option<bool> {
    let a = ping_id(net, ctx, from, x, t)?;
    let b = ping_id(net, ctx, from, y, t + SimDuration::from_millis(20))?;
    let c = ping_id(net, ctx, from, x, t + SimDuration::from_millis(40))?;
    Some(in_sequence(a, b) && in_sequence(b, c))
}

/// Cluster `addrs` into routers by incremental Ally testing: each address is
/// tested against one representative of every existing cluster; unresponsive
/// addresses become singletons. O(n × clusters) probes instead of O(n²).
pub fn resolve_aliases(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    addrs: &[Ipv4],
    t0: SimTime,
) -> Vec<Vec<Ipv4>> {
    let mut clusters: Vec<Vec<Ipv4>> = Vec::new();
    let mut t = t0;
    for &a in addrs {
        let mut placed = false;
        for c in clusters.iter_mut() {
            let rep = c[0];
            if let Some(true) = ally_test(net, ctx, from, rep, a, t) {
                c.push(a);
                placed = true;
            }
            t += SimDuration::from_millis(60);
            if placed {
                break;
            }
        }
        if !placed {
            clusters.push(vec![a]);
        }
    }
    clusters
}

/// Build an address → cluster-index map from resolved clusters.
pub fn cluster_index(clusters: &[Vec<Ipv4>]) -> HashMap<Ipv4, usize> {
    let mut m = HashMap::new();
    for (i, c) in clusters.iter().enumerate() {
        for &a in c {
            m.insert(a, i);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_simnet::link::LinkConfig;
    use ixp_simnet::prelude::*;

    /// vp — r1 with two extra stub-ish links to r2 and r3; r2 has two
    /// interfaces we can ping (its link iface and a second parallel link).
    fn multi_iface_topology() -> (Network, NodeId, [Ipv4; 4]) {
        let mut net = Network::new(77);
        let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
        let r1 = net.add_node(NodeKind::Router, Asn(1), "r1");
        let r2 = net.add_node(NodeKind::Router, Asn(2), "r2");
        let r3 = net.add_node(NodeKind::Router, Asn(3), "r3");
        let cfg = LinkConfig::default();
        net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r1, Ipv4::new(10, 0, 0, 1), cfg.clone());
        // Two parallel links r1–r2: r2 gets interfaces .2 and .6.
        net.connect_idle(r1, Ipv4::new(10, 0, 1, 1), r2, Ipv4::new(10, 0, 1, 2), cfg.clone());
        net.connect_idle(r1, Ipv4::new(10, 0, 1, 5), r2, Ipv4::new(10, 0, 1, 6), cfg.clone());
        // One link r1–r3.
        net.connect_idle(r1, Ipv4::new(10, 0, 2, 1), r3, Ipv4::new(10, 0, 2, 2), cfg);
        net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r1, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r1, "10.0.1.2/32".parse().unwrap(), IfaceId(1));
        net.add_route(r1, "10.0.1.6/32".parse().unwrap(), IfaceId(2));
        net.add_route(r1, "10.0.2.2/32".parse().unwrap(), IfaceId(3));
        for r in [r2, r3] {
            let back = IfaceId(0);
            net.add_route(r, Prefix::DEFAULT, back);
        }
        (
            net,
            vp,
            [Ipv4::new(10, 0, 1, 2), Ipv4::new(10, 0, 1, 6), Ipv4::new(10, 0, 2, 2), Ipv4::new(10, 0, 0, 1)],
        )
    }

    #[test]
    fn ally_groups_same_router() {
        let (net, vp, [a, b, _, _]) = multi_iface_topology();
        let mut ctx = net.probe_ctx(0);
        assert_eq!(ally_test(&net, &mut ctx, vp, a, b, SimTime::ZERO), Some(true));
    }

    #[test]
    fn ally_separates_different_routers() {
        let (net, vp, [a, _, c, _]) = multi_iface_topology();
        let mut ctx = net.probe_ctx(0);
        // Desynchronize the counters: r3 answers a bunch of probes first.
        // IP-ID state is per-ctx, so the warm-up must use the same ctx.
        for i in 0..500u64 {
            let _ = net.send_probe(&mut ctx, vp, ProbeSpec::echo(c), SimTime(i * 10_000));
        }
        assert_eq!(ally_test(&net, &mut ctx, vp, a, c, SimTime(6_000_000)), Some(false));
    }

    #[test]
    fn ally_unresponsive_is_none() {
        let (mut net, vp, [a, _, _, _]) = multi_iface_topology();
        net.node_mut(NodeId(2)).icmp.responsive = false;
        let mut ctx = net.probe_ctx(0);
        assert_eq!(ally_test(&net, &mut ctx, vp, a, Ipv4::new(10, 0, 2, 2), SimTime::ZERO), None);
    }

    #[test]
    fn clustering_recovers_routers() {
        let (net, vp, [a, b, c, d]) = multi_iface_topology();
        let mut ctx = net.probe_ctx(0);
        // Desynchronize counters so cross-router pairs cannot collide into
        // the ally window by accident.
        for i in 0..400u64 {
            let _ = net.send_probe(&mut ctx, vp, ProbeSpec::echo(c), SimTime(i * 5_000));
        }
        for i in 0..900u64 {
            let _ = net.send_probe(&mut ctx, vp, ProbeSpec::echo(d), SimTime(i * 5_000));
        }
        let clusters = resolve_aliases(&net, &mut ctx, vp, &[a, b, c, d], SimTime(10_000_000));
        assert_eq!(clusters.len(), 3, "{clusters:?}");
        let idx = cluster_index(&clusters);
        assert_eq!(idx[&a], idx[&b]);
        assert_ne!(idx[&a], idx[&c]);
        assert_ne!(idx[&c], idx[&d]);
    }
}