//! Record-route path-symmetry checking.
//!
//! §5.2: "we used the Record-routes method to check path symmetry, thereby
//! ensuring that an increase in RTTs from a near to a far router was solely
//! due to traffic on that link". An RTT is a sum over the forward *and*
//! reverse paths; only when both cross the same links can a far−near RTT
//! delta be pinned on the measured link.
//!
//! Method: ping the far address with the IPv4 record-route option. Request
//! and echo *reply* both record egress addresses, so a reply from a
//! symmetric path carries a link sequence that reads the same forwards and
//! backwards (each link crossed out is crossed back in mirror order). The
//! caller supplies an address→link resolver (in practice: bdrmap's
//! point-to-point link inference); unresolvable addresses or a full RR
//! option (paths deeper than nine hops) yield `Unknown`, never a false
//! `Symmetric`.

use ixp_simnet::net::{Network, ProbeCtx, ProbeSpec};
use ixp_simnet::node::NodeId;
use ixp_simnet::prelude::{Ipv4, PacketKind};
use ixp_simnet::packet::RECORD_ROUTE_SLOTS;
use ixp_simnet::time::SimTime;

/// Outcome of a symmetry check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Symmetry {
    /// Forward and reverse traversed the same links.
    Symmetric,
    /// The reverse path used at least one different link.
    Asymmetric,
    /// Could not determine (no reply, unresolvable hop, truncated option).
    Unknown,
}

/// Check path symmetry toward `far_addr`.
///
/// `resolve` maps an interface address to an opaque link identity; return
/// `None` for unknown addresses.
pub fn record_route_symmetry(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    far_addr: Ipv4,
    resolve: impl Fn(Ipv4) -> Option<u64>,
    t: SimTime,
) -> Symmetry {
    let reply = match net.send_probe(ctx, from, ProbeSpec::echo(far_addr).with_record_route(), t) {
        Ok(r) if r.kind == PacketKind::EchoReply => r,
        _ => return Symmetry::Unknown,
    };
    let Some(rr) = reply.record_route else {
        return Symmetry::Unknown;
    };
    if rr.len() >= RECORD_ROUTE_SLOTS {
        // Truncated: the reverse tail is missing; refuse to judge.
        return Symmetry::Unknown;
    }
    let mut links = Vec::with_capacity(rr.len());
    for addr in rr {
        match resolve(addr) {
            Some(l) => links.push(l),
            None => return Symmetry::Unknown,
        }
    }
    let is_palindrome = links.iter().eq(links.iter().rev());
    if is_palindrome {
        Symmetry::Symmetric
    } else {
        Symmetry::Asymmetric
    }
}

/// Repeat the check `n` times spread over `span`; returns the counts of
/// (symmetric, asymmetric, unknown). The paper re-checked symmetry "for the
/// duration of our measurements".
#[allow(clippy::too_many_arguments)]
pub fn symmetry_votes(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    far_addr: Ipv4,
    resolve: impl Fn(Ipv4) -> Option<u64> + Copy,
    t0: SimTime,
    span: ixp_simnet::time::SimDuration,
    n: usize,
) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for i in 0..n {
        let t = t0 + ixp_simnet::time::SimDuration::from_micros(span.as_micros() * i as u64 / n.max(1) as u64);
        match record_route_symmetry(net, ctx, from, far_addr, resolve, t) {
            Symmetry::Symmetric => counts.0 += 1,
            Symmetry::Asymmetric => counts.1 += 1,
            Symmetry::Unknown => counts.2 += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::line_topology;
    use ixp_simnet::prelude::*;

    fn link_resolver(net: &Network) -> impl Fn(Ipv4) -> Option<u64> + Copy + '_ {
        move |addr| {
            net.owner_of(addr).and_then(|(node, iface)| {
                net.node(node).ifaces[iface.0 as usize].link.map(|(lid, _)| lid.0 as u64)
            })
        }
    }

    #[test]
    fn symmetric_line_is_symmetric() {
        let (net, vp, _) = line_topology(30);
        let mut ctx = net.probe_ctx(0);
        let far = Ipv4::new(10, 0, 1, 2);
        // Probing only borrows the network now, so the resolver can read the
        // same `Network` the probes traverse — no shadow copy needed.
        let resolve = link_resolver(&net);
        assert_eq!(record_route_symmetry(&net, &mut ctx, vp, far, resolve, SimTime::ZERO), Symmetry::Symmetric);
    }

    #[test]
    fn asymmetric_return_detected() {
        let (mut net, vp, _) = line_topology(31);
        // Add a parallel r2→r1 link used only for traffic back to the VP.
        let r1 = NodeId(1);
        let r2 = NodeId(2);
        net.connect_idle(r2, Ipv4::new(10, 0, 3, 1), r1, Ipv4::new(10, 0, 3, 2), LinkConfig::default());
        let back = net.node(r2).iface_by_addr(Ipv4::new(10, 0, 3, 1)).unwrap();
        net.add_route(r2, "10.0.0.0/24".parse().unwrap(), back);

        let mut ctx = net.probe_ctx(0);
        let resolve = link_resolver(&net);

        let far = Ipv4::new(10, 0, 1, 2);
        assert_eq!(record_route_symmetry(&net, &mut ctx, vp, far, resolve, SimTime::ZERO), Symmetry::Asymmetric);
    }

    #[test]
    fn unresolvable_hop_is_unknown() {
        let (net, vp, _) = line_topology(32);
        let mut ctx = net.probe_ctx(0);
        let far = Ipv4::new(10, 0, 1, 2);
        let resolve = |_addr: Ipv4| -> Option<u64> { None };
        assert_eq!(record_route_symmetry(&net, &mut ctx, vp, far, resolve, SimTime::ZERO), Symmetry::Unknown);
    }

    #[test]
    fn no_reply_is_unknown() {
        let (mut net, vp, _) = line_topology(33);
        net.node_mut(NodeId(2)).icmp.responsive = false;
        let mut ctx = net.probe_ctx(0);
        let far = Ipv4::new(10, 0, 1, 2);
        let resolve = |_addr: Ipv4| -> Option<u64> { Some(1) };
        assert_eq!(record_route_symmetry(&net, &mut ctx, vp, far, resolve, SimTime::ZERO), Symmetry::Unknown);
    }

    #[test]
    fn votes_accumulate() {
        let (net, vp, _) = line_topology(34);
        let mut ctx = net.probe_ctx(0);
        let resolve = link_resolver(&net);
        let far = Ipv4::new(10, 0, 1, 2);
        let (s, a, u) =
            symmetry_votes(&net, &mut ctx, vp, far, resolve, SimTime::ZERO, SimDuration::from_hours(1), 10);
        assert_eq!((s, a, u), (10, 0, 0));
    }
}
