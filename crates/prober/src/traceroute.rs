//! TTL-incrementing traceroute (the bdrmap input primitive).
//!
//! bdrmap "uses an efficient variant of traceroute to trace the path from
//! each VP to every routed prefix observed in BGP" (§4). This implementation
//! sends UDP-style TTL-limited probes with per-hop retries, stopping at the
//! destination, at a hop-count cap, or after a run of consecutive silent
//! hops (the usual `scamper` gap limit).

use ixp_simnet::net::{Network, ProbeCtx, ProbeSpec};
use ixp_simnet::node::NodeId;
use ixp_simnet::prelude::{Ipv4, PacketKind};
use ixp_simnet::time::{SimDuration, SimTime};

/// One traceroute hop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hop {
    /// TTL used.
    pub ttl: u8,
    /// Responding address, `None` when every attempt timed out.
    pub addr: Option<Ipv4>,
    /// RTT of the first successful attempt.
    pub rtt: Option<SimDuration>,
    /// Kind of the response (`TimeExceeded` for transit hops; a terminal
    /// `DestUnreachable`/`EchoReply` ends the trace). Consumers like bdrmap
    /// must distinguish genuine transit hops from destination self-replies.
    pub kind: Option<PacketKind>,
}

/// A completed traceroute.
#[derive(Clone, Debug)]
pub struct Traceroute {
    /// Probed destination.
    pub dst: Ipv4,
    /// Hop records in TTL order.
    pub hops: Vec<Hop>,
    /// Did a probe reach the destination (echo reply / port unreachable from
    /// the target itself)?
    pub reached: bool,
}

impl Traceroute {
    /// Responding addresses in path order (silent hops skipped).
    pub fn responders(&self) -> Vec<Ipv4> {
        self.hops.iter().filter_map(|h| h.addr).collect()
    }
}

/// Traceroute tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TracerouteConfig {
    /// Hop-count cap.
    pub max_ttl: u8,
    /// Attempts per hop before declaring it silent.
    pub attempts: u32,
    /// Spacing between consecutive probes (pacing; the study keeps probing
    /// at ≤100 packets per second, §4).
    pub spacing: SimDuration,
    /// Stop after this many consecutive silent hops.
    pub gap_limit: u8,
}

impl Default for TracerouteConfig {
    fn default() -> Self {
        TracerouteConfig {
            max_ttl: 32,
            attempts: 2,
            spacing: SimDuration::from_millis(10),
            gap_limit: 3,
        }
    }
}

/// Run a traceroute from `from` toward `dst` starting at `t0`.
pub fn traceroute(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    dst: Ipv4,
    cfg: &TracerouteConfig,
    t0: SimTime,
) -> Traceroute {
    let mut hops = Vec::new();
    let mut reached = false;
    let mut t = t0;
    let mut silent_run = 0u8;
    for ttl in 1..=cfg.max_ttl {
        let mut hop = Hop { ttl, addr: None, rtt: None, kind: None };
        for _ in 0..cfg.attempts {
            let r = net.send_probe(ctx, from, ProbeSpec::ttl_limited(dst, ttl), t);
            t += cfg.spacing;
            if let Ok(rep) = r {
                hop.addr = Some(rep.responder);
                hop.rtt = Some(rep.rtt);
                hop.kind = Some(rep.kind);
                if rep.kind != PacketKind::TimeExceeded {
                    // Destination (port unreachable) or an on-path refusal.
                    reached = rep.kind == PacketKind::DestUnreachable && rep.responder == dst
                        || rep.kind == PacketKind::EchoReply;
                    // A DestUnreachable from mid-path also ends the trace.
                    hops.push(hop);
                    return Traceroute { dst, hops, reached };
                }
                break;
            }
        }
        if hop.addr.is_none() {
            silent_run += 1;
        } else {
            silent_run = 0;
        }
        hops.push(hop);
        if silent_run >= cfg.gap_limit {
            break;
        }
    }
    Traceroute { dst, hops, reached }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::line_topology;
    use ixp_simnet::prelude::NodeId as SimNodeId;

    #[test]
    fn traces_full_path() {
        let (net, vp, tgt) = line_topology(3);
        let mut ctx = net.probe_ctx(0);
        let tr = traceroute(&net, &mut ctx, vp, tgt, &TracerouteConfig::default(), SimTime::ZERO);
        assert!(tr.reached);
        assert_eq!(
            tr.responders(),
            vec![Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 1, 2), Ipv4::new(10, 0, 2, 2)]
        );
        // RTTs increase with depth.
        let rtts: Vec<_> = tr.hops.iter().map(|h| h.rtt.unwrap()).collect();
        assert!(rtts[0] < rtts[2]);
    }

    #[test]
    fn silent_hop_recorded_and_gap_limit_stops() {
        let (mut net, vp, tgt) = line_topology(4);
        net.node_mut(SimNodeId(2)).icmp.responsive = false; // r2 silent
        let mut ctx = net.probe_ctx(0);
        // The target host answers (its UDP port unreachable) when probes get
        // that far, so hop 2 is a star and hop 3 responds.
        let tr = traceroute(&net, &mut ctx, vp, tgt, &TracerouteConfig::default(), SimTime::ZERO);
        assert!(tr.reached);
        assert_eq!(tr.hops[1].addr, None);
        assert_eq!(tr.hops[2].addr, Some(tgt));
    }

    #[test]
    fn gap_limit_ends_dead_traces() {
        let (mut net, vp, _) = line_topology(5);
        // Unroutable target: r1/r2 defaults bounce it into a loop; every TTL
        // beyond the loop returns TimeExceeded forever, so cap at max_ttl.
        // Make everything silent instead to exercise the gap limit.
        net.node_mut(SimNodeId(1)).icmp.responsive = false;
        net.node_mut(SimNodeId(2)).icmp.responsive = false;
        let mut ctx = net.probe_ctx(0);
        let tr = traceroute(&net, &mut ctx, vp, Ipv4::new(203, 0, 113, 9), &TracerouteConfig::default(), SimTime::ZERO);
        assert!(!tr.reached);
        assert_eq!(tr.hops.len(), 3, "{:?}", tr.hops); // gap_limit
        assert!(tr.responders().is_empty());
    }

    #[test]
    fn probes_are_paced() {
        let (net, vp, tgt) = line_topology(6);
        let mut ctx = net.probe_ctx(0);
        let cfg = TracerouteConfig { spacing: SimDuration::from_millis(10), ..Default::default() };
        let tr = traceroute(&net, &mut ctx, vp, tgt, &cfg, SimTime::ZERO);
        // Hop k's probe goes out at ≥ k·10ms; its RTT is measured from then,
        // so RTTs stay small even though wall-clock advanced.
        for h in &tr.hops {
            assert!(h.rtt.unwrap() < SimDuration::from_millis(5));
        }
    }
}
