//! ICMP echo probing (`scamper -c ping` equivalent).

use ixp_simnet::net::{Network, ProbeCtx, ProbeSpec};
use ixp_simnet::node::NodeId;
use ixp_simnet::prelude::{Ipv4, PacketKind};
use ixp_simnet::time::{SimDuration, SimTime};

/// Result of one echo probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PingReply {
    /// Measured round-trip time.
    pub rtt: SimDuration,
    /// Responding address (normally the target).
    pub responder: Ipv4,
    /// Responder's IP-ID (alias-resolution input).
    pub ip_id: u16,
}

/// Send `count` echo probes to `dst` spaced `interval` apart, starting at
/// `t0`. `None` entries are losses/timeouts.
pub fn ping(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    dst: Ipv4,
    count: usize,
    interval: SimDuration,
    t0: SimTime,
) -> Vec<Option<PingReply>> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let t = t0 + SimDuration::from_micros(interval.as_micros() * i as u64);
        let r = net.send_probe(ctx, from, ProbeSpec::echo(dst), t);
        out.push(match r {
            Ok(rep) if rep.kind == PacketKind::EchoReply => {
                Some(PingReply { rtt: rep.rtt, responder: rep.responder, ip_id: rep.ip_id })
            }
            _ => None,
        });
    }
    out
}

/// Summary statistics over a ping run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PingStats {
    /// Probes sent.
    pub sent: usize,
    /// Replies received.
    pub received: usize,
    /// Loss fraction.
    pub loss: f64,
    /// Minimum RTT (ms), NaN when nothing returned.
    pub min_ms: f64,
    /// Mean RTT (ms), NaN when nothing returned.
    pub avg_ms: f64,
    /// Maximum RTT (ms), NaN when nothing returned.
    pub max_ms: f64,
}

/// Summarize a ping run.
pub fn ping_stats(replies: &[Option<PingReply>]) -> PingStats {
    let sent = replies.len();
    let rtts: Vec<f64> = replies.iter().flatten().map(|r| r.rtt.as_millis_f64()).collect();
    let received = rtts.len();
    let loss = if sent == 0 { 0.0 } else { 1.0 - received as f64 / sent as f64 };
    if rtts.is_empty() {
        return PingStats { sent, received, loss, min_ms: f64::NAN, avg_ms: f64::NAN, max_ms: f64::NAN };
    }
    let min = rtts.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rtts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let avg = rtts.iter().sum::<f64>() / received as f64;
    PingStats { sent, received, loss, min_ms: min, avg_ms: avg, max_ms: max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::line_topology;

    #[test]
    fn ping_returns_replies_in_order() {
        let (net, vp, tgt) = line_topology(1);
        let mut ctx = net.probe_ctx(0);
        let replies = ping(&net, &mut ctx, vp, tgt, 5, SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(replies.len(), 5);
        for r in &replies {
            let r = r.expect("reply expected on a clean line");
            assert_eq!(r.responder, tgt);
            assert!(r.rtt > SimDuration::ZERO);
        }
        let st = ping_stats(&replies);
        assert_eq!(st.received, 5);
        assert_eq!(st.loss, 0.0);
        assert!(st.min_ms <= st.avg_ms && st.avg_ms <= st.max_ms);
    }

    #[test]
    fn ping_unroutable_is_all_losses() {
        let (net, vp, _) = line_topology(2);
        let mut ctx = net.probe_ctx(0);
        // 203.0.113.0/24 is not announced anywhere in the line topology, and
        // the last router drops it (no default).
        let replies = ping(&net, &mut ctx, vp, Ipv4::new(203, 0, 113, 1), 3, SimDuration::from_secs(1), SimTime::ZERO);
        let st = ping_stats(&replies);
        assert_eq!(st.received, 0);
        assert_eq!(st.loss, 1.0);
        assert!(st.avg_ms.is_nan());
    }

    #[test]
    fn stats_empty() {
        let st = ping_stats(&[]);
        assert_eq!(st.sent, 0);
        assert_eq!(st.loss, 0.0);
    }
}
