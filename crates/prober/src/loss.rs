//! Loss-rate probing.
//!
//! §4: for links with repeated congestion events the study probed "both ends
//! of those links at a higher rate, i.e., one packet per second, and then
//! computed the loss rate over every batch of 100 probes". Those batches are
//! what Figures 2b and 3b plot.

use ixp_simnet::net::{Network, ProbeCtx, ProbeSpec};
use ixp_simnet::node::NodeId;
use ixp_simnet::prelude::{Ipv4, PacketKind};
use ixp_simnet::time::{SimDuration, SimTime};

/// Loss-measurement policy (defaults = the paper's).
#[derive(Clone, Copy, Debug)]
pub struct LossConfig {
    /// Probes per batch.
    pub batch_size: u32,
    /// Inter-probe interval.
    pub interval: SimDuration,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig { batch_size: 100, interval: SimDuration::from_secs(1) }
    }
}

/// One batch's outcome for one probed end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossBatch {
    /// Batch start time.
    pub t: SimTime,
    /// Probes sent.
    pub sent: u32,
    /// Responses received.
    pub received: u32,
}

impl LossBatch {
    /// Loss fraction in `[0, 1]`.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.received as f64 / self.sent as f64
        }
    }
}

/// Run one batch of TTL-limited probes toward `dst` expiring at `ttl`.
pub fn loss_batch(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    dst: Ipv4,
    ttl: u8,
    cfg: &LossConfig,
    t0: SimTime,
) -> LossBatch {
    let mut received = 0u32;
    for i in 0..cfg.batch_size {
        let t = t0 + SimDuration::from_micros(cfg.interval.as_micros() * i as u64);
        if let Ok(rep) = net.send_probe(ctx, from, ProbeSpec::ttl_limited(dst, ttl), t) {
            if matches!(rep.kind, PacketKind::TimeExceeded | PacketKind::DestUnreachable) {
                received += 1;
            }
        }
    }
    LossBatch { t: t0, sent: cfg.batch_size, received }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{congested_line, line_topology};

    #[test]
    fn clean_link_zero_loss() {
        let (net, vp, tgt) = line_topology(20);
        let mut ctx = net.probe_ctx(0);
        let b = loss_batch(&net, &mut ctx, vp, tgt, 2, &LossConfig::default(), SimTime::ZERO);
        assert_eq!(b.sent, 100);
        assert_eq!(b.received, 100);
        assert_eq!(b.loss_rate(), 0.0);
    }

    #[test]
    fn overloaded_link_loses_at_overload_rate() {
        // 2× overload → steady-state drop ≈ 50% per crossing; the probe
        // crosses the congested direction once going out (forward dir), the
        // response returns over the unloaded reverse: expect ≈50%.
        let (net, vp, tgt) = congested_line(21, 2.0);
        let mut ctx = net.probe_ctx(0);
        let b = loss_batch(
            &net,
            &mut ctx,
            vp,
            tgt,
            2,
            &LossConfig::default(),
            SimTime(2 * 3_600_000_000),
        );
        let rate = b.loss_rate();
        assert!((0.4..0.6).contains(&rate), "loss {rate}");
    }

    #[test]
    fn near_end_unaffected_by_far_congestion() {
        let (net, vp, tgt) = congested_line(22, 2.0);
        let mut ctx = net.probe_ctx(0);
        let b = loss_batch(&net, &mut ctx, vp, tgt, 1, &LossConfig::default(), SimTime(2 * 3_600_000_000));
        assert_eq!(b.loss_rate(), 0.0);
    }

    #[test]
    fn batch_math() {
        let b = LossBatch { t: SimTime::ZERO, sent: 100, received: 15 };
        assert!((b.loss_rate() - 0.85).abs() < 1e-12);
        let empty = LossBatch { t: SimTime::ZERO, sent: 0, received: 0 };
        assert_eq!(empty.loss_rate(), 0.0);
    }
}
