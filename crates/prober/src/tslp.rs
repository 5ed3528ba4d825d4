//! The TSLP probing primitive: time-sequence latency probes to the near and
//! far routers of an interdomain link.
//!
//! §3–4 of the paper: every 5 minutes, send TTL-limited probes "set to
//! expire at the near and far ends of the link" and record both RTTs. A
//! level shift in the far series with a flat near series indicates a queue
//! at the interdomain link. This module implements one *round* over a target
//! list with scamper-style pacing and retries; the campaign loop lives in
//! `tslp-core`.

use ixp_obs::{End, NoopRecorder, ProbeEvent, Recorder};
use ixp_simnet::net::{Network, ProbeCtx, ProbeError, ProbeSpec};
use ixp_simnet::node::{NodeId, NoResponse};
use ixp_simnet::prelude::{Ipv4, PacketKind};
use ixp_simnet::time::{SimDuration, SimTime};

/// One link's probing coordinates, as produced by border mapping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TslpTarget {
    /// Destination whose forwarding path crosses the measured link (any
    /// address routed through it).
    pub dst: Ipv4,
    /// TTL that expires at the near router.
    pub near_ttl: u8,
    /// TTL that expires at the far router.
    pub far_ttl: u8,
    /// Expected near responder (the near side of the link).
    pub near_addr: Ipv4,
    /// Expected far responder (the far side of the link).
    pub far_addr: Ipv4,
}

/// One round's measurement for one target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TslpSample {
    /// Round timestamp (when this target's probes began).
    pub t: SimTime,
    /// Near-end RTT, if a probe succeeded.
    pub near: Option<SimDuration>,
    /// Far-end RTT, if a probe succeeded.
    pub far: Option<SimDuration>,
    /// Did the near response come from the expected address?
    pub near_addr_ok: bool,
    /// Did the far response come from the expected address? A `false` here
    /// is how the pipeline notices path changes under the measurement.
    pub far_addr_ok: bool,
    /// Hop-set hash of the round's (near, far) responder addresses — the
    /// TTL-ladder path fingerprint ([`crate::fingerprint::fingerprint`]).
    /// `0` means unknown (at least one end went unanswered); a *different
    /// nonzero* value from the previous round marks a path change under the
    /// measurement.
    pub path_fp: u64,
}

/// Per-round probing policy.
#[derive(Clone, Copy, Debug)]
pub struct TslpConfig {
    /// Attempts per end per round (a loss is retried within the round).
    pub attempts: u32,
    /// Spacing between successive probe transmissions. 10 ms = the paper's
    /// 100 packets-per-second ceiling.
    pub pacing: SimDuration,
    /// Extra wait before each retry (the first attempt is never delayed).
    /// A router whose ICMP rate limiter ate the first attempt gets this
    /// long to refill its token bucket before the retry arrives; a
    /// back-to-back retry at `pacing` distance hits the same empty bucket.
    /// `ZERO` keeps the legacy immediate-retry behavior.
    pub retry_backoff: SimDuration,
    /// Jitter on the backoff, as a fraction of it: the actual wait is
    /// `retry_backoff * (1 + retry_jitter * u)` with `u ∈ [0, 1)` hashed
    /// from `(dst, ttl, round time, attempt)`. Spreads retries so targets
    /// behind one limiter do not resynchronize, while staying exactly
    /// reproducible run to run.
    pub retry_jitter: f64,
}

impl Default for TslpConfig {
    fn default() -> Self {
        TslpConfig {
            attempts: 2,
            pacing: SimDuration::from_millis(10),
            retry_backoff: SimDuration::ZERO,
            retry_jitter: 0.0,
        }
    }
}

/// The deterministic retry wait before attempt `attempt` (1-based retries).
fn retry_wait(cfg: &TslpConfig, dst: Ipv4, ttl: u8, t: SimTime, attempt: u32) -> SimDuration {
    let mut wait = cfg.retry_backoff.as_micros();
    if cfg.retry_jitter > 0.0 {
        let h = ixp_simnet::rng::mix(&[0x7B5F, dst.0 as u64, ttl as u64, t.0, attempt as u64]);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        wait += (wait as f64 * cfg.retry_jitter * u) as u64;
    }
    SimDuration::from_micros(wait)
}

/// Probe one end (TTL-limited toward `dst`); returns `(rtt, responder)` of
/// the first answered attempt and advances the pacing clock. The whole
/// retry loop reports to `rec` as one [`ProbeEvent`] outcome — attempts,
/// rate-limiter drops, and the answer (or timeout) — so the hot path pays a
/// single recorder dispatch per end; with the no-op recorder even that
/// vanishes under monomorphization.
fn probe_end<R: Recorder>(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    (dst, ttl, end): (Ipv4, u8, End),
    cfg: &TslpConfig,
    t: &mut SimTime,
    rec: &R,
) -> Option<(SimDuration, Ipv4)> {
    let mut rate_limited = 0u32;
    for attempt in 0..cfg.attempts {
        if attempt > 0 && cfg.retry_backoff > SimDuration::ZERO {
            *t += retry_wait(cfg, dst, ttl, *t, attempt);
        }
        // The lite path skips truth-path collection — TSLP only reads the
        // reply's kind/rtt/responder, so this leg allocates nothing.
        let r = net.send_probe_lite(ctx, from, ProbeSpec::ttl_limited(dst, ttl), *t);
        *t += cfg.pacing;
        match r {
            Ok(rep)
                if rep.kind == PacketKind::TimeExceeded
                    || rep.kind == PacketKind::DestUnreachable =>
            {
                rec.probe(ProbeEvent {
                    end,
                    attempts: attempt + 1,
                    rate_limited,
                    rtt_ms: Some(rep.rtt.as_millis_f64()),
                });
                return Some((rep.rtt, rep.responder));
            }
            Err(ProbeError::Silent(NoResponse::RateLimited)) => {
                rate_limited += 1;
            }
            _ => {}
        }
    }
    rec.probe(ProbeEvent { end, attempts: cfg.attempts, rate_limited, rtt_ms: None });
    None
}

/// Probe one target once (near end, then far end).
pub fn tslp_probe(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    target: &TslpTarget,
    cfg: &TslpConfig,
    t0: SimTime,
) -> TslpSample {
    tslp_probe_rec(net, ctx, from, target, cfg, t0, &NoopRecorder)
}

/// [`tslp_probe`] reporting probe-level telemetry to `rec` (typically a
/// per-link [`ixp_obs::LinkRecorder`]). The measured sample is bit-identical
/// to the unrecorded call — telemetry only observes.
pub fn tslp_probe_rec<R: Recorder>(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    target: &TslpTarget,
    cfg: &TslpConfig,
    t0: SimTime,
    rec: &R,
) -> TslpSample {
    let mut t = t0;
    let near = probe_end(net, ctx, from, (target.dst, target.near_ttl, End::Near), cfg, &mut t, rec);
    let far = probe_end(net, ctx, from, (target.dst, target.far_ttl, End::Far), cfg, &mut t, rec);
    TslpSample {
        t: t0,
        near: near.map(|(rtt, _)| rtt),
        far: far.map(|(rtt, _)| rtt),
        near_addr_ok: near.map(|(_, a)| a == target.near_addr).unwrap_or(false),
        far_addr_ok: far.map(|(_, a)| a == target.far_addr).unwrap_or(false),
        path_fp: crate::fingerprint::fingerprint(near.map(|(_, a)| a), far.map(|(_, a)| a)),
    }
}

/// Run one TSLP round over `targets`, pacing probes across the whole list.
pub fn tslp_round(
    net: &Network,
    ctx: &mut ProbeCtx,
    from: NodeId,
    targets: &[TslpTarget],
    cfg: &TslpConfig,
    t0: SimTime,
) -> Vec<TslpSample> {
    let mut out = Vec::with_capacity(targets.len());
    let mut t = t0;
    for tgt in targets {
        let s = tslp_probe(net, ctx, from, tgt, cfg, t);
        // Worst case the probe_end calls consumed 2×attempts pacing slots
        // plus a maximally-jittered backoff before every retry.
        let backoff_worst =
            (cfg.retry_backoff.as_micros() as f64 * (1.0 + cfg.retry_jitter)) as u64;
        t += SimDuration::from_micros(
            cfg.pacing.as_micros() * 2 * cfg.attempts as u64
                + backoff_worst * 2 * cfg.attempts.saturating_sub(1) as u64,
        );
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{congested_line, line_topology};

    fn target() -> TslpTarget {
        TslpTarget {
            dst: Ipv4::new(10, 0, 2, 2),
            near_ttl: 1,
            far_ttl: 2,
            near_addr: Ipv4::new(10, 0, 0, 1),
            far_addr: Ipv4::new(10, 0, 1, 2),
        }
    }

    #[test]
    fn near_and_far_measured() {
        let (net, vp, _) = line_topology(7);
        let mut ctx = net.probe_ctx(0);
        let s = tslp_probe(&net, &mut ctx, vp, &target(), &TslpConfig::default(), SimTime::ZERO);
        assert!(s.near.is_some() && s.far.is_some());
        assert!(s.near_addr_ok && s.far_addr_ok);
        assert!(s.far.unwrap() > s.near.unwrap());
    }

    #[test]
    fn congestion_shows_in_far_not_near() {
        let (net, vp, _) = congested_line(8, 1.4);
        let mut ctx = net.probe_ctx(0);
        let t = SimTime(2 * 3_600_000_000);
        // Retry a few rounds: heavy overload can eat both attempts.
        let mut best = None;
        for k in 0..10 {
            let s = tslp_probe(
                &net,
                &mut ctx,
                vp,
                &target(),
                &TslpConfig::default(),
                t + SimDuration::from_secs(k * 30),
            );
            if s.far.is_some() {
                best = Some(s);
                break;
            }
        }
        let s = best.expect("no far reply in 10 rounds");
        assert!(s.near.unwrap() < SimDuration::from_millis(2));
        assert!(s.far.unwrap() > SimDuration::from_millis(5), "{:?}", s.far);
    }

    #[test]
    fn unexpected_responder_flagged() {
        let (net, vp, _) = line_topology(9);
        let mut ctx = net.probe_ctx(0);
        let mut tgt = target();
        tgt.far_addr = Ipv4::new(9, 9, 9, 9); // wrong expectation
        let s = tslp_probe(&net, &mut ctx, vp, &tgt, &TslpConfig::default(), SimTime::ZERO);
        assert!(s.far.is_some());
        assert!(!s.far_addr_ok);
    }

    #[test]
    fn round_covers_all_targets() {
        let (net, vp, _) = line_topology(10);
        let mut ctx = net.probe_ctx(0);
        let targets = vec![target(); 5];
        let round = tslp_round(&net, &mut ctx, vp, &targets, &TslpConfig::default(), SimTime::ZERO);
        assert_eq!(round.len(), 5);
        // Round timestamps advance with pacing.
        assert!(round[4].t > round[0].t);
        for s in &round {
            assert!(s.near.is_some());
        }
    }

    #[test]
    fn backoff_outwaits_icmp_rate_limiter() {
        // The far router rate-limits ICMP to 1 pps (burst 10). Draining the
        // bucket leaves an immediate retry with nothing, while a retry held
        // back ~2 s finds a refilled token.
        let setup = || {
            let (mut net, vp, _) = line_topology(12);
            net.node_mut(ixp_simnet::prelude::NodeId(2)).icmp.rate_limit_pps = Some(1.0);
            (net, vp)
        };
        let t0 = SimTime::ZERO;
        let drain = |net: &Network, ctx: &mut ProbeCtx, vp| {
            for _ in 0..10 {
                let _ = net.send_probe(ctx, vp, ProbeSpec::ttl_limited(target().dst, 2), t0);
            }
        };

        // Legacy back-to-back retries: both attempts hit the empty bucket.
        let (net, vp) = setup();
        let mut ctx = net.probe_ctx(0);
        drain(&net, &mut ctx, vp);
        let s = tslp_probe(&net, &mut ctx, vp, &target(), &TslpConfig::default(), t0);
        assert!(s.near.is_some());
        assert!(s.far.is_none(), "10 ms retry should still be rate-limited");

        // Backed-off retry: the bucket refills during the wait.
        let (net, vp) = setup();
        let mut ctx = net.probe_ctx(0);
        drain(&net, &mut ctx, vp);
        let cfg = TslpConfig { retry_backoff: SimDuration::from_secs(2), ..TslpConfig::default() };
        let s = tslp_probe(&net, &mut ctx, vp, &target(), &cfg, t0);
        assert!(s.far.is_some(), "2 s backoff must outwait a 1 pps limiter");
        assert!(s.far_addr_ok);
    }

    #[test]
    fn jittered_backoff_is_deterministic() {
        // Jitter in [backoff, 2×backoff): with a 1.5 s base the retry always
        // waits ≥ 1.5 s, enough for a 1 pps bucket — and two identical runs
        // agree bit for bit.
        let cfg = TslpConfig {
            retry_backoff: SimDuration::from_micros(1_500_000),
            retry_jitter: 1.0,
            ..TslpConfig::default()
        };
        let run = || {
            let (mut net, vp, _) = line_topology(13);
            net.node_mut(ixp_simnet::prelude::NodeId(2)).icmp.rate_limit_pps = Some(1.0);
            let mut ctx = net.probe_ctx(0);
            for _ in 0..10 {
                let _ = net.send_probe(
                    &mut ctx,
                    vp,
                    ProbeSpec::ttl_limited(target().dst, 2),
                    SimTime::ZERO,
                );
            }
            tslp_probe(&net, &mut ctx, vp, &target(), &cfg, SimTime::ZERO)
        };
        let a = run();
        let b = run();
        assert!(a.far.is_some(), "jittered backoff still outwaits the limiter");
        assert_eq!(a, b, "hash-derived jitter must reproduce exactly");
    }

    #[test]
    fn telemetry_counts_probes_and_rate_limits() {
        use ixp_obs::LinkRecorder;
        // Clean line: both ends answer on the first attempt.
        let (net, vp, _) = line_topology(14);
        let mut ctx = net.probe_ctx(0);
        let lr = LinkRecorder::new();
        let s = tslp_probe_rec(&net, &mut ctx, vp, &target(), &TslpConfig::default(), SimTime::ZERO, &lr);
        assert!(s.near.is_some() && s.far.is_some());
        let led = lr.ledger_snapshot();
        assert_eq!((led.sent, led.answered, led.retries), (2, 2, 0));
        assert_eq!((led.timed_out, led.rate_limited), (0, 0));

        // Far router rate-limits and its bucket is drained: both far
        // attempts are eaten, the round times out on the far end.
        let (mut net, vp, _) = line_topology(15);
        net.node_mut(ixp_simnet::prelude::NodeId(2)).icmp.rate_limit_pps = Some(1.0);
        let mut ctx = net.probe_ctx(0);
        for _ in 0..10 {
            let _ = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(target().dst, 2), SimTime::ZERO);
        }
        let lr = LinkRecorder::new();
        let s = tslp_probe_rec(&net, &mut ctx, vp, &target(), &TslpConfig::default(), SimTime::ZERO, &lr);
        assert!(s.near.is_some() && s.far.is_none());
        let led = lr.ledger_snapshot();
        assert_eq!(led.sent, 3, "near 1 + far 2 attempts");
        assert_eq!(led.rate_limited, 2, "both far attempts eaten by the limiter");
        assert_eq!(led.timed_out, 1, "far end timed out");
        assert_eq!(led.retries, 1);
    }

    #[test]
    fn recorded_probe_is_bit_identical_to_plain() {
        let run = |recorded: bool| {
            let (net, vp, _) = congested_line(16, 1.3);
            let mut ctx = net.probe_ctx(0);
            let t = SimTime(5 * 3_600_000_000);
            if recorded {
                let lr = ixp_obs::LinkRecorder::new();
                tslp_probe_rec(&net, &mut ctx, vp, &target(), &TslpConfig::default(), t, &lr)
            } else {
                tslp_probe(&net, &mut ctx, vp, &target(), &TslpConfig::default(), t)
            }
        };
        assert_eq!(run(true), run(false), "telemetry must only observe");
    }

    #[test]
    fn unresponsive_far_gives_none() {
        let (mut net, vp, _) = line_topology(11);
        net.node_mut(ixp_simnet::prelude::NodeId(2)).icmp.responsive = false;
        let mut ctx = net.probe_ctx(0);
        let s = tslp_probe(&net, &mut ctx, vp, &target(), &TslpConfig::default(), SimTime::ZERO);
        assert!(s.near.is_some());
        assert!(s.far.is_none());
        assert!(!s.far_addr_ok);
    }
}
