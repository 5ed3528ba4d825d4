//! Structured fault injection — the smoltcp examples' `--drop-chance`
//! spirit, adapted to a measurement-study substrate.
//!
//! A [`FaultPlan`] is a declarative list of faults that compiles onto an
//! existing [`Network`]: link flaps become steps in the link's up/down
//! schedule, router maintenance becomes ICMP silent windows, rate-limiter
//! and source-address pathologies flip the corresponding node knobs. Because
//! everything lands in schedules and static configuration, injected faults
//! are deterministic, random-access, and free at probe time.
//!
//! The study-level purpose (§5.2): a congestion pipeline must tell *links
//! misbehaving* apart from *measurement misbehaving*. Tests build plans
//! with [`FaultPlan::random_link_flaps`] and friends and assert the
//! pipeline refuses to call any of it congestion.

use crate::ip::Prefix;
use crate::link::LinkId;
use crate::net::Network;
use crate::node::{FwdState, IfaceId, NodeId, RespondFrom};
use crate::rng::HashNoise;
use crate::time::{SimDuration, SimTime};

/// One injectable fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// The link is down during `[from, until)`.
    LinkOutage {
        /// Affected link.
        link: LinkId,
        /// Outage start.
        from: SimTime,
        /// Outage end.
        until: SimTime,
    },
    /// The node answers no ICMP during `[from, until)` (maintenance).
    NodeMaintenance {
        /// Affected node.
        node: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// The node permanently rate-limits ICMP responses.
    IcmpRateLimit {
        /// Affected node.
        node: NodeId,
        /// Responses per second.
        pps: f64,
    },
    /// The node permanently sources ICMP errors from a fixed address
    /// (loopback-sourced routers).
    LoopbackSourced {
        /// Affected node.
        node: NodeId,
        /// The fixed source address.
        addr: crate::ip::Ipv4,
    },
    /// The node never answers again from `from` (decommissioned ACL).
    PermanentSilence {
        /// Affected node.
        node: NodeId,
        /// When silence begins.
        from: SimTime,
    },
    /// A BGP session reset at `node`: the route for `prefix` is torn down at
    /// `at` and re-installed (back to the converged static path) once the
    /// session re-establishes, `downtime` later. Probes in between draw
    /// destination-unreachables / blackholes — the paper's GHANATEL
    /// "latency probes to the far end were unsuccessful" signature.
    SessionReset {
        /// Router whose session resets.
        node: NodeId,
        /// Prefix carried by the session.
        prefix: Prefix,
        /// Reset instant.
        at: SimTime,
        /// Time until the session re-converges.
        downtime: SimDuration,
    },
    /// `prefix` is withdrawn at `node` from `from`; if `until` is `Some`,
    /// it is re-announced (static path restored) at that instant, otherwise
    /// the withdrawal is permanent (the 06/08/2016 link-removal shape).
    PrefixWithdraw {
        /// Router losing the route.
        node: NodeId,
        /// Withdrawn prefix.
        prefix: Prefix,
        /// Withdrawal instant.
        from: SimTime,
        /// Optional re-announcement instant.
        until: Option<SimTime>,
    },
    /// A policy flip: from `from`, `node` prefers a different egress for
    /// `prefix` (`via`), e.g. after a local-pref change or a transit
    /// shutdown forcing traffic onto a longer peer path. `None` until
    /// means the flip is permanent.
    RouteFlip {
        /// Router whose best path changes.
        node: NodeId,
        /// Affected prefix.
        prefix: Prefix,
        /// New egress interface.
        via: IfaceId,
        /// Flip instant.
        from: SimTime,
        /// Optional instant at which the old best path returns.
        until: Option<SimTime>,
    },
    /// A reconfiguration transient: at `at` the router briefly installs a
    /// *wrong* path (`wrong_via`) for `prefix` — the transient forwarding
    /// state BGP exploration produces — and settles back to the converged
    /// route after `settle`.
    ReconfigTransient {
        /// Router undergoing reconfiguration.
        node: NodeId,
        /// Affected prefix.
        prefix: Prefix,
        /// The transient (wrong/longer) egress.
        wrong_via: IfaceId,
        /// Transient start.
        at: SimTime,
        /// Time until re-convergence.
        settle: SimDuration,
    },
}

impl Fault {
    /// The instant this fault takes effect (permanent knob flips count as
    /// the epoch). Used to apply plans in deterministic (time, insertion)
    /// order regardless of how the plan was assembled.
    pub fn at(&self) -> SimTime {
        match self {
            Fault::LinkOutage { from, .. } => *from,
            Fault::NodeMaintenance { from, .. } => *from,
            Fault::IcmpRateLimit { .. } => SimTime::ZERO,
            Fault::LoopbackSourced { .. } => SimTime::ZERO,
            Fault::PermanentSilence { from, .. } => *from,
            Fault::SessionReset { at, .. } => *at,
            Fault::PrefixWithdraw { from, .. } => *from,
            Fault::RouteFlip { from, .. } => *from,
            Fault::ReconfigTransient { at, .. } => *at,
        }
    }
}

/// A collection of faults, applied in one shot.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The faults to inject.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add one fault (builder style).
    pub fn with(mut self, f: Fault) -> FaultPlan {
        self.faults.push(f);
        self
    }

    /// Generate random link outages: each link in `links` suffers, in
    /// expectation, `rate_per_year` outages of `min_dur..max_dur` spread
    /// over `[from, until)`. Deterministic in `noise`.
    pub fn random_link_flaps(
        links: &[LinkId],
        from: SimTime,
        until: SimTime,
        rate_per_year: f64,
        min_dur: SimDuration,
        max_dur: SimDuration,
        noise: &HashNoise,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let span = until.since(from);
        let years = span.as_secs_f64() / (365.0 * 86_400.0);
        for &l in links {
            let expect = rate_per_year * years;
            let n = expect.floor() as u64
                + u64::from(noise.chance(0xFA, l.0 as u64, expect.fract()));
            for k in 0..n {
                let key = (l.0 as u64) << 16 | k;
                let start_frac = noise.unit_f64(0xFB, key);
                let dur_us = noise.range_f64(
                    0xFC,
                    key,
                    min_dur.as_micros() as f64,
                    max_dur.as_micros() as f64,
                ) as u64;
                let start = from + SimDuration::from_micros((span.as_micros() as f64 * start_frac) as u64);
                // Clamp to the plan window: an outage drawn near `until`
                // must not leak past the campaign end.
                let end = SimTime(
                    start
                        .0
                        .saturating_add(dur_us)
                        .min(until.0),
                );
                plan.faults.push(Fault::LinkOutage { link: l, from: start, until: end });
            }
        }
        plan
    }

    /// Compile the plan onto a network. Returns the number of faults applied.
    ///
    /// Faults are applied in stable (effect time, insertion order): two
    /// events landing on the same schedule at the same instant resolve
    /// last-writer-wins, so the application order must be a deterministic
    /// function of the plan itself — not of how a storm generator happened
    /// to interleave them — or checkpoint/resume would diverge.
    pub fn apply(&self, net: &mut Network) -> usize {
        let mut ordered: Vec<&Fault> = self.faults.iter().collect();
        ordered.sort_by_key(|f| f.at()); // stable: ties keep insertion order
        for f in ordered {
            match f {
                Fault::LinkOutage { link, from, until } => {
                    // Outside the outage the link keeps its own schedule,
                    // and an overlapping outage extends this one.
                    net.link_mut(*link).up_mut().set_between(*from, *until, false);
                }
                Fault::NodeMaintenance { node, from, until } => {
                    net.node_mut(*node).icmp.silent_windows.push((*from, *until));
                }
                Fault::IcmpRateLimit { node, pps } => {
                    net.node_mut(*node).icmp.rate_limit_pps = Some(*pps);
                }
                Fault::LoopbackSourced { node, addr } => {
                    net.node_mut(*node).icmp.respond_from = RespondFrom::Fixed(*addr);
                }
                Fault::PermanentSilence { node, from } => {
                    net.node_mut(*node)
                        .icmp
                        .silent_windows
                        .push((*from, SimTime(u64::MAX)));
                }
                Fault::SessionReset { node, prefix, at, downtime } => {
                    let n = net.node_mut(*node);
                    n.push_fwd_step(*prefix, *at, FwdState::Drop);
                    n.push_fwd_step(*prefix, *at + *downtime, FwdState::Static);
                }
                Fault::PrefixWithdraw { node, prefix, from, until } => {
                    let n = net.node_mut(*node);
                    n.push_fwd_step(*prefix, *from, FwdState::Drop);
                    if let Some(u) = until {
                        n.push_fwd_step(*prefix, *u, FwdState::Static);
                    }
                }
                Fault::RouteFlip { node, prefix, via, from, until } => {
                    let n = net.node_mut(*node);
                    n.push_fwd_step(*prefix, *from, FwdState::Via(*via));
                    if let Some(u) = until {
                        n.push_fwd_step(*prefix, *u, FwdState::Static);
                    }
                }
                Fault::ReconfigTransient { node, prefix, wrong_via, at, settle } => {
                    let n = net.node_mut(*node);
                    n.push_fwd_step(*prefix, *at, FwdState::Via(*wrong_via));
                    n.push_fwd_step(*prefix, *at + *settle, FwdState::Static);
                }
            }
        }
        self.faults.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::net::ProbeSpec;
    use crate::node::{Asn, IfaceId, NodeKind};
    use crate::ip::{Ipv4, Prefix};

    fn line() -> (Network, NodeId, Ipv4) {
        let mut net = Network::new(5);
        let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
        let r = net.add_node(NodeKind::Router, Asn(2), "r");
        net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
        net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r, Prefix::DEFAULT, IfaceId(0));
        (net, vp, Ipv4::new(10, 0, 0, 1))
    }

    #[test]
    fn link_outage_window() {
        let (mut net, vp, tgt) = line();
        let plan = FaultPlan::new().with(Fault::LinkOutage {
            link: LinkId(0),
            from: SimTime(1_000_000),
            until: SimTime(2_000_000),
        });
        assert_eq!(plan.apply(&mut net), 1);
        let mut ctx = net.probe_ctx(0);
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(0)).is_ok());
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(1_500_000)).is_err());
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(3_000_000)).is_ok());
    }

    #[test]
    fn outage_respects_preexisting_schedule() {
        let (mut net, vp, tgt) = line();
        // The link was already scheduled to die permanently at t=5s.
        net.link_mut(LinkId(0)).up_mut().step(SimTime(5_000_000), false);
        FaultPlan::new()
            .with(Fault::LinkOutage { link: LinkId(0), from: SimTime(1_000_000), until: SimTime(2_000_000) })
            .apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(3_000_000)).is_ok());
        // Still permanently dead after its own schedule says so.
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(6_000_000)).is_err());
    }

    #[test]
    fn overlapping_outages_compose() {
        // [10 s, 30 s) and [20 s, 40 s): the link stays down until 40 s.
        let (mut net, vp, tgt) = line();
        let outage = |from: u64, until: u64| Fault::LinkOutage {
            link: LinkId(0),
            from: SimTime(from * 1_000_000),
            until: SimTime(until * 1_000_000),
        };
        FaultPlan::new().with(outage(20, 40)).with(outage(10, 30)).apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        for (secs, up) in [(5, true), (15, false), (25, false), (35, false), (45, true)] {
            let ok = net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(secs * 1_000_000)).is_ok();
            assert_eq!(ok, up, "at {secs} s");
        }
    }

    #[test]
    fn maintenance_window_silences_node() {
        let (mut net, vp, tgt) = line();
        // The window must be judged at packet *arrival* (transit adds ~ms),
        // so use second-scale bounds.
        FaultPlan::new()
            .with(Fault::NodeMaintenance { node: NodeId(1), from: SimTime(10_000_000), until: SimTime(20_000_000) })
            .apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(0)).is_ok());
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(15_000_000)).is_err());
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(30_000_000)).is_ok());
    }

    #[test]
    fn permanent_silence() {
        let (mut net, vp, tgt) = line();
        FaultPlan::new()
            .with(Fault::PermanentSilence { node: NodeId(1), from: SimTime(1_000_000) })
            .apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(0)).is_ok());
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(u64::MAX / 2)).is_err());
    }

    /// vp — r1 — r2, with 41.0.0.0/24 terminating on r2 (stub) and routed
    /// from r1 via its r2-facing interface. Returns (net, vp, dst).
    fn line3() -> (Network, NodeId, Ipv4) {
        let mut net = Network::new(6);
        let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
        let r1 = net.add_node(NodeKind::Router, Asn(2), "r1");
        let r2 = net.add_node(NodeKind::Router, Asn(3), "r2");
        net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r1, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
        net.connect_idle(r1, Ipv4::new(10, 0, 1, 1), r2, Ipv4::new(10, 0, 1, 2), LinkConfig::default());
        let p: Prefix = "41.0.0.0/24".parse().unwrap();
        net.add_stub_iface(r2, Ipv4::new(41, 0, 0, 1));
        let stub = net.node(NodeId(2)).iface_by_addr(Ipv4::new(41, 0, 0, 1)).unwrap();
        net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r1, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r1, p, IfaceId(1));
        net.add_route(r2, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r2, p, stub);
        (net, vp, Ipv4::new(41, 0, 0, 1))
    }

    #[test]
    fn session_reset_blackholes_then_reconverges() {
        let (mut net, vp, dst) = line3();
        FaultPlan::new()
            .with(Fault::SessionReset {
                node: NodeId(1),
                prefix: "41.0.0.0/24".parse().unwrap(),
                at: SimTime(10_000_000),
                downtime: SimDuration::from_secs(10),
            })
            .apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        assert!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(dst), SimTime(0)).is_ok());
        // During the reset, r1 has no route: destination unreachable from r1.
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(dst), SimTime(15_000_000)).unwrap();
        assert_eq!(r.responder, Ipv4::new(10, 0, 0, 1));
        assert_eq!(r.kind, crate::packet::PacketKind::DestUnreachable);
        // Re-converged: the echo completes again.
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(dst), SimTime(25_000_000)).unwrap();
        assert_eq!(r.responder, dst);
    }

    #[test]
    fn permanent_withdrawal_never_recovers() {
        let (mut net, vp, dst) = line3();
        FaultPlan::new()
            .with(Fault::PrefixWithdraw {
                node: NodeId(1),
                prefix: "41.0.0.0/24".parse().unwrap(),
                from: SimTime(1_000_000),
                until: None,
            })
            .apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        assert_eq!(net.send_probe(&mut ctx, vp, ProbeSpec::echo(dst), SimTime(0)).unwrap().responder, dst);
        let late = net.send_probe(&mut ctx, vp, ProbeSpec::echo(dst), SimTime(u64::MAX / 2)).unwrap();
        assert_eq!(late.kind, crate::packet::PacketKind::DestUnreachable);
    }

    #[test]
    fn route_flip_moves_traffic_to_parallel_link() {
        let (mut net, vp, _dst) = line3();
        // Parallel r1–r2 link; flip 41/24 onto it for an hour.
        net.connect_idle(NodeId(1), Ipv4::new(10, 0, 2, 1), NodeId(2), Ipv4::new(10, 0, 2, 2), LinkConfig::default());
        let alt = net.node(NodeId(1)).iface_by_addr(Ipv4::new(10, 0, 2, 1)).unwrap();
        FaultPlan::new()
            .with(Fault::RouteFlip {
                node: NodeId(1),
                prefix: "41.0.0.0/24".parse().unwrap(),
                via: alt,
                from: SimTime(3_600_000_000),
                until: Some(SimTime(7_200_000_000)),
            })
            .apply(&mut net);
        // TTL 2 expires at r2; the Time Exceeded source names the link used.
        let mut ctx = net.probe_ctx(0);
        let before = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(41, 0, 0, 9), 2), SimTime(0)).unwrap();
        assert_eq!(before.responder, Ipv4::new(10, 0, 1, 2));
        let during = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(41, 0, 0, 9), 2), SimTime(5_000_000_000)).unwrap();
        assert_eq!(during.responder, Ipv4::new(10, 0, 2, 2));
        let after = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(41, 0, 0, 9), 2), SimTime(9_000_000_000)).unwrap();
        assert_eq!(after.responder, Ipv4::new(10, 0, 1, 2));
    }

    #[test]
    fn reconfig_transient_settles_back() {
        let (mut net, vp, _dst) = line3();
        net.connect_idle(NodeId(1), Ipv4::new(10, 0, 2, 1), NodeId(2), Ipv4::new(10, 0, 2, 2), LinkConfig::default());
        let wrong = net.node(NodeId(1)).iface_by_addr(Ipv4::new(10, 0, 2, 1)).unwrap();
        FaultPlan::new()
            .with(Fault::ReconfigTransient {
                node: NodeId(1),
                prefix: "41.0.0.0/24".parse().unwrap(),
                wrong_via: wrong,
                at: SimTime(10_000_000),
                settle: SimDuration::from_secs(30),
            })
            .apply(&mut net);
        let mut ctx = net.probe_ctx(0);
        let during = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(41, 0, 0, 9), 2), SimTime(20_000_000)).unwrap();
        assert_eq!(during.responder, Ipv4::new(10, 0, 2, 2));
        let after = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(41, 0, 0, 9), 2), SimTime(60_000_000)).unwrap();
        assert_eq!(after.responder, Ipv4::new(10, 0, 1, 2));
    }

    #[test]
    fn identical_timestamps_apply_in_insertion_order() {
        // Two flips of the same prefix at the same instant: the later
        // insertion must win, whichever order `apply` walks internally.
        let build = |first_alt: bool| {
            let (mut net, vp, _dst) = line3();
            net.connect_idle(NodeId(1), Ipv4::new(10, 0, 2, 1), NodeId(2), Ipv4::new(10, 0, 2, 2), LinkConfig::default());
            let alt = net.node(NodeId(1)).iface_by_addr(Ipv4::new(10, 0, 2, 1)).unwrap();
            let main = IfaceId(1);
            let p: Prefix = "41.0.0.0/24".parse().unwrap();
            let t = SimTime(10_000_000);
            let (a, b) = if first_alt { (alt, main) } else { (main, alt) };
            FaultPlan::new()
                .with(Fault::RouteFlip { node: NodeId(1), prefix: p, via: a, from: t, until: None })
                .with(Fault::RouteFlip { node: NodeId(1), prefix: p, via: b, from: t, until: None })
                .apply(&mut net);
            let mut ctx = net.probe_ctx(0);
            net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(41, 0, 0, 9), 2), SimTime(20_000_000)).unwrap().responder
        };
        assert_eq!(build(true), Ipv4::new(10, 0, 1, 2));
        assert_eq!(build(false), Ipv4::new(10, 0, 2, 2));
    }

    #[test]
    fn apply_order_is_time_sorted_but_stable() {
        // A plan assembled "out of order" (late event first) applies
        // identically to its time-sorted permutation.
        let p: Prefix = "41.0.0.0/24".parse().unwrap();
        let early = Fault::SessionReset {
            node: NodeId(1),
            prefix: p,
            at: SimTime(5_000_000),
            downtime: SimDuration::from_secs(2),
        };
        let late = Fault::PrefixWithdraw { node: NodeId(1), prefix: p, from: SimTime(50_000_000), until: None };
        let probe_at = |plan: FaultPlan, t: u64| {
            let (mut net, vp, dst) = line3();
            plan.apply(&mut net);
            let mut ctx = net.probe_ctx(0);
            net.send_probe(&mut ctx, vp, ProbeSpec::echo(dst), SimTime(t)).unwrap().kind
        };
        for t in [0u64, 6_000_000, 20_000_000, 60_000_000] {
            assert_eq!(
                probe_at(FaultPlan::new().with(late.clone()).with(early.clone()), t),
                probe_at(FaultPlan::new().with(early.clone()).with(late.clone()), t),
                "divergence at t={t}"
            );
        }
    }

    #[test]
    fn random_flaps_deterministic_and_bounded() {
        let noise = HashNoise::new(77);
        let links: Vec<LinkId> = (0..50).map(LinkId).collect();
        let from = SimTime::from_date(2016, 3, 1);
        let until = SimTime::from_date(2017, 3, 1);
        let a = FaultPlan::random_link_flaps(
            &links,
            from,
            until,
            3.0,
            SimDuration::from_mins(10),
            SimDuration::from_hours(4),
            &noise,
        );
        let b = FaultPlan::random_link_flaps(
            &links,
            from,
            until,
            3.0,
            SimDuration::from_mins(10),
            SimDuration::from_hours(4),
            &noise,
        );
        assert_eq!(a.faults.len(), b.faults.len());
        // ~3 per link per year in expectation.
        let per_link = a.faults.len() as f64 / links.len() as f64;
        assert!((2.0..4.0).contains(&per_link), "{per_link}");
        for f in &a.faults {
            if let Fault::LinkOutage { from: s, until: e, .. } = f {
                assert!(s < e);
                assert!(*s >= from);
                assert!(*e <= until, "outage {e:?} leaks past the window end {until:?}");
            }
        }
    }
}
