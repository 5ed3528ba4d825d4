//! Discrete-event execution: agents, an event heap, and hop-by-hop packet
//! delivery.
//!
//! The fast path walk in [`crate::net`] computes a probe's whole round trip
//! in one call; the kernel instead schedules **each hop as an event**, which
//! is the right tool when agents must interleave — e.g. an alias-resolution
//! agent firing back-to-back probes at two addresses and comparing IP-IDs, or
//! failure-injection experiments where the topology mutates mid-flight. Both
//! modes share [`crate::net::Network::forward_step`] and
//! [`crate::net::Network::generate_response`]; the kernel drives them with
//! the [`ProbeCtx`] it owns, and tests assert both modes time packets
//! identically.
//!
//! Agents follow a command-buffer pattern: callbacks receive a [`AgentCtx`]
//! into which they push sends and wake-ups; the kernel applies them after the
//! callback returns, so agent code never aliases the network.

use crate::net::{ForwardStep, Network, ProbeCtx, ProbeError, ProbeSpec};
use crate::node::{IfaceId, NodeId};
use crate::packet::{Packet, PacketKind, ProbeId};
use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Identifies an agent registered with the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AgentId(pub u32);

/// What an agent hears back about one of its probes.
#[derive(Clone, Debug)]
pub enum ProbeEvent {
    /// A response arrived.
    Response {
        /// The probe this answers.
        probe: ProbeId,
        /// Response source address.
        from: crate::ip::Ipv4,
        /// Response kind.
        kind: PacketKind,
        /// Responder's IP-ID.
        ip_id: u16,
        /// Recorded route (if the probe carried the option).
        record_route: Option<Vec<crate::ip::Ipv4>>,
        /// Round-trip time.
        rtt: SimDuration,
        /// The caller's tag from [`AgentCtx::send_tagged`] (0 for `send`).
        tag: u64,
    },
    /// The probe will never be answered.
    Failed {
        /// The probe that died.
        probe: ProbeId,
        /// Why.
        error: ProbeError,
        /// The caller's tag from [`AgentCtx::send_tagged`] (0 for `send`).
        tag: u64,
    },
}

/// Commands an agent may issue from a callback.
pub struct AgentCtx {
    now: SimTime,
    sends: Vec<(ProbeSpec, u64)>,
    wakeups: Vec<SimTime>,
    stopped: bool,
}

impl AgentCtx {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }
    /// Send a probe from this agent's host.
    pub fn send(&mut self, spec: ProbeSpec) {
        self.sends.push((spec, 0));
    }
    /// Send a probe carrying an opaque tag, echoed back on the matching
    /// [`ProbeEvent`]. A fleet agent monitoring thousands of links tags each
    /// probe with its link index instead of keeping a probe-id map.
    pub fn send_tagged(&mut self, spec: ProbeSpec, tag: u64) {
        self.sends.push((spec, tag));
    }
    /// Request a wake-up callback at `t`.
    pub fn wake_at(&mut self, t: SimTime) {
        self.wakeups.push(t);
    }
    /// Request a wake-up after `d`.
    pub fn wake_after(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.wakeups.push(t);
    }
    /// Deregister this agent after the callback.
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

/// A logical process driven by the kernel.
pub trait Agent {
    /// Called once when the kernel starts.
    fn on_start(&mut self, ctx: &mut AgentCtx);
    /// Called when a probe resolves (response or failure).
    fn on_probe_event(&mut self, ev: ProbeEvent, ctx: &mut AgentCtx);
    /// Called at a requested wake-up time.
    fn on_wake(&mut self, ctx: &mut AgentCtx) {
        let _ = ctx;
    }
}

enum Event {
    /// Packet sits at `node` (arrived via `incoming`) and needs a forwarding step.
    Step { origin: NodeId, node: NodeId, incoming: Option<IfaceId>, pkt: Packet, hops: usize, agent: AgentId, tag: u64 },
    /// Deliver a generated response onto the wire.
    Respond { node: NodeId, kind: PacketKind, src: crate::ip::Ipv4, pkt: Packet, agent: AgentId, tag: u64 },
    /// Wake an agent.
    Wake(AgentId),
}

/// A pending event on the heap, ordered by `(at, seq)` alone: `seq` is the
/// push counter, so events due at the same instant run in push order.
struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event kernel. Owns the network, the registered agents and
/// the probing context every probe it walks draws its state from.
pub struct Kernel {
    /// The simulated network (accessible between runs; the kernel's context
    /// follows any mutation through the network's epochs).
    pub net: Network,
    ctx: ProbeCtx,
    agents: Vec<Option<(NodeId, Box<dyn Agent>)>>,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl Kernel {
    /// Wrap a network. Probes draw ids 1, 2, 3, … from the kernel's
    /// default-stream context, as a fast-path walk through
    /// `net.probe_ctx(0)` would.
    pub fn new(net: Network) -> Kernel {
        Kernel { net, ctx: ProbeCtx::default(), agents: Vec::new(), heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO, processed: 0 }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Register an agent homed at `host`.
    pub fn add_agent(&mut self, host: NodeId, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some((host, agent)));
        id
    }

    fn push(&mut self, at: SimTime, ev: Event) {
        self.heap.push(Reverse(Scheduled { at, seq: self.seq, ev }));
        self.seq += 1;
    }

    fn apply_ctx(&mut self, agent: AgentId, host: NodeId, ctx: AgentCtx) {
        if ctx.stopped {
            self.agents[agent.0 as usize] = None;
        }
        for t in ctx.wakeups {
            self.push(t.max(self.now), Event::Wake(agent));
        }
        for (spec, tag) in ctx.sends {
            let probe_id = self.ctx.alloc_probe_id();
            let src = self.net.primary_addr(host);
            let mut pkt = Packet::probe(src, spec.dst, spec.kind, spec.ttl, probe_id, self.now);
            pkt.size = spec.size;
            if spec.record_route {
                pkt = pkt.with_record_route();
            }
            self.push(self.now, Event::Step { origin: host, node: host, incoming: None, pkt, hops: 0, agent, tag });
        }
    }

    fn dispatch_probe_event(&mut self, agent: AgentId, ev: ProbeEvent) {
        if let Some((host, mut a)) = self.agents[agent.0 as usize].take() {
            let mut ctx = AgentCtx { now: self.now, sends: Vec::new(), wakeups: Vec::new(), stopped: false };
            a.on_probe_event(ev, &mut ctx);
            self.agents[agent.0 as usize] = Some((host, a));
            self.apply_ctx(agent, host, ctx);
        }
    }

    /// Run until the event heap drains or `until` is reached. Returns the
    /// number of events processed by this call.
    pub fn run(&mut self, until: Option<SimTime>) -> u64 {
        let before = self.processed;
        // Seed: start any agents that have not run yet.
        for i in 0..self.agents.len() {
            if let Some((host, mut a)) = self.agents[i].take() {
                let mut ctx = AgentCtx { now: self.now, sends: Vec::new(), wakeups: Vec::new(), stopped: false };
                a.on_start(&mut ctx);
                self.agents[i] = Some((host, a));
                self.apply_ctx(AgentId(i as u32), host, ctx);
            }
        }
        loop {
            let Some(next) = self.heap.peek_mut() else { break };
            if until.is_some_and(|u| next.0.at > u) {
                break;
            }
            let Reverse(Scheduled { at, ev, .. }) = PeekMut::pop(next);
            self.now = self.now.max(at);
            self.processed += 1;
            match ev {
                Event::Wake(agent) => {
                    if let Some((host, mut a)) = self.agents[agent.0 as usize].take() {
                        let mut ctx = AgentCtx { now: self.now, sends: Vec::new(), wakeups: Vec::new(), stopped: false };
                        a.on_wake(&mut ctx);
                        self.agents[agent.0 as usize] = Some((host, a));
                        self.apply_ctx(agent, host, ctx);
                    }
                }
                Event::Step { origin, node, incoming, mut pkt, hops, agent, tag } => {
                    let step = self.net.forward_step(&mut self.ctx, origin, node, incoming, &mut pkt, self.now, hops);
                    match step {
                        ForwardStep::Hop { next, incoming, arrive, .. } => {
                            self.push(arrive, Event::Step { origin, node: next, incoming: Some(incoming), pkt, hops: hops + 1, agent, tag });
                        }
                        ForwardStep::Respond { node, kind, src } => {
                            if pkt.kind.is_response() {
                                // A response eliciting a response: blackhole.
                                let probe = pkt.probe;
                                self.dispatch_probe_event(
                                    agent,
                                    ProbeEvent::Failed { probe, error: ProbeError::DroppedReturn(crate::link::DropReason::LinkDown), tag },
                                );
                            } else {
                                self.push(self.now, Event::Respond { node, kind, src, pkt, agent, tag });
                            }
                        }
                        ForwardStep::Consumed { at, .. } => {
                            let probe = pkt.probe;
                            // Same host-stack jitter as the fast path, so the
                            // two engines agree exactly.
                            let j = self.net.noise().range_f64(
                                crate::rng::streams::RTT_JITTER,
                                probe.0,
                                0.0,
                                self.net.rtt_jitter.as_secs_f64(),
                            );
                            let rtt = at.since(pkt.sent_at) + SimDuration::from_secs_f64(j);
                            self.dispatch_probe_event(
                                agent,
                                ProbeEvent::Response {
                                    probe,
                                    from: pkt.src,
                                    kind: pkt.kind,
                                    ip_id: pkt.ip_id,
                                    record_route: pkt.record_route.take().map(|rr| rr.hops),
                                    rtt,
                                    tag,
                                },
                            );
                        }
                        ForwardStep::Fail(error) => {
                            let probe = pkt.probe;
                            self.dispatch_probe_event(agent, ProbeEvent::Failed { probe, error, tag });
                        }
                    }
                }
                Event::Respond { node, kind, src, pkt, agent, tag } => match self.net.generate_response(&mut self.ctx, node, kind, src, &pkt, self.now) {
                    Ok((response, leave)) => {
                        self.push(leave, Event::Step { origin: node, node, incoming: None, pkt: response, hops: 0, agent, tag });
                    }
                    Err(error) => {
                        let probe = pkt.probe;
                        self.dispatch_probe_event(agent, ProbeEvent::Failed { probe, error, tag });
                    }
                },
            }
        }
        self.processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::{Ipv4, Prefix};
    use crate::link::{ConstantLoad, Dir, LinkConfig, LinkId, Schedule};
    use crate::node::{Asn, NoResponse, NodeKind};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    fn line() -> (Network, NodeId, Ipv4) {
        let mut net = Network::new(42);
        let vp = net.add_node(NodeKind::Host, Asn(100), "vp");
        let r1 = net.add_node(NodeKind::Router, Asn(100), "r1");
        let r2 = net.add_node(NodeKind::Router, Asn(200), "r2");
        let tgt = net.add_node(NodeKind::Host, Asn(200), "tgt");
        let cfg = LinkConfig::default();
        net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r1, Ipv4::new(10, 0, 0, 1), cfg.clone());
        net.connect_idle(r1, Ipv4::new(10, 0, 1, 1), r2, Ipv4::new(10, 0, 1, 2), cfg.clone());
        net.connect_idle(r2, Ipv4::new(10, 0, 2, 1), tgt, Ipv4::new(10, 0, 2, 2), cfg);
        net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r1, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r1, Prefix::DEFAULT, IfaceId(1));
        net.add_route(r2, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r2, "10.0.2.0/24".parse().unwrap(), IfaceId(1));
        net.add_route(tgt, Prefix::DEFAULT, IfaceId(0));
        (net, vp, Ipv4::new(10, 0, 2, 2))
    }

    /// `line()` with its middle link overloaded (1.3e8 bps offered on a
    /// 1e8 bps link, so it tail-drops) and its far router rate-limited to
    /// 0.05 ICMP responses per second — slow enough that one probe per 7 s
    /// empties the bucket within the 40 rounds the tests below send.
    fn loaded_line() -> (Network, NodeId, Ipv4) {
        let (mut net, vp, tgt) = line();
        let l = net.link_mut(LinkId(1));
        *l.capacity_mut() = Schedule::constant(1e8);
        l.set_load(Dir::AtoB, Arc::new(ConstantLoad(1.3e8)));
        net.node_mut(NodeId(2)).icmp.rate_limit_pps = Some(0.05);
        (net, vp, tgt)
    }

    /// One probe outcome: probe id, then `(rtt, ip_id)` or the error.
    type Outcome = (u64, Result<(SimDuration, u16), ProbeError>);

    /// Every `period`, `rounds` times, sends one probe at each TTL in `ttls`
    /// and logs each outcome as its event arrives.
    struct Rounds {
        dst: Ipv4,
        ttls: Vec<u8>,
        period: SimDuration,
        rounds: u32,
        log: Rc<RefCell<Vec<Outcome>>>,
    }

    impl Agent for Rounds {
        fn on_start(&mut self, ctx: &mut AgentCtx) {
            ctx.wake_at(SimTime::ZERO);
        }
        fn on_wake(&mut self, ctx: &mut AgentCtx) {
            if self.rounds == 0 {
                return;
            }
            self.rounds -= 1;
            for &ttl in &self.ttls {
                ctx.send(ProbeSpec::ttl_limited(self.dst, ttl));
            }
            ctx.wake_after(self.period);
        }
        fn on_probe_event(&mut self, ev: ProbeEvent, _ctx: &mut AgentCtx) {
            self.log.borrow_mut().push(match ev {
                ProbeEvent::Response { probe, rtt, ip_id, .. } => (probe.0, Ok((rtt, ip_id))),
                ProbeEvent::Failed { probe, error, .. } => (probe.0, Err(error)),
            });
        }
    }

    struct OneShot {
        dst: Ipv4,
        ttl: u8,
        result: Rc<RefCell<Option<Result<SimDuration, ProbeError>>>>,
    }

    impl Agent for OneShot {
        fn on_start(&mut self, ctx: &mut AgentCtx) {
            ctx.send(ProbeSpec::ttl_limited(self.dst, self.ttl));
        }
        fn on_probe_event(&mut self, ev: ProbeEvent, ctx: &mut AgentCtx) {
            match ev {
                ProbeEvent::Response { rtt, .. } => *self.result.borrow_mut() = Some(Ok(rtt)),
                ProbeEvent::Failed { error, .. } => *self.result.borrow_mut() = Some(Err(error)),
            }
            ctx.stop();
        }
    }

    #[test]
    fn kernel_and_fast_path_agree_on_rtt() {
        // Same probe, two engines, identical timing. Probe ids must line up:
        // both contexts allocate id 1 for their first probe.
        let (fast_net, vp, tgt) = line();
        let mut ctx = fast_net.probe_ctx(0);
        let fast = fast_net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt, 2), SimTime::ZERO).unwrap();

        let (net, vp2, tgt2) = line();
        let result = Rc::new(RefCell::new(None));
        let mut k = Kernel::new(net);
        k.add_agent(vp2, Box::new(OneShot { dst: tgt2, ttl: 2, result: result.clone() }));
        k.run(None);
        let kernel_rtt = result.borrow().clone().unwrap().unwrap();
        assert_eq!(kernel_rtt, fast.rtt);
    }

    #[test]
    fn kernel_and_fast_path_agree_over_a_series() {
        // 40 rounds, 7 s apart, at TTL 1, 2 and 3 through a tail-dropping
        // link to a rate-limited router: every probe's RTT and IP-ID (or its
        // error) depends on queue anchors, token buckets and IP-ID counters
        // carried from earlier probes, so the kernel must keep one context
        // across all its events, as the fast path keeps one across walks.
        let (net, vp, tgt) = loaded_line();
        let mut ctx = net.probe_ctx(0);
        let mut want = Vec::new();
        for i in 0..40u64 {
            for ttl in 1..=3 {
                let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt, ttl), SimTime(i * 7_000_000));
                want.push((want.len() as u64 + 1, r.map(|r| (r.rtt, r.ip_id))));
            }
        }

        let (net, vp, tgt) = loaded_line();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(net);
        let period = SimDuration::from_secs(7);
        k.add_agent(vp, Box::new(Rounds { dst: tgt, ttls: vec![1, 2, 3], period, rounds: 40, log: log.clone() }));
        k.run(None);
        let mut got = log.borrow().clone();
        got.sort_by_key(|o| o.0);
        assert_eq!(got, want);
        let rate_limited = want.iter().filter(|o| o.1 == Err(ProbeError::Silent(NoResponse::RateLimited))).count();
        let dropped = want.iter().filter(|o| matches!(o.1, Err(ProbeError::DroppedForward(..)))).count();
        assert!(rate_limited > 0 && dropped > 0, "{rate_limited} rate-limited, {dropped} dropped");
    }

    #[test]
    fn simultaneous_agents_keep_their_event_order() {
        // Two agents on one host send at the same instants, so many events
        // tie on time and run in push order; their IP-IDs and the far
        // router's token bucket depend on that order. The hash covers every
        // outcome in arrival order.
        let (net, vp, tgt) = loaded_line();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(net);
        let period = SimDuration::from_secs(7);
        for _ in 0..2 {
            k.add_agent(vp, Box::new(Rounds { dst: tgt, ttls: vec![1, 2, 3], period, rounds: 40, log: log.clone() }));
        }
        k.run(None);
        let log = log.borrow();
        assert_eq!(log.len(), 240);
        let hash = log
            .iter()
            .map(|(id, r)| match r {
                Ok((rtt, ip_id)) => format!("{id}:ok:{}:{ip_id};", rtt.as_micros()),
                Err(e) => format!("{id}:err:{e:?};"),
            })
            .flat_map(String::into_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        assert_eq!(hash, EVENT_ORDER_HASH, "got {hash:#018x}");
    }

    const EVENT_ORDER_HASH: u64 = 0x45f8_5f79_6e28_8c40;

    #[test]
    fn kernel_reports_failures() {
        let (mut net, vp, tgt) = line();
        net.node_mut(NodeId(2)).icmp.responsive = false;
        let result = Rc::new(RefCell::new(None));
        let mut k = Kernel::new(net);
        k.add_agent(vp, Box::new(OneShot { dst: tgt, ttl: 2, result: result.clone() }));
        k.run(None);
        assert_eq!(
            result.borrow().clone().unwrap().unwrap_err(),
            ProbeError::Silent(crate::node::NoResponse::Unresponsive)
        );
    }

    struct Periodic {
        dst: Ipv4,
        period: SimDuration,
        remaining: u32,
        rtts: Rc<RefCell<Vec<SimDuration>>>,
    }

    impl Agent for Periodic {
        fn on_start(&mut self, ctx: &mut AgentCtx) {
            ctx.wake_at(SimTime::ZERO);
        }
        fn on_wake(&mut self, ctx: &mut AgentCtx) {
            if self.remaining == 0 {
                ctx.stop();
                return;
            }
            self.remaining -= 1;
            ctx.send(ProbeSpec::echo(self.dst));
            ctx.wake_after(self.period);
        }
        fn on_probe_event(&mut self, ev: ProbeEvent, _ctx: &mut AgentCtx) {
            if let ProbeEvent::Response { rtt, .. } = ev {
                self.rtts.borrow_mut().push(rtt);
            }
        }
    }

    #[test]
    fn periodic_agent_collects_series() {
        let (net, vp, tgt) = line();
        let rtts = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(net);
        k.add_agent(
            vp,
            Box::new(Periodic { dst: tgt, period: SimDuration::from_secs(300), remaining: 5, rtts: rtts.clone() }),
        );
        k.run(None);
        assert_eq!(rtts.borrow().len(), 5);
        assert!(k.now() >= SimTime(5 * 300 * 1_000_000));
        assert!(k.events_processed() > 5);
    }

    #[test]
    fn run_until_stops_early() {
        let (net, vp, tgt) = line();
        let rtts = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(net);
        k.add_agent(
            vp,
            Box::new(Periodic { dst: tgt, period: SimDuration::from_secs(300), remaining: 100, rtts: rtts.clone() }),
        );
        k.run(Some(SimTime(2 * 300 * 1_000_000)));
        // Only the probes scheduled in the first two periods resolved.
        assert!(rtts.borrow().len() <= 3, "{}", rtts.borrow().len());
    }

    struct TaggedFleet {
        dst: Ipv4,
        seen: Rc<RefCell<Vec<(u64, bool)>>>,
    }

    impl Agent for TaggedFleet {
        fn on_start(&mut self, ctx: &mut AgentCtx) {
            // Two answered probes and one that dies in the middle (TTL 2 is
            // unresponsive below), each with a distinct tag.
            ctx.send_tagged(ProbeSpec::ttl_limited(self.dst, 1), 11);
            ctx.send_tagged(ProbeSpec::ttl_limited(self.dst, 2), 22);
            ctx.send(ProbeSpec::echo(self.dst));
        }
        fn on_probe_event(&mut self, ev: ProbeEvent, _ctx: &mut AgentCtx) {
            match ev {
                ProbeEvent::Response { tag, .. } => self.seen.borrow_mut().push((tag, true)),
                ProbeEvent::Failed { tag, .. } => self.seen.borrow_mut().push((tag, false)),
            }
        }
    }

    #[test]
    fn tags_echo_on_response_and_failure() {
        let (mut net, vp, tgt) = line();
        net.node_mut(NodeId(2)).icmp.responsive = false; // kills the ttl-2 probe
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(net);
        k.add_agent(vp, Box::new(TaggedFleet { dst: tgt, seen: seen.clone() }));
        k.run(None);
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, true), (11, true), (22, false)]);
    }

    #[test]
    fn two_agents_interleave() {
        let (net, vp, tgt) = line();
        let r1 = Rc::new(RefCell::new(None));
        let r2 = Rc::new(RefCell::new(None));
        let mut k = Kernel::new(net);
        k.add_agent(vp, Box::new(OneShot { dst: tgt, ttl: 1, result: r1.clone() }));
        k.add_agent(vp, Box::new(OneShot { dst: tgt, ttl: 2, result: r2.clone() }));
        k.run(None);
        assert!(r1.borrow().clone().unwrap().is_ok());
        assert!(r2.borrow().clone().unwrap().is_ok());
        // TTL-2 probe travels further, so it takes longer.
        let a = r1.borrow().clone().unwrap().unwrap();
        let b = r2.borrow().clone().unwrap().unwrap();
        assert!(b > a);
    }
}
