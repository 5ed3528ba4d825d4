//! Nodes: routers and hosts, with interfaces, forwarding tables, and an ICMP
//! behaviour model.
//!
//! Routers matter to the study through exactly three behaviours:
//!
//! 1. **Forwarding** by longest-prefix match — probes and their responses
//!    follow routing, which is what makes record-route symmetry checks
//!    meaningful.
//! 2. **ICMP generation**: Time Exceeded when TTL expires (sourced from the
//!    incoming interface), Echo Reply for pings of local addresses. The
//!    generation delay has a configurable *slow path* component: the paper's
//!    GIXA–KNET case (§6.2.1) could not distinguish a congested port from a
//!    router "overloaded at peak times, resulting in slow ICMP responses" —
//!    we model both causes so the pipeline faces the same ambiguity.
//! 3. **IP-ID stamping** from a shared per-router counter, the signal used
//!    by Ally-style alias resolution in bdrmap.

use crate::arena::NameId;
use crate::fwd::FwdTable;
use crate::ip::{Ipv4, Prefix};
use crate::link::{Dir, LinkId, Schedule};
use crate::rng::{streams, HashNoise};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of a node in the network arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of an interface within its node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IfaceId(pub u16);

/// An autonomous system number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Role of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    /// Forwards packets and answers ICMP.
    Router,
    /// End host (vantage points, probe targets); never forwards.
    Host,
}

/// A network interface: an address, optionally attached to a link.
#[derive(Clone, Debug)]
pub struct Iface {
    /// Interface address.
    pub addr: Ipv4,
    /// Attached link and the direction that leaving through this interface
    /// travels, or `None` for loopback/stub interfaces.
    pub link: Option<(LinkId, Dir)>,
}

/// Which source address a router uses for ICMP errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RespondFrom {
    /// Classic behaviour: source the Time Exceeded from the interface the
    /// expiring packet arrived on. TSLP relies on this to measure "the near
    /// and far routers of an interdomain link" by address.
    IncomingIface,
    /// Source all ICMP from a fixed address (loopback-sourced routers exist
    /// in the wild and confuse IP-to-AS mapping; kept for fault injection).
    Fixed(Ipv4),
}

/// Extra ICMP-generation delay as a function of time: the "router control
/// plane is busy" model. Implementations live in the traffic crate.
pub trait SlowPath: Send + Sync {
    /// Additional ICMP generation delay at `t`.
    fn extra_delay(&self, t: SimTime) -> SimDuration;
}

/// ICMP behaviour knobs for one node.
#[derive(Clone)]
pub struct IcmpConfig {
    /// If false the node never answers (paper: "our latency probes to the far
    /// end were unsuccessful" after the GHANATEL link was withdrawn).
    pub responsive: bool,
    /// Windows during which the node is silent even when `responsive`
    /// (maintenance, ACL pushes — fault-injection material).
    pub silent_windows: Vec<(SimTime, SimTime)>,
    /// Baseline ICMP generation delay (punt to the control plane).
    pub base_delay: SimDuration,
    /// Uniform jitter added on top of the base delay.
    pub jitter: SimDuration,
    /// Optional diurnal slow-path model (the KNET mechanism).
    pub slow_path: Option<Arc<dyn SlowPath>>,
    /// ICMP responses per second allowed by the rate limiter, if any.
    pub rate_limit_pps: Option<f64>,
    /// Source-address policy for ICMP errors.
    pub respond_from: RespondFrom,
}

impl Default for IcmpConfig {
    fn default() -> Self {
        IcmpConfig {
            responsive: true,
            silent_windows: Vec::new(),
            base_delay: SimDuration::from_micros(150),
            jitter: SimDuration::from_micros(100),
            slow_path: None,
            rate_limit_pps: None,
            respond_from: RespondFrom::IncomingIface,
        }
    }
}

impl fmt::Debug for IcmpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IcmpConfig")
            .field("responsive", &self.responsive)
            .field("silent_windows", &self.silent_windows.len())
            .field("base_delay", &self.base_delay)
            .field("jitter", &self.jitter)
            .field("slow_path", &self.slow_path.as_ref().map(|_| "<model>"))
            .field("rate_limit_pps", &self.rate_limit_pps)
            .field("respond_from", &self.respond_from)
            .finish()
    }
}

/// Token-bucket state for the ICMP rate limiter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TokenBucket {
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    fn allow(&mut self, t: SimTime, rate_pps: f64, burst: f64) -> bool {
        let dt = t.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * rate_pps).min(burst);
        self.last = self.last.max(t);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Time-varying forwarding state for one prefix: what a routing event left
/// behind once it reached this router's FIB.
///
/// Routing events (session resets, withdrawals, policy flips, reconfiguration
/// transients) compile into a [`Schedule`] of these per affected prefix; at
/// probe time [`Node::next_hop_at`] consults the schedule before falling back
/// to the static table, so forwarding swaps mid-campaign without touching the
/// static routes the rest of the substrate was built on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FwdState {
    /// Defer to the static forwarding table (the converged route).
    Static,
    /// Override: forward via this interface (a flipped/transient path).
    Via(IfaceId),
    /// Blackhole: no route for the prefix (withdrawal, session down).
    Drop,
}

/// Why a node did not answer a probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NoResponse {
    /// Node configured unresponsive.
    Unresponsive,
    /// ICMP rate limiter had no token.
    RateLimited,
}

/// Per-node mutable probing state: the IP-ID counter and the ICMP
/// rate-limiter bucket.
///
/// Kept out of [`Node`] so concurrent probe walks can each carry their own
/// copy (inside a `ProbeCtx`) against a shared immutable node. One scratch
/// models one measurement session's view of the router; alias resolution,
/// which reads the *shared* counter semantics, must route all its probes
/// through a single scratch.
#[derive(Clone, Copy, Debug)]
pub struct NodeScratch {
    ip_id: u16,
    bucket: TokenBucket,
}

impl NodeScratch {
    /// Allocate the next IP-ID from the per-router counter.
    pub fn alloc_ip_id(&mut self) -> u16 {
        let id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);
        id
    }
}

/// A router or host.
pub struct Node {
    /// Arena id.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,
    /// Owning AS.
    pub asn: Asn,
    /// Interned human-readable name (AS name / router name); resolve through
    /// [`crate::net::Network::node_name`].
    pub name: NameId,
    /// Interfaces, indexed by [`IfaceId`].
    pub ifaces: Vec<Iface>,
    /// Forwarding table: destination prefix → egress interface.
    pub fwd: FwdTable,
    /// Dynamic forwarding overlays: per-prefix schedules of [`FwdState`]
    /// installed by routing events. Empty for the (overwhelmingly common)
    /// routers no routing event ever touches — the forwarding fast path
    /// checks `is_empty()` and keeps its static memoized lookup.
    pub fwd_dyn: Vec<(Prefix, Schedule<FwdState>)>,
    /// ICMP behaviour.
    pub icmp: IcmpConfig,
}

impl Node {
    /// Create a node with no interfaces and an empty forwarding table.
    pub fn new(id: NodeId, kind: NodeKind, asn: Asn, name: NameId) -> Node {
        Node {
            id,
            kind,
            asn,
            name,
            ifaces: Vec::new(),
            fwd: FwdTable::new(),
            fwd_dyn: Vec::new(),
            icmp: IcmpConfig::default(),
        }
    }

    /// A fresh mutable probing state for this node, as it looks at boot: a
    /// full rate-limiter bucket and the IP-ID counter at a node-specific
    /// pseudo-random start, as real router counters do — otherwise every
    /// freshly booted router would falsely pass the Ally alias test against
    /// every other.
    pub fn fresh_scratch(&self) -> NodeScratch {
        NodeScratch {
            ip_id: (crate::rng::splitmix64(self.id.0 as u64 ^ (self.asn.0 as u64) << 32 ^ 0xA11A) & 0xFFFF) as u16,
            bucket: TokenBucket { tokens: 10.0, last: SimTime::ZERO },
        }
    }

    /// Add an interface; returns its id.
    ///
    /// Panics on a 65,537th interface: [`IfaceId`] is 16 bits wide, and a
    /// wrapped id would alias interface 0.
    pub fn add_iface(&mut self, addr: Ipv4, link: Option<(LinkId, Dir)>) -> IfaceId {
        let id = u16::try_from(self.ifaces.len())
            .map(IfaceId)
            .unwrap_or_else(|_| panic!("node {} already has 65,536 interfaces; cannot add {addr}", self.id.0));
        self.ifaces.push(Iface { addr, link });
        id
    }

    /// Address of an interface.
    pub fn iface_addr(&self, id: IfaceId) -> Ipv4 {
        self.ifaces[id.0 as usize].addr
    }

    /// Find the interface bearing `addr`, if any.
    pub fn iface_by_addr(&self, addr: Ipv4) -> Option<IfaceId> {
        self.ifaces.iter().position(|i| i.addr == addr).map(|i| IfaceId(i as u16))
    }

    /// True if `addr` is local to this node.
    pub fn owns_addr(&self, addr: Ipv4) -> bool {
        self.iface_by_addr(addr).is_some()
    }

    /// Install a route.
    pub fn add_route(&mut self, prefix: Prefix, via: IfaceId) {
        self.fwd.insert(prefix, via);
    }

    /// Remove a route.
    pub fn remove_route(&mut self, prefix: Prefix) -> bool {
        self.fwd.remove(prefix).is_some()
    }

    /// Egress interface for `dst`, by longest-prefix match.
    pub fn next_hop(&self, dst: Ipv4) -> Option<IfaceId> {
        self.fwd.lookup(dst).map(|(_, v)| v)
    }

    /// Bulk-install routes (one sort instead of n shifted inserts).
    pub fn add_routes(&mut self, routes: impl IntoIterator<Item = (Prefix, IfaceId)>) {
        self.fwd.extend_routes(routes);
    }

    /// Schedule a forwarding-state step for `prefix` at `at` (routing-event
    /// compilation). Creates the prefix's overlay schedule on first use.
    pub fn push_fwd_step(&mut self, prefix: Prefix, at: SimTime, state: FwdState) {
        match self.fwd_dyn.iter_mut().find(|(p, _)| *p == prefix) {
            Some((_, sched)) => {
                sched.step(at, state);
            }
            None => {
                let mut sched = Schedule::constant(FwdState::Static);
                sched.step(at, state);
                self.fwd_dyn.push((prefix, sched));
            }
        }
    }

    /// Egress interface for `dst` at time `t`: longest-prefix match across
    /// both the static table and any dynamic overlays. A more-specific static
    /// route (e.g. a /32 LAN host route) still beats a broader overlay; at
    /// equal length the overlay wins — it *is* the current state of that
    /// route. `FwdState::Drop` (and an overlay with no static fallback in
    /// `Static` state) yields `None`: no route.
    pub fn next_hop_at(&self, dst: Ipv4, t: SimTime) -> Option<IfaceId> {
        let mut best: Option<(u8, &FwdState)> = None;
        for (p, sched) in &self.fwd_dyn {
            if p.contains(dst) && best.is_none_or(|(len, _)| p.len() > len) {
                best = Some((p.len(), sched.at(t)));
            }
        }
        let stat = self.fwd.lookup(dst);
        match best {
            None => stat.map(|(_, v)| v),
            Some((dlen, state)) => {
                if let Some((sp, v)) = stat {
                    if sp.len() > dlen {
                        return Some(v);
                    }
                    match state {
                        FwdState::Static => Some(v),
                        FwdState::Via(i) => Some(*i),
                        FwdState::Drop => None,
                    }
                } else {
                    match state {
                        FwdState::Via(i) => Some(*i),
                        _ => None,
                    }
                }
            }
        }
    }

    /// Decide whether and after how long this node emits an ICMP response to
    /// a packet arriving at `t`, charging the rate limiter in `scratch`.
    /// `key` is the per-packet hash key for jitter.
    pub fn icmp_response_delay(
        &self,
        scratch: &mut NodeScratch,
        t: SimTime,
        noise: &HashNoise,
        key: u64,
    ) -> Result<SimDuration, NoResponse> {
        if !self.icmp.responsive {
            return Err(NoResponse::Unresponsive);
        }
        if self.icmp.silent_windows.iter().any(|&(a, b)| t >= a && t < b) {
            return Err(NoResponse::Unresponsive);
        }
        if let Some(rate) = self.icmp.rate_limit_pps {
            if !scratch.bucket.allow(t, rate, rate.max(10.0)) {
                return Err(NoResponse::RateLimited);
            }
        }
        let mut d = self.icmp.base_delay;
        if self.icmp.jitter > SimDuration::ZERO {
            let j = noise.range_f64(streams::ICMP_JITTER, key ^ self.id.0 as u64, 0.0, self.icmp.jitter.as_secs_f64());
            d = d + SimDuration::from_secs_f64(j);
        }
        if let Some(sp) = &self.icmp.slow_path {
            d = d + sp.extra_delay(t);
        }
        Ok(d)
    }

    /// Source address for an ICMP error to a packet that arrived on `incoming`.
    pub fn icmp_source(&self, incoming: IfaceId) -> Ipv4 {
        match self.icmp.respond_from {
            RespondFrom::IncomingIface => self.iface_addr(incoming),
            RespondFrom::Fixed(a) => a,
        }
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("asn", &self.asn)
            .field("name", &self.name)
            .field("ifaces", &self.ifaces.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> Node {
        let mut n = Node::new(NodeId(0), NodeKind::Router, Asn(30997), NameId::EMPTY);
        n.add_iface(Ipv4::new(196, 49, 14, 1), Some((LinkId(0), Dir::AtoB)));
        n.add_iface(Ipv4::new(196, 49, 14, 129), Some((LinkId(1), Dir::AtoB)));
        n
    }

    #[test]
    fn iface_addressing() {
        let n = router();
        assert_eq!(n.iface_addr(IfaceId(0)), Ipv4::new(196, 49, 14, 1));
        assert_eq!(n.iface_by_addr(Ipv4::new(196, 49, 14, 129)), Some(IfaceId(1)));
        assert!(n.owns_addr(Ipv4::new(196, 49, 14, 1)));
        assert!(!n.owns_addr(Ipv4::new(196, 49, 14, 2)));
    }

    #[test]
    #[should_panic(expected = "already has 65,536 interfaces")]
    fn interface_ids_never_wrap() {
        let mut n = Node::new(NodeId(0), NodeKind::Router, Asn(1), NameId::EMPTY);
        for i in 0..=u16::MAX as u32 {
            assert_eq!(n.add_iface(Ipv4(0x0a00_0000 | i), None), IfaceId(i as u16));
        }
        n.add_iface(Ipv4(0x0b00_0000), None);
    }

    #[test]
    fn forwarding_lpm() {
        let mut n = router();
        n.add_route("0.0.0.0/0".parse().unwrap(), IfaceId(0));
        n.add_route("41.0.0.0/8".parse().unwrap(), IfaceId(1));
        assert_eq!(n.next_hop(Ipv4::new(41, 1, 1, 1)), Some(IfaceId(1)));
        assert_eq!(n.next_hop(Ipv4::new(8, 8, 8, 8)), Some(IfaceId(0)));
        assert!(n.remove_route("41.0.0.0/8".parse().unwrap()));
        assert_eq!(n.next_hop(Ipv4::new(41, 1, 1, 1)), Some(IfaceId(0)));
    }

    #[test]
    fn dynamic_overlay_swaps_forwarding_over_time() {
        let mut n = router();
        n.add_route("0.0.0.0/0".parse().unwrap(), IfaceId(0));
        n.add_route("41.0.0.0/8".parse().unwrap(), IfaceId(1));
        let p: Prefix = "41.0.0.0/8".parse().unwrap();
        let dst = Ipv4::new(41, 1, 1, 1);
        // Before any overlay: static answer at every time.
        assert_eq!(n.next_hop_at(dst, SimTime(5)), Some(IfaceId(1)));
        // Withdraw at t=10, flip to iface 0 at t=20, re-converge at t=30.
        n.push_fwd_step(p, SimTime(10), FwdState::Drop);
        n.push_fwd_step(p, SimTime(20), FwdState::Via(IfaceId(0)));
        n.push_fwd_step(p, SimTime(30), FwdState::Static);
        assert_eq!(n.next_hop_at(dst, SimTime(5)), Some(IfaceId(1)));
        assert_eq!(n.next_hop_at(dst, SimTime(15)), None);
        assert_eq!(n.next_hop_at(dst, SimTime(25)), Some(IfaceId(0)));
        assert_eq!(n.next_hop_at(dst, SimTime(35)), Some(IfaceId(1)));
        // The static lookup is untouched by overlays.
        assert_eq!(n.next_hop(dst), Some(IfaceId(1)));
    }

    #[test]
    fn more_specific_static_route_beats_overlay() {
        let mut n = router();
        n.add_route("41.0.0.0/8".parse().unwrap(), IfaceId(1));
        n.add_route("41.1.1.1/32".parse().unwrap(), IfaceId(0));
        n.push_fwd_step("41.0.0.0/8".parse().unwrap(), SimTime(0), FwdState::Drop);
        // The /32 host route survives the /8 withdrawal; the rest blackholes.
        assert_eq!(n.next_hop_at(Ipv4::new(41, 1, 1, 1), SimTime(1)), Some(IfaceId(0)));
        assert_eq!(n.next_hop_at(Ipv4::new(41, 2, 2, 2), SimTime(1)), None);
    }

    #[test]
    fn overlay_without_static_route_only_forwards_when_via() {
        let mut n = router();
        let p: Prefix = "197.0.0.0/24".parse().unwrap();
        n.push_fwd_step(p, SimTime(10), FwdState::Via(IfaceId(1)));
        n.push_fwd_step(p, SimTime(20), FwdState::Static);
        let dst = Ipv4::new(197, 0, 0, 9);
        assert_eq!(n.next_hop_at(dst, SimTime(5)), None);
        assert_eq!(n.next_hop_at(dst, SimTime(15)), Some(IfaceId(1)));
        assert_eq!(n.next_hop_at(dst, SimTime(25)), None);
    }

    #[test]
    fn ip_id_counter_is_sequential() {
        let mut s = router().fresh_scratch();
        let a = s.alloc_ip_id();
        let b = s.alloc_ip_id();
        assert_eq!(b, a.wrapping_add(1));
        s.ip_id = u16::MAX;
        assert_eq!(s.alloc_ip_id(), u16::MAX);
        assert_eq!(s.alloc_ip_id(), 0);
    }

    #[test]
    fn unresponsive_node_does_not_answer() {
        let mut n = router();
        n.icmp.responsive = false;
        let noise = HashNoise::new(1);
        let mut s = n.fresh_scratch();
        assert_eq!(n.icmp_response_delay(&mut s, SimTime::ZERO, &noise, 1), Err(NoResponse::Unresponsive));
    }

    #[test]
    fn response_delay_includes_base_and_jitter() {
        let mut n = router();
        n.icmp.base_delay = SimDuration::from_micros(200);
        n.icmp.jitter = SimDuration::from_micros(100);
        let noise = HashNoise::new(2);
        let mut s = n.fresh_scratch();
        for k in 0..100 {
            let d = n.icmp_response_delay(&mut s, SimTime::ZERO, &noise, k).unwrap();
            assert!(d >= SimDuration::from_micros(200) && d <= SimDuration::from_micros(300), "{d}");
        }
    }

    #[test]
    fn slow_path_adds_diurnal_delay() {
        struct Busy;
        impl SlowPath for Busy {
            fn extra_delay(&self, _t: SimTime) -> SimDuration {
                SimDuration::from_millis(17)
            }
        }
        let mut n = router();
        n.icmp.jitter = SimDuration::ZERO;
        n.icmp.slow_path = Some(Arc::new(Busy));
        let noise = HashNoise::new(3);
        let d = n.icmp_response_delay(&mut n.fresh_scratch(), SimTime::ZERO, &noise, 0).unwrap();
        assert_eq!(d, n.icmp.base_delay + SimDuration::from_millis(17));
    }

    #[test]
    fn rate_limiter_throttles_bursts() {
        let mut n = router();
        n.icmp.rate_limit_pps = Some(10.0);
        let noise = HashNoise::new(4);
        let mut s = n.fresh_scratch();
        // Burst capacity is max(rate, 10) = 10 plus the initial bucket fill.
        let t = SimTime::ZERO;
        let mut ok = 0;
        for k in 0..100 {
            if n.icmp_response_delay(&mut s, t, &noise, k).is_ok() {
                ok += 1;
            }
        }
        assert!(ok <= 12, "allowed {ok} in a burst");
        // After a second, tokens refill.
        assert!(n.icmp_response_delay(&mut s, t + SimDuration::from_secs(1), &noise, 999).is_ok());
    }

    #[test]
    fn icmp_source_policies() {
        let mut n = router();
        assert_eq!(n.icmp_source(IfaceId(1)), Ipv4::new(196, 49, 14, 129));
        n.icmp.respond_from = RespondFrom::Fixed(Ipv4::new(1, 1, 1, 1));
        assert_eq!(n.icmp_source(IfaceId(1)), Ipv4::new(1, 1, 1, 1));
    }
}
