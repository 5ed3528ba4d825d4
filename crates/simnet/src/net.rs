//! The network arena and the probe transit engine.
//!
//! [`Network`] owns every node and link and walks probes through the topology
//! deterministically: forwarding by longest-prefix match hop by hop, charging
//! each link crossing its propagation + serialization + queueing delay,
//! expiring TTLs, generating ICMP at routers, and routing the response back —
//! possibly over a different (asymmetric) path, which is exactly what the
//! paper's record-route symmetry check exists to catch.
//!
//! There is one probe engine: [`Network::send_probe`] (and its
//! allocation-free twin [`Network::send_probe_lite`]) walks a whole round
//! trip in O(path length), which makes a year × six VPs ×
//! every-link-every-5-minutes campaign tractable. Every prober — TSLP,
//! traceroute, record-route, alias resolution, loss — and the live monitor
//! call it.
//!
//! Each hop is a routing decision that does not depend on time (`decide`)
//! followed by a link transit that does. A probe is therefore compiled
//! once per `(source, destination, TTL, kind, size)` into its forward
//! hops, responder and return hops, cached in the [`ProbeCtx`], and every
//! later probe with the same key only charges the crossings — adding a
//! precomputed delay for each link whose configuration makes its delay a
//! constant ([`Link::constant_transit`]). Paths through nodes whose
//! forwarding changes over time, and record-route probes, are stepped hop
//! by hop through the same decision function. Both walks produce
//! bit-identical results.
//!
//! The walk runs against a **shared immutable substrate**: every probing
//! method takes `&Network`, and all mutable probing state (probe ids, lazy
//! queue integrations, IP-ID counters, rate-limiter buckets, the route memo)
//! lives in a caller-owned [`ProbeCtx`] — a campaign worker owns one per
//! link — so independent contexts can walk probes over the same `&Network`
//! concurrently with bit-identical results to a serial run.
//!
//! Record-route follows RFC 791 semantics: request packets and echo *replies*
//! keep recording egress addresses into the nine option slots (so a ping -R
//! of a symmetric path shows forward and reverse hops), while ICMP errors
//! merely quote the frozen forward-path option.

use crate::arena::{AddrIndex, NameTable};
use crate::ip::{Ipv4, Prefix};
use crate::link::{Dir, DropReason, Link, LinkConfig, LinkId, LinkQueueState, NoLoad, OfferedLoad, TransitResult};
use crate::node::{Asn, IfaceId, Node, NodeId, NodeKind, NodeScratch, NoResponse};
use crate::packet::{Packet, PacketKind, ProbeId, PROBE_SIZE_BYTES};
use crate::rng::{mix, splitmix64, streams, HashNoise};
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum hops walked before declaring a forwarding loop.
pub const MAX_HOPS: usize = 64;

/// What a prober asks the network to send.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSpec {
    /// Destination address.
    pub dst: Ipv4,
    /// Initial TTL. TSLP sets this so the probe expires at the near or far
    /// router of the measured link.
    pub ttl: u8,
    /// ICMP echo or UDP traceroute probe.
    pub kind: PacketKind,
    /// Enable the record-route option.
    pub record_route: bool,
    /// Packet size in bytes.
    pub size: u32,
}

impl ProbeSpec {
    /// An ICMP echo probe with default TTL and size.
    pub fn echo(dst: Ipv4) -> ProbeSpec {
        ProbeSpec {
            dst,
            ttl: crate::packet::DEFAULT_TTL,
            kind: PacketKind::EchoRequest,
            record_route: false,
            size: PROBE_SIZE_BYTES,
        }
    }

    /// A TTL-limited probe expiring after `ttl` hops (scamper/TSLP style).
    pub fn ttl_limited(dst: Ipv4, ttl: u8) -> ProbeSpec {
        ProbeSpec { dst, ttl, kind: PacketKind::UdpProbe, record_route: false, size: PROBE_SIZE_BYTES }
    }

    /// Enable record-route.
    pub fn with_record_route(mut self) -> ProbeSpec {
        self.record_route = true;
        self
    }
}

/// Failure modes of a probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeError {
    /// The source has no route toward the destination.
    NoRoute,
    /// Lost on the forward path at hop index `hop` (0 = first link).
    DroppedForward(DropReason, u8),
    /// Reached a responder that stayed silent.
    Silent(NoResponse),
    /// The response was lost on the way back.
    DroppedReturn(DropReason),
    /// Forwarding loop (or path longer than [`MAX_HOPS`]).
    Loop,
}

/// A successful probe: who answered, how, and how long it took.
#[derive(Clone, Debug)]
pub struct ProbeReply {
    /// Source address of the response packet.
    pub responder: Ipv4,
    /// Node that generated the response.
    pub responder_node: NodeId,
    /// Response kind (TimeExceeded / EchoReply / DestUnreachable).
    pub kind: PacketKind,
    /// Round-trip time as the prober measures it.
    pub rtt: SimDuration,
    /// IP-ID stamped by the responder (alias-resolution signal).
    pub ip_id: u16,
    /// Recorded route, if the option was set.
    pub record_route: Option<Vec<Ipv4>>,
    /// Ground-truth forward path (egress interface addresses actually
    /// traversed). Not available to inference code — tests and validation
    /// use it; honest probers must rely on `record_route`/TTL probing.
    pub truth_forward_path: Vec<Ipv4>,
    /// Ground-truth return path.
    pub truth_return_path: Vec<Ipv4>,
}

/// A successful probe, without the per-probe heap baggage: no ground-truth
/// path vectors, no record-route. This is everything the bulk TSLP campaign
/// reads, so [`Network::send_probe_lite`] walks millions of rounds with
/// zero allocations per probe. Timing, responder choice, and RNG draws are
/// bit-identical to [`Network::send_probe`].
#[derive(Clone, Copy, Debug)]
pub struct ProbeReplyLite {
    /// Source address of the response packet.
    pub responder: Ipv4,
    /// Node that generated the response.
    pub responder_node: NodeId,
    /// Response kind (TimeExceeded / EchoReply / DestUnreachable).
    pub kind: PacketKind,
    /// Round-trip time as the prober measures it.
    pub rtt: SimDuration,
    /// IP-ID stamped by the responder (alias-resolution signal).
    pub ip_id: u16,
}

/// Result of sending one probe.
pub type ProbeResult = Result<ProbeReply, ProbeError>;

/// Result of sending one allocation-free probe.
pub type ProbeResultLite = Result<ProbeReplyLite, ProbeError>;

/// What a node does with a packet, decided from routing state alone: the
/// node's interfaces, forwarding table and ICMP source policy, the packet's
/// destination, kind and TTL. Time never enters it, so on a path whose
/// forwarding never changes a probe's whole walk can be decided once.
#[derive(Clone, Copy, Debug)]
enum Decision {
    /// The packet leaves through the interface addressed `egress_addr`,
    /// crossing `link` in `dir`.
    Forward { link: LinkId, dir: Dir, egress_addr: Ipv4 },
    /// The node must generate a response of `kind` sourced from `src`.
    Respond { node: NodeId, kind: PacketKind, src: Ipv4 },
    /// A response packet reached the prober.
    Consumed,
    /// The packet is gone.
    Fail(ProbeError),
}

impl Decision {
    /// The responder a forward leg ended at, or the error it ended the probe
    /// with.
    fn responder(self) -> Result<(NodeId, PacketKind, Ipv4), ProbeError> {
        match self {
            Decision::Respond { node, kind, src } => Ok((node, kind, src)),
            Decision::Fail(e) => Err(e),
            Decision::Forward { .. } | Decision::Consumed => {
                unreachable!("request packets are never consumed")
            }
        }
    }

    /// `Ok` when a return leg ended with the response at the prober.
    fn delivered(self) -> Result<(), ProbeError> {
        match self {
            Decision::Consumed => Ok(()),
            Decision::Fail(e) => Err(e),
            // A response should never elicit another response; treat it as
            // blackholed.
            Decision::Respond { .. } | Decision::Forward { .. } => Err(ProbeError::DroppedReturn(DropReason::LinkDown)),
        }
    }
}

/// Decide what node `node` does with `pkt`, given its resolution of the
/// packet's destination, decrementing the TTL of a request it forwards.
///
/// `origin` is the node that injected the packet (it never answers itself
/// and is where response packets are consumed); `incoming` is the interface
/// the packet arrived on (`None` at the origin); `hop_idx` counts the hops
/// the leg has taken. These are the forwarding rules, and the only copy of
/// them: the compiled walk and the stepped walk both call this.
fn decide(
    node: &Node,
    res: Resolved,
    origin: NodeId,
    incoming: Option<IfaceId>,
    pkt: &mut Packet,
    hop_idx: usize,
) -> Decision {
    let cur = node.id;
    let is_response = pkt.kind.is_response();

    // Arrived at the packet's destination address?
    if cur != origin && res.owned {
        if is_response {
            return Decision::Consumed;
        }
        let kind = match pkt.kind {
            PacketKind::EchoRequest => PacketKind::EchoReply,
            // scamper UDP probes elicit port-unreachable at the target.
            _ => PacketKind::DestUnreachable,
        };
        return Decision::Respond { node: cur, kind, src: pkt.dst };
    }

    // TTL is checked at each router the packet enters (not at its origin).
    if cur != origin && !is_response {
        if pkt.ttl <= 1 {
            let inc = incoming.expect("transit node reached without incoming iface");
            let src = node.icmp_source(inc);
            return Decision::Respond { node: cur, kind: PacketKind::TimeExceeded, src };
        }
        pkt.ttl -= 1;
    }

    if hop_idx >= MAX_HOPS {
        return Decision::Fail(ProbeError::Loop);
    }

    // Hosts other than the origin never forward.
    if node.kind == NodeKind::Host && cur != origin {
        let src = node.ifaces.first().map(|i| i.addr).unwrap_or(Ipv4::UNSPECIFIED);
        if is_response {
            return Decision::Fail(ProbeError::DroppedReturn(DropReason::LinkDown));
        }
        return Decision::Respond { node: cur, kind: PacketKind::DestUnreachable, src };
    }

    let Some(egress) = res.egress else {
        if cur == origin {
            return Decision::Fail(ProbeError::NoRoute);
        }
        if is_response {
            // Response blackholed: the prober just sees a timeout.
            return Decision::Fail(ProbeError::DroppedReturn(DropReason::LinkDown));
        }
        let inc = incoming.expect("transit node without incoming iface");
        let src = node.icmp_source(inc);
        return Decision::Respond { node: cur, kind: PacketKind::DestUnreachable, src };
    };
    // A packet that would exit the interface it arrived on has reached
    // the edge of reachability: real routers answer with a destination
    // unreachable rather than hairpinning probes back and forth.
    if incoming == Some(egress) && !is_response {
        let src = node.icmp_source(egress);
        return Decision::Respond { node: cur, kind: PacketKind::DestUnreachable, src };
    }

    let egress_addr = node.iface_addr(egress);
    let Some((link, dir)) = node.ifaces[egress.0 as usize].link else {
        // Route points at a stub interface: nothing answers on that
        // segment. A transit router reports host-unreachable; a source
        // host just has no usable route; a response dies silently.
        if is_response {
            return Decision::Fail(ProbeError::DroppedReturn(DropReason::LinkDown));
        }
        if cur == origin {
            return Decision::Fail(ProbeError::NoRoute);
        }
        let src = incoming.map(|i| node.icmp_source(i)).unwrap_or(egress_addr);
        return Decision::Respond { node: cur, kind: PacketKind::DestUnreachable, src };
    };
    Decision::Forward { link, dir, egress_addr }
}

/// Where a walk collects the ground-truth egress addresses of its forward
/// and return legs, when it does.
type TruthPaths<'a> = (Option<&'a mut Vec<Ipv4>>, Option<&'a mut Vec<Ipv4>>);

/// The key of a packet's drop draw at hop `hop` of its leg.
fn hop_key(probe: ProbeId, hop: usize, response: bool) -> u64 {
    let leg = if response { 0xf0f0 } else { 0x0f0f };
    mix(&[probe.0, hop as u64 + 1, leg])
}

/// How a link crossing failed, as the probe's error.
fn drop_error(reason: DropReason, hop: usize, response: bool) -> ProbeError {
    if response {
        ProbeError::DroppedReturn(reason)
    } else {
        ProbeError::DroppedForward(reason, hop as u8)
    }
}

/// Number of two-way sets in a context's compiled-walk cache. A campaign
/// worker sends two distinct probes per link (near and far TTL) and
/// rebases between links, so a few dozen slots hold every walk it reuses.
const WALK_SETS: usize = 32;

/// What a compiled walk is a function of: the probe's source and every
/// [`ProbeSpec`] field routing reads (record-route probes are not compiled).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WalkKey {
    from: NodeId,
    dst: Ipv4,
    ttl: u8,
    kind: PacketKind,
    size: u32,
}

/// One link crossing of a compiled walk.
#[derive(Clone, Copy, Debug)]
struct WalkHop {
    link: LinkId,
    dir: Dir,
    /// The interface the packet leaves through (ground-truth path material).
    egress: Ipv4,
    /// The crossing's delay when the link makes it a constant
    /// ([`Link::constant_transit`]); `None` runs [`Link::transit`].
    delay: Option<SimDuration>,
}

/// A probe's round trip with every routing decision made: the hops of the
/// forward leg, how it ends (the responder, or a routing failure), the hops
/// of the return leg and how that ends. Running it only charges the link
/// crossings and the response generation, which depend on time. Cached in a
/// [`ProbeCtx`] slot under `key`, compiled under the network epochs in
/// `stamp`; a slot with no key holds nothing.
#[derive(Clone, Debug)]
struct Walk {
    key: Option<WalkKey>,
    stamp: (u64, u64),
    /// Forward hops, then return hops.
    hops: Vec<WalkHop>,
    /// Number of forward hops at the front of `hops`.
    fwd_hops: usize,
    fwd_end: Decision,
    ret_end: Decision,
    /// The path touches a node whose forwarding changes over time
    /// (`Node::fwd_dyn`): the walk cannot be decided once and is stepped.
    dynamic: bool,
}

impl Walk {
    const EMPTY: Walk = Walk {
        key: None,
        stamp: (0, 0),
        hops: Vec::new(),
        fwd_hops: 0,
        fwd_end: Decision::Consumed,
        ret_end: Decision::Consumed,
        dynamic: true,
    };
}

/// All mutable probing state: every probe walk reads the shared [`Network`]
/// and writes only its context.
///
/// The substrate (topology, routes, link configs, offered-load functions) is
/// immutable during probing; everything a probe walk mutates lives here:
///
/// - the probe-id allocator (ids are `base + counter`, so distinct contexts
///   draw from disjoint id spaces and per-packet noise streams never collide),
/// - a lazy [`LinkQueueState`] per link direction a walk stepped through
///   [`Link::transit`] (a hop with a [`Link::constant_transit`] delay never
///   creates one) — queue occupancy is a pure function of time, so any two
///   contexts agree wherever their queries overlap,
/// - a [`NodeScratch`] per node that answered (IP-ID counter, ICMP
///   rate-limiter bucket) — one context models one measurement session's
///   view,
/// - a route memo caching `(node, dst) → {owned, egress}` for each pair a
///   walk resolved, so a hop costs one memo probe — no scan of a border
///   router's hundreds of interfaces, no forwarding-table search. Both
///   answers are pure functions of `(node, dst)`.
///
/// Each is an `IdTable` holding only what the walks touched since it was
/// last cleared, every entry created fresh on first touch: a context costs
/// a handful of entries per TSLP target, never O(links + nodes). Every
/// store a probe makes lands in its own context, so concurrent workers
/// never contend for a cache line of the substrate.
///
/// On top of the memo sits a small cache of **compiled walks**: a probe's
/// whole round trip — forward hops, responder, return hops — resolved once
/// per `(source, destination, TTL, kind, size)` and replayed by every later
/// probe with the same key (a TSLP campaign sends the same two probes to a
/// link every five minutes). The cache is 32 two-way sets, allocated at the
/// first probe, with each slot's hop list reused by the next walk compiled
/// into it, so a campaign's steady state allocates nothing.
///
/// A context is glued to the network's mutation epochs: topology or scenario
/// changes on the `Network` clear the route memo or the queue states,
/// respectively, at the context's next use ([`ProbeCtx::sync`]). Compiled
/// walks are stamped with both epochs and recompiled when either moves.
/// Epochs are drawn from one process-wide counter, so a stamp names one
/// state of one network and never matches another network's.
/// [`ProbeCtx::rebase`], the campaign pool's per-link reuse, clears the
/// tables at the cost of what the previous stream touched.
#[derive(Clone, Debug, Default)]
pub struct ProbeCtx {
    base: u64,
    /// Probe ids handed out so far.
    next: u64,
    topo_epoch: u64,
    scenario_epoch: u64,
    /// Queue states, keyed by `link << 1 | dir`.
    queues: IdTable<LinkQueueState>,
    /// Responder state, keyed by node id.
    scratch: IdTable<NodeScratch>,
    /// Route memo, keyed by `node << 32 | dst`.
    routes: IdTable<Resolved>,
    /// Compiled walks, `2 * WALK_SETS` slots once the first probe is sent.
    walks: Vec<Walk>,
    /// Step every probe hop by hop, bypassing compiled walks, so tests can
    /// check the two walks against each other.
    #[cfg(test)]
    stepped_only: bool,
}

/// Hashes a `u64` id by one multiply with an odd constant, folding the
/// product's high half into its low half so that ids differing only in
/// their high word (one destination's memo keys) still spread out.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }
}

/// Probing state for the ids (link directions, nodes, memo keys) a
/// context's walks touched since the table was last cleared.
#[derive(Clone, Debug)]
struct IdTable<T>(HashMap<u64, T, BuildHasherDefault<IdHasher>>);

impl<T> Default for IdTable<T> {
    fn default() -> IdTable<T> {
        IdTable(HashMap::default())
    }
}

impl<T> IdTable<T> {
    /// The entry for `id`, created by `fresh` on first touch.
    #[inline]
    fn get_or(&mut self, id: u64, fresh: impl FnOnce() -> T) -> &mut T {
        self.0.entry(id).or_insert_with(fresh)
    }

    /// Drop every entry. A table whose capacity far exceeds what its last
    /// use filled (a wide traceroute sweep, then per-link rebases) shrinks,
    /// so a clear costs about what the use before it touched; the few
    /// dozen entries of one TSLP target never reallocate.
    fn clear(&mut self) {
        let used = self.0.len().max(32);
        self.0.clear();
        if self.0.capacity() > 4 * used {
            self.0.shrink_to(2 * used);
        }
    }
}

/// One `(node, dst)` resolution: does the node own `dst`, and where would it
/// forward a packet for `dst`?
#[derive(Clone, Copy, Debug)]
struct Resolved {
    owned: bool,
    egress: Option<IfaceId>,
}

impl ProbeCtx {
    /// Allocate a fresh probe id from this context's id space.
    fn alloc_probe_id(&mut self) -> ProbeId {
        self.next += 1;
        ProbeId(self.base.wrapping_add(self.next))
    }

    /// Bring the context up to date with `net`: a topology change (nodes,
    /// links, routes, ICMP config) clears the route memo; a scenario change
    /// (link loads, capacity schedules, queue rewinds) clears the queue
    /// states, which restart at the epoch on their next crossing.
    pub fn sync(&mut self, net: &Network) {
        if self.topo_epoch != net.topo_epoch {
            self.topo_epoch = net.topo_epoch;
            self.routes.clear();
        }
        if self.scenario_epoch != net.scenario_epoch {
            self.scenario_epoch = net.scenario_epoch;
            self.queues.clear();
        }
    }

    /// Rewind this context's lazy queue integrations to the epoch, keeping
    /// probe-id, IP-ID, and route-memo state. A measurement pass that re-reads
    /// a time range an earlier pass advanced through (full-fidelity probing
    /// after screening) must rewind first or it reads stale queue state.
    pub fn reset_queue_state(&mut self, net: &Network) {
        self.queues.clear();
        self.sync(net);
    }

    /// Reuse this context as if freshly built by [`Network::probe_ctx`] for
    /// `stream` — same probe-id space, same fresh queue/scratch/memo state,
    /// bit-identical probing — by clearing its tables, at the cost of what
    /// the previous stream touched. A pool worker measuring thousands of
    /// links rebases one context per link. Compiled walks survive: they are
    /// functions of the substrate alone, stamped with its epochs.
    pub fn rebase(&mut self, net: &Network, stream: u64) {
        self.base = if stream == 0 { 0 } else { splitmix64(stream) };
        self.next = 0;
        self.queues.clear();
        self.scratch.clear();
        self.routes.clear();
        self.sync(net);
    }
}

/// The source of every network's mutation epochs. Each bump draws a fresh
/// value, so an epoch identifies one state of one network: a context or a
/// compiled walk stamped under one network never matches another's, and
/// `0` (a default context's stamp) matches none.
static EPOCHS: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    // Relaxed: the value publishes no other data; it only has to be unique,
    // which the atomic add guarantees under any ordering.
    EPOCHS.fetch_add(1, Ordering::Relaxed)
}

/// The simulated network: nodes, links, and an address index.
///
/// During probing the network is an immutable shared substrate: the probe
/// engine takes `&self` plus a caller-owned [`ProbeCtx`], so concurrent walks
/// never alias. Mutations between probing runs bump the epochs every context
/// syncs against.
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_addr: AddrIndex,
    names: NameTable,
    noise: HashNoise,
    /// Bumped on any topology-affecting mutation (nodes, links, routes,
    /// node config): outstanding route memos are stale.
    topo_epoch: u64,
    /// Bumped on any traffic-scenario mutation (link loads/schedules, queue
    /// rewinds): outstanding queue integrations are stale.
    scenario_epoch: u64,
    /// Extra uniform jitter bound applied to measured RTTs (host stack noise).
    pub rtt_jitter: SimDuration,
}

impl Network {
    /// An empty network seeded for deterministic behaviour.
    pub fn new(seed: u64) -> Network {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            by_addr: AddrIndex::new(),
            names: NameTable::new(),
            noise: HashNoise::new(seed),
            topo_epoch: next_epoch(),
            scenario_epoch: next_epoch(),
            rtt_jitter: SimDuration::from_micros(120),
        }
    }

    /// The deterministic noise source shared by the arena.
    pub fn noise(&self) -> HashNoise {
        self.noise
    }

    /// A fresh probing context synced to the current substrate state.
    ///
    /// `stream` selects the context's probe-id space: `0` is the default
    /// stream (ids 1, 2, 3, …, as in [`ProbeCtx::default`]), any other value
    /// is hashed into a high-entropy base so contexts for different streams
    /// never collide in per-packet noise.
    pub fn probe_ctx(&self, stream: u64) -> ProbeCtx {
        let mut ctx = ProbeCtx::default();
        ctx.rebase(self, stream);
        ctx
    }

    /// Add a node; returns its id. The name is interned into the network's
    /// shared symbol table — resolve it back via [`Network::node_name`].
    pub fn add_node(&mut self, kind: NodeKind, asn: Asn, name: impl AsRef<str>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let name = self.names.intern(name.as_ref());
        self.nodes.push(Node::new(id, kind, asn, name));
        self.topo_epoch = next_epoch();
        id
    }

    /// Resolve a node's interned name.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.names.resolve(self.nodes[id.0 as usize].name)
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }
    /// Mutable node access. Conservatively treated as a topology mutation:
    /// outstanding route memos are invalidated.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.topo_epoch = next_epoch();
        &mut self.nodes[id.0 as usize]
    }
    /// Immutable link access.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }
    /// Mutable link access. Conservatively treated as a scenario mutation:
    /// outstanding queue integrations rewind at their next sync.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        self.scenario_epoch = next_epoch();
        &mut self.links[id.0 as usize]
    }
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
    /// Iterate node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Which node/interface owns `addr`?
    pub fn owner_of(&self, addr: Ipv4) -> Option<(NodeId, IfaceId)> {
        self.by_addr.get(addr)
    }

    /// Connect two nodes with a new link; creates one interface on each side.
    /// `load_ab` drives the queue in the `a → b` direction.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        &mut self,
        a: NodeId,
        addr_a: Ipv4,
        b: NodeId,
        addr_b: Ipv4,
        cfg: LinkConfig,
        load_ab: Arc<dyn OfferedLoad>,
        load_ba: Arc<dyn OfferedLoad>,
    ) -> LinkId {
        assert!(a != b, "self-links are not supported");
        assert!(!self.by_addr.contains(addr_a), "address {addr_a} already in use");
        assert!(!self.by_addr.contains(addr_b), "address {addr_b} already in use");
        let id = LinkId(self.links.len() as u32);
        let link_noise = self.noise.child(streams::LOAD_NOISE, id.0 as u64);
        self.links.push(Link::new(id, addr_a, addr_b, cfg, load_ab, load_ba, link_noise));
        let ia = self.nodes[a.0 as usize].add_iface(addr_a, Some((id, Dir::AtoB)));
        let ib = self.nodes[b.0 as usize].add_iface(addr_b, Some((id, Dir::BtoA)));
        self.links[id.0 as usize].set_ends((a, ia), (b, ib));
        self.by_addr.insert(addr_a, a, ia);
        self.by_addr.insert(addr_b, b, ib);
        self.topo_epoch = next_epoch();
        id
    }

    /// Connect with no background load (idle link).
    pub fn connect_idle(&mut self, a: NodeId, addr_a: Ipv4, b: NodeId, addr_b: Ipv4, cfg: LinkConfig) -> LinkId {
        self.connect(a, addr_a, b, addr_b, cfg, Arc::new(NoLoad), Arc::new(NoLoad))
    }

    /// Add a stub (loopback-style) interface not attached to any link.
    pub fn add_stub_iface(&mut self, node: NodeId, addr: Ipv4) -> IfaceId {
        assert!(!self.by_addr.contains(addr), "address {addr} already in use");
        let id = self.nodes[node.0 as usize].add_iface(addr, None);
        self.by_addr.insert(addr, node, id);
        self.topo_epoch = next_epoch();
        id
    }

    /// Install `prefix → iface` on `node`.
    pub fn add_route(&mut self, node: NodeId, prefix: Prefix, via: IfaceId) {
        self.nodes[node.0 as usize].add_route(prefix, via);
        self.topo_epoch = next_epoch();
    }

    /// Bulk-install routes on `node` — one sorted rebuild of its forwarding
    /// table and one epoch bump instead of n shifted inserts. The
    /// continent-scale generator's install path.
    pub fn add_routes(&mut self, node: NodeId, routes: impl IntoIterator<Item = (Prefix, IfaceId)>) {
        self.nodes[node.0 as usize].add_routes(routes);
        self.topo_epoch = next_epoch();
    }

    /// First interface address of a node (probe source address).
    fn primary_addr(&self, node: NodeId) -> Ipv4 {
        self.nodes[node.0 as usize].ifaces.first().map(|i| i.addr).expect("node has no interface")
    }

    /// Ground-truth node path from `from` toward `dst` (following forwarding
    /// tables, ignoring delays/drops) under the forwarding state in effect at
    /// `t` (static tables plus any routing-event overlays). For validation
    /// and tests.
    pub fn truth_path_at(&self, from: NodeId, dst: Ipv4, t: SimTime) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut cur = from;
        for _ in 0..MAX_HOPS {
            if self.nodes[cur.0 as usize].owns_addr(dst) {
                return Some(path);
            }
            let iface = self.nodes[cur.0 as usize].next_hop_at(dst, t)?;
            let (lid, dir) = self.nodes[cur.0 as usize].ifaces[iface.0 as usize].link?;
            let (next, _) = self.links[lid.0 as usize].arrival_end(dir);
            cur = next;
            path.push(cur);
        }
        None
    }

    /// Resolve `dst` at `node` (id `cur`): ownership and egress in one lookup,
    /// through the context's route memo.
    ///
    /// Both answers are pure functions of the node's interfaces and
    /// forwarding table, and every `Network` method that can change either
    /// bumps the topology epoch, which invalidates the memo at the next
    /// sync. Nodes carrying dynamic forwarding overlays (routing events)
    /// bypass the memo: their next hop is a function of time, not just of
    /// `(node, dst)`.
    #[inline]
    fn resolve(ctx: &mut ProbeCtx, cur: NodeId, node: &Node, dst: Ipv4, now: SimTime) -> Resolved {
        if !node.fwd_dyn.is_empty() {
            return Resolved { owned: node.owns_addr(dst), egress: node.next_hop_at(dst, now) };
        }
        let key = u64::from(cur.0) << 32 | u64::from(dst.0);
        *ctx.routes.get_or(key, || Resolved { owned: node.owns_addr(dst), egress: node.next_hop(dst) })
    }

    /// Carry a `size`-byte packet across `link` in `dir` at `now`, against
    /// the context's queue state for that direction. `key` yields the drop
    /// draw's key; it is only called when a draw is made.
    fn cross(
        &self,
        ctx: &mut ProbeCtx,
        link: LinkId,
        dir: Dir,
        now: SimTime,
        size: u32,
        key: impl Fn() -> u64,
    ) -> TransitResult {
        let l = &self.links[link.0 as usize];
        let st = ctx.queues.get_or(u64::from(link.0) << 1 | dir.index() as u64, || l.fresh_queue_state(dir));
        l.transit(dir, st, now, size, key)
    }

    /// Charge `node`'s generation of the response to probe `probe`, arriving
    /// at `now`, against the node's state in `ctx` (synced by the walk).
    /// Returns the response's IP-ID and the time it leaves.
    fn respond(
        &self,
        ctx: &mut ProbeCtx,
        node: NodeId,
        probe: ProbeId,
        now: SimTime,
    ) -> Result<(u16, SimTime), ProbeError> {
        let gen_key = mix(&[probe.0, 0xabcd]);
        let responder = &self.nodes[node.0 as usize];
        let scratch = ctx.scratch.get_or(node.0.into(), || responder.fresh_scratch());
        let gen_delay = responder
            .icmp_response_delay(scratch, now, &self.noise, gen_key)
            .map_err(ProbeError::Silent)?;
        Ok((scratch.alloc_ip_id(), now + gen_delay))
    }

    /// The reply to probe `probe`, sent at `t`, whose response from
    /// `responder` reached the prober at `arrived`: adds the host-stack
    /// measurement jitter.
    fn reply(
        &self,
        probe: ProbeId,
        t: SimTime,
        arrived: SimTime,
        (node, kind, src): (NodeId, PacketKind, Ipv4),
        ip_id: u16,
    ) -> ProbeReplyLite {
        let j = self.noise.range_f64(streams::RTT_JITTER, probe.0, 0.0, self.rtt_jitter.as_secs_f64());
        let done = arrived + SimDuration::from_secs_f64(j);
        ProbeReplyLite { responder: src, responder_node: node, kind, rtt: done.since(t), ip_id }
    }

    /// The shared probe walk behind [`Network::send_probe`] and
    /// [`Network::send_probe_lite`]: the compiled walk, or the stepped walk
    /// for record-route probes and paths whose forwarding changes over time.
    /// When `truth` is `Some`, ground-truth egress addresses are collected
    /// into it; either way, hop indices, RNG draws, and timing are identical
    /// — the collector only observes.
    fn send_probe_core(
        &self,
        ctx: &mut ProbeCtx,
        from: NodeId,
        spec: ProbeSpec,
        t: SimTime,
        truth: Option<&mut (Vec<Ipv4>, Vec<Ipv4>)>,
    ) -> Result<(ProbeReplyLite, Option<Vec<Ipv4>>), ProbeError> {
        ctx.sync(self);
        let probe = ctx.alloc_probe_id();
        let paths = match truth {
            Some((fwd, ret)) => (Some(fwd), Some(ret)),
            None => (None, None),
        };
        let Some(slot) = self.compiled_walk(ctx, from, spec) else {
            return self.step_walk(ctx, from, spec, probe, t, paths);
        };
        // Lend the walk out of its slot so running it can borrow the context.
        let walk = std::mem::replace(&mut ctx.walks[slot], Walk::EMPTY);
        let out = self.run_walk(ctx, &walk, spec, probe, t, paths);
        ctx.walks[slot] = walk;
        out.map(|lite| (lite, None))
    }

    /// The cache slot holding `spec` from `from` compiled under the
    /// network's current epochs, compiling it into the set's older slot on a
    /// miss; `None` when the probe must be stepped hop by hop.
    fn compiled_walk(&self, ctx: &mut ProbeCtx, from: NodeId, spec: ProbeSpec) -> Option<usize> {
        #[cfg(test)]
        if ctx.stepped_only {
            return None;
        }
        if spec.record_route {
            return None;
        }
        if ctx.walks.is_empty() {
            ctx.walks = vec![Walk::EMPTY; 2 * WALK_SETS];
        }
        let key = WalkKey { from, dst: spec.dst, ttl: spec.ttl, kind: spec.kind, size: spec.size };
        let stamp = (ctx.topo_epoch, ctx.scenario_epoch);
        let hash = mix(&[from.0 as u64, spec.dst.0 as u64, spec.ttl as u64, spec.kind as u64, spec.size as u64]);
        let set = 2 * (hash as usize % WALK_SETS);
        let fresh = |w: &Walk| w.key == Some(key) && w.stamp == stamp;
        if !fresh(&ctx.walks[set]) {
            // Most recently used first: a hit in the second slot, or a miss
            // evicting it, moves that slot to the front.
            ctx.walks.swap(set, set + 1);
            if !fresh(&ctx.walks[set]) {
                let mut walk = std::mem::replace(&mut ctx.walks[set], Walk::EMPTY);
                self.compile_walk(ctx, from, spec, &mut walk);
                ctx.walks[set] = Walk { key: Some(key), stamp, ..walk };
            }
        }
        (!ctx.walks[set].dynamic).then_some(set)
    }

    /// Resolve `spec` sent from `from` into `walk`, reusing its hop list:
    /// every forwarding decision of the round trip, made once, with each
    /// hop's delay precomputed where its link makes it a constant. Marks the
    /// walk dynamic when the path meets a node with forwarding overlays.
    fn compile_walk(&self, ctx: &mut ProbeCtx, from: NodeId, spec: ProbeSpec, walk: &mut Walk) {
        walk.hops.clear();
        walk.dynamic = true;
        let mut pkt = Packet::probe(self.primary_addr(from), spec.dst, spec.kind, spec.ttl, ProbeId(0));
        pkt.size = spec.size;
        let Some(end) = self.compile_leg(ctx, from, &mut pkt, &mut walk.hops) else {
            return;
        };
        walk.fwd_end = end;
        walk.fwd_hops = walk.hops.len();
        if let Decision::Respond { node, kind, src } = end {
            let mut response = pkt.make_response(kind, src, 0);
            let Some(end) = self.compile_leg(ctx, node, &mut response, &mut walk.hops) else {
                return;
            };
            walk.ret_end = end;
        }
        walk.dynamic = false;
    }

    /// Decide `pkt`'s leg from `origin` hop by hop, appending its link
    /// crossings to `hops`; returns the decision that ends the leg, or
    /// `None` at a node whose forwarding changes over time.
    fn compile_leg(
        &self,
        ctx: &mut ProbeCtx,
        origin: NodeId,
        pkt: &mut Packet,
        hops: &mut Vec<WalkHop>,
    ) -> Option<Decision> {
        let (mut cur, mut incoming, first) = (origin, None, hops.len());
        loop {
            let node = &self.nodes[cur.0 as usize];
            if !node.fwd_dyn.is_empty() {
                return None;
            }
            let res = Self::resolve(ctx, cur, node, pkt.dst, SimTime::ZERO);
            let (link, dir, egress) = match decide(node, res, origin, incoming, pkt, hops.len() - first) {
                Decision::Forward { link, dir, egress_addr } => (link, dir, egress_addr),
                end => return Some(end),
            };
            let l = &self.links[link.0 as usize];
            hops.push(WalkHop { link, dir, egress, delay: l.constant_transit(dir, pkt.size) });
            let (next, inc) = l.arrival_end(dir);
            (cur, incoming) = (next, Some(inc));
        }
    }

    /// Run a compiled walk for probe `probe` sent at `t`: each hop adds its
    /// constant delay or runs its link's transit at the time the packet
    /// reaches it, and the responder charges its ICMP generation in between.
    /// Allocates nothing beyond what `truth` collects.
    fn run_walk(
        &self,
        ctx: &mut ProbeCtx,
        walk: &Walk,
        spec: ProbeSpec,
        probe: ProbeId,
        t: SimTime,
        (fwd_path, ret_path): TruthPaths,
    ) -> ProbeResultLite {
        let (fwd, ret) = walk.hops.split_at(walk.fwd_hops);
        let now = self.run_leg(ctx, fwd, t, spec.size, probe, spec.kind.is_response(), fwd_path)?;
        let responder = walk.fwd_end.responder()?;
        let (ip_id, leave) = self.respond(ctx, responder.0, probe, now)?;
        let arrived = self.run_leg(ctx, ret, leave, PROBE_SIZE_BYTES, probe, true, ret_path)?;
        walk.ret_end.delivered()?;
        Ok(self.reply(probe, t, arrived, responder, ip_id))
    }

    /// Carry a `size`-byte packet of probe `probe` over a compiled leg's
    /// `hops`, leaving at `now`; returns the time it reaches the leg's last
    /// node, pushing each egress address onto `path`.
    #[allow(clippy::too_many_arguments)]
    fn run_leg(
        &self,
        ctx: &mut ProbeCtx,
        hops: &[WalkHop],
        mut now: SimTime,
        size: u32,
        probe: ProbeId,
        response: bool,
        mut path: Option<&mut Vec<Ipv4>>,
    ) -> Result<SimTime, ProbeError> {
        for (i, hop) in hops.iter().enumerate() {
            now += match hop.delay {
                Some(d) => d,
                None => self
                    .cross(ctx, hop.link, hop.dir, now, size, || hop_key(probe, i, response))
                    .map_err(|r| drop_error(r, i, response))?,
            };
            if let Some(p) = path.as_deref_mut() {
                p.push(hop.egress);
            }
        }
        Ok(now)
    }

    /// The stepped walk: decide and cross one hop at a time, at the time the
    /// packet gets there. Serves record-route probes (the option records
    /// egress addresses as it goes) and paths through nodes whose
    /// forwarding changes over time.
    fn step_walk(
        &self,
        ctx: &mut ProbeCtx,
        from: NodeId,
        spec: ProbeSpec,
        probe: ProbeId,
        t: SimTime,
        (fwd_path, ret_path): TruthPaths,
    ) -> Result<(ProbeReplyLite, Option<Vec<Ipv4>>), ProbeError> {
        let mut pkt = Packet::probe(self.primary_addr(from), spec.dst, spec.kind, spec.ttl, probe);
        pkt.size = spec.size;
        if spec.record_route {
            pkt = pkt.with_record_route();
        }
        let mut now = t;
        let end = self.step_leg(ctx, from, &mut pkt, &mut now, fwd_path);
        let responder = end.responder()?;
        let (ip_id, leave) = self.respond(ctx, responder.0, probe, now)?;
        let mut response = pkt.make_response(responder.1, responder.2, ip_id);
        now = leave;
        let end = self.step_leg(ctx, responder.0, &mut response, &mut now, ret_path);
        end.delivered()?;
        Ok((self.reply(probe, t, now, responder, ip_id), response.record_route.map(|rr| rr.hops)))
    }

    /// Walk `pkt`'s leg from `origin` hop by hop, advancing `now` across
    /// each link and pushing each egress address onto `path`; returns the
    /// decision that ends the leg (a drop in transit is a failure).
    fn step_leg(
        &self,
        ctx: &mut ProbeCtx,
        origin: NodeId,
        pkt: &mut Packet,
        now: &mut SimTime,
        mut path: Option<&mut Vec<Ipv4>>,
    ) -> Decision {
        let (mut cur, mut incoming, mut hops) = (origin, None, 0usize);
        let is_response = pkt.kind.is_response();
        loop {
            let node = &self.nodes[cur.0 as usize];
            let res = Self::resolve(ctx, cur, node, pkt.dst, *now);
            let (link, dir, egress) = match decide(node, res, origin, incoming, pkt, hops) {
                Decision::Forward { link, dir, egress_addr } => (link, dir, egress_addr),
                end => return end,
            };
            // RFC 791: requests and echo replies record; ICMP errors only quote.
            if pkt.kind != PacketKind::TimeExceeded && pkt.kind != PacketKind::DestUnreachable {
                if let Some(rr) = pkt.record_route.as_mut() {
                    rr.record(egress);
                }
            }
            match self.cross(ctx, link, dir, *now, pkt.size, || hop_key(pkt.probe, hops, is_response)) {
                Ok(d) => *now += d,
                Err(r) => return Decision::Fail(drop_error(r, hops, is_response)),
            }
            if let Some(p) = path.as_deref_mut() {
                p.push(egress);
            }
            hops += 1;
            let (next, inc) = self.links[link.0 as usize].arrival_end(dir);
            (cur, incoming) = (next, Some(inc));
        }
    }

    /// Send a probe from host `from` at time `t` and walk it to completion,
    /// drawing all mutable state from `ctx`. This is the shared-substrate
    /// fast path: `&self` means any number of contexts can walk probes over
    /// the same network concurrently.
    pub fn send_probe(&self, ctx: &mut ProbeCtx, from: NodeId, spec: ProbeSpec, t: SimTime) -> ProbeResult {
        let mut truth = (Vec::new(), Vec::new());
        let (lite, record_route) = self.send_probe_core(ctx, from, spec, t, Some(&mut truth))?;
        Ok(ProbeReply {
            responder: lite.responder,
            responder_node: lite.responder_node,
            kind: lite.kind,
            rtt: lite.rtt,
            ip_id: lite.ip_id,
            record_route,
            truth_forward_path: truth.0,
            truth_return_path: truth.1,
        })
    }

    /// [`Network::send_probe`] without the per-probe heap traffic: no
    /// ground-truth path vectors are collected (record-route, if requested,
    /// is still walked but discarded). Bit-identical timing and responder
    /// selection — the bulk TSLP campaign's probe path.
    pub fn send_probe_lite(&self, ctx: &mut ProbeCtx, from: NodeId, spec: ProbeSpec, t: SimTime) -> ProbeResultLite {
        self.send_probe_core(ctx, from, spec, t, None).map(|(lite, _)| lite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Schedule;

    /// Build: vp(host, AS100) -- r1(AS100) -- r2(AS200) -- t(host, AS200)
    /// with point-to-point addressing and default routes both ways.
    fn line_topology() -> (Network, NodeId, Ipv4, Ipv4, Ipv4) {
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

        (net, vp, Ipv4::new(10, 0, 1, 1), Ipv4::new(10, 0, 1, 2), Ipv4::new(10, 0, 2, 2))
    }

    #[test]
    fn echo_reaches_target() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt_addr), SimTime::ZERO).unwrap();
        assert_eq!(r.kind, PacketKind::EchoReply);
        assert_eq!(r.responder, tgt_addr);
        // 3 links out + 3 back at ~0.2ms prop each plus ICMP gen: ~1.2-3ms.
        assert!(r.rtt > SimDuration::from_micros(1200) && r.rtt < SimDuration::from_millis(3), "{}", r.rtt);
        assert_eq!(r.truth_forward_path.len(), 3);
        assert_eq!(r.truth_return_path.len(), 3);
    }

    #[test]
    fn ttl1_expires_at_first_router_with_incoming_iface_source() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 1), SimTime::ZERO).unwrap();
        assert_eq!(r.kind, PacketKind::TimeExceeded);
        assert_eq!(r.responder, Ipv4::new(10, 0, 0, 1));
    }

    #[test]
    fn ttl2_expires_at_far_router() {
        let (net, vp, near, far, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 2), SimTime::ZERO).unwrap();
        assert_eq!(r.kind, PacketKind::TimeExceeded);
        assert_eq!(r.responder, far);
        assert_ne!(r.responder, near);
    }

    #[test]
    fn ttl3_reaches_destination() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 3), SimTime::ZERO).unwrap();
        assert_eq!(r.kind, PacketKind::DestUnreachable);
        assert_eq!(r.responder, tgt_addr);
    }

    #[test]
    fn record_route_covers_forward_and_reverse_on_echo() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt_addr).with_record_route(), SimTime::ZERO).unwrap();
        let rr = r.record_route.unwrap();
        // Forward egresses then reverse egresses, 6 of 9 slots used.
        assert_eq!(
            rr,
            vec![
                Ipv4::new(10, 0, 0, 2),
                Ipv4::new(10, 0, 1, 1),
                Ipv4::new(10, 0, 2, 1),
                Ipv4::new(10, 0, 2, 2),
                Ipv4::new(10, 0, 1, 2),
                Ipv4::new(10, 0, 0, 1),
            ]
        );
    }

    #[test]
    fn time_exceeded_quotes_frozen_forward_rr() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net
            .send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 2).with_record_route(), SimTime::ZERO)
            .unwrap();
        let rr = r.record_route.unwrap();
        // Only the two forward egresses; the error quote does not grow.
        assert_eq!(rr, vec![Ipv4::new(10, 0, 0, 2), Ipv4::new(10, 0, 1, 1)]);
    }

    #[test]
    fn no_route_is_reported() {
        let (mut net, vp, _, _, _) = line_topology();
        let mut ctx = net.probe_ctx(0);
        net.node_mut(vp).remove_route(Prefix::DEFAULT);
        let e = net.send_probe(&mut ctx, vp, ProbeSpec::echo(Ipv4::new(8, 8, 8, 8)), SimTime::ZERO).unwrap_err();
        assert_eq!(e, ProbeError::NoRoute);
    }

    #[test]
    fn missing_transit_route_fails() {
        let (mut net, vp, _, _, _) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r2 = NodeId(2);
        net.node_mut(r2).remove_route(Prefix::DEFAULT);
        let e = net.send_probe(&mut ctx, vp, ProbeSpec::echo(Ipv4::new(9, 9, 9, 9)), SimTime::ZERO);
        assert!(e.is_err());
    }

    /// vp → r1 → r2 → r3 → r1 … (a genuine 3-router routing loop).
    fn ring_topology() -> (Network, NodeId) {
        let mut net = Network::new(1);
        let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
        let r1 = net.add_node(NodeKind::Router, Asn(1), "r1");
        let r2 = net.add_node(NodeKind::Router, Asn(1), "r2");
        let r3 = net.add_node(NodeKind::Router, Asn(1), "r3");
        let cfg = LinkConfig::default();
        net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r1, Ipv4::new(10, 0, 0, 1), cfg.clone());
        net.connect_idle(r1, Ipv4::new(10, 0, 1, 1), r2, Ipv4::new(10, 0, 1, 2), cfg.clone());
        net.connect_idle(r2, Ipv4::new(10, 0, 2, 1), r3, Ipv4::new(10, 0, 2, 2), cfg.clone());
        net.connect_idle(r3, Ipv4::new(10, 0, 3, 1), r1, Ipv4::new(10, 0, 3, 2), cfg);
        net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r1, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r1, Prefix::DEFAULT, IfaceId(1)); // toward r2
        net.add_route(r2, Prefix::DEFAULT, IfaceId(1)); // toward r3
        net.add_route(r2, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r3, Prefix::DEFAULT, IfaceId(1)); // back to r1
        net.add_route(r3, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        (net, vp)
    }

    #[test]
    fn forwarding_loop_detected() {
        let (net, vp) = ring_topology();
        let mut ctx = net.probe_ctx(0);
        // TTL 255 would exhaust after the hop cap; the cap triggers first.
        let mut spec = ProbeSpec::echo(Ipv4::new(8, 8, 8, 8));
        spec.ttl = 255;
        let e = net.send_probe(&mut ctx, vp, spec, SimTime::ZERO).unwrap_err();
        assert_eq!(e, ProbeError::Loop);
    }

    #[test]
    fn low_ttl_in_loop_expires_cleanly() {
        let (net, vp) = ring_topology();
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(8, 8, 8, 8), 5), SimTime::ZERO).unwrap();
        assert_eq!(r.kind, PacketKind::TimeExceeded);
    }

    #[test]
    fn two_node_bounce_becomes_unreachable() {
        // r2's only route sends the packet back out its incoming interface:
        // the router answers destination-unreachable instead of hairpinning.
        let mut net = Network::new(1);
        let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
        let r1 = net.add_node(NodeKind::Router, Asn(1), "r1");
        let r2 = net.add_node(NodeKind::Router, Asn(1), "r2");
        let cfg = LinkConfig::default();
        net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r1, Ipv4::new(10, 0, 0, 1), cfg.clone());
        net.connect_idle(r1, Ipv4::new(10, 0, 1, 1), r2, Ipv4::new(10, 0, 1, 2), cfg);
        net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
        net.add_route(r1, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r1, Prefix::DEFAULT, IfaceId(1));
        net.add_route(r2, Prefix::DEFAULT, IfaceId(0));
        let mut ctx = net.probe_ctx(0);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(Ipv4::new(8, 8, 8, 8), 5), SimTime::ZERO).unwrap();
        assert_eq!(r.kind, PacketKind::DestUnreachable);
        assert_eq!(r.responder, Ipv4::new(10, 0, 1, 2));
    }

    #[test]
    fn unresponsive_far_router_times_out() {
        let (mut net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        net.node_mut(NodeId(2)).icmp.responsive = false;
        let e = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 2), SimTime::ZERO).unwrap_err();
        assert_eq!(e, ProbeError::Silent(NoResponse::Unresponsive));
    }

    /// `line_topology()` with its middle link overloaded (1.3e8 bps offered
    /// on a 1e8 bps link, so it tail-drops) and its far router rate-limited
    /// to 0.05 ICMP responses per second — slow enough that one probe per
    /// 7 s empties the bucket within the 40 rounds the series golden sends.
    fn loaded_line() -> (Network, NodeId, Ipv4) {
        let (mut net, vp, _, _, tgt_addr) = line_topology();
        let l = net.link_mut(LinkId(1));
        *l.capacity_mut() = Schedule::constant(1e8);
        l.set_load(Dir::AtoB, Arc::new(crate::link::ConstantLoad(1.3e8)));
        net.node_mut(NodeId(2)).icmp.rate_limit_pps = Some(0.05);
        (net, vp, tgt_addr)
    }

    /// FNV-1a over every outcome of [`series_outcomes_are_pinned`], in
    /// send order.
    const SERIES_HASH: u64 = 0x04c1_006a_3803_3ef5;

    #[test]
    fn series_outcomes_are_pinned() {
        // 40 rounds, 7 s apart, at TTL 1, 2 and 3 through a tail-dropping
        // link to a rate-limited router: every probe's RTT and IP-ID (or its
        // error) depends on queue anchors, token buckets and IP-ID counters
        // carried from earlier probes in the one context.
        let (net, vp, tgt) = loaded_line();
        let mut ctx = net.probe_ctx(0);
        let mut outcomes = Vec::new();
        for i in 0..40u64 {
            for ttl in 1..=3 {
                let r = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt, ttl), SimTime(i * 7_000_000));
                outcomes.push((outcomes.len() as u64 + 1, r.map(|r| (r.rtt, r.ip_id))));
            }
        }
        let hash = outcomes
            .iter()
            .map(|(id, r)| match r {
                Ok((rtt, ip_id)) => format!("{id}:ok:{}:{ip_id};", rtt.as_micros()),
                Err(e) => format!("{id}:err:{e:?};"),
            })
            .flat_map(String::into_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        assert_eq!(hash, SERIES_HASH, "got {hash:#018x}");
        let rate_limited = outcomes.iter().filter(|o| o.1 == Err(ProbeError::Silent(NoResponse::RateLimited))).count();
        let dropped = outcomes.iter().filter(|o| matches!(o.1, Err(ProbeError::DroppedForward(..)))).count();
        assert_eq!((rate_limited, dropped), (9, 18));
    }

    #[test]
    fn queueing_on_middle_link_inflates_far_rtt_only() {
        let (mut net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        {
            let l = net.link_mut(LinkId(1));
            *l.capacity_mut() = Schedule::constant(1e8);
            l.set_load(Dir::AtoB, Arc::new(crate::link::ConstantLoad(1.45e8)));
        }
        let t = SimTime(2 * crate::time::MICROS_PER_HOUR);
        let near = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 1), t).unwrap();
        // The saturated queue tail-drops some probes; retry like a prober would.
        let far = (0..20)
            .find_map(|i| net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 2), t + SimDuration::from_secs(i)).ok())
            .expect("all far probes dropped");
        assert!(near.rtt < SimDuration::from_millis(2), "near {}", near.rtt);
        assert!(far.rtt > near.rtt + SimDuration::from_millis(5), "far {} near {}", far.rtt, near.rtt);
    }

    #[test]
    fn ownership_memo_follows_the_topology_epoch() {
        let (mut net, vp, _, far, _) = line_topology();
        let r2 = NodeId(2);
        let addr = Ipv4::new(10, 0, 9, 9);
        let mut ctx = net.probe_ctx(7);
        // Unowned: r2's default route points back at r1, so r2 refuses to
        // hairpin and answers unreachable.
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(addr), SimTime::ZERO).unwrap();
        assert_eq!((r.kind, r.responder, r.responder_node), (PacketKind::DestUnreachable, far, r2));
        // Same context, new interface: r2 now owns the address, so the
        // memoized "not home" answer must not survive the epoch bump.
        net.add_stub_iface(r2, addr);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(addr), SimTime::ZERO).unwrap();
        assert_eq!((r.kind, r.responder, r.responder_node), (PacketKind::EchoReply, addr, r2));
    }

    #[test]
    fn ownership_memo_survives_slot_eviction() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        // Through r1: its own address, a far host, and an unrouted address,
        // each probed twice (the second walk hits the memo), alternating
        // with the prober's address on every return leg, so r1's memo holds
        // several destinations at once.
        let dsts = [Ipv4::new(10, 0, 0, 1), tgt_addr, Ipv4::new(8, 8, 8, 8)];
        let mut shared = net.probe_ctx(7);
        for i in 0..18u64 {
            let spec = ProbeSpec::echo(dsts[i as usize / 2 % dsts.len()]);
            let t = SimTime(i * 1_000_000);
            let got = net.send_probe(&mut shared, vp, spec, t).unwrap();
            let want = net.send_probe(&mut net.probe_ctx(7), vp, spec, t).unwrap();
            assert_eq!(
                (got.kind, got.responder, got.responder_node),
                (want.kind, want.responder, want.responder_node),
                "probe {i}"
            );
            assert_eq!(got.truth_forward_path, want.truth_forward_path, "probe {i}");
            assert_eq!(got.truth_return_path, want.truth_return_path, "probe {i}");
        }
    }

    #[test]
    fn truth_path_follows_routes() {
        let (net, vp, _, _, tgt_addr) = line_topology();
        let p = net.truth_path_at(vp, tgt_addr, SimTime::ZERO).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn duplicate_address_panics() {
        let mut net = Network::new(3);
        let a = net.add_node(NodeKind::Router, Asn(1), "a");
        let b = net.add_node(NodeKind::Router, Asn(2), "b");
        net.connect_idle(a, Ipv4::new(10, 0, 0, 1), b, Ipv4::new(10, 0, 0, 2), LinkConfig::default());
        let c = net.add_node(NodeKind::Router, Asn(3), "c");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.connect_idle(c, Ipv4::new(10, 0, 0, 1), b, Ipv4::new(10, 0, 0, 9), LinkConfig::default());
        }));
        assert!(res.is_err());
    }

    #[test]
    fn probe_rtts_are_deterministic_across_runs() {
        let run = || {
            let (net, vp, _, _, tgt_addr) = line_topology();
            let mut ctx = net.probe_ctx(0);
            (0..50)
                .map(|i| net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt_addr), SimTime(i * 1_000_000)).unwrap().rtt)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dynamic_overlay_swaps_path_mid_campaign() {
        use crate::node::FwdState;
        // Parallel r1 -> r2 link; at t=1h a routing event flips r1's default
        // route onto it. The far responder address changes with the path.
        let (mut net, vp, _, far_a, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r1 = NodeId(1);
        let r2 = NodeId(2);
        net.connect_idle(r1, Ipv4::new(10, 0, 4, 1), r2, Ipv4::new(10, 0, 4, 2), LinkConfig::default());
        let alt = net.node(r1).iface_by_addr(Ipv4::new(10, 0, 4, 1)).unwrap();
        let flip = SimTime(crate::time::MICROS_PER_HOUR);
        net.node_mut(r1).push_fwd_step(Prefix::DEFAULT, flip, FwdState::Via(alt));
        let before = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 2), SimTime::ZERO).unwrap();
        assert_eq!(before.responder, far_a);
        let after = net
            .send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt_addr, 2), flip + SimDuration::from_secs(1))
            .unwrap();
        assert_eq!(after.responder, Ipv4::new(10, 0, 4, 2), "{after:?}");
        // truth_path_at sees the same swap.
        let p0 = net.truth_path_at(vp, tgt_addr, SimTime::ZERO).unwrap();
        let p1 = net.truth_path_at(vp, tgt_addr, flip + SimDuration::from_secs(1)).unwrap();
        assert_eq!(p0, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(p1, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // Same node path here, but via a different link: compare responders.
        assert_ne!(before.responder, after.responder);
    }

    /// `line_topology()` grown so that some probe ends at every terminal of
    /// the walk, on paths of constant and time-varying links alike:
    ///
    /// - from `vp`: echo replies, TTL expiry at r1 and r2, host unreachable
    ///   at `tgt` (10.0.5.0/24), a hairpin at r2 (8.8.8.8), a stub route at
    ///   r2 (10.0.7.0/24), a transit no-route at r3 (10.0.8.0/24),
    ///   record-route;
    /// - the return leg toward `vp` leaves r2 over a separate lossy link
    ///   (asymmetric, random loss);
    /// - r1→r2 tail-drops, r2→tgt is down from 1000 s to 2000 s, r2 is in
    ///   maintenance from 3000 s to 4000 s, r1 rate-limits ICMP;
    /// - `vp2`'s responses die at r3, which has no route back;
    /// - `vp3` has no route until a forwarding overlay installs one at
    ///   2500 s, so its walks are stepped.
    ///
    /// Returns the network and its three sources.
    fn gauntlet() -> (Network, [NodeId; 3]) {
        use crate::node::FwdState;
        let (mut net, vp, _, _, _) = line_topology();
        let (r1, r2) = (NodeId(1), NodeId(2));
        let lossy = LinkConfig { base_loss: 0.2, ..LinkConfig::default() };
        let back = net.connect_idle(r2, Ipv4::new(10, 0, 3, 1), r1, Ipv4::new(10, 0, 3, 2), lossy);
        let back_iface = net.node(r2).iface_by_addr(Ipv4::new(10, 0, 3, 1)).unwrap();
        net.add_route(r2, "10.0.0.0/24".parse().unwrap(), back_iface);
        assert_eq!(back, LinkId(3));
        net.add_route(r2, "10.0.5.0/24".parse().unwrap(), IfaceId(1));
        let stub = net.add_stub_iface(r2, Ipv4::new(10, 0, 6, 1));
        net.add_route(r2, "10.0.7.0/24".parse().unwrap(), stub);

        let r3 = net.add_node(NodeKind::Router, Asn(300), "r3");
        net.connect_idle(r1, Ipv4::new(10, 0, 8, 1), r3, Ipv4::new(10, 0, 8, 2), LinkConfig::default());
        let to_r3 = net.node(r1).iface_by_addr(Ipv4::new(10, 0, 8, 1)).unwrap();
        net.add_route(r1, "10.0.8.0/24".parse().unwrap(), to_r3);
        net.add_route(r3, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(r1, "10.0.10.0/24".parse().unwrap(), to_r3);

        let vp2 = net.add_node(NodeKind::Host, Asn(100), "vp2");
        net.connect_idle(vp2, Ipv4::new(10, 0, 10, 2), r1, Ipv4::new(10, 0, 10, 1), LinkConfig::default());
        net.add_route(vp2, Prefix::DEFAULT, IfaceId(0));
        let vp3 = net.add_node(NodeKind::Host, Asn(100), "vp3");
        net.connect_idle(vp3, Ipv4::new(10, 0, 12, 2), r1, Ipv4::new(10, 0, 12, 1), LinkConfig::default());
        net.node_mut(vp3).push_fwd_step(Prefix::DEFAULT, SimTime(2_500_000_000), FwdState::Via(IfaceId(0)));
        let to_vp3 = net.node(r1).iface_by_addr(Ipv4::new(10, 0, 12, 1)).unwrap();
        net.add_route(r1, "10.0.12.0/24".parse().unwrap(), to_vp3);

        let l = net.link_mut(LinkId(1));
        *l.capacity_mut() = Schedule::constant(1e8);
        l.set_load(Dir::AtoB, Arc::new(crate::link::ConstantLoad(1.3e8)));
        net.link_mut(LinkId(2)).up_mut().set_between(SimTime(1_000_000_000), SimTime(2_000_000_000), false);
        net.node_mut(r2).icmp.silent_windows.push((SimTime(3_000_000_000), SimTime(4_000_000_000)));
        net.node_mut(r1).icmp.rate_limit_pps = Some(0.01);
        (net, [vp, vp2, vp3])
    }

    /// Send `specs` from their sources every 37 s for `rounds` rounds through
    /// `ctx`, rendering each result in full.
    fn probe_rounds(
        net: &Network,
        ctx: &mut ProbeCtx,
        specs: &[(NodeId, ProbeSpec)],
        rounds: u64,
        t0: SimTime,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..rounds {
            for &(from, spec) in specs {
                out.push(format!("{:?}", net.send_probe(ctx, from, spec, t0 + SimDuration::from_secs(i * 37))));
            }
        }
        out
    }

    #[test]
    fn compiled_walk_matches_stepped_walk() {
        let (net, [vp, vp2, vp3]) = gauntlet();
        let tgt = Ipv4::new(10, 0, 2, 2);
        let ttl_limited = ProbeSpec::ttl_limited;
        let specs = [
            (vp, ProbeSpec::echo(tgt)),
            (vp, ttl_limited(tgt, 1)),
            (vp, ttl_limited(tgt, 2)),
            (vp, ttl_limited(tgt, 3)),
            (vp, ProbeSpec::echo(Ipv4::new(10, 0, 1, 2))),
            (vp, ProbeSpec::echo(Ipv4::new(10, 0, 5, 5))),
            (vp, ProbeSpec::echo(Ipv4::new(8, 8, 8, 8))),
            (vp, ProbeSpec::echo(Ipv4::new(10, 0, 7, 7))),
            (vp, ttl_limited(Ipv4::new(10, 0, 8, 99), 9)),
            (vp, ProbeSpec::echo(tgt).with_record_route()),
            (vp, ProbeSpec { size: 1500, ..ProbeSpec::echo(tgt) }),
            (vp2, ProbeSpec::echo(tgt)),
            (vp2, ttl_limited(tgt, 1)),
            (vp3, ProbeSpec::echo(tgt)),
        ];
        let mut compiled = net.probe_ctx(5);
        let mut stepped = net.probe_ctx(5);
        stepped.stepped_only = true;
        let got = probe_rounds(&net, &mut compiled, &specs, 200, SimTime::ZERO);
        let want = probe_rounds(&net, &mut stepped, &specs, 200, SimTime::ZERO);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "probe {i}: {:?}", specs[i % specs.len()]);
        }
        // Every terminal was reached, and the compiled walks were used.
        let unreachable_from = |node: &str| format!("{node}, kind: DestUnreachable");
        let r2_unreachable = unreachable_from("responder: 10.0.1.2, responder_node: NodeId(2)");
        for (k, end) in [
            (0, "kind: EchoReply"),
            (0, "truth_return_path: [10.0.2.2, 10.0.3.1, 10.0.0.1]"),
            (0, "Err(DroppedReturn(RandomLoss))"),
            (1, "kind: TimeExceeded"),
            (1, "Err(Silent(RateLimited))"),
            (2, "Err(DroppedForward(QueueFull, 1))"),
            (2, "Err(Silent(Unresponsive))"),
            (3, "Err(DroppedForward(LinkDown, 2))"),
            (5, &unreachable_from("responder: 10.0.2.2, responder_node: NodeId(3)")),
            (6, &r2_unreachable),
            (7, &r2_unreachable),
            (8, &unreachable_from("responder: 10.0.8.2, responder_node: NodeId(4)")),
            (9, "record_route: Some"),
            (11, "Err(DroppedReturn(LinkDown))"),
            (13, "Err(NoRoute)"),
            (13, "kind: EchoReply"),
        ] {
            let mut ends = got.iter().skip(k).step_by(specs.len());
            assert!(ends.any(|r| r.contains(end)), "{:?} never ended in {end}", specs[k]);
        }
        let slots = |dynamic| compiled.walks.iter().filter(|w| w.key.is_some() && w.dynamic == dynamic).count();
        assert_eq!((slots(false), slots(true)), (12, 1));

        // A forwarding loop on the forward leg, over constant links only.
        let (ring, vp) = ring_topology();
        let spec = ProbeSpec { ttl: 255, ..ProbeSpec::echo(Ipv4::new(8, 8, 8, 8)) };
        let specs = [(vp, spec), (vp, ttl_limited(Ipv4::new(8, 8, 8, 8), 5))];
        let mut stepped = ring.probe_ctx(5);
        stepped.stepped_only = true;
        let got = probe_rounds(&ring, &mut ring.probe_ctx(5), &specs, 5, SimTime::ZERO);
        assert_eq!(got, probe_rounds(&ring, &mut stepped, &specs, 5, SimTime::ZERO));
        assert!(got[0].contains("Err(Loop)"), "{}", got[0]);
    }

    #[test]
    fn walk_cache_follows_the_network() {
        let specs = |vp| [2, 3].map(|ttl| (vp, ProbeSpec::ttl_limited(Ipv4::new(10, 0, 2, 2), ttl)));
        let later = SimTime(crate::time::MICROS_PER_HOUR);
        type Edit = fn(&mut Network);
        let cases: [(&str, Edit); 3] = [
            ("add_route", |net| {
                let (r1, r2) = (NodeId(1), NodeId(2));
                net.connect_idle(r1, Ipv4::new(10, 0, 4, 1), r2, Ipv4::new(10, 0, 4, 2), LinkConfig::default());
                let alt = net.node(r1).iface_by_addr(Ipv4::new(10, 0, 4, 1)).unwrap();
                net.add_route(r1, "10.0.2.0/24".parse().unwrap(), alt);
            }),
            ("outage", |net| {
                net.link_mut(LinkId(2)).up_mut().set_between(SimTime::ZERO, SimTime(u64::MAX), false);
            }),
            ("overload", |net| {
                net.link_mut(LinkId(1)).set_load(Dir::AtoB, Arc::new(crate::link::ConstantLoad(1.3e9)));
            }),
        ];
        for (what, mutate) in cases {
            let (before, vp, ..) = line_topology();
            let (mut net, ..) = line_topology();
            let mut ctx = net.probe_ctx(3);
            probe_rounds(&net, &mut ctx, &specs(vp), 5, SimTime::ZERO);
            assert!(ctx.walks.iter().any(|s| s.key.is_some()), "{what}: nothing cached");
            let mut stale = ctx.clone();
            mutate(&mut net);
            let mut fresh = ctx.clone();
            fresh.walks.clear();
            let got = probe_rounds(&net, &mut ctx, &specs(vp), 20, later);
            assert_eq!(got, probe_rounds(&net, &mut fresh, &specs(vp), 20, later), "{what}");
            assert_ne!(got, probe_rounds(&before, &mut stale, &specs(vp), 20, later), "{what}: no effect");
        }

        // Rebasing keeps the compiled walks and probes like a new context.
        let (net, vp, ..) = line_topology();
        let mut ctx = net.probe_ctx(3);
        probe_rounds(&net, &mut ctx, &specs(vp), 5, SimTime::ZERO);
        ctx.rebase(&net, 9);
        assert_eq!(ctx.walks.iter().filter(|s| s.key.is_some()).count(), 2);
        assert_eq!(
            probe_rounds(&net, &mut ctx, &specs(vp), 20, later),
            probe_rounds(&net, &mut net.probe_ctx(9), &specs(vp), 20, later)
        );
    }

    #[test]
    fn context_holds_only_what_its_walks_touch() {
        use std::collections::BTreeSet;
        fn ids<T>(table: &IdTable<T>, shift: u32) -> BTreeSet<u64> {
            table.0.keys().map(|k| k >> shift).collect()
        }
        // `loaded_line()` (its r1→r2 link queues) with 300 members behind r2
        // over idle links, member i at 10.1.0.2 + (i << 8).
        let (mut net, vp, _) = loaded_line();
        let r2 = NodeId(2);
        let members: Vec<Ipv4> = (0..300u32)
            .map(|i| {
                let m = net.add_node(NodeKind::Router, Asn(300 + i), format!("m{i}"));
                let near = Ipv4(0x0a01_0001 + (i << 8));
                net.connect_idle(r2, near, m, Ipv4(near.0 + 1), LinkConfig::default());
                net.add_route(r2, Prefix::new(near, 24), net.node(r2).iface_by_addr(near).unwrap());
                net.add_route(m, Prefix::DEFAULT, IfaceId(0));
                Ipv4(near.0 + 1)
            })
            .collect();
        // A bdrmap-style sweep on the same context touches every member.
        let mut ctx = net.probe_ctx(1);
        for (i, &dst) in members.iter().enumerate() {
            for ttl in 1..=4 {
                let _ = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(dst, ttl), SimTime(i as u64 * 1_000_000));
            }
        }
        let swept = ctx.routes.0.len();
        assert!(swept > 2 * members.len(), "{swept}");

        for (k, &dst) in members.iter().step_by(37).enumerate() {
            let stream = 100 + k as u64;
            ctx.rebase(&net, stream);
            assert!(ctx.queues.0.is_empty() && ctx.scratch.0.is_empty() && ctx.routes.0.is_empty(), "target {k}");
            let specs = [2, 3].map(|ttl| (vp, ProbeSpec::ttl_limited(dst, ttl)));
            let got = probe_rounds(&net, &mut ctx, &specs, 24, SimTime::ZERO);
            assert_eq!(got, probe_rounds(&net, &mut net.probe_ctx(stream), &specs, 24, SimTime::ZERO), "target {k}");

            // What this target's compiled walks step, resolve and hear from.
            let (mut stepped, mut resolved, mut answered) = (BTreeSet::new(), BTreeSet::from([vp.0.into()]), BTreeSet::new());
            for w in ctx.walks.iter().filter(|w| w.key.is_some_and(|key| key.dst == dst)) {
                for hop in &w.hops {
                    if hop.delay.is_none() {
                        stepped.insert(u64::from(hop.link.0) << 1 | hop.dir.index() as u64);
                    }
                    resolved.insert(net.link(hop.link).arrival_end(hop.dir).0 .0.into());
                }
                answered.extend(w.fwd_end.responder().ok().map(|r| u64::from(r.0 .0)));
            }
            assert!(!stepped.is_empty(), "target {k} crosses the queueing link");
            assert!(ids(&ctx.queues, 0).is_subset(&stepped), "target {k}: {stepped:?}");
            assert!(ids(&ctx.routes, 32).is_subset(&resolved), "target {k}: {resolved:?}");
            assert!(ids(&ctx.scratch, 0).is_subset(&answered), "target {k}: {answered:?}");
        }
        // The sweep's memo was given back once per-target use settled.
        assert!(ctx.routes.0.capacity() < swept, "{} >= {swept}", ctx.routes.0.capacity());
    }

    #[test]
    fn asymmetric_return_path_shows_in_truth_and_rr() {
        // vp -- r1 -- r2 -- tgt plus a direct r2 -> r1b "shortcut" used only
        // for return traffic to vp's prefix, making the path asymmetric.
        let (mut net, vp, _, _, tgt_addr) = line_topology();
        let mut ctx = net.probe_ctx(0);
        let r1 = NodeId(1);
        let r2 = NodeId(2);
        net.connect_idle(r2, Ipv4::new(10, 0, 3, 1), r1, Ipv4::new(10, 0, 3, 2), LinkConfig::default());
        // r2 returns traffic for vp's /24 via the new link (iface index 2 on r2).
        let back_iface = net.node(r2).iface_by_addr(Ipv4::new(10, 0, 3, 1)).unwrap();
        net.add_route(r2, "10.0.0.0/24".parse().unwrap(), back_iface);
        let r = net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt_addr).with_record_route(), SimTime::ZERO).unwrap();
        // Reverse leg now crosses 10.0.3.x, not 10.0.1.2.
        assert!(r.truth_return_path.contains(&Ipv4::new(10, 0, 3, 1)), "{:?}", r.truth_return_path);
        let rr = r.record_route.unwrap();
        assert!(rr.contains(&Ipv4::new(10, 0, 3, 1)), "{rr:?}");
        assert!(!rr.contains(&Ipv4::new(10, 0, 1, 2)), "{rr:?}");
    }
}
