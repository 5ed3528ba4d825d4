//! # ixp-simnet — the network substrate under the African IXP study
//!
//! A deterministic IPv4 network simulator purpose-built to host the
//! measurement techniques of *"Investigating the Causes of Congestion on the
//! African IXP substrate"* (IMC 2017): TTL-limited probing (TSLP),
//! record-route symmetry checks, traceroute-driven border mapping, and
//! loss-rate probing.
//!
//! ## Model
//!
//! - [`net::Network`]: an arena of [`node::Node`]s (routers/hosts with
//!   longest-prefix-match forwarding and an ICMP behaviour model) joined by
//!   [`link::Link`]s.
//! - Links carry a **fluid background-traffic queue**: offered load is a pure
//!   function of time (supplied by the `ixp-traffic` crate), queue occupancy
//!   integrates `offered − capacity` lazily, and probes crossing the link pay
//!   propagation + serialization + queueing delay and face tail-drop when the
//!   buffer saturates. Congestion thus *manifests to probes* exactly the way
//!   TSLP assumes (§3 of the paper).
//! - Routers can also be slow to *generate* ICMP under diurnal control-plane
//!   load ([`node::SlowPath`]) — the competing explanation the paper could
//!   not rule out for the GIXA–KNET case.
//! - Everything is deterministic: randomness derives from
//!   [`rng::HashNoise`], a pure function of `(seed, stream, key)`.
//!
//! ## The probe walk
//!
//! [`net::Network::send_probe`] walks a probe's full round trip — forward
//! leg, ICMP generation, return leg — in O(path length);
//! [`net::Network::send_probe_lite`] is the same walk without ground-truth
//! path vectors. It is the only probing engine: every prober and the live
//! monitor call it. Routing decisions do not depend on time, so each probe
//! key's round trip is compiled once and replayed by later probes, which
//! only charge the link crossings (see the [`net`] module).
//!
//! ## Concurrency
//!
//! The substrate is immutable during probing and `Sync`; all mutable walk
//! state (queue anchors, IP-ID counters, token buckets, a route memo,
//! compiled walks) lives in a [`net::ProbeCtx`] from
//! [`net::Network::probe_ctx`]. Threads each own a ctx and probe the same
//! `&Network` via [`net::Network::send_probe`] without aliasing; two epoch
//! counters (topology, scenario) tell a ctx when to invalidate its caches.
//!
//! ```
//! use ixp_simnet::prelude::*;
//!
//! let mut net = Network::new(7);
//! let vp = net.add_node(NodeKind::Host, Asn(65001), "vp");
//! let r = net.add_node(NodeKind::Router, Asn(65001), "gw");
//! net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), r, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
//! net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
//! net.add_route(r, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
//! let mut ctx = net.probe_ctx(0);
//! let reply = net.send_probe(&mut ctx, vp, ProbeSpec::echo(Ipv4::new(10, 0, 0, 1)), SimTime::ZERO).unwrap();
//! assert!(reply.rtt > SimDuration::ZERO);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod fault;
pub mod fwd;
pub mod ip;
pub mod link;
pub mod net;
pub mod node;
pub mod packet;
pub mod rng;
pub mod time;

/// The names most users want in scope.
pub mod prelude {
    pub use crate::arena::{AddrIndex, NameId, NameTable};
    pub use crate::fault::{Fault, FaultPlan};
    pub use crate::fwd::FwdTable;
    pub use crate::ip::{Ipv4, Prefix, PrefixTable};
    pub use crate::link::{
        ConstantLoad, Dir, DropReason, Link, LinkConfig, LinkId, LinkQueueState, NoLoad,
        OfferedLoad, Schedule,
    };
    pub use crate::net::{
        Network, ProbeCtx, ProbeError, ProbeReply, ProbeReplyLite, ProbeResult, ProbeResultLite,
        ProbeSpec,
    };
    pub use crate::node::{
        Asn, FwdState, IcmpConfig, IfaceId, Node, NodeId, NodeKind, NodeScratch, RespondFrom,
        SlowPath,
    };
    pub use crate::packet::{Packet, PacketKind, ProbeId};
    pub use crate::rng::HashNoise;
    pub use crate::time::{Date, SimDuration, SimTime, Weekday};
}
