//! Links with a fluid background-traffic queue model.
//!
//! TSLP infers congestion from *queueing delay*: "if the interdomain link is
//! congested, then the buffer occupancy at the link increases and RTTs
//! measured across the link also increase" (§3). The simulator therefore
//! models, per link direction:
//!
//! - a **capacity schedule** (piecewise-constant bits/s — scenario events
//!   like the SIXP 10 Mbps → 1 Gbps upgrade of 28/04/2016 are capacity steps),
//! - an **offered background load** `offered(t)` supplied by the traffic
//!   crate as a pure function of time,
//! - a **FIFO tail-drop buffer** whose occupancy integrates
//!   `offered(t) − capacity(t)`, clamped to `[0, buffer]`.
//!
//! A probe crossing the link experiences `propagation + serialization +
//! queue/capacity` of delay and, when the buffer is saturated, is dropped
//! with the overload probability `(offered − capacity)/offered` — the same
//! tail-drop fate the background traffic suffers, which is what the paper's
//! 1 pps loss-rate probes measure (§4).
//!
//! Integration is lazy and monotone: the queue carries `(anchor time,
//! occupancy)` and advances in fixed steps (default 60 s) only when queried,
//! so a year-long campaign only pays for the instants probes actually look.
//! Links whose offered load can never reach the congestion region
//! short-circuit to the closed-form "empty queue" answer.

use crate::ip::Ipv4;
use crate::node::{IfaceId, NodeId};
use crate::rng::{streams, HashNoise};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of a link in the network arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Direction of travel across a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// From endpoint A to endpoint B.
    AtoB,
    /// From endpoint B to endpoint A.
    BtoA,
}

impl Dir {
    /// The opposite direction.
    pub fn reverse(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }
    pub(crate) fn index(self) -> usize {
        match self {
            Dir::AtoB => 0,
            Dir::BtoA => 1,
        }
    }
}

/// Why a packet failed to cross a link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The link is administratively/physically down at this time.
    LinkDown,
    /// Tail drop at a saturated buffer.
    QueueFull,
    /// Random loss injected by the fault model.
    RandomLoss,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::LinkDown => write!(f, "link down"),
            DropReason::QueueFull => write!(f, "queue full"),
            DropReason::RandomLoss => write!(f, "random loss"),
        }
    }
}

/// Offered background load on one link direction, as a pure function of time.
///
/// Implementations must be deterministic: the queue model queries them at
/// integration-step boundaries and reproducibility depends on it.
pub trait OfferedLoad: Send + Sync {
    /// Offered load in bits/s at instant `t`.
    fn bps(&self, t: SimTime) -> f64;

    /// An upper bound on [`OfferedLoad::bps`] over all time. Used to skip
    /// queue integration entirely for links that can never congest.
    fn peak_bps(&self) -> f64;
}

/// The always-zero load (management links, unused directions).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoLoad;

impl OfferedLoad for NoLoad {
    fn bps(&self, _t: SimTime) -> f64 {
        0.0
    }
    fn peak_bps(&self) -> f64 {
        0.0
    }
}

/// A constant offered load.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLoad(pub f64);

impl OfferedLoad for ConstantLoad {
    fn bps(&self, _t: SimTime) -> f64 {
        self.0
    }
    fn peak_bps(&self) -> f64 {
        self.0
    }
}

/// A piecewise-constant schedule of values over simulated time.
///
/// Always holds at least one entry at `SimTime::ZERO`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Schedule<T> {
    entries: Vec<(SimTime, T)>,
}

impl<T: Clone> Schedule<T> {
    /// A schedule with a single initial value.
    pub fn constant(value: T) -> Schedule<T> {
        Schedule { entries: vec![(SimTime::ZERO, value)] }
    }

    /// Add a step: from `at` onwards the schedule yields `value`.
    /// Steps may be added in any order; later inserts at the same instant win.
    pub fn step(&mut self, at: SimTime, value: T) -> &mut Self {
        match self.entries.binary_search_by_key(&at, |e| e.0) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (at, value)),
        }
        self
    }

    /// Hold `value` over `[from, until)`: steps inside the interval are
    /// dropped, and the value in effect at `until` before the call resumes
    /// there. Overlapping intervals therefore compose — their union holds
    /// `value` — in whatever order they are set. An empty or inverted
    /// interval (`from >= until`) holds nothing and leaves the schedule as it
    /// was.
    pub fn set_between(&mut self, from: SimTime, until: SimTime, value: T) -> &mut Self {
        if from >= until {
            return self;
        }
        let resume = self.at(until).clone();
        self.entries.retain(|e| e.0 < from || e.0 >= until);
        self.step(from, value).step(until, resume)
    }

    /// Value in effect at `t`.
    pub fn at(&self, t: SimTime) -> &T {
        match self.entries.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => &self.entries[i].1,
            Err(0) => &self.entries[0].1, // before first step: clamp
            Err(i) => &self.entries[i - 1].1,
        }
    }

    /// The schedule's only value, when it never changes.
    pub fn constant_value(&self) -> Option<&T> {
        match self.entries.as_slice() {
            [(_, v)] => Some(v),
            _ => None,
        }
    }

    /// The change instants, in order.
    pub fn change_points(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.entries.iter().map(|e| e.0)
    }
}

/// Per-direction lazy queue-integration state.
///
/// This is the *only* mutable part of the fluid queue model, split out from
/// [`Link`] so concurrent probe walks can each carry their own copy (inside a
/// `ProbeCtx`) while sharing the immutable link — the queue trajectory is a
/// pure function of `(load schedule, capacity schedule, time)`, so
/// independently integrated copies agree wherever they overlap.
#[derive(Clone, Copy, Debug)]
pub struct LinkQueueState {
    anchor: SimTime,
    queue_bytes: f64,
    /// Offered load at the last integration step (reused for drop decisions).
    last_offered_bps: f64,
}

/// Static configuration for building a [`Link`].
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Buffer size per direction, bytes, as a schedule: router reconfigs can
    /// change queue limits mid-campaign (the GIXA–GHANATEL link is repurposed
    /// from transit to peering on 15/06/2016 with a visibly different shift
    /// amplitude). The level-shift magnitude a probe sees at saturation is
    /// `buffer * 8 / capacity` — the paper reads the router buffer size off
    /// the shift magnitude (§5.2).
    pub buffer_bytes: Schedule<f64>,
    /// Capacity schedule (bits/s), shared by both directions.
    pub capacity_bps: Schedule<f64>,
    /// Up/down schedule (the GIXA–GHANATEL link "disappears" 06/08/2016).
    pub up: Schedule<bool>,
    /// Queue integration step.
    pub step: SimDuration,
    /// Baseline random loss applied to every crossing, for fault injection.
    pub base_loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            prop_delay: SimDuration::from_micros(200),
            buffer_bytes: Schedule::constant(512.0 * 1024.0),
            capacity_bps: Schedule::constant(1e9),
            up: Schedule::constant(true),
            step: SimDuration::from_secs(60),
            base_loss: 0.0,
        }
    }
}

/// A point-to-point link between two interfaces with per-direction queues.
///
/// The link itself is immutable during probing: configuration and offered
/// loads are shared, and every query takes the caller's [`LinkQueueState`]
/// for the direction it crosses (a `ProbeCtx` holds one per link direction).
pub struct Link {
    /// Arena id.
    pub id: LinkId,
    /// Interface addresses at the two endpoints (A side, B side); kept here
    /// for trace output convenience.
    pub addr_a: Ipv4,
    /// B-side interface address.
    pub addr_b: Ipv4,
    /// `(node, iface)` at the A and B endpoints, set by `Network::connect`.
    /// Lets the hot forwarding path resolve "who is across this link" as an
    /// array read instead of an address-index lookup. Sentinel
    /// (`u32::MAX`/`u16::MAX`) until the link is wired into a network.
    ends: [(NodeId, IfaceId); 2],
    cfg: LinkConfig,
    loads: [Arc<dyn OfferedLoad>; 2],
    noise: HashNoise,
}

/// Outcome of asking a link to carry one packet.
pub type TransitResult = Result<SimDuration, DropReason>;

impl Link {
    /// Build a link. `load_ab`/`load_ba` drive the two directions.
    pub fn new(
        id: LinkId,
        addr_a: Ipv4,
        addr_b: Ipv4,
        cfg: LinkConfig,
        load_ab: Arc<dyn OfferedLoad>,
        load_ba: Arc<dyn OfferedLoad>,
        noise: HashNoise,
    ) -> Link {
        Link {
            id,
            addr_a,
            addr_b,
            ends: [(NodeId(u32::MAX), IfaceId(u16::MAX)); 2],
            cfg,
            loads: [load_ab, load_ba],
            noise,
        }
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Record the endpoint `(node, iface)` pairs (called once by
    /// `Network::connect` after creating the interfaces).
    pub(crate) fn set_ends(&mut self, a: (NodeId, IfaceId), b: (NodeId, IfaceId)) {
        self.ends = [a, b];
    }

    /// The `(node, iface)` a packet travelling in `dir` arrives at.
    pub fn arrival_end(&self, dir: Dir) -> (NodeId, IfaceId) {
        match dir {
            Dir::AtoB => self.ends[1],
            Dir::BtoA => self.ends[0],
        }
    }

    /// Replace the offered load of one direction (scenario phase changes).
    pub fn set_load(&mut self, dir: Dir, load: Arc<dyn OfferedLoad>) {
        self.loads[dir.index()] = load;
    }

    /// Mutable access to the capacity schedule (for upgrades).
    pub fn capacity_mut(&mut self) -> &mut Schedule<f64> {
        &mut self.cfg.capacity_bps
    }

    /// Mutable access to the up/down schedule.
    pub fn up_mut(&mut self) -> &mut Schedule<bool> {
        &mut self.cfg.up
    }

    /// Mutable access to the buffer-size schedule.
    pub fn buffer_mut(&mut self) -> &mut Schedule<f64> {
        &mut self.cfg.buffer_bytes
    }

    /// A queue state anchored at the epoch for `dir` — the starting point of
    /// any independent integration of this link's queue trajectory.
    ///
    /// The queue model only integrates forward: a pass that re-reads an
    /// earlier time range must start from a fresh state (or rewind its
    /// context with `ProbeCtx::reset_queue_state`) or it reads stale state.
    pub fn fresh_queue_state(&self, dir: Dir) -> LinkQueueState {
        LinkQueueState {
            anchor: SimTime::ZERO,
            queue_bytes: 0.0,
            last_offered_bps: self.loads[dir.index()].bps(SimTime::ZERO),
        }
    }

    /// Is the link up at `t`?
    pub fn is_up(&self, t: SimTime) -> bool {
        *self.cfg.up.at(t)
    }

    /// Capacity in effect at `t`.
    pub fn capacity_at(&self, t: SimTime) -> f64 {
        *self.cfg.capacity_bps.at(t)
    }

    /// Advance a lazy queue integration of `dir` up to `t`.
    ///
    /// Queries at `t` earlier than the state's anchor (a fast-path walk's
    /// forward leg after an earlier probe's return leg crossed the same
    /// direction later in time) return the anchored state; the
    /// approximation error is bounded by one integration step.
    fn advance(&self, dir: Dir, st: &mut LinkQueueState, t: SimTime) {
        let cap_sched = &self.cfg.capacity_bps;
        let buf_sched = &self.cfg.buffer_bytes;
        let step = self.cfg.step;
        let load = &self.loads[dir.index()];
        if t <= st.anchor {
            return;
        }
        // Fast path: a link whose peak load stays well under capacity can
        // never build a queue; jump the anchor forward for free.
        let cap_now = *cap_sched.at(t);
        if st.queue_bytes == 0.0 && load.peak_bps() < 0.8 * cap_now && *cap_sched.at(st.anchor) == cap_now {
            st.anchor = t;
            st.last_offered_bps = load.bps(t);
            return;
        }
        // Cap the amount of history we integrate: after `buffer/cap` plus a
        // generous margin, the queue state is fully determined by recent
        // load, so skip ahead for long-idle links.
        let max_span = SimDuration::from_secs(6 * 3600);
        if t.since(st.anchor) > max_span {
            st.anchor = t - max_span;
        }
        while st.anchor < t {
            let dt_us = step.as_micros().min(t.since(st.anchor).as_micros());
            let dt = dt_us as f64 / 1e6;
            let offered = load.bps(st.anchor);
            let cap = *cap_sched.at(st.anchor);
            let delta_bytes = (offered - cap) * dt / 8.0;
            st.queue_bytes = (st.queue_bytes + delta_bytes).clamp(0.0, *buf_sched.at(st.anchor));
            st.last_offered_bps = offered;
            st.anchor += SimDuration::from_micros(dt_us);
        }
    }

    /// Current queueing delay for `dir` at `t`, advancing `st`.
    pub fn queue_delay(&self, dir: Dir, st: &mut LinkQueueState, t: SimTime) -> SimDuration {
        self.advance(dir, st, t);
        let cap = self.capacity_at(t).max(1.0);
        SimDuration::from_secs_f64(st.queue_bytes * 8.0 / cap)
    }

    /// Loss probability a packet faces crossing `dir` at `t`.
    pub fn loss_probability(&self, dir: Dir, st: &mut LinkQueueState, t: SimTime) -> f64 {
        self.advance(dir, st, t);
        let cap = self.capacity_at(t).max(1.0);
        let overload = if st.queue_bytes >= *self.cfg.buffer_bytes.at(t) * 0.999 && st.last_offered_bps > cap {
            (st.last_offered_bps - cap) / st.last_offered_bps
        } else {
            0.0
        };
        // Combined with the independent base-loss floor.
        1.0 - (1.0 - overload) * (1.0 - self.cfg.base_loss)
    }

    /// Carry one packet of `size` bytes across `dir` at `t`, advancing `st`.
    ///
    /// `pkt_key` yields a key unique per crossing attempt (probe id mixed
    /// with a hop counter); it seeds the deterministic drop decision and is
    /// only called when a drop draw needs it. Takes `&self` and writes
    /// nothing but `st`: the packet's fate depends only on the shared
    /// substrate, the explicit queue state, and the key, so concurrent walks
    /// crossing the same link never share a written cache line.
    pub fn transit(
        &self,
        dir: Dir,
        st: &mut LinkQueueState,
        t: SimTime,
        size: u32,
        pkt_key: impl Fn() -> u64,
    ) -> TransitResult {
        let d_idx = dir.index();
        if !self.is_up(t) {
            return Err(DropReason::LinkDown);
        }
        let p_loss = self.loss_probability(dir, st, t);
        let key = || pkt_key() ^ ((self.id.0 as u64) << 32) ^ ((d_idx as u64) << 63);
        if self.cfg.base_loss > 0.0 && self.noise.chance(streams::FAULT_LOSS, key(), self.cfg.base_loss) {
            return Err(DropReason::RandomLoss);
        }
        let overload = if self.cfg.base_loss > 0.0 {
            (p_loss - self.cfg.base_loss) / (1.0 - self.cfg.base_loss)
        } else {
            p_loss
        };
        if overload > 0.0 && self.noise.chance(streams::QUEUE_DROP, key(), overload) {
            return Err(DropReason::QueueFull);
        }
        let cap = self.capacity_at(t).max(1.0);
        let queue = self.queue_delay(dir, st, t);
        let serialization = SimDuration::from_secs_f64(size as f64 * 8.0 / cap);
        Ok(self.cfg.prop_delay + serialization + queue)
    }

    /// The delay of every crossing of `dir` by a `size`-byte packet, when
    /// the link's configuration makes [`Link::transit`] a constant: `up`,
    /// capacity and buffer schedules that never change, the link up and its
    /// buffer non-empty, no base loss, and a peak offered load under 80% of
    /// capacity. Such a queue never leaves the empty fast path of the
    /// integration, so it adds no delay and its loss probability is 0: every
    /// crossing costs propagation plus serialization, at any time, whatever
    /// its key and whatever queue state it would carry. `None` otherwise.
    pub fn constant_transit(&self, dir: Dir, size: u32) -> Option<SimDuration> {
        let cfg = &self.cfg;
        let up = *cfg.up.constant_value()?;
        let cap = *cfg.capacity_bps.constant_value()?;
        let buffer = *cfg.buffer_bytes.constant_value()?;
        let quiet = up && buffer > 0.0 && cfg.base_loss == 0.0 && self.loads[dir.index()].peak_bps() < 0.8 * cap;
        quiet.then(|| cfg.prop_delay + SimDuration::from_secs_f64(size as f64 * 8.0 / cap.max(1.0)))
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("addr_a", &self.addr_a)
            .field("addr_b", &self.addr_b)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_link(cap_bps: f64, load: Arc<dyn OfferedLoad>) -> Link {
        let cfg = LinkConfig {
            capacity_bps: Schedule::constant(cap_bps),
            buffer_bytes: Schedule::constant(125_000.0), // 1 ms at 1 Gbps, 10 ms at 100 Mbps
            prop_delay: SimDuration::from_micros(500),
            ..LinkConfig::default()
        };
        Link::new(
            LinkId(0),
            Ipv4::new(10, 0, 0, 1),
            Ipv4::new(10, 0, 0, 2),
            cfg,
            load,
            Arc::new(NoLoad),
            HashNoise::new(1),
        )
    }

    #[test]
    fn schedule_steps_and_clamps() {
        let mut s = Schedule::constant(10.0);
        s.step(SimTime(100), 20.0).step(SimTime(50), 15.0);
        assert_eq!(*s.at(SimTime(0)), 10.0);
        assert_eq!(*s.at(SimTime(49)), 10.0);
        assert_eq!(*s.at(SimTime(50)), 15.0);
        assert_eq!(*s.at(SimTime(99)), 15.0);
        assert_eq!(*s.at(SimTime(100)), 20.0);
        assert_eq!(*s.at(SimTime(u64::MAX)), 20.0);
        // Same-instant overwrite.
        s.step(SimTime(100), 30.0);
        assert_eq!(*s.at(SimTime(100)), 30.0);
    }

    #[test]
    fn set_between_composes_overlapping_intervals() {
        let mut s = Schedule::constant(true);
        s.step(SimTime(100), false);
        s.set_between(SimTime(10), SimTime(30), false).set_between(SimTime(20), SimTime(40), false);
        let at = |t| *s.at(SimTime(t));
        assert_eq!([at(9), at(10), at(29), at(35), at(39), at(40), at(99), at(100)], [
            true, false, false, false, false, true, true, false
        ]);
        // Later-starting interval set first: same union.
        let mut r = Schedule::constant(true);
        r.set_between(SimTime(20), SimTime(40), false).set_between(SimTime(10), SimTime(30), false);
        assert_eq!([9, 10, 35, 40].map(|t| *r.at(SimTime(t))), [true, false, false, true]);
    }

    #[test]
    fn set_between_ignores_empty_and_inverted_intervals() {
        let mut s = Schedule::constant(true);
        s.set_between(SimTime(10), SimTime(5), false).set_between(SimTime(7), SimTime(7), false);
        assert_eq!([0, 5, 7, 10, 20].map(|t| *s.at(SimTime(t))), [true; 5]);
        assert_eq!(s.constant_value(), Some(&true));
    }

    #[test]
    fn constant_value_needs_a_single_entry() {
        let mut s = Schedule::constant(3.0);
        assert_eq!(s.constant_value(), Some(&3.0));
        s.step(SimTime::ZERO, 4.0);
        assert_eq!(s.constant_value(), Some(&4.0));
        s.step(SimTime(9), 4.0);
        assert_eq!(s.constant_value(), None);
    }

    #[test]
    fn constant_transit_refuses_links_whose_delay_can_vary() {
        let quiet = || mk_link(1e9, Arc::new(ConstantLoad(1e8)));
        assert!(quiet().constant_transit(Dir::AtoB, 64).is_some());
        type Edit = fn(&mut Link);
        let cases: [(&str, Edit); 6] = [
            ("base loss", |l| l.cfg.base_loss = 0.01),
            ("stepped up", |l| {
                l.up_mut().step(SimTime(1000), false);
            }),
            ("stepped capacity", |l| {
                l.capacity_mut().step(SimTime(1000), 1e8);
            }),
            ("stepped buffer", |l| {
                l.buffer_mut().step(SimTime(1000), 1e3);
            }),
            ("peak at 0.8 cap", |l| l.set_load(Dir::AtoB, Arc::new(ConstantLoad(8e8)))),
            ("down for good", |l| *l.up_mut() = Schedule::constant(false)),
        ];
        for (what, edit) in cases {
            let mut l = quiet();
            edit(&mut l);
            assert_eq!(l.constant_transit(Dir::AtoB, 64), None, "{what}");
        }
        // The loaded direction decides: the reverse one stays constant.
        let mut l = quiet();
        l.set_load(Dir::AtoB, Arc::new(ConstantLoad(2e9)));
        assert_eq!(l.constant_transit(Dir::AtoB, 64), None);
        assert!(l.constant_transit(Dir::BtoA, 64).is_some());
    }

    #[test]
    fn uncongested_link_has_no_queue() {
        let l = mk_link(1e9, Arc::new(ConstantLoad(1e8))); // 10% load
        let mut st = l.fresh_queue_state(Dir::AtoB);
        let t = SimTime::from_hours_test(5);
        assert_eq!(l.queue_delay(Dir::AtoB, &mut st, t), SimDuration::ZERO);
        let d = l.transit(Dir::AtoB, &mut st, t, 64, || 1).unwrap();
        // prop 500us + serialization ~0.5us
        assert!(d >= SimDuration::from_micros(500) && d < SimDuration::from_micros(510), "{d}");
    }

    impl SimTime {
        fn from_hours_test(h: u64) -> SimTime {
            SimTime(h * crate::time::MICROS_PER_HOUR)
        }
    }

    #[test]
    fn overload_fills_buffer_and_caps_delay() {
        // 100 Mbps link, 150 Mbps offered: buffer (125 kB) fills in
        // 125k*8/50e6 = 20 ms of sim time; queue delay saturates at
        // 125k*8/100e6 = 10 ms.
        let l = mk_link(1e8, Arc::new(ConstantLoad(1.5e8)));
        let q = l.queue_delay(Dir::AtoB, &mut l.fresh_queue_state(Dir::AtoB), SimTime(crate::time::MICROS_PER_HOUR));
        assert!((q.as_millis_f64() - 10.0).abs() < 0.1, "{q}");
        // Reverse dir has no load.
        let q2 = l.queue_delay(Dir::BtoA, &mut l.fresh_queue_state(Dir::BtoA), SimTime(crate::time::MICROS_PER_HOUR));
        assert_eq!(q2, SimDuration::ZERO);
    }

    #[test]
    fn saturated_link_drops_at_overload_rate() {
        let l = mk_link(1e8, Arc::new(ConstantLoad(2e8))); // 50% overload
        let mut st = l.fresh_queue_state(Dir::AtoB);
        let t0 = SimTime(crate::time::MICROS_PER_HOUR);
        let mut drops = 0;
        let n = 10_000;
        for i in 0..n {
            if l.transit(Dir::AtoB, &mut st, t0 + SimDuration::from_micros(i), 64, || i).is_err() {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn queue_drains_when_load_stops() {
        struct Pulse;
        impl OfferedLoad for Pulse {
            fn bps(&self, t: SimTime) -> f64 {
                if t < SimTime(10 * crate::time::MICROS_PER_MIN) {
                    2e8
                } else {
                    0.0
                }
            }
            fn peak_bps(&self) -> f64 {
                2e8
            }
        }
        let l = mk_link(1e8, Arc::new(Pulse));
        let mut st = l.fresh_queue_state(Dir::AtoB);
        let during = l.queue_delay(Dir::AtoB, &mut st, SimTime(5 * crate::time::MICROS_PER_MIN));
        assert!(during > SimDuration::from_millis(9), "{during}");
        let after = l.queue_delay(Dir::AtoB, &mut st, SimTime(20 * crate::time::MICROS_PER_MIN));
        assert_eq!(after, SimDuration::ZERO);
    }

    #[test]
    fn link_down_drops_everything() {
        let mut l = mk_link(1e9, Arc::new(NoLoad));
        let mut st = l.fresh_queue_state(Dir::AtoB);
        l.up_mut().step(SimTime(1000), false);
        assert!(l.transit(Dir::AtoB, &mut st, SimTime(0), 64, || 1).is_ok());
        assert_eq!(l.transit(Dir::AtoB, &mut st, SimTime(2000), 64, || 2), Err(DropReason::LinkDown));
        // Comes back up.
        l.up_mut().step(SimTime(5000), true);
        assert!(l.transit(Dir::AtoB, &mut st, SimTime(6000), 64, || 3).is_ok());
    }

    #[test]
    fn capacity_upgrade_clears_congestion() {
        // The QCELL–NETPAGE mechanism: overloaded at 10 Mbps, fine at 1 Gbps.
        let mut l = mk_link(1e7, Arc::new(ConstantLoad(1.4e7)));
        let mut st = l.fresh_queue_state(Dir::AtoB);
        let before = l.queue_delay(Dir::AtoB, &mut st, SimTime(30 * crate::time::MICROS_PER_MIN));
        assert!(before > SimDuration::from_millis(50), "{before}");
        let upgrade_at = SimTime(crate::time::MICROS_PER_HOUR);
        l.capacity_mut().step(upgrade_at, 1e9);
        let after = l.queue_delay(Dir::AtoB, &mut st, upgrade_at + SimDuration::from_mins(5));
        assert_eq!(after, SimDuration::ZERO);
    }

    #[test]
    fn base_loss_floor_applies_when_uncongested() {
        let cfg = LinkConfig { base_loss: 0.1, ..LinkConfig::default() };
        let l = Link::new(
            LinkId(3),
            Ipv4::new(1, 1, 1, 1),
            Ipv4::new(1, 1, 1, 2),
            cfg,
            Arc::new(NoLoad),
            Arc::new(NoLoad),
            HashNoise::new(5),
        );
        let n = 20_000u64;
        let mut st = l.fresh_queue_state(Dir::AtoB);
        let drops = (0..n).filter(|&i| l.transit(Dir::AtoB, &mut st, SimTime(i), 64, || i).is_err()).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "{rate}");
    }

    #[test]
    fn transit_is_deterministic() {
        let mk = || mk_link(1e8, Arc::new(ConstantLoad(2e8)));
        let (a, b) = (mk(), mk());
        let (mut sa, mut sb) = (a.fresh_queue_state(Dir::AtoB), b.fresh_queue_state(Dir::AtoB));
        for i in 0..1000u64 {
            let t = SimTime(i * 1000);
            assert_eq!(a.transit(Dir::AtoB, &mut sa, t, 64, || i), b.transit(Dir::AtoB, &mut sb, t, 64, || i));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Queue occupancy-derived delay is always within [0, buffer/cap].
        #[test]
        fn queue_delay_bounded(
            cap_mbps in 1.0f64..1000.0,
            load_mbps in 0.0f64..2000.0,
            query_mins in proptest::collection::vec(0u64..10_000, 1..30),
        ) {
            let cfg = LinkConfig {
                capacity_bps: Schedule::constant(cap_mbps * 1e6),
                buffer_bytes: Schedule::constant(250_000.0),
                ..LinkConfig::default()
            };
            let l = Link::new(
                LinkId(1),
                Ipv4::new(10, 0, 0, 1),
                Ipv4::new(10, 0, 0, 2),
                cfg,
                Arc::new(ConstantLoad(load_mbps * 1e6)),
                Arc::new(NoLoad),
                HashNoise::new(2),
            );
            let mut ts: Vec<u64> = query_mins;
            ts.sort_unstable();
            let max_delay = 250_000.0 * 8.0 / (cap_mbps * 1e6);
            let mut st = l.fresh_queue_state(Dir::AtoB);
            for m in ts {
                let d = l.queue_delay(Dir::AtoB, &mut st, SimTime(m * crate::time::MICROS_PER_MIN));
                prop_assert!(d.as_secs_f64() <= max_delay * 1.001);
            }
        }

        /// On a link whose delay is a constant, every crossing costs exactly
        /// that constant, whatever the time, size, key or queue history.
        #[test]
        fn constant_transit_matches_transit(
            cap_mbps in 1.0f64..10_000.0,
            load_frac in 0.0f64..0.8,
            prop_us in 0u64..50_000,
            buffer in 1.0f64..1e7,
            crossings in proptest::collection::vec((0u64..400 * 86_400_000_000, 0u32..9000, any::<u64>()), 1..40),
        ) {
            let cap = cap_mbps * 1e6;
            let cfg = LinkConfig {
                capacity_bps: Schedule::constant(cap),
                buffer_bytes: Schedule::constant(buffer),
                prop_delay: SimDuration::from_micros(prop_us),
                ..LinkConfig::default()
            };
            let l = Link::new(
                LinkId(4),
                Ipv4::new(10, 0, 0, 1),
                Ipv4::new(10, 0, 0, 2),
                cfg,
                Arc::new(ConstantLoad(load_frac * cap)),
                Arc::new(NoLoad),
                HashNoise::new(4),
            );
            let mut st = l.fresh_queue_state(Dir::AtoB);
            for (t, size, key) in crossings {
                let want = l.constant_transit(Dir::AtoB, size);
                prop_assert!(want.is_some());
                prop_assert_eq!(l.transit(Dir::AtoB, &mut st, SimTime(t), size, || key), Ok(want.unwrap()));
            }
        }

        /// Loss probability is a probability.
        #[test]
        fn loss_probability_in_unit_interval(load_mbps in 0.0f64..5000.0, t_min in 0u64..100_000) {
            let l = Link::new(
                LinkId(2),
                Ipv4::new(10, 0, 0, 1),
                Ipv4::new(10, 0, 0, 2),
                LinkConfig { capacity_bps: Schedule::constant(1e8), ..LinkConfig::default() },
                Arc::new(ConstantLoad(load_mbps * 1e6)),
                Arc::new(NoLoad),
                HashNoise::new(3),
            );
            let p = l.loss_probability(Dir::AtoB, &mut l.fresh_queue_state(Dir::AtoB), SimTime(t_min * crate::time::MICROS_PER_MIN));
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
