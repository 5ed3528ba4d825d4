//! The paper's case studies, calibrated: GIXA–GHANATEL, GIXA–KNET,
//! QCELL–NETPAGE, plus the generator for the healthy links that make up the
//! rest of the substrate (the topology builder installs nuisance shifts on
//! some of their routers).
//!
//! Each [`LinkScenario`] bundles everything a topology builder needs to
//! instantiate one interdomain link — capacity/buffer/up schedules, offered
//! load per direction, optional far-router slow path — together with
//! machine-readable [`GroundTruth`] (the stand-in for the paper's operator
//! interviews) that the study crate validates pipeline inferences against.
//!
//! Calibration notes (how paper numbers map to model parameters):
//!
//! - A saturated fluid queue shows probes a delay of `buffer × 8 / capacity`,
//!   so buffer sizes are chosen to hit the reported shift magnitudes
//!   (GHANATEL phase 1 ≈ 40–50 ms peaks on a 100 Mbps link → 500 kB buffer;
//!   phase 2's 10 ms amplitude → 125 kB after the repurpose; NETPAGE's 35 ms
//!   on 10 Mbps → ~44 kB).
//! - Event *width* (`Δt_UD`) is the overload window: a 06:00→02:00 plateau
//!   for GHANATEL's ≈20 h events, a midday plateau for NETPAGE's ≈6 h.
//! - Weekend amplitudes come from running the weekend load *at* capacity
//!   (wandering, partially-filled queue) instead of above it.
//! - KNET is *not* queueing: a diurnal ICMP slow path on the far router with
//!   a ~0.1 % loss floor, active from 06/08/2016, identical all week.

use crate::phased::PhasedLoad;
use crate::profile::{DiurnalLoad, Shape};
use crate::slowpath::{DiurnalSlowPath, WindowedSlowPath};
use ixp_simnet::fault::Fault;
use ixp_simnet::ip::Prefix;
use ixp_simnet::link::{LinkConfig, OfferedLoad, Schedule};
use ixp_simnet::node::{NodeId, SlowPath};
use ixp_simnet::rng::HashNoise;
use ixp_simnet::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Key campaign dates (§4, §6).
pub mod dates {
    use ixp_simnet::time::SimTime;

    /// Latency campaign end (27/03/2017).
    pub(super) fn campaign_end() -> SimTime {
        SimTime::from_date(2017, 3, 27)
    }
    /// Loss-rate campaign start (19/07/2016).
    pub fn loss_campaign_start() -> SimTime {
        SimTime::from_date(2016, 7, 19)
    }
    /// Loss-rate campaign end (01/04/2017).
    pub fn loss_campaign_end() -> SimTime {
        SimTime::from_date(2017, 4, 1)
    }
    /// GIXA–GHANATEL phase 1 start (03/03/2016).
    pub fn ghanatel_phase1_start() -> SimTime {
        SimTime::from_date(2016, 3, 3)
    }
    /// GHANATEL shuts off transit; phase 2 begins (15/06/2016).
    pub fn ghanatel_phase2_start() -> SimTime {
        SimTime::from_date(2016, 6, 15)
    }
    /// GIXA–GHANATEL link withdrawn; far probes go unanswered (06/08/2016).
    pub fn ghanatel_link_down() -> SimTime {
        SimTime::from_date(2016, 8, 6)
    }
    /// bdrmap first sees the GIXA–KNET link (29/06/2016).
    pub(super) fn knet_link_up() -> SimTime {
        SimTime::from_date(2016, 6, 29)
    }
    /// GIXA–KNET far-side elevation begins (06/08/2016).
    pub fn knet_congestion_start() -> SimTime {
        SimTime::from_date(2016, 8, 6)
    }
    /// QCELL–NETPAGE phase 1 start (29/02/2016).
    pub fn netpage_phase1_start() -> SimTime {
        SimTime::from_date(2016, 2, 29)
    }
    /// NETPAGE's 10 Mbps → 1 Gbps upgrade (28/04/2016).
    pub fn netpage_upgrade() -> SimTime {
        SimTime::from_date(2016, 4, 28)
    }
    /// A far-future instant (open-ended windows).
    pub(super) fn far_future() -> SimTime {
        SimTime::from_date(2030, 1, 1)
    }
}

/// Why a link's far-side RTT is (or is not) elevated — the scenario's
/// ground truth, standing in for the paper's operator interviews.
#[derive(Clone, Debug, PartialEq)]
pub enum Cause {
    /// Genuine queueing on the interdomain link.
    LinkQueueing,
    /// Far router generates ICMP slowly under diurnal control-plane load
    /// (the KNET ambiguity).
    SlowIcmpGeneration,
    /// Nothing: a healthy link.
    None,
}

/// One ground-truth phase of a case study.
#[derive(Clone, Debug)]
pub struct PhaseTruth {
    /// Human label ("phase 1").
    pub label: &'static str,
    /// Phase start.
    pub start: SimTime,
    /// Phase end (exclusive).
    pub end: SimTime,
    /// Should the detector flag a recurring diurnal pattern here?
    pub expect_diurnal: bool,
    /// Approximate expected shift magnitude the paper reports (ms); 0 when
    /// no congestion is expected.
    pub expected_magnitude_ms: f64,
    /// Approximate expected up→down width.
    pub expected_width: SimDuration,
}

/// Ground truth for a scenario link.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    /// The real cause.
    pub cause: Cause,
    /// Paper's verdict: congestion observed until the end of measurements
    /// (sustained) or mitigated mid-campaign (transient).
    pub sustained: bool,
    /// Phases.
    pub phases: Vec<PhaseTruth>,
}

impl GroundTruth {
    /// A never-congested link.
    pub fn healthy() -> GroundTruth {
        GroundTruth { cause: Cause::None, sustained: false, phases: Vec::new() }
    }
}

/// What a documented routing event does to a scenario link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RoutingEventKind {
    /// The link is provisioned and first announced: forwarding over it
    /// begins (bdrmap's first sighting of the interconnect).
    LinkProvisioned,
    /// A reconfiguration: the link stays up, but the BGP session bounces
    /// and the far prefix rides a blackhole until it re-converges.
    Reconfiguration {
        /// Time until the session re-establishes.
        downtime: SimDuration,
    },
    /// The prefix over this link is withdrawn for good; the link goes down
    /// and far probes go dark.
    LinkWithdrawn,
}

/// A documented routing event on a scenario link — a §6 case-study
/// timeline entry, named so topology builders and gauntlets can script it
/// instead of hand-rolling `Schedule::step` calls at magic dates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutingEvent {
    /// Human-readable name ("GHANATEL transit shutdown").
    pub name: &'static str,
    /// When the event takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: RoutingEventKind,
}

impl RoutingEvent {
    /// Fold this event into the link's up/down schedule: provisioning
    /// raises the link, withdrawal lowers it. Reconfigurations leave the
    /// data plane up — their effect is control-plane only, expressed by
    /// [`RoutingEvent::compile`].
    fn apply_to_up(&self, up: &mut Schedule<bool>) {
        match self.kind {
            RoutingEventKind::LinkProvisioned => {
                up.step(self.at, true);
            }
            RoutingEventKind::LinkWithdrawn => {
                up.step(self.at, false);
            }
            RoutingEventKind::Reconfiguration { .. } => {}
        }
    }

    /// Compile to a control-plane fault against a concrete route binding
    /// (`node` carries `prefix` over this link). Provisioning compiles to
    /// nothing — the up-schedule step already models it.
    pub fn compile(&self, node: NodeId, prefix: Prefix) -> Option<Fault> {
        match self.kind {
            RoutingEventKind::LinkProvisioned => None,
            RoutingEventKind::Reconfiguration { downtime } => {
                Some(Fault::SessionReset { node, prefix, at: self.at, downtime })
            }
            RoutingEventKind::LinkWithdrawn => {
                Some(Fault::PrefixWithdraw { node, prefix, from: self.at, until: None })
            }
        }
    }
}

/// Build a link's up/down schedule from its routing events.
fn up_schedule(initially_up: bool, events: &[RoutingEvent]) -> Schedule<bool> {
    let mut up = Schedule::constant(initially_up);
    for e in events {
        e.apply_to_up(&mut up);
    }
    up
}

/// GHANATEL shuts off transit and repurposes the link for peering
/// (15/06/2016, §6.2.1). The session bounce briefly blackholes the far
/// prefix — the "latency probes to the far end were unsuccessful" blip at
/// the phase boundary.
fn ghanatel_transit_shutdown() -> RoutingEvent {
    RoutingEvent {
        name: "GHANATEL transit shutdown",
        at: dates::ghanatel_phase2_start(),
        kind: RoutingEventKind::Reconfiguration { downtime: SimDuration::from_mins(10) },
    }
}

/// The GIXA–GHANATEL link is removed (06/08/2016, §6.2.1): the prefix is
/// withdrawn for good and far probes go unanswered for the rest of the
/// campaign.
fn ghanatel_link_removal() -> RoutingEvent {
    RoutingEvent {
        name: "GIXA-GHANATEL link removal",
        at: dates::ghanatel_link_down(),
        kind: RoutingEventKind::LinkWithdrawn,
    }
}

/// The GIXA–KNET link is provisioned (29/06/2016): bdrmap first sees the
/// interconnect and probing begins.
fn knet_link_provisioned() -> RoutingEvent {
    RoutingEvent {
        name: "GIXA-KNET link provisioned",
        at: dates::knet_link_up(),
        kind: RoutingEventKind::LinkProvisioned,
    }
}

/// Everything needed to instantiate one scenario link in the simulator.
pub struct LinkScenario {
    /// Scenario name ("GIXA-GHANATEL", …).
    pub name: &'static str,
    /// Link configuration (capacity / buffer / up schedules, loss floor).
    pub cfg: LinkConfig,
    /// Offered load in the VP-side → far-side direction.
    pub load_forward: Arc<dyn OfferedLoad>,
    /// Offered load in the far-side → VP-side direction.
    pub load_reverse: Arc<dyn OfferedLoad>,
    /// Optional ICMP slow-path model to install on the far router.
    pub far_slow_path: Option<Arc<dyn SlowPath>>,
    /// Documented routing events on this link, in time order. They drive
    /// the `cfg.up` schedule and compile into control-plane faults (via
    /// [`RoutingEvent::compile`]).
    pub routing_events: Vec<RoutingEvent>,
    /// Ground truth for validation.
    pub truth: GroundTruth,
}

impl LinkScenario {
    /// Instant the link is provisioned mid-campaign, if a
    /// [`RoutingEventKind::LinkProvisioned`] event is scripted.
    pub fn provisioned_at(&self) -> Option<SimTime> {
        self.routing_events
            .iter()
            .find(|e| e.kind == RoutingEventKind::LinkProvisioned)
            .map(|e| e.at)
    }

    /// Instant the link is withdrawn for good, if a
    /// [`RoutingEventKind::LinkWithdrawn`] event is scripted.
    pub fn withdrawn_at(&self) -> Option<SimTime> {
        self.routing_events
            .iter()
            .find(|e| e.kind == RoutingEventKind::LinkWithdrawn)
            .map(|e| e.at)
    }
}

const MBPS: f64 = 1e6;

fn plateau_load(
    base_frac: f64,
    weekday_frac: f64,
    weekend_frac: f64,
    capacity: f64,
    shape: Shape,
    noise: HashNoise,
) -> DiurnalLoad {
    DiurnalLoad {
        base_bps: base_frac * capacity,
        weekday_peak_bps: weekday_frac * capacity,
        weekend_peak_bps: weekend_frac * capacity,
        shape,
        noise_frac: 0.03,
        noise_bin: SimDuration::from_mins(5),
        noise,
    }
}

/// GIXA–GHANATEL (§6.2.1): the 100 Mbps transit link feeding the Google
/// caches in GIXA's content network.
///
/// - *Phase 1* (03/03–14/06/2016): cache-fill traffic toward the IXP
///   saturates the reverse direction ~06:00–02:00 on business days
///   (`A_w ≈ 27.9 ms`, `Δt_UD ≈ 20 h`); weekends run at capacity (≈20 ms
///   wandering peaks vs ≈50 ms weekday saturation). Forward direction
///   carries a shallower peak — the "peak on top of the peak" of Fig. 1.
/// - *Phase 2* (15/06–06/08/2016): transit shut off, link repurposed for
///   peering with a shallower queue (10 ms amplitude) and deep overload
///   (loss 0–85 %).
/// - From 06/08/2016 the link is withdrawn.
pub fn gixa_ghanatel(noise: HashNoise) -> LinkScenario {
    let cap = 100.0 * MBPS;
    let business = Shape::Plateau { start_hour: 6.0, end_hour: 26.0, ramp_hours: 2.0 };

    // Reverse direction (GHANATEL → GIXA): cache fills. Weekdays saturate
    // the buffer (the ~50 ms peaks of Fig. 1 come from reverse saturation
    // plus the forward bump); weekends hover *at* capacity so the queue
    // wanders partially full (~the 20 ms peaks) — averaging toward the
    // paper's A_w = 27.9 ms.
    let p1_rev = plateau_load(0.55, 0.52, 0.45, cap, business, noise.child(1, 1));
    // Phase 2: peering over the shallow-buffer link. Afternoon peaks reach
    // ~1.8× capacity, giving batch loss that sweeps 0–85 % over a day (deep
    // at the peak, zero at night) as Figure 2b reports.
    let p2_rev = plateau_load(
        0.70,
        1.10,
        0.60,
        cap,
        Shape::Bump { peak_hour: 14.0, width_hours: 3.5 },
        noise.child(1, 2),
    );
    let rev = PhasedLoad::starting(dates::ghanatel_phase1_start(), Arc::new(p1_rev))
        .then(dates::ghanatel_phase2_start(), Arc::new(p2_rev));

    // Forward direction (GIXA → GHANATEL): requests + peering chatter; a
    // shallower midday bump that merely grazes capacity on weekdays — the
    // "peak on top of the peak" of Fig. 1.
    let p1_fwd = plateau_load(
        0.50,
        0.50,
        0.20,
        cap,
        Shape::Bump { peak_hour: 14.0, width_hours: 4.0 },
        noise.child(1, 3),
    );
    let p2_fwd = plateau_load(
        0.40,
        0.70,
        0.30,
        cap,
        Shape::Bump { peak_hour: 14.0, width_hours: 3.5 },
        noise.child(1, 4),
    );
    let fwd = PhasedLoad::starting(dates::ghanatel_phase1_start(), Arc::new(p1_fwd))
        .then(dates::ghanatel_phase2_start(), Arc::new(p2_fwd));

    let mut capacity = Schedule::constant(cap);
    // After the withdrawal the schedule value no longer matters, but keep it.
    capacity.step(dates::ghanatel_link_down(), cap);

    let mut buffer = Schedule::constant(350_000.0); // 28 ms at 100 Mbps
    buffer.step(dates::ghanatel_phase2_start(), 125_000.0); // 10 ms amplitude

    // The two documented routing events: the 15/06 transit shutdown (a
    // control-plane bounce; the link itself stays up) and the 06/08 link
    // removal (the link goes down for good).
    let routing_events = vec![ghanatel_transit_shutdown(), ghanatel_link_removal()];
    let up = up_schedule(true, &routing_events);

    LinkScenario {
        name: "GIXA-GHANATEL",
        cfg: LinkConfig {
            prop_delay: SimDuration::from_micros(400),
            buffer_bytes: buffer,
            capacity_bps: capacity,
            up,
            step: SimDuration::from_secs(60),
            base_loss: 0.0005,
        },
        load_forward: Arc::new(fwd),
        load_reverse: Arc::new(rev),
        far_slow_path: None,
        routing_events,
        truth: GroundTruth {
            cause: Cause::LinkQueueing,
            sustained: true,
            phases: vec![
                PhaseTruth {
                    label: "phase 1",
                    start: dates::ghanatel_phase1_start(),
                    end: dates::ghanatel_phase2_start(),
                    expect_diurnal: true,
                    expected_magnitude_ms: 27.9,
                    expected_width: SimDuration::from_hours(20),
                },
                PhaseTruth {
                    label: "phase 2",
                    start: dates::ghanatel_phase2_start(),
                    end: dates::ghanatel_link_down(),
                    expect_diurnal: true,
                    expected_magnitude_ms: 10.0,
                    expected_width: SimDuration::from_hours(20),
                },
            ],
        },
    }
}

/// GIXA–KNET (§6.2.1): far-side diurnal elevation (`A_w = 17.5 ms`,
/// `Δt_UD = 2 h 14 min` after sanitization) with **no queueing**: the far
/// router's ICMP slow path rises through the day, dips at midnight, and is
/// identical on weekends. Average loss stays ≈0.1 %.
pub fn gixa_knet(noise: HashNoise) -> LinkScenario {
    let cap = 1000.0 * MBPS;
    // Light, never-congesting traffic both ways.
    let fwd = DiurnalLoad::flat(120.0 * MBPS, noise.child(2, 1));
    let rev = DiurnalLoad::flat(150.0 * MBPS, noise.child(2, 2));

    // One documented routing event: the link joins the substrate mid-
    // campaign (bdrmap first sees it on 29/06/2016).
    let routing_events = vec![knet_link_provisioned()];
    let up = up_schedule(false, &routing_events);

    let slow = WindowedSlowPath {
        from: dates::knet_congestion_start(),
        until: dates::far_future(),
        inner: DiurnalSlowPath::knet_like(SimDuration::from_millis(20), noise.child(2, 3)),
    };

    LinkScenario {
        name: "GIXA-KNET",
        cfg: LinkConfig {
            prop_delay: SimDuration::from_micros(350),
            buffer_bytes: Schedule::constant(1_250_000.0),
            capacity_bps: Schedule::constant(cap),
            up,
            step: SimDuration::from_secs(60),
            base_loss: 0.001, // the measured ≈0.1 % average loss
        },
        load_forward: Arc::new(fwd),
        load_reverse: Arc::new(rev),
        far_slow_path: Some(Arc::new(slow)),
        routing_events,
        truth: GroundTruth {
            cause: Cause::SlowIcmpGeneration,
            sustained: true,
            phases: vec![PhaseTruth {
                label: "elevation",
                start: dates::knet_congestion_start(),
                end: dates::campaign_end(),
                expect_diurnal: true,
                expected_magnitude_ms: 17.5,
                expected_width: SimDuration::from_mins(2 * 60 + 14),
            }],
        },
    }
}

/// QCELL–NETPAGE (§6.2.2): NETPAGE's 10 Mbps port saturates on Google-cache
/// demand (weekday spikes ≈35 ms, weekend ≈15 ms, `A_w = 10.7 ms`,
/// `Δt_UD = 6 h 22 min`, daily periodicity) until the 28/04/2016 upgrade to
/// 1 Gbps clears it for the rest of the campaign.
pub fn qcell_netpage(noise: HashNoise) -> LinkScenario {
    let cap1 = 10.0 * MBPS;
    let midday = Shape::Plateau { start_hour: 10.0, end_hour: 16.5, ramp_hours: 2.5 };

    // Forward (QCELL → NETPAGE): GGC content toward NETPAGE users.
    // Weekdays saturate the port (≈35 ms spikes); weekends run close to
    // capacity, saturating only on load-noise excursions. (At 10 Mbps the
    // 44 kB buffer fills in seconds, so a fluid queue is effectively
    // bang-bang: the paper's ~15 ms weekend spikes correspond to brief
    // saturation episodes rather than a stable part-filled queue —
    // EXPERIMENTS.md discusses the deviation.)
    let p1_fwd = plateau_load(0.55, 0.70, 0.36, cap1, midday, noise.child(3, 1));
    // After the upgrade the same absolute traffic is ~1 % of the new port.
    let p2_fwd = DiurnalLoad::flat(12.0 * MBPS, noise.child(3, 2));
    let fwd = PhasedLoad::starting(dates::netpage_phase1_start(), Arc::new(p1_fwd))
        .then(dates::netpage_upgrade(), Arc::new(p2_fwd));
    let rev = DiurnalLoad::flat(1.5 * MBPS, noise.child(3, 3));

    let mut capacity = Schedule::constant(cap1);
    capacity.step(dates::netpage_upgrade(), 1000.0 * MBPS);

    LinkScenario {
        name: "QCELL-NETPAGE",
        cfg: LinkConfig {
            prop_delay: SimDuration::from_micros(600),
            buffer_bytes: Schedule::constant(44_000.0), // ≈35 ms at 10 Mbps
            capacity_bps: capacity,
            up: Schedule::constant(true),
            step: SimDuration::from_secs(60),
            base_loss: 0.0005,
        },
        load_forward: Arc::new(fwd),
        load_reverse: Arc::new(rev),
        far_slow_path: None,
        routing_events: Vec::new(),
        truth: GroundTruth {
            cause: Cause::LinkQueueing,
            sustained: false, // mitigated by the upgrade: transient
            phases: vec![
                PhaseTruth {
                    label: "phase 1",
                    start: dates::netpage_phase1_start(),
                    end: dates::netpage_upgrade(),
                    expect_diurnal: true,
                    expected_magnitude_ms: 10.7,
                    expected_width: SimDuration::from_mins(6 * 60 + 22),
                },
                PhaseTruth {
                    label: "phase 2",
                    start: dates::netpage_upgrade(),
                    end: dates::campaign_end(),
                    expect_diurnal: false,
                    expected_magnitude_ms: 0.0,
                    expected_width: SimDuration::ZERO,
                },
            ],
        },
    }
}

/// A healthy peering link: utilization well below capacity at all times.
pub fn healthy_link(capacity_bps: f64, mean_util: f64, noise: HashNoise) -> LinkScenario {
    assert!(mean_util < 0.6, "a healthy link stays below 60% utilization");
    let fwd = DiurnalLoad {
        base_bps: 0.4 * mean_util * capacity_bps,
        weekday_peak_bps: 1.2 * mean_util * capacity_bps,
        weekend_peak_bps: 0.8 * mean_util * capacity_bps,
        shape: Shape::Bump { peak_hour: 14.0, width_hours: 5.0 },
        noise_frac: 0.04,
        noise_bin: SimDuration::from_mins(5),
        noise: noise.child(4, 1),
    };
    let rev = DiurnalLoad {
        base_bps: 0.3 * mean_util * capacity_bps,
        weekday_peak_bps: mean_util * capacity_bps,
        weekend_peak_bps: 0.7 * mean_util * capacity_bps,
        shape: Shape::Bump { peak_hour: 20.0, width_hours: 4.0 },
        noise_frac: 0.04,
        noise_bin: SimDuration::from_mins(5),
        noise: noise.child(4, 2),
    };
    LinkScenario {
        name: "healthy",
        cfg: LinkConfig {
            capacity_bps: Schedule::constant(capacity_bps),
            ..LinkConfig::default()
        },
        load_forward: Arc::new(fwd),
        load_reverse: Arc::new(rev),
        far_slow_path: None,
        routing_events: Vec::new(),
        truth: GroundTruth::healthy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise() -> HashNoise {
        HashNoise::new(0xA5A5)
    }

    #[test]
    fn ghanatel_phase1_weekday_overloads_reverse() {
        let s = gixa_ghanatel(noise());
        // Tue 2016-03-08 14:00 — plateau, business day.
        let t = SimTime::from_datetime(2016, 3, 8, 14, 0, 0);
        let rev = s.load_reverse.bps(t);
        assert!(rev > 100.0 * MBPS, "reverse load {rev}");
        // Weekend same hour: at/below capacity.
        let sat = SimTime::from_datetime(2016, 3, 12, 14, 0, 0);
        let rev_we = s.load_reverse.bps(sat);
        assert!(rev_we < 105.0 * MBPS, "weekend reverse load {rev_we}");
        assert!(rev_we > 80.0 * MBPS, "weekend should hover near capacity: {rev_we}");
    }

    #[test]
    fn ghanatel_phase2_deep_overload() {
        let s = gixa_ghanatel(noise());
        let t = SimTime::from_datetime(2016, 7, 5, 14, 0, 0); // Tue in phase 2
        let rev = s.load_reverse.bps(t);
        // Afternoon peak well above capacity (batch loss sweeps toward 85%).
        assert!(rev > 150.0 * MBPS, "{rev}");
        // Night-time is quiet again: the 0% end of Figure 2b.
        let night = s.load_reverse.bps(SimTime::from_datetime(2016, 7, 5, 3, 0, 0));
        assert!(night < 85.0 * MBPS, "{night}");
        // Link goes down on 06/08/2016.
        assert!(*s.cfg.up.at(SimTime::from_date(2016, 8, 5)));
        assert!(!*s.cfg.up.at(SimTime::from_date(2016, 8, 6)));
        // Buffer shrinks at the phase boundary.
        assert_eq!(*s.cfg.buffer_bytes.at(SimTime::from_date(2016, 5, 1)), 350_000.0);
        assert_eq!(*s.cfg.buffer_bytes.at(SimTime::from_date(2016, 7, 1)), 125_000.0);
    }

    #[test]
    fn ghanatel_quiet_before_phase1() {
        let s = gixa_ghanatel(noise());
        assert_eq!(s.load_reverse.bps(SimTime::from_date(2016, 2, 25)), 0.0);
    }

    #[test]
    fn knet_is_slow_icmp_not_queueing() {
        let s = gixa_knet(noise());
        assert_eq!(s.truth.cause, Cause::SlowIcmpGeneration);
        let sp = s.far_slow_path.as_ref().unwrap();
        // Before 06/08: nothing.
        assert_eq!(sp.extra_delay(SimTime::from_datetime(2016, 7, 15, 15, 0, 0)), SimDuration::ZERO);
        // After: afternoon elevation ~15-25 ms.
        let d = sp.extra_delay(SimTime::from_datetime(2016, 9, 15, 15, 0, 0));
        assert!(d > SimDuration::from_millis(12), "{d}");
        // Loads stay below 20% of the Gbps port.
        let l = s.load_forward.bps(SimTime::from_datetime(2016, 9, 15, 15, 0, 0));
        assert!(l < 200.0 * MBPS);
        // Link only exists from 29/06/2016.
        assert!(!*s.cfg.up.at(SimTime::from_date(2016, 6, 28)));
        assert!(*s.cfg.up.at(SimTime::from_date(2016, 6, 29)));
    }

    #[test]
    fn netpage_upgrade_clears_overload() {
        let s = qcell_netpage(noise());
        let before = SimTime::from_datetime(2016, 3, 9, 13, 0, 0); // Wed phase 1
        let after = SimTime::from_datetime(2016, 6, 8, 13, 0, 0); // Wed phase 2
        let cap_before = *s.cfg.capacity_bps.at(before);
        let cap_after = *s.cfg.capacity_bps.at(after);
        assert_eq!(cap_before, 10.0 * MBPS);
        assert_eq!(cap_after, 1000.0 * MBPS);
        assert!(s.load_forward.bps(before) > cap_before, "phase 1 must overload");
        assert!(s.load_forward.bps(after) < 0.1 * cap_after, "phase 2 must be quiet");
        assert!(!s.truth.sustained);
    }

    #[test]
    fn netpage_weekend_milder() {
        let s = qcell_netpage(noise());
        let wed = SimTime::from_datetime(2016, 3, 9, 13, 0, 0);
        let sun = SimTime::from_datetime(2016, 3, 13, 13, 0, 0);
        assert!(s.load_forward.bps(wed) > s.load_forward.bps(sun));
    }

    #[test]
    fn documented_routing_events_pin_paper_dates() {
        let g = gixa_ghanatel(noise());
        assert_eq!(
            g.routing_events.iter().map(|e| e.at).collect::<Vec<_>>(),
            vec![SimTime::from_date(2016, 6, 15), SimTime::from_date(2016, 8, 6)],
        );
        let k = gixa_knet(noise());
        assert_eq!(k.routing_events, vec![knet_link_provisioned()]);
        assert!(qcell_netpage(noise()).routing_events.is_empty());
    }

    #[test]
    fn routing_events_compile_to_control_plane_faults() {
        let prefix: Prefix = "41.0.0.0/24".parse().unwrap();
        // Provisioning is data-plane only: no fault.
        assert!(knet_link_provisioned().compile(NodeId(1), prefix).is_none());
        match ghanatel_transit_shutdown().compile(NodeId(1), prefix) {
            Some(Fault::SessionReset { at, downtime, .. }) => {
                assert_eq!(at, dates::ghanatel_phase2_start());
                assert!(downtime > SimDuration::ZERO);
            }
            other => panic!("expected a session reset, got {other:?}"),
        }
        match ghanatel_link_removal().compile(NodeId(1), prefix) {
            Some(Fault::PrefixWithdraw { from, until, .. }) => {
                assert_eq!(from, dates::ghanatel_link_down());
                assert_eq!(until, None);
            }
            other => panic!("expected a permanent withdrawal, got {other:?}"),
        }
    }

    #[test]
    fn up_schedule_from_events_matches_hand_rolled_timing() {
        let up = up_schedule(true, &[ghanatel_transit_shutdown(), ghanatel_link_removal()]);
        assert!(*up.at(SimTime::from_date(2016, 8, 5)));
        assert!(!*up.at(SimTime::from_date(2016, 8, 6)));
        // The reconfiguration leaves the data plane up at the phase boundary.
        assert!(*up.at(SimTime::from_date(2016, 6, 16)));
    }

    #[test]
    fn healthy_never_exceeds_capacity() {
        let s = healthy_link(1e9, 0.35, noise());
        assert!(s.load_forward.peak_bps() < 0.8e9);
        assert!(s.load_reverse.peak_bps() < 0.8e9);
        assert_eq!(s.truth.cause, Cause::None);
    }

    #[test]
    #[should_panic(expected = "below 60%")]
    fn healthy_rejects_high_utilization() {
        let _ = healthy_link(1e9, 0.9, noise());
    }
}
