//! Building a vantage point's hosting network.
//!
//! Each VP is built as its own [`Network`] — the paper's six VPs are
//! independent observers of six different hosting networks, and nothing in
//! the pipeline compares raw packets across VPs. The generated shape:
//!
//! ```text
//!   vp host ── core router ──┬── border router 0 ──┬── neighbor A (k links)
//!                            │                     └── neighbor B …
//!                            ├── border router 1 ── …
//!                            ├── upstream transit provider (global prefixes)
//!                            └── case-study neighbors (GHANATEL, KNET, …)
//! ```
//!
//! Every neighbor runs 1..=k parallel point-to-point links (Table 2 counts
//! router-level *links*, several per AS pair), announces one /24 per link,
//! and holds the /24's first address on a stub interface so traceroutes
//! terminate there. IXP peers put their link addresses on the exchange's
//! peering LAN — the §5.1 classification signal. Membership churn follows
//! [`crate::evolution::windows_from_schedule`]; dead periods are link
//! down-time, which is how bdrmap snapshots see different link sets at
//! different dates (§6.1).

use crate::evolution::{windows_from_schedule, Lifetime};
use crate::ixps::ixp_lans;
use crate::spec::{SpecialLink, VpSpec, VpSetting};
use ixp_registry::prelude::*;
use ixp_simnet::link::{LinkConfig, Schedule};
use ixp_simnet::prelude::*;
use ixp_simnet::rng::HashNoise;
use ixp_simnet::time::SimDuration;
use ixp_traffic::profile::{DiurnalLoad, Shape};
use ixp_traffic::scenarios::{self, Cause, LinkScenario};
use ixp_traffic::slowpath::RandomShifts;
use std::sync::Arc;

/// What a border link really is (validation ground truth).
#[derive(Clone, Debug, PartialEq)]
pub enum TruthKind {
    /// Ordinary healthy peering/customer link.
    Healthy,
    /// Healthy queues, but the far router carries sporadic non-diurnal
    /// level shifts of roughly this magnitude scale (ms).
    Noisy {
        /// Magnitude scale in milliseconds.
        scale_ms: f64,
    },
    /// One of the scripted case studies in `ixp_traffic::scenarios`.
    CaseStudy {
        /// Scenario name ("GIXA-GHANATEL", "GIXA-KNET", "QCELL-NETPAGE").
        scenario: &'static str,
    },
    /// A generic diurnally congested link, mitigated inside the campaign.
    GenericCongested {
        /// Congestion window start.
        from: SimTime,
        /// Congestion window end.
        until: SimTime,
    },
    /// The upstream transit link.
    Transit,
}

/// Ground truth for one border link of the VP's AS.
#[derive(Clone, Debug)]
pub struct TruthLink {
    /// The simulator link.
    pub link_id: LinkId,
    /// Expected near responder (incoming interface of the near router on
    /// the probe path).
    pub near: Ipv4,
    /// Far-side interface address.
    pub far: Ipv4,
    /// Far AS.
    pub far_asn: Asn,
    /// Far AS name.
    pub far_name: String,
    /// Probing destination whose route crosses this link.
    pub dst: Ipv4,
    /// The /24 (or larger) announced across this link.
    pub prefix: Prefix,
    /// TTL expiring at the near router.
    pub near_ttl: u8,
    /// TTL expiring at the far router.
    pub far_ttl: u8,
    /// Is the far side on the IXP peering/management LAN (§5.1)?
    pub at_ixp: bool,
    /// When the link exists.
    pub lifetime: Lifetime,
    /// Does the far router answer ICMP at all? A small unresponsive
    /// population keeps bdrmap's neighbor recall below 100 %, as in §4.
    pub responsive: bool,
    /// What the link really is.
    pub kind: TruthKind,
}

/// A fully built vantage-point substrate.
pub struct VpSubstrate {
    /// The generating spec.
    pub spec: VpSpec,
    /// The simulated hosting network.
    pub net: Network,
    /// The VP host node.
    pub vp: NodeId,
    /// Synthetic public-BGP view from this VP's collector.
    pub bgp: BgpView,
    /// AS metadata.
    pub asdb: AsDb,
    /// Organizations / sibling lists.
    pub orgs: OrgDb,
    /// Address delegations.
    pub delegations: AddressRegistry,
    /// Ground-truth border links.
    pub links: Vec<TruthLink>,
    /// The IXP's peering LAN.
    pub lan: Prefix,
    /// The IXP's management prefix.
    pub mgmt: Prefix,
    /// Reverse-DNS table: interface address → operator-style hostname with
    /// embedded location tokens (§5.1's second geolocation source). Sparse,
    /// as in reality: only some interfaces carry PTR records.
    pub rdns: std::collections::HashMap<Ipv4, String>,
    /// Ground-truth AS relationships: IXP peers are settlement-free peers of
    /// the host AS, non-IXP neighbors its customers, the upstream its
    /// provider — the data CAIDA's AS-rank supplies the real bdrmap.
    pub relationships: RelationshipDb,
}

impl VpSubstrate {
    /// Border links alive at `t`.
    pub fn links_at(&self, t: SimTime) -> Vec<&TruthLink> {
        self.links.iter().filter(|l| l.lifetime.alive_at(t)).collect()
    }

    /// Distinct neighbor ASes alive at `t`.
    pub fn neighbors_at(&self, t: SimTime) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.links_at(t).iter().map(|l| l.far_asn).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct neighbor ASes with at least one link at the IXP at `t`.
    pub fn peers_at(&self, t: SimTime) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.links_at(t).iter().filter(|l| l.at_ixp).map(|l| l.far_asn).collect();
        v.sort();
        v.dedup();
        v
    }

}

/// Internal builder state.
struct Builder {
    net: Network,
    bgp: BgpView,
    asdb: AsDb,
    orgs: OrgDb,
    delegations: AddressRegistry,
    links: Vec<TruthLink>,
    noise: HashNoise,
    host_prefix: Prefix,
    host_cursor: u32,
    lan: Prefix,
    lan_cursor: u32,
    core: NodeId,
    borders: Vec<(NodeId, Ipv4)>, // (node, near responder addr)
    vp: NodeId,
    vp_core_core_addr: Ipv4,
    host_asn: Asn,
    /// Lifetimes for *extra* parallel ports (see `VpSpec::port_churn`),
    /// consumed one per `li > 0` link while available.
    port_pool: Vec<Lifetime>,
    /// Port-churn mode: once the pool is drained, further extra ports are
    /// never brought up (the pool *is* the extra-port budget).
    port_churn_mode: bool,
    relationships: RelationshipDb,
}

impl Builder {
    fn next_host_addr(&mut self) -> Ipv4 {
        let a = self.host_prefix.addr(self.host_cursor);
        self.host_cursor += 1;
        a
    }

    fn next_lan_addr(&mut self) -> Ipv4 {
        let a = self.lan.addr(self.lan_cursor);
        self.lan_cursor += 1;
        a
    }

    /// Attach one neighbor router with `k` parallel links to `border_idx`
    /// (or the core when `None`). Returns the truth entries added.
    #[allow(clippy::too_many_arguments)]
    fn attach_neighbor(
        &mut self,
        asn: Asn,
        name: &str,
        country: &str,
        kind: AsKind,
        k: u8,
        on_lan: bool,
        lifetime: Lifetime,
        border_idx: Option<usize>,
        scenario: Option<&LinkScenario>,
        truth_kind: TruthKind,
        stagger: Option<(SimTime, SimTime)>,
        responsive: bool,
    ) {
        let node = self.net.add_node(NodeKind::Router, asn, name);
        if !responsive {
            self.net.node_mut(node).icmp.responsive = false;
        }
        let rel = if on_lan { Relationship::PeerOf } else { Relationship::ProviderOf };
        self.relationships.set(self.host_asn, asn, rel);
        self.asdb.insert(AsRecord {
            asn,
            name: name.to_string(),
            org: format!("org-{}", name.to_lowercase()),
            country: country.to_string(),
            kind,
        });
        self.orgs.assign(asn, &format!("org-{}", name.to_lowercase()));

        let (attach_node, attach_iface_hint, near_addr, near_ttl) = match border_idx {
            Some(b) => {
                let (bn, baddr) = self.borders[b];
                (bn, None::<IfaceId>, baddr, 2u8)
            }
            None => (self.core, None, self.vp_core_core_addr, 1u8),
        };
        let _ = attach_iface_hint;

        for li in 0..k {
            // Parallel links beyond the first may come up later than the
            // neighbor itself (port growth; see VpSpec::parallel_stagger) or
            // draw an individual port-churn lifetime (VpSpec::port_churn),
            // intersected with the neighbor's own window.
            let lifetime = match (li, stagger) {
                (0, _) => lifetime,
                (_, _) if self.port_churn_mode => {
                    if self.port_pool.is_empty() {
                        // Budget exhausted: this port never comes up.
                        Lifetime { join: SimTime::from_date(2030, 1, 1), leave: None }
                    } else {
                    let port = self.port_pool.pop().expect("non-empty pool");
                    let join = port.join.max(lifetime.join);
                    let leave = match (port.leave, lifetime.leave) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (Some(a), None) => Some(a),
                        (None, b) => b,
                    };
                    Lifetime { join, leave }
                    }
                }
                (_, None) => lifetime,
                (_, Some((lo, hi))) => {
                    let span = hi.since(lo).as_micros();
                    let frac = self.noise.unit_f64(0x74, (asn.0 as u64) << 8 | li as u64);
                    let join = (lo + ixp_simnet::time::SimDuration::from_micros((span as f64 * frac) as u64))
                        .max(lifetime.join);
                    Lifetime { join, leave: lifetime.leave }
                }
            };
            // One /24 per parallel link.
            let len = if matches!(truth_kind, TruthKind::CaseStudy { .. }) { 22 } else { 24 };
            let prefix = self.delegations.allocate(asn, country, 20_100_101, len, DelegationStatus::Allocated);
            let dst = prefix.addr(1);
            let far_addr = if on_lan {
                let reserved = match &truth_kind {
                    TruthKind::CaseStudy { scenario: "GIXA-GHANATEL" } => Some(self.lan.addr(250)),
                    TruthKind::CaseStudy { scenario: "GIXA-KNET" } => Some(self.lan.addr(251)),
                    TruthKind::CaseStudy { scenario: "QCELL-NETPAGE" } => Some(self.lan.addr(250)),
                    _ => None,
                };
                reserved.unwrap_or_else(|| self.next_lan_addr())
            } else {
                prefix.addr(2)
            };
            let near_side = self.next_host_addr();

            // Link configuration: scenario-provided or generated-healthy.
            let key = (asn.0 as u64) << 8 | li as u64;
            let (cfg, load_fwd, load_rev) = match scenario {
                Some(s) => (s.cfg.clone(), s.load_forward.clone(), s.load_reverse.clone()),
                None => {
                    let capacity = if self.noise.chance(0x71, key, 0.3) { 1e10 } else { 1e9 };
                    let util = self.noise.range_f64(0x72, key, 0.12, 0.40);
                    let hs = scenarios::healthy_link(capacity, util, self.noise.child(0x73, key));
                    (hs.cfg, hs.load_forward, hs.load_reverse)
                }
            };
            // Lifetime becomes the up/down schedule (scenario schedules are
            // combined: the link is up only when both agree).
            let mut cfg = cfg;
            let mut up = Schedule::constant(false);
            up.step(lifetime.join, true);
            if let Some(leave) = lifetime.leave {
                up.step(leave, false);
            }
            if let Some(s) = scenario {
                // Intersect with the scenario's own up schedule.
                for t in s.cfg.up.change_points().collect::<Vec<_>>() {
                    let v = *s.cfg.up.at(t) && {
                        let mut base = t >= lifetime.join;
                        if let Some(l) = lifetime.leave {
                            base &= t < l;
                        }
                        base
                    };
                    up.step(t, v);
                }
            }
            cfg.up = up;

            let lid = self.net.connect(attach_node, near_side, node, far_addr, cfg, load_fwd, load_rev);

            // Routing: dst prefix via this link from core and the border.
            let attach_iface = self.net.node(attach_node).iface_by_addr(near_side).unwrap();
            self.net.add_route(attach_node, prefix, attach_iface);
            if let Some(b) = border_idx {
                let (bn, _) = self.borders[b];
                // Core forwards this prefix toward border b.
                let core_iface = self.core_iface_toward(bn);
                self.net.add_route(self.core, prefix, core_iface);
                // And the far LAN address (direct pings of the far side).
                if on_lan {
                    self.net.add_route(self.core, Prefix::new(far_addr, 32), core_iface);
                    self.net.add_route(bn, Prefix::new(far_addr, 32), attach_iface);
                }
            } else if on_lan {
                self.net.add_route(self.core, Prefix::new(far_addr, 32), attach_iface);
            }

            // The neighbor routes responses back via its first link. The
            // probing destination stays *unowned*: a far-TTL probe expires at
            // the neighbor with a Time Exceeded from the link interface
            // (TSLP's far series), and a deeper probe draws a Destination
            // Unreachable from the same interface, terminating traceroutes.
            let back_iface = self.net.node(node).iface_by_addr(far_addr).unwrap();
            if li == 0 {
                self.net.add_route(node, Prefix::DEFAULT, back_iface);
            }
            // The prefix "faces" this port: a deeper probe arriving over
            // link `li` would exit the way it came in, so the neighbor
            // answers destination-unreachable from the link interface —
            // terminating traceroutes exactly at the border.
            self.net.add_route(node, prefix, back_iface);

            // BGP view: the collector at the VP's AS sees [host, neighbor].
            self.bgp.announce(prefix, vec![self.host_asn, asn]);

            self.links.push(TruthLink {
                link_id: lid,
                near: near_addr,
                far: far_addr,
                far_asn: asn,
                far_name: name.to_string(),
                dst,
                prefix,
                near_ttl,
                far_ttl: near_ttl + 1,
                at_ixp: on_lan,
                lifetime,
                responsive,
                kind: truth_kind.clone(),
            });
        }

        // Slow-path models ride on the far router (scenario or noise).
        if let Some(s) = scenario {
            if let Some(sp) = &s.far_slow_path {
                self.net.node_mut(node).icmp.slow_path = Some(sp.clone());
            }
        }
    }

    fn core_iface_toward(&self, border: NodeId) -> IfaceId {
        // The core's iface on the core–border link: find the interface whose
        // link's other end belongs to `border`.
        let core_node = self.net.node(self.core);
        for (i, iface) in core_node.ifaces.iter().enumerate() {
            if let Some((lid, dir)) = iface.link {
                let l = self.net.link(lid);
                let other = match dir {
                    Dir::AtoB => l.addr_b,
                    Dir::BtoA => l.addr_a,
                };
                if let Some((n, _)) = self.net.owner_of(other) {
                    if n == border {
                        return IfaceId(i as u16);
                    }
                }
            }
        }
        panic!("core has no interface toward {border:?}");
    }
}

/// Deterministically pick `k ∈ 1..=max` for a neighbor.
fn parallel_count(noise: &HashNoise, stream: u64, key: u64, max: u8) -> u8 {
    if max <= 1 {
        return 1;
    }
    1 + (noise.u64(stream, key) % max as u64) as u8
}

/// Build the substrate for one VP.
pub fn build_vp(spec: &VpSpec, seed: u64) -> VpSubstrate {
    let noise = HashNoise::new(seed ^ spec.host_asn.0 as u64);
    let mut net = Network::new(noise.u64(0x10, 0));
    let mut delegations = AddressRegistry::new();
    let (lan, mgmt) = ixp_lans(spec.ixp_name);

    // Host AS address space: content-network VPs live inside the IXP's
    // management prefix; member VPs get their own allocation.
    let host_prefix = match spec.setting {
        VpSetting::ContentNetwork => mgmt,
        VpSetting::Member => {
            let len = if spec.host_name == "Liquid Telecom" { 16 } else { 20 };
            delegations.allocate(spec.host_asn, spec.country, 20_080_101, len, DelegationStatus::Allocated)
        }
    };

    // Core skeleton.
    let vp = net.add_node(NodeKind::Host, spec.host_asn, format!("{}-vp", spec.name));
    let core = net.add_node(NodeKind::Router, spec.host_asn, format!("{}-core", spec.host_name));
    let vp_addr = host_prefix.addr(2);
    let core_addr = host_prefix.addr(1);
    let internal = LinkConfig {
        capacity_bps: Schedule::constant(1e10),
        prop_delay: SimDuration::from_micros(80),
        ..LinkConfig::default()
    };
    net.connect_idle(vp, vp_addr, core, core_addr, internal.clone());
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));

    let mut host_cursor = 4u32;
    let mut borders = Vec::new();
    for b in 0..spec.border_routers.max(1) {
        let bn = net.add_node(NodeKind::Router, spec.host_asn, format!("{}-br{}", spec.host_name, b));
        let ca = host_prefix.addr(host_cursor);
        let ba = host_prefix.addr(host_cursor + 1);
        host_cursor += 2;
        net.connect_idle(core, ca, bn, ba, internal.clone());
        // Border: host space back via core; default via core.
        let back = net.node(bn).iface_by_addr(ba).unwrap();
        net.add_route(bn, host_prefix, back);
        net.add_route(bn, Prefix::DEFAULT, back);
        borders.push((bn, ba));
    }
    // Core: VP host route; (responses to the VP go here).
    net.add_route(core, Prefix::new(vp_addr, 32), IfaceId(0));

    let mut b = Builder {
        net,
        bgp: BgpView::new(),
        asdb: AsDb::new(),
        orgs: OrgDb::new(),
        delegations,
        links: Vec::new(),
        noise,
        host_prefix,
        host_cursor,
        lan,
        lan_cursor: 10,
        core,
        borders,
        vp,
        vp_core_core_addr: core_addr,
        host_asn: spec.host_asn,
        port_pool: spec
            .port_churn
            .as_ref()
            .map(|sched| windows_from_schedule(sched, SimTime::from_date(2016, 1, 20), &noise, 0x23))
            .unwrap_or_default(),
        port_churn_mode: spec.port_churn.is_some(),
        relationships: RelationshipDb::new(),
    };

    // Registry seeds: host AS, IXP operator.
    b.asdb.insert(AsRecord {
        asn: spec.host_asn,
        name: spec.host_name.to_string(),
        org: format!("org-{}", spec.host_name.to_lowercase().replace(' ', "-")),
        country: spec.country.to_string(),
        kind: if spec.host_name == "Liquid Telecom" { AsKind::Transit } else { AsKind::Access },
    });
    b.orgs.assign(spec.host_asn, &format!("org-{}", spec.host_name.to_lowercase().replace(' ', "-")));
    if spec.host_name == "Liquid Telecom" {
        // Liquid's sibling ASN (the paper's semi-manual sibling list).
        b.orgs.assign(Asn(30969), "org-liquid-telecom");
    }
    b.asdb.insert(AsRecord {
        asn: spec.ixp_asn,
        name: spec.ixp_name.to_string(),
        org: format!("org-{}", spec.ixp_name.to_lowercase()),
        country: spec.country.to_string(),
        kind: AsKind::IxpOperator,
    });
    b.bgp.announce(host_prefix, vec![spec.host_asn]);
    b.bgp.announce(lan, vec![spec.host_asn, spec.ixp_asn]);

    // Upstream transit provider.
    let upstream_asn = Asn(64_000 + (spec.host_asn.0 % 500));
    {
        let up_name = format!("{}-TRANSIT", spec.country);
        let node = b.net.add_node(NodeKind::Router, upstream_asn, &up_name);
        b.asdb.insert(AsRecord {
            asn: upstream_asn,
            name: up_name.clone(),
            org: format!("org-{}", up_name.to_lowercase()),
            country: "EU".to_string(),
            kind: AsKind::Transit,
        });
        b.orgs.assign(upstream_asn, &format!("org-{}", up_name.to_lowercase()));
        b.relationships.set(spec.host_asn, upstream_asn, Relationship::CustomerOf);
        let up_prefix = b.delegations.allocate(upstream_asn, "EU", 19_990_101, 20, DelegationStatus::Allocated);
        let near_side = b.next_host_addr();
        let far_side = up_prefix.addr(1);
        let lid = b.net.connect_idle(b.core, near_side, node, far_side, LinkConfig::default());
        let core_if = b.net.node(b.core).iface_by_addr(near_side).unwrap();
        b.net.add_route(b.core, Prefix::DEFAULT, core_if);
        let back = b.net.node(node).iface_by_addr(far_side).unwrap();
        b.net.add_route(node, host_prefix, back);
        b.net.add_route(node, lan, back);
        // Global destinations terminate on the upstream.
        for (i, g) in ["8.8.8.0/24", "93.184.216.0/24", "151.101.64.0/24", "104.16.32.0/24"].iter().enumerate() {
            let gp: Prefix = g.parse().unwrap();
            b.net.add_stub_iface(node, gp.addr(1));
            let gi = b.net.node(node).iface_by_addr(gp.addr(1)).unwrap();
            b.net.add_route(node, gp, gi);
            b.bgp.announce(gp, vec![spec.host_asn, upstream_asn, Asn(15_000 + i as u32)]);
        }
        b.bgp.announce(up_prefix, vec![spec.host_asn, upstream_asn]);
        b.links.push(TruthLink {
            link_id: lid,
            near: core_addr,
            far: far_side,
            far_asn: upstream_asn,
            far_name: up_name,
            dst: up_prefix.addr(2),
            prefix: up_prefix,
            near_ttl: 1,
            far_ttl: 2,
            at_ixp: false,
            lifetime: Lifetime { join: SimTime::ZERO, leave: None },
            responsive: true,
            kind: TruthKind::Transit,
        });
    }

    // Regular neighbor populations: peers (on the LAN) then others.
    let start = SimTime::from_date(2016, 1, 20);
    let peer_windows = windows_from_schedule(&spec.peers, start, &noise, 0x20);
    let other_windows = windows_from_schedule(&spec.other_neighbors, start, &noise, 0x21);

    // Noisy-router budget (Table 1): accumulate parallel counts until the
    // target flagged-link count is reached, preferring long-lived neighbors.
    let mut noisy_budget = spec.noisy.count as i64;

    let mut asn_cursor = 36_000 + spec.host_asn.0 % 900;
    let classes: [(bool, &[Lifetime], u8); 2] = [
        (true, &peer_windows, spec.max_parallel_peer_links),
        (false, &other_windows, spec.max_parallel_links),
    ];
    for (on_lan, windows, kmax) in classes {
        for (i, lt) in windows.iter().enumerate() {
            let asn = Asn(asn_cursor);
            asn_cursor += 1;
            let name = format!("{}-{}-{:03}", spec.country, if on_lan { "PEER" } else { "NET" }, i);
            let kind = match noise.u64(0x30, asn.0 as u64) % 4 {
                0 => AsKind::Access,
                1 => AsKind::Mobile,
                2 => AsKind::Content,
                _ => AsKind::Education,
            };
            let k = parallel_count(&noise, 0x31, asn.0 as u64, kmax);
            let responsive = !noise.chance(0x34, asn.0 as u64, spec.unresponsive_fraction);
            // Noise assignment: long-lived, responsive neighbors only.
            let mut truth_kind = TruthKind::Healthy;
            if responsive && noisy_budget > 0 && lt.leave.is_none() && lt.join == start {
                let scale =
                    noise.range_f64(0x32, asn.0 as u64, spec.noisy.scale_ms.0, spec.noisy.scale_ms.1);
                truth_kind = TruthKind::Noisy { scale_ms: scale };
                noisy_budget -= k as i64;
            }
            let border = (i % spec.border_routers.max(1), );
            b.attach_neighbor(
                asn,
                &name,
                spec.country,
                kind,
                k,
                on_lan,
                *lt,
                Some(border.0),
                None,
                truth_kind.clone(),
                // Noisy routers are flaky on every port from day one:
                // keeping their parallel links unstaggered makes Table 1's
                // flagged-link counts schedule-predictable.
                if matches!(truth_kind, TruthKind::Noisy { .. }) { None } else { spec.parallel_stagger },
                responsive,
            );
            if let TruthKind::Noisy { scale_ms } = truth_kind {
                // Install the nuisance shifts on the router just created.
                let node = b.net.owner_of(b.links.last().unwrap().far).unwrap().0;
                let shifts = RandomShifts {
                    min_magnitude: SimDuration::from_secs_f64(0.55 * scale_ms / 1e3),
                    max_magnitude: SimDuration::from_secs_f64(scale_ms / 1e3),
                    ..RandomShifts::nuisance(noise.child(0x33, asn.0 as u64))
                };
                b.net.node_mut(node).icmp.slow_path = Some(Arc::new(shifts));
            }
        }
    }

    // Scripted special links.
    for sp in &spec.specials {
        match sp {
            SpecialLink::Ghanatel => {
                let s = scenarios::gixa_ghanatel(noise.child(0x40, 1));
                b.attach_neighbor(
                    Asn(29_614),
                    "GHANATEL",
                    "GH",
                    AsKind::Access,
                    1,
                    true,
                    // Leave date comes from the scripted link-removal event.
                    Lifetime { join: start, leave: s.withdrawn_at() },
                    None,
                    Some(&s),
                    TruthKind::CaseStudy { scenario: "GIXA-GHANATEL" },
                    None,
                    true,
                );
            }
            SpecialLink::Knet => {
                let s = scenarios::gixa_knet(noise.child(0x40, 2));
                b.attach_neighbor(
                    Asn(33_786),
                    "KNET",
                    "GH",
                    AsKind::Content,
                    1,
                    true,
                    // Join date comes from the scripted provisioning event.
                    Lifetime { join: s.provisioned_at().unwrap_or(start), leave: None },
                    None,
                    Some(&s),
                    TruthKind::CaseStudy { scenario: "GIXA-KNET" },
                    None,
                    true,
                );
            }
            SpecialLink::Netpage => {
                let s = scenarios::qcell_netpage(noise.child(0x40, 3));
                b.attach_neighbor(
                    Asn(37_524),
                    "NETPAGE",
                    "GM",
                    AsKind::Access,
                    1,
                    true,
                    Lifetime { join: start, leave: None },
                    Some(0),
                    Some(&s),
                    TruthKind::CaseStudy { scenario: "QCELL-NETPAGE" },
                    None,
                    true,
                );
            }
            SpecialLink::GenericCongested { from_day, until_day, magnitude_ms } => {
                let from = SimTime::ZERO + SimDuration::from_days(*from_day as u64);
                let until = SimTime::ZERO + SimDuration::from_days(*until_day as u64);
                let s = generic_congested_scenario(from, until, *magnitude_ms, noise.child(0x41, *from_day as u64));
                let asn = Asn(asn_cursor);
                asn_cursor += 1;
                b.attach_neighbor(
                    asn,
                    &format!("{}-CONG-{}", spec.country, from_day),
                    spec.country,
                    AsKind::Access,
                    1,
                    true,
                    Lifetime { join: start, leave: None },
                    Some(0),
                    Some(&s),
                    TruthKind::GenericCongested { from, until },
                    None,
                    true,
                );
            }
        }
    }

    // Reverse DNS: roughly two thirds of far interfaces get an
    // operator-style PTR with a city/country token (the rest stay bare, as
    // in real rDNS coverage).
    let mut rdns = std::collections::HashMap::new();
    for l in &b.links {
        if noise.chance(0x80, l.far.0 as u64, 0.67) {
            let rec = b.asdb.get(l.far_asn);
            let (country, org) = rec
                .map(|r| (r.country.clone(), r.name.clone()))
                .unwrap_or_else(|| (spec.country.to_string(), "unknown".to_string()));
            let city = ixp_geo::capital_of(&country);
            let host = ixp_geo::rdns::synthesize(
                (l.link_id.0 % 48) as u16,
                &format!("rtr{}", l.far_asn.0 % 100),
                city,
                &country,
                &org,
            );
            rdns.insert(l.far, host);
        }
    }

    VpSubstrate {
        spec: spec.clone(),
        net: b.net,
        vp: b.vp,
        bgp: b.bgp,
        asdb: b.asdb,
        orgs: b.orgs,
        delegations: b.delegations,
        links: b.links,
        lan,
        mgmt,
        rdns,
        relationships: b.relationships,
    }
}

/// A generic diurnal queueing scenario for Table 2's transient congested
/// links at TIX and JINX: a 100 Mbps port overloaded on business days
/// between `from` and `until` (saturating at `magnitude_ms` of queue
/// delay), healthy otherwise.
fn generic_congested_scenario(from: SimTime, until: SimTime, magnitude_ms: u32, noise: HashNoise) -> LinkScenario {
    let cap = 1e8;
    let midday = Shape::Plateau { start_hour: 9.0, end_hour: 17.0, ramp_hours: 2.0 };
    let hot = DiurnalLoad {
        base_bps: 0.5 * cap,
        weekday_peak_bps: 0.62 * cap,
        weekend_peak_bps: 0.45 * cap,
        shape: midday,
        noise_frac: 0.03,
        noise_bin: SimDuration::from_mins(5),
        noise: noise.child(1, 0),
    };
    let quiet = DiurnalLoad::flat(0.3 * cap, noise.child(1, 1));
    let fwd = ixp_traffic::phased::PhasedLoad::starting(SimTime::ZERO, Arc::new(quiet))
        .then(from, Arc::new(hot))
        .then(until, Arc::new(DiurnalLoad::flat(0.3 * cap, noise.child(1, 2))));
    let mut truth_phase = scenarios::qcell_netpage(noise.child(9, 9)).truth; // shape only
    truth_phase.cause = Cause::LinkQueueing;
    truth_phase.sustained = false;
    truth_phase.phases.clear();
    LinkScenario {
        name: "GENERIC-CONGESTED",
        cfg: LinkConfig {
            capacity_bps: Schedule::constant(cap),
            // magnitude_ms of saturated delay at 100 Mbps.
            buffer_bytes: Schedule::constant(magnitude_ms as f64 * cap / 8.0 / 1e3),
            ..LinkConfig::default()
        },
        load_forward: Arc::new(fwd),
        load_reverse: Arc::new(DiurnalLoad::flat(0.2 * cap, noise.child(1, 3))),
        far_slow_path: None,
        routing_events: Vec::new(),
        truth: truth_phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_vps;
    use ixp_prober::tslp::{tslp_probe, TslpConfig, TslpTarget};

    fn vp1() -> VpSubstrate {
        build_vp(&paper_vps()[0], 42)
    }

    #[test]
    fn vp1_builds_with_case_studies() {
        let s = vp1();
        let gh = s.links.iter().find(|l| l.far_name == "GHANATEL").expect("GHANATEL link");
        assert!(gh.at_ixp);
        assert_eq!(gh.far, Ipv4::new(196, 49, 14, 250));
        assert!(!gh.lifetime.alive_at(SimTime::from_date(2016, 9, 1)));
        let kn = s.links.iter().find(|l| l.far_name == "KNET").expect("KNET link");
        assert!(kn.lifetime.alive_at(SimTime::from_date(2016, 7, 1)));
        assert!(!kn.lifetime.alive_at(SimTime::from_date(2016, 6, 1)));
    }

    #[test]
    fn vp1_neighbor_counts_track_schedule() {
        let s = vp1();
        let t1 = SimTime::from_date(2016, 3, 17);
        let t3 = SimTime::from_date(2016, 11, 15);
        let n1 = s.neighbors_at(t1).len();
        let n3 = s.neighbors_at(t3).len();
        // 11 peers + 2 others + GHANATEL + upstream ≈ 15 at t1; shrinking after.
        assert!((13..=16).contains(&n1), "t1 neighbors {n1}");
        assert!(n3 < n1, "churn should shrink the population: {n1} -> {n3}");
    }

    #[test]
    fn probes_walk_the_substrate() {
        let s = vp1();
        let t = SimTime::from_date(2016, 3, 17);
        // Probe a healthy peer link end to end.
        let link = s
            .links
            .iter()
            .find(|l| matches!(l.kind, TruthKind::Healthy) && l.at_ixp && l.lifetime.alive_at(t))
            .expect("an alive healthy peer")
            .clone();
        let tgt = TslpTarget {
            dst: link.dst,
            near_ttl: link.near_ttl,
            far_ttl: link.far_ttl,
            near_addr: link.near,
            far_addr: link.far,
        };
        let mut ctx = s.net.probe_ctx(0);
        let sample = tslp_probe(&s.net, &mut ctx, s.vp, &tgt, &TslpConfig::default(), t);
        assert!(sample.near.is_some(), "near probe failed");
        assert!(sample.far.is_some(), "far probe failed");
        assert!(sample.near_addr_ok && sample.far_addr_ok, "{sample:?}");
    }

    #[test]
    fn dead_links_do_not_answer() {
        let s = vp1();
        let late = SimTime::from_date(2017, 1, 15);
        let dead = s
            .links
            .iter()
            .find(|l| l.lifetime.leave.is_some() && l.far_name != "GHANATEL")
            .expect("a churned-out link")
            .clone();
        assert!(!dead.lifetime.alive_at(late));
        let tgt = TslpTarget {
            dst: dead.dst,
            near_ttl: dead.near_ttl,
            far_ttl: dead.far_ttl,
            near_addr: dead.near,
            far_addr: dead.far,
        };
        let mut ctx = s.net.probe_ctx(0);
        let sample = tslp_probe(&s.net, &mut ctx, s.vp, &tgt, &TslpConfig::default(), late);
        assert!(sample.far.is_none(), "dead link answered: {sample:?}");
    }

    #[test]
    fn bgp_view_covers_links() {
        let s = vp1();
        for l in &s.links {
            assert_eq!(s.bgp.origin_of(l.dst), Some(l.far_asn), "{}", l.far_name);
        }
        // Global prefixes present too.
        assert!(s.bgp.origin_of(Ipv4::new(8, 8, 8, 8)).is_some());
    }

    #[test]
    fn ghanatel_far_rtt_elevated_in_phase1_weekday() {
        let s = vp1();
        let gh = s.links.iter().find(|l| l.far_name == "GHANATEL").unwrap().clone();
        let tgt = TslpTarget {
            dst: gh.dst,
            near_ttl: gh.near_ttl,
            far_ttl: gh.far_ttl,
            near_addr: gh.near,
            far_addr: gh.far,
        };
        // Tue 2016-03-15 14:00 — deep in a phase-1 business-day plateau.
        let hot = SimTime::from_datetime(2016, 3, 15, 14, 0, 0);
        let mut ctx = s.net.probe_ctx(0);
        let mut far_hot = None;
        for k in 0..20 {
            let smp = tslp_probe(&s.net, &mut ctx, s.vp, &tgt, &TslpConfig::default(), hot + SimDuration::from_secs(60 * k));
            if let Some(f) = smp.far {
                far_hot = Some((f, smp.near.unwrap()));
                break;
            }
        }
        let (far, near) = far_hot.expect("no far reply during phase 1");
        assert!(far.as_millis_f64() > 20.0, "far {far} not elevated");
        assert!(near.as_millis_f64() < 2.0, "near {near} should stay flat");
        // Night-time (the *next* morning — the lazy queue only integrates
        // forward in time): the plateau ends at 02:00, the queue drains.
        let cold = SimTime::from_datetime(2016, 3, 16, 4, 30, 0);
        let smp = tslp_probe(&s.net, &mut ctx, s.vp, &tgt, &TslpConfig::default(), cold);
        assert!(smp.far.unwrap().as_millis_f64() < 10.0, "{:?}", smp.far);
    }

    #[test]
    fn vp5_scale_is_large() {
        let spec = &paper_vps()[4];
        let s = build_vp(spec, 7);
        let t3 = spec.snapshots[2];
        let links = s.links_at(t3).len();
        assert!((9_000..=12_000).contains(&links), "VP5 links at snapshot 3: {links}");
        let n = s.neighbors_at(t3).len();
        assert!((1_100..=1_300).contains(&n), "VP5 neighbors: {n}");
        let p = s.peers_at(t3).len();
        assert!((150..=250).contains(&p), "VP5 peers: {p}");
    }

    #[test]
    fn relationship_truth_populated() {
        let s = vp1();
        // The host peers with LAN members and buys transit upstream.
        let peers = s.relationships.peers_of(s.spec.host_asn);
        assert!(peers.len() >= 10, "{peers:?}");
        let providers = s.relationships.providers_of(s.spec.host_asn);
        assert_eq!(providers.len(), 1, "{providers:?}");
        // AS-rank: the host's customer cone covers its non-IXP customers.
        let cone = ixp_registry::asrank::customer_cone(&s.relationships, s.spec.host_asn);
        assert!(cone.len() >= 2, "cone {cone:?}");
        let ranks = ixp_registry::asrank::rank_all(&s.relationships);
        // The upstream outranks (or ties) everyone: its cone contains the host's.
        assert_eq!(ranks[0].rank, 1);
    }

    #[test]
    fn vp2_port_churn_swings_link_counts() {
        let spec = &paper_vps()[1];
        let s = build_vp(spec, 0xAF12_2017);
        let counts: Vec<usize> = spec.snapshots.iter().map(|&t| s.links_at(t).len()).collect();
        // The TIX signature: rise then crash at stable membership.
        assert!(counts[1] > counts[0] + 20, "{counts:?}");
        assert!(counts[2] < counts[1] - 30, "{counts:?}");
        let nbrs: Vec<usize> = spec.snapshots.iter().map(|&t| s.neighbors_at(t).len()).collect();
        assert!(nbrs.windows(2).all(|w| w[1].abs_diff(w[0]) <= 8), "membership stays near-stable: {nbrs:?}");
    }

    #[test]
    fn vp5_parallel_links_stagger_in() {
        let spec = &paper_vps()[4];
        let s = build_vp(spec, 7);
        let early = s.links_at(spec.snapshots[0]).len();
        let late = s.links_at(spec.snapshots[2]).len();
        // Early snapshot sees mostly one port per neighbor; ports multiply later.
        let early_nbrs = s.neighbors_at(spec.snapshots[0]).len();
        assert!(early < early_nbrs * 3, "early ports-per-neighbor too high: {early}/{early_nbrs}");
        assert!(late > early * 10, "no port growth: {early} -> {late}");
    }

    #[test]
    fn unresponsive_fraction_present_and_marked() {
        let spec = &paper_vps()[4]; // 4% configured
        let s = build_vp(spec, 7);
        let total = s.links.len();
        let dark = s.links.iter().filter(|l| !l.responsive).count();
        let frac = dark as f64 / total as f64;
        assert!((0.01..0.10).contains(&frac), "unresponsive fraction {frac}");
        // Dark links really are dark.
        let l = s.links.iter().find(|l| !l.responsive).unwrap();
        let owner = s.net.owner_of(l.far).unwrap().0;
        assert!(!s.net.node(owner).icmp.responsive);
    }

    #[test]
    fn rdns_coverage_partial_and_located() {
        let s = vp1();
        let covered = s.rdns.len() as f64 / s.links.len() as f64;
        assert!((0.4..0.95).contains(&covered), "rDNS coverage {covered}");
        // Every hostname carries a parseable location token (GH members,
        // or the EU upstream). HashMap order is arbitrary: check them all.
        for host in s.rdns.values() {
            assert!(
                host.contains(".gh.") || host.contains(".eu."),
                "hostname missing country token: {host}"
            );
        }
    }

    #[test]
    fn generic_congested_magnitudes_graded() {
        let spec = &paper_vps()[1]; // TIX: 12 ms and 14 ms entries
        let s = build_vp(spec, 3);
        let mags: Vec<f64> = s
            .links
            .iter()
            .filter(|l| matches!(l.kind, TruthKind::GenericCongested { .. }))
            .map(|l| {
                let lid = l.link_id;
                let buf = *s.net.link(lid).config().buffer_bytes.at(SimTime::from_date(2016, 6, 1));
                let cap = s.net.link(lid).capacity_at(SimTime::from_date(2016, 6, 1));
                buf * 8.0 / cap * 1e3 // saturated delay, ms
            })
            .collect();
        assert_eq!(mags.len(), 2);
        assert!(mags.contains(&12.0) && mags.contains(&14.0), "{mags:?}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = vp1();
        let b = vp1();
        assert_eq!(a.links.len(), b.links.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!(x.far, y.far);
            assert_eq!(x.prefix, y.prefix);
        }
    }
}
