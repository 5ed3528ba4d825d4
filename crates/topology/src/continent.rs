//! Continent-scale substrate generation.
//!
//! The paper studies six vantage points; the roadmap's north star is the
//! whole African IXP substrate — hundreds of exchange points, tens of
//! thousands of member ASes, 100k+ interdomain links. This module generates
//! that shape as one [`Network`], exercising the compact representation end
//! to end: interned names, the sorted address index, bulk
//! [`Network::add_routes`] installs into prefix-indexed forwarding tables,
//! and hierarchical address allocation so the core routes *aggregates*
//! while borders route member /24s.
//!
//! ```text
//!   vp host ── core router ──┬── IXP 0 border ──┬── member 0 (k links)
//!                            │                  ├── member 1 …
//!                            ├── IXP 1 border ── …
//!                            └── IXP n border ── …
//! ```
//!
//! Address plan (all deterministic in the spec + seed):
//!
//! - host fabric under `10.0.0.0/8`: vp–core on `10.0.0.0/30`, core–border
//!   for IXP *i* on `10.1.0.0/16` at offset `2i`;
//! - member link *c* (a global counter) gets the /24 whose /8 is
//!   `41 + (c >> 16)` and whose middle 16 bits are `c & 0xffff` — border
//!   side `.1`, member side `.2`, probing destination `.3` (unowned, so
//!   far-TTL probes expire at the member exactly as on the paper substrate);
//! - each IXP's counter run is aligned up to a 256-multiple, so every IXP
//!   owns whole /16s: the core's table holds one route per /16 (hundreds),
//!   each border one route per member /24 (thousands).
//!
//! TTLs from the vp: 1 = core, 2 = border (near), 3 = member (far).
//! [`ContinentSpec::with_total_links`] sizes a substrate to a link count.

use ixp_simnet::link::{LinkConfig, Schedule};
use ixp_simnet::prelude::*;
use ixp_simnet::rng::HashNoise;
use ixp_simnet::time::SimDuration;
use ixp_traffic::profile::{DiurnalLoad, Shape};
use std::sync::Arc;

/// Shape parameters for a generated continent substrate.
#[derive(Clone, Copy, Debug)]
pub struct ContinentSpec {
    /// Number of exchange points (each contributes one border router).
    pub ixps: u32,
    /// Member ASes per exchange point (each contributes one router).
    pub members_per_ixp: u32,
    /// Parallel ports per member: each member runs `1..=max` links, picked
    /// deterministically, so the expected link count is
    /// `ixps * members_per_ixp * (1 + max) / 2`.
    pub max_links_per_member: u8,
    /// Fraction of member links carrying a diurnal overload (congested
    /// ground truth); the rest are idle.
    pub congested_fraction: f64,
}

impl ContinentSpec {

    /// A shape whose expected link count is roughly `links` — the bench
    /// scaling knob. Exchange-point count grows with the target so the
    /// border fan-out stays realistic (hundreds of links per border).
    pub fn with_total_links(links: u32) -> ContinentSpec {
        let max_links_per_member = 3u8;
        let per_member = (1 + max_links_per_member as u32) as f64 / 2.0;
        let ixps = (links / 500).clamp(2, 300);
        let members_per_ixp =
            ((links as f64 / per_member / ixps as f64).round() as u32).max(1);
        ContinentSpec {
            ixps,
            members_per_ixp,
            max_links_per_member,
            congested_fraction: 0.02,
        }
    }

    /// Expected link count for this shape (exact for `max_links_per_member
    /// == 1`, a close estimate otherwise).
    pub fn expected_links(&self) -> u32 {
        (self.ixps as u64
            * self.members_per_ixp as u64
            * (1 + self.max_links_per_member as u64)
            / 2) as u32
    }
}

/// Probing coordinates and ground truth for one generated member link.
///
/// The same five coordinates a `TslpTarget` needs, without depending on the
/// prober crate from the generator; callers map field-for-field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemberLink {
    /// The simulator link (border ↔ member).
    pub link_id: LinkId,
    /// Probing destination routed across this link (unowned `.3`).
    pub dst: Ipv4,
    /// Expected near responder: the border's address on its core uplink.
    pub near: Ipv4,
    /// Expected far responder: the member's side of this link.
    pub far: Ipv4,
    /// TTL expiring at the border.
    pub near_ttl: u8,
    /// TTL expiring at the member.
    pub far_ttl: u8,
    /// Ground truth: does this link carry the diurnal overload?
    pub congested: bool,
}

/// A generated continent substrate.
pub struct Continent {
    /// The network: one vp, one core, `ixps` borders, all members.
    pub net: Network,
    /// The vantage-point host.
    pub vp: NodeId,
    /// Every member link with its probing coordinates, in generation order.
    pub links: Vec<MemberLink>,
}

/// The /24 for global member-link counter `c`.
fn link_prefix(c: u32) -> Prefix {
    let octet = 41 + (c >> 16);
    assert!(octet < 100, "link counter exhausted the address plan");
    Prefix::new(Ipv4((octet << 24) | ((c & 0xffff) << 8)), 24)
}

/// A business-hours diurnal overload for a 100 Mbps congested member port.
fn congested_load(noise: HashNoise) -> (LinkConfig, Arc<dyn OfferedLoad>) {
    let cap = 1e8;
    let magnitude_ms = noise.range_f64(1, 0, 8.0, 20.0);
    let load = DiurnalLoad {
        base_bps: 0.5 * cap,
        weekday_peak_bps: 0.65 * cap,
        weekend_peak_bps: 0.48 * cap,
        shape: Shape::Plateau { start_hour: 9.0, end_hour: 17.0, ramp_hours: 2.0 },
        noise_frac: 0.03,
        noise_bin: SimDuration::from_mins(5),
        noise: noise.child(2, 0),
    };
    let cfg = LinkConfig {
        capacity_bps: Schedule::constant(cap),
        buffer_bytes: Schedule::constant(magnitude_ms * cap / 8.0 / 1e3),
        ..LinkConfig::default()
    };
    (cfg, Arc::new(load))
}

/// Build a continent substrate from `spec` and `seed`.
///
/// Deterministic: the same inputs produce the same network, addresses, and
/// congested set. Route installation goes through the bulk
/// [`Network::add_routes`] path — one forwarding-table rebuild per router.
pub fn build_continent(spec: &ContinentSpec, seed: u64) -> Continent {
    let noise = HashNoise::new(seed ^ 0xC0_4714E47);
    let mut net = Network::new(noise.u64(0, 0));
    let host_asn = Asn(65_001);

    let vp = net.add_node(NodeKind::Host, host_asn, "continent-vp");
    let core = net.add_node(NodeKind::Router, host_asn, "continent-core");
    let vp_addr = Ipv4::new(10, 0, 0, 2);
    let core_addr = Ipv4::new(10, 0, 0, 1);
    let fabric = LinkConfig {
        capacity_bps: Schedule::constant(1e10),
        prop_delay: SimDuration::from_micros(80),
        ..LinkConfig::default()
    };
    net.connect_idle(vp, vp_addr, core, core_addr, fabric.clone());
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));

    let mut links = Vec::with_capacity(spec.expected_links() as usize);
    let mut core_routes: Vec<(Prefix, IfaceId)> = vec![(Prefix::new(vp_addr, 32), IfaceId(0))];
    let mut counter = 0u32; // global member-link counter

    for i in 0..spec.ixps {
        let border = net.add_node(NodeKind::Router, Asn(64_512 + i), format!("ixp{i}-border"));
        let uplink_base = 0x0A01_0000 + 2 * i;
        let (core_side, border_side) = (Ipv4(uplink_base), Ipv4(uplink_base + 1));
        let uplink = net.connect_idle(core, core_side, border, border_side, fabric.clone());
        let core_if = net.link(uplink).arrival_end(Dir::BtoA).1;
        let border_up_if = net.link(uplink).arrival_end(Dir::AtoB).1;
        let mut border_routes: Vec<(Prefix, IfaceId)> = vec![(Prefix::DEFAULT, border_up_if)];

        // Align to a /16 boundary: this IXP's /24s fill whole /16s, so the
        // core routes one aggregate per /16 instead of one route per link.
        counter = (counter + 255) & !255;
        let run_start = counter;

        for m in 0..spec.members_per_ixp {
            let member_asn = Asn(36_000 + i * spec.members_per_ixp + m);
            let member =
                net.add_node(NodeKind::Router, member_asn, format!("ixp{i}-as{}", member_asn.0));
            let k = 1 + (noise.u64(3, ((i as u64) << 32) | m as u64)
                % spec.max_links_per_member.max(1) as u64) as u8;
            let mut member_routes: Vec<(Prefix, IfaceId)> = Vec::with_capacity(k as usize + 1);
            for _ in 0..k {
                let prefix = link_prefix(counter);
                counter += 1;
                let (near_side, far_side) = (prefix.addr(1), prefix.addr(2));
                let congested = noise.chance(4, counter as u64, spec.congested_fraction);
                let lid = if congested {
                    let (cfg, load) = congested_load(noise.child(5, counter as u64));
                    net.connect(border, near_side, member, far_side, cfg, load, Arc::new(NoLoad))
                } else {
                    net.connect_idle(border, near_side, member, far_side, LinkConfig::default())
                };
                let border_if = net.link(lid).arrival_end(Dir::BtoA).1;
                let member_if = net.link(lid).arrival_end(Dir::AtoB).1;
                border_routes.push((prefix, border_if));
                if member_routes.is_empty() {
                    member_routes.push((Prefix::DEFAULT, member_if));
                }
                // The prefix faces its own port: deeper probes exit the way
                // they came in, terminating traceroutes at the border.
                member_routes.push((prefix, member_if));
                links.push(MemberLink {
                    link_id: lid,
                    dst: prefix.addr(3),
                    near: border_side,
                    far: far_side,
                    near_ttl: 2,
                    far_ttl: 3,
                    congested,
                });
            }
            net.add_routes(member, member_routes);
        }

        net.add_routes(border, border_routes);
        // One core aggregate per /16 this IXP's run occupies.
        let mut c16 = run_start >> 8;
        while c16 <= (counter.saturating_sub(1)) >> 8 && counter > run_start {
            let first = link_prefix(c16 << 8);
            core_routes.push((Prefix::new(first.base(), 16), core_if));
            c16 += 1;
        }
    }

    net.add_routes(core, core_routes);
    Continent { net, vp, links }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_prober::tslp::{tslp_probe, TslpConfig, TslpTarget};
    use ixp_simnet::time::SimTime;

    fn target_of(l: &MemberLink) -> TslpTarget {
        TslpTarget {
            dst: l.dst,
            near_ttl: l.near_ttl,
            far_ttl: l.far_ttl,
            near_addr: l.near,
            far_addr: l.far,
        }
    }

    #[test]
    fn small_continent_builds_and_counts() {
        let spec = ContinentSpec {
            ixps: 3,
            members_per_ixp: 10,
            max_links_per_member: 2,
            congested_fraction: 0.1,
        };
        let c = build_continent(&spec, 7);
        // vp + core + 3 borders + 30 members.
        assert_eq!(c.net.node_count(), 2 + 3 + 30);
        // vp–core + 3 uplinks + member links.
        assert_eq!(c.net.link_count(), 4 + c.links.len());
        let expect = spec.expected_links() as f64;
        assert!((c.links.len() as f64 - expect).abs() / expect < 0.5, "{}", c.links.len());
    }

    #[test]
    fn probes_walk_every_ttl_rung() {
        let spec = ContinentSpec::with_total_links(200);
        let c = build_continent(&spec, 11);
        let mut ctx = c.net.probe_ctx(0);
        let l = c.links.iter().find(|l| !l.congested).unwrap();
        let s = tslp_probe(&c.net, &mut ctx, c.vp, &target_of(l), &TslpConfig::default(), SimTime::ZERO);
        assert!(s.near.is_some() && s.far.is_some(), "{s:?}");
        assert!(s.near_addr_ok && s.far_addr_ok, "{s:?}");
        assert!(s.far.unwrap() > s.near.unwrap());
    }

    #[test]
    fn congested_links_show_midday_elevation() {
        let spec = ContinentSpec {
            congested_fraction: 0.2,
            ..ContinentSpec::with_total_links(100)
        };
        let c = build_continent(&spec, 13);
        let l = c.links.iter().find(|l| l.congested).expect("a congested link");
        let mut ctx = c.net.probe_ctx(0);
        // Wednesday 14:00, deep in the plateau (queues integrate forward, so
        // probe the quiet sample first).
        let cold = SimTime::from_datetime(2016, 3, 16, 4, 0, 0);
        let quiet = tslp_probe(&c.net, &mut ctx, c.vp, &target_of(l), &TslpConfig::default(), cold);
        let hot = SimTime::from_datetime(2016, 3, 16, 14, 0, 0);
        let busy = tslp_probe(&c.net, &mut ctx, c.vp, &target_of(l), &TslpConfig::default(), hot);
        let (q, b) = (quiet.far.expect("quiet far"), busy.far.expect("busy far"));
        assert!(b.as_millis_f64() > q.as_millis_f64() + 4.0, "quiet {q} busy {b}");
        assert!(busy.near.unwrap().as_millis_f64() < 2.0, "near stays flat");
    }

    #[test]
    fn with_total_links_hits_target() {
        for target in [1_000u32, 10_000] {
            let spec = ContinentSpec::with_total_links(target);
            let c = build_continent(&spec, 3);
            let got = c.links.len() as f64;
            assert!(
                (got - target as f64).abs() / (target as f64) < 0.35,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        let spec = ContinentSpec::with_total_links(300);
        let (a, b) = (build_continent(&spec, 5), build_continent(&spec, 5));
        assert_eq!(a.links, b.links);
        assert_eq!(a.net.node_count(), b.net.node_count());
    }

    #[test]
    fn core_routes_aggregates_not_links() {
        let spec = ContinentSpec::with_total_links(2_000);
        let c = build_continent(&spec, 9);
        // Core holds /16 aggregates plus the vp /32 — far fewer entries than
        // member links.
        let core_routes = c.net.node(NodeId(1)).fwd.len();
        assert!(core_routes < c.links.len() / 4, "core has {core_routes} routes");
    }
}
