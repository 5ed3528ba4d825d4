//! Quickstart: build a toy hosting network with one diurnally congested
//! peering link, run a four-week TSLP campaign, and read the verdict.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use african_ixp_congestion::prober::tslp::TslpTarget;
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::traffic::{DiurnalLoad, Shape};
use african_ixp_congestion::tslp::prelude::*;
use std::sync::Arc;

fn main() {
    // ---- 1. A miniature hosting network ----------------------------------
    //
    //   vp ── border ──(IXP port, 100 Mbps)── peer
    //
    // The peer's port runs hot on weekday business hours.
    let mut net = Network::new(2017);
    let vp = net.add_node(NodeKind::Host, Asn(65_001), "vp");
    let border = net.add_node(NodeKind::Router, Asn(65_001), "border");
    let peer = net.add_node(NodeKind::Router, Asn(65_002), "peer");

    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), border, Ipv4::new(10, 0, 0, 1), LinkConfig::default());

    let port = LinkConfig {
        capacity_bps: Schedule::constant(100e6),
        buffer_bytes: Schedule::constant(250_000.0), // 20 ms at 100 Mbps
        ..LinkConfig::default()
    };
    let busy = DiurnalLoad {
        base_bps: 55e6,
        weekday_peak_bps: 55e6, // > capacity on weekday afternoons
        weekend_peak_bps: 30e6,
        shape: Shape::Plateau { start_hour: 9.0, end_hour: 17.0, ramp_hours: 2.0 },
        noise_frac: 0.03,
        noise_bin: SimDuration::from_mins(5),
        noise: net.noise().child(1, 1),
    };
    net.connect(
        border,
        Ipv4::new(10, 0, 1, 1),
        peer,
        Ipv4::new(196, 49, 14, 10), // the far side sits on an IXP LAN
        port,
        Arc::new(busy),
        Arc::new(NoLoad),
    );

    // Routing: the peer announces 41.7.0.0/24 across the port.
    let prefix: Prefix = "41.7.0.0/24".parse().unwrap();
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
    net.add_route(border, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
    net.add_route(border, prefix, IfaceId(1));
    net.add_route(peer, Prefix::DEFAULT, IfaceId(0));
    net.add_route(peer, prefix, IfaceId(0));

    // ---- 2. Four weeks of TSLP probing ------------------------------------
    let target = TslpTarget {
        dst: prefix.addr(9),
        near_ttl: 1,
        far_ttl: 2,
        near_addr: Ipv4::new(10, 0, 0, 1),
        far_addr: Ipv4::new(196, 49, 14, 10),
    };
    let campaign = CampaignConfig::paper(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 29));
    println!("probing near={} far={} every 5 minutes for four weeks...", target.near_addr, target.far_addr);
    let (series, screened) = measure_link(&net, vp, &target, &campaign);
    println!(
        "collected {} rounds ({}); far validity {:.1}%",
        series.len(),
        if screened { "screened out as quiet" } else { "full fidelity" },
        series.far_validity() * 100.0
    );

    // ---- 3. The §5.2 assessment -------------------------------------------
    // A clean health report takes the series at face value (no masking).
    let verdict =
        assess_link(&series, &AssessConfig::default(), &HealthReport::clean(), &mut DetectorScratch::new());
    println!();
    println!("flagged (≥10 ms level shifts ≥30 min): {}", verdict.flagged);
    println!("recurring diurnal pattern:             {}", verdict.diurnal);
    println!("near side:                             {:?}", verdict.near_guard);
    println!("verdict — congested:                   {}", verdict.congested);
    println!();
    println!(
        "waveform: {} events, A_w = {:.1} ms, Δt_UD = {}, duty cycle {:.0}%",
        verdict.stats.count,
        verdict.stats.a_w_ms,
        verdict.stats.dt_ud,
        verdict.stats.duty_cycle * 100.0
    );
    if let Some(sustained) = verdict.sustained {
        println!("congestion is {}", if sustained { "sustained" } else { "transient" });
    }
    for e in verdict.events.iter().take(5) {
        println!("  event {} → {} ({:.1} ms)", e.start, e.end, e.magnitude_ms);
    }
    if verdict.events.len() > 5 {
        println!("  ... and {} more", verdict.events.len() - 5);
    }

    assert!(verdict.congested, "the quickstart link is congested by construction");
}
