//! Case study seen from VP4 in QCELL at SIXP (§6.2.2): the QCELL–NETPAGE
//! link saturates its 10 Mbps port on Google-cache demand until the
//! 28/04/2016 upgrade to 1 Gbps clears it (Figure 4a/4b).
//!
//! ```sh
//! cargo run --release --example case_study_sixp
//! ```

use african_ixp_congestion::study::figures::{windows, Figure};
use african_ixp_congestion::study::prelude::*;
use african_ixp_congestion::topology::paper_vps;
use african_ixp_congestion::traffic::scenarios::dates;
use african_ixp_congestion::tslp::prelude::*;

fn main() {
    let spec = &paper_vps()[3]; // VP4 @ SIXP, hosted by QCell AS37309
    println!("building {} ({} @ {}) and running the campaign...", spec.name, spec.host_name, spec.ixp_name);
    let study = run_vp_study(spec, &VpStudyConfig::default());

    println!("\nbdrmap snapshots (paper: 14 (11) / 4 (3) / 6 (5) links, 7/4/6 neighbors):");
    for s in &study.snapshots {
        println!(
            "  {}: {} links ({} peering), {} neighbors ({} peers), congested: {}",
            s.date.date(),
            s.links,
            s.peering_links,
            s.neighbors,
            s.peers,
            s.congested_peering
        );
    }

    let netpage = study
        .outcomes
        .iter()
        .find(|o| o.far_name == "NETPAGE")
        .expect("NETPAGE link not discovered");

    println!("\n== QCELL–NETPAGE ==");
    println!("  link {} → {} (AS{}), at IXP: {}", netpage.near, netpage.far, netpage.far_asn.0, netpage.at_ixp);
    println!(
        "  congested: {} — {} (paper: transient, mitigated by the 28/04/2016 upgrade)",
        netpage.congested(),
        match netpage.assessment.sustained {
            Some(true) => "sustained",
            Some(false) => "transient",
            None => "n/a",
        }
    );

    let series = netpage.series.as_ref().expect("series kept for case studies");
    // Phase-resolved characterization.
    let phase = |from, to| {
        let (cfg, clean) = (AssessConfig::default(), HealthReport::clean());
        assess_link(&series.window(from, to), &cfg, &clean, &mut DetectorScratch::new())
    };
    let p1 = phase(dates::netpage_phase1_start(), dates::netpage_upgrade());
    let p2 = phase(dates::netpage_upgrade(), spec.measure_end);
    println!(
        "  phase 1: A_w = {:.1} ms (paper: 10.7), Δt_UD = {} (paper ≈ 6h22m), {} events, diurnal: {}",
        p1.stats.a_w_ms, p1.stats.dt_ud, p1.stats.count, p1.diurnal
    );
    println!(
        "  phase 2 (after upgrade): flagged: {}, events: {} (paper: congestion disappeared)",
        p2.flagged,
        p2.stats.count
    );

    // Weekday vs weekend spike heights (§6.2.2: ~35 ms weekday, ~15 ms weekend).
    let (wd, we) = weekday_weekend_peaks(series);
    println!("  phase-1 median daily peak: weekdays {wd:.1} ms (paper ≈ 35), weekends {we:.1} ms (paper ≈ 15)");

    let (a4a, b4a) = windows::fig4a();
    let fig4a = Figure::rtt("fig4a", "RTTs QCELL–NETPAGE, phase 1 (10 Mbps port)", series, a4a, b4a, 400);
    print!("{}", fig4a.render_ascii(100, 14));
    std::fs::write("fig4a.csv", fig4a.to_csv()).expect("write fig4a.csv");
    std::fs::write("fig4a.svg", fig4a.to_svg(900, 320)).expect("write fig4a.svg");

    let (a4b, b4b) = windows::fig4b();
    let fig4b = Figure::rtt("fig4b", "RTTs QCELL–NETPAGE, phase 2 (after the 1 Gbps upgrade)", series, a4b, b4b, 400);
    print!("{}", fig4b.render_ascii(100, 14));
    std::fs::write("fig4b.csv", fig4b.to_csv()).expect("write fig4b.csv");
    std::fs::write("fig4b.svg", fig4b.to_svg(900, 320)).expect("write fig4b.svg");

    println!("\nwrote fig4a.{{csv,svg}}, fig4b.{{csv,svg}}");
    assert!(netpage.congested());
    assert_eq!(netpage.assessment.sustained, Some(false), "the upgrade must make it transient");
}

/// Median of per-day far-RTT maxima, split weekday/weekend, over phase 1.
fn weekday_weekend_peaks(series: &african_ixp_congestion::tslp::series::LinkSeries) -> (f64, f64) {
    let w = series.window(dates::netpage_phase1_start(), dates::netpage_upgrade());
    let mut weekday_peaks = Vec::new();
    let mut weekend_peaks = Vec::new();
    let per_day = (24 * 60 / 5) as usize;
    let days = w.len() / per_day;
    for d in 0..days {
        let t = w.timestamp(d * per_day);
        let peak = w.far_ms[d * per_day..(d + 1) * per_day]
            .iter()
            .filter(|v| v.is_finite())
            .cloned()
            .fold(0.0f64, f64::max);
        if peak > 0.0 {
            if t.is_weekend() {
                weekend_peaks.push(peak);
            } else {
                weekday_peaks.push(peak);
            }
        }
    }
    (median(weekday_peaks), median(weekend_peaks))
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}
