//! Case studies seen from VP1 at GIXA (§6.2.1): the GIXA–GHANATEL transit
//! link (phases 1 and 2, Figures 1 and 2) and the GIXA–KNET slow-ICMP
//! elevation (Figure 3).
//!
//! Runs the real pipeline — bdrmap discovery, a year of TSLP, level-shift
//! analysis, record-route symmetry, loss campaigns — against the scripted
//! VP1 substrate, then prints the figures as ASCII plots and writes CSVs
//! next to the binary (`fig1.csv` …) for real plotting.
//!
//! ```sh
//! cargo run --release --example case_study_gixa
//! ```

use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::study::figures::{windows, Figure};
use african_ixp_congestion::study::prelude::*;
use african_ixp_congestion::topology::{build_vp, paper_vps};
use african_ixp_congestion::traffic::scenarios::dates;
use african_ixp_congestion::tslp::prelude::*;

fn main() {
    let spec = &paper_vps()[0]; // VP1 @ GIXA
    println!("building {} ({} @ {}) and running the campaign...", spec.name, spec.host_name, spec.ixp_name);
    let study = run_vp_study(spec, &VpStudyConfig::default());

    println!("\nbdrmap snapshots:");
    for s in &study.snapshots {
        println!(
            "  {}: {} links ({} peering), {} neighbors ({} peers), congested peering links: {} [recall {:.0}%]",
            s.date.date(),
            s.links,
            s.peering_links,
            s.neighbors,
            s.peers,
            s.congested_peering,
            s.accuracy.neighbor_recall * 100.0
        );
    }

    // ---- GIXA–GHANATEL ----------------------------------------------------
    let ghanatel = study
        .outcomes
        .iter()
        .find(|o| o.far_name == "GHANATEL")
        .expect("GHANATEL link not discovered");
    println!("\n== GIXA–GHANATEL ==");
    report_outcome(ghanatel);

    let series = ghanatel.series.as_ref().expect("series kept for case studies");
    // Phase-resolved characterization, as in §6.2.1.
    for (label, from, to, paper_aw) in [
        ("phase 1", dates::ghanatel_phase1_start(), dates::ghanatel_phase2_start(), 27.9),
        ("phase 2", dates::ghanatel_phase2_start(), dates::ghanatel_link_down(), 10.0),
    ] {
        let w = series.window(from, to);
        let a = assess_link(&w, &AssessConfig::default(), &HealthReport::clean(), &mut DetectorScratch::new());
        println!(
            "  {label}: A_w = {:.1} ms (paper ≈ {paper_aw}), Δt_UD = {}, {} events, diurnal: {}",
            a.stats.a_w_ms, a.stats.dt_ud, a.stats.count, a.diurnal
        );
    }
    let after = series.window(dates::ghanatel_link_down(), spec.measure_end);
    println!(
        "  after 06/08/2016 the far end answers {:.1}% of probes (paper: unsuccessful)",
        after.far_validity() * 100.0
    );

    let (f1a, f1b) = windows::fig1();
    let fig1 = Figure::rtt("fig1", "RTTs GIXA–GHANATEL, part of phase 1", series, f1a, f1b, 400);
    print!("{}", fig1.render_ascii(100, 14));
    std::fs::write("fig1.csv", fig1.to_csv()).expect("write fig1.csv");
    std::fs::write("fig1.svg", fig1.to_svg(900, 320)).expect("write fig1.svg");

    let (f2a, f2b) = windows::fig2();
    let fig2a = Figure::rtt("fig2a", "RTTs GIXA–GHANATEL, phase 2", series, f2a, f2b, 400);
    print!("{}", fig2a.render_ascii(100, 14));
    std::fs::write("fig2a.csv", fig2a.to_csv()).expect("write fig2a.csv");
    std::fs::write("fig2a.svg", fig2a.to_svg(900, 320)).expect("write fig2a.svg");

    if let Some(loss) = &ghanatel.loss {
        println!(
            "loss (phase 2 campaign): mean {:.1}%, max {:.1}%, during events {:.1}% vs outside {:.1}% (paper: 0–85%)",
            loss.mean * 100.0,
            loss.max * 100.0,
            loss.during_events * 100.0,
            loss.outside_events * 100.0
        );
    }

    // Fig. 2b / 3b: the loss-rate series themselves, measured on a fresh
    // replica substrate (the study consumed the campaign one).
    let replica = build_vp(spec, VpStudyConfig::default().seed);
    let gh_truth = replica.links.iter().find(|l| l.far_name == "GHANATEL").unwrap().clone();
    let lc = LossCampaignConfig::paper(SimTime::from_date(2016, 7, 21), dates::ghanatel_link_down());
    let ls = measure_loss_series(&replica.net, replica.vp, gh_truth.dst, gh_truth.far_ttl, &lc);
    let fig2b = Figure::loss("fig2b", "Packet loss GIXA–GHANATEL, phase 2", &ls, lc.start, lc.end);
    print!("{}", fig2b.render_ascii(100, 10));
    std::fs::write("fig2b.csv", fig2b.to_csv()).expect("write fig2b.csv");
    std::fs::write("fig2b.svg", fig2b.to_svg(900, 320)).expect("write fig2b.svg");

    // ---- GIXA–KNET ---------------------------------------------------------
    let knet = study.outcomes.iter().find(|o| o.far_name == "KNET").expect("KNET link not discovered");
    println!("\n== GIXA–KNET ==");
    report_outcome(knet);
    let kseries = knet.series.as_ref().expect("series kept");
    let (f3a, f3b) = windows::fig3();
    let fig3a = Figure::rtt("fig3a", "RTTs GIXA–KNET", kseries, f3a, f3b, 400);
    print!("{}", fig3a.render_ascii(100, 14));
    std::fs::write("fig3a.csv", fig3a.to_csv()).expect("write fig3a.csv");
    std::fs::write("fig3a.svg", fig3a.to_svg(900, 320)).expect("write fig3a.svg");
    if let Some(loss) = &knet.loss {
        println!("loss: mean {:.2}% (paper: 0.1% average) max {:.1}%", loss.mean * 100.0, loss.max * 100.0);
    }
    let kn_truth = replica.links.iter().find(|l| l.far_name == "KNET").unwrap().clone();
    let lk = LossCampaignConfig::paper(dates::knet_congestion_start(), SimTime::from_date(2016, 11, 1));
    let kls = measure_loss_series(&replica.net, replica.vp, kn_truth.dst, kn_truth.far_ttl, &lk);
    let fig3b = Figure::loss("fig3b", "Packet loss GIXA–KNET", &kls, lk.start, lk.end);
    print!("{}", fig3b.render_ascii(100, 10));
    std::fs::write("fig3b.csv", fig3b.to_csv()).expect("write fig3b.csv");
    std::fs::write("fig3b.svg", fig3b.to_svg(900, 320)).expect("write fig3b.svg");
    println!(
        "note (§6.2.1): the far-side elevation here is scripted as ICMP slow path, not queueing —\n\
         TSLP cannot tell the difference, and the low loss rate is the published counter-evidence."
    );

    println!("\nwrote fig1, fig2a, fig2b, fig3a, fig3b as .csv and .svg");
}

fn report_outcome(o: &LinkOutcome) {
    println!(
        "  link {} → {} (AS{}), at IXP: {}",
        o.near, o.far, o.far_asn.0, o.at_ixp
    );
    println!(
        "  flagged: {}, diurnal: {}, near side: {:?}, symmetry: {:?}",
        o.assessment.flagged, o.assessment.diurnal, o.assessment.near_guard, o.symmetry
    );
    println!(
        "  congested: {} ({}), A_w = {:.1} ms, Δt_UD = {}, {} events",
        o.congested(),
        match o.assessment.sustained {
            Some(true) => "sustained",
            Some(false) => "transient",
            None => "n/a",
        },
        o.assessment.stats.a_w_ms,
        o.assessment.stats.dt_ud,
        o.assessment.stats.count
    );
    let sweep: Vec<String> = o.sweep.iter().map(|(t, f, d)| format!("{t}ms:{}{}", if *f { "F" } else { "-" }, if *d { "D" } else { "-" })).collect();
    println!("  threshold sweep: {}", sweep.join(" "));
}
