//! One bench per figure of the paper (Fig. 1, 2, 3, 4): each benchmark
//! regenerates the figure's underlying measurement — a TSLP campaign over
//! the relevant case-study link and window, plus the §5.2 assessment — and
//! prints the waveform characteristics next to the paper's values once per
//! run.
//!
//! Absolute RTT values come from the simulated substrate; the *shape*
//! (who is elevated, when, by how much, with what loss) is the target.

use criterion::{criterion_group, criterion_main, Criterion};
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::*;
use ixp_topology::{build_vp, paper_vps, VpSubstrate};
use ixp_traffic::scenarios::dates;
use tslp_core::prelude::*;

/// Build VP1 (GIXA) and find a case-study link's probing target.
fn vp_target(vp_idx: usize, far_name: &str) -> (VpSubstrate, TslpTarget) {
    let spec = &paper_vps()[vp_idx];
    let s = build_vp(spec, 0xBEEF);
    let l = s.links.iter().find(|l| l.far_name == far_name).expect("case-study link");
    let t = TslpTarget { dst: l.dst, near_ttl: l.near_ttl, far_ttl: l.far_ttl, near_addr: l.near, far_addr: l.far };
    (s, t)
}

fn campaign(from: SimTime, to: SimTime) -> CampaignConfig {
    CampaignConfig::exact(from, to)
}

fn measure_and_assess(s: &VpSubstrate, t: &TslpTarget, from: SimTime, to: SimTime) -> Assessment {
    // measure_link walks a fresh per-target ProbeCtx: no queue-state reset.
    let (series, _) = measure_link(&s.net, s.vp, t, &campaign(from, to));
    assess_link(&series, &AssessConfig::default(), &HealthReport::clean(), &mut DetectorScratch::new())
}

fn fig1_ghanatel_phase1(c: &mut Criterion) {
    let (s, t) = vp_target(0, "GHANATEL");
    let (from, to) = (SimTime::from_date(2016, 3, 7), SimTime::from_date(2016, 4, 18));
    let a = measure_and_assess(&s, &t, from, to);
    eprintln!(
        "[fig1] GIXA-GHANATEL phase 1 (6 weeks): A_w = {:.1} ms (paper 27.9), Δt_UD = {} (paper ≈20 h), diurnal = {}",
        a.stats.a_w_ms, a.stats.dt_ud, a.diurnal
    );
    assert!(a.diurnal, "fig1 shape lost");
    c.bench_function("fig1_ghanatel_phase1", |b| {
        b.iter(|| measure_and_assess(&s, &t, from, SimTime::from_date(2016, 3, 21)))
    });
}

fn fig2_ghanatel_phase2(c: &mut Criterion) {
    let (s, t) = vp_target(0, "GHANATEL");
    let (from, to) = (dates::ghanatel_phase2_start(), dates::ghanatel_link_down());
    let a = measure_and_assess(&s, &t, from, to);
    eprintln!(
        "[fig2a] GIXA-GHANATEL phase 2: A_w = {:.1} ms (paper ≈10), diurnal = {}",
        a.stats.a_w_ms, a.diurnal
    );
    // Fig 2b: the loss series on the same link/window.
    let lc = LossCampaignConfig::paper(SimTime::from_date(2016, 7, 21), dates::ghanatel_link_down());
    let ls = measure_loss_series(&s.net, s.vp, t.dst, t.far_ttl, &lc);
    eprintln!(
        "[fig2b] loss over phase 2: mean {:.1}% max {:.1}% (paper: varied 0-85%)",
        ls.mean() * 100.0,
        ls.max() * 100.0
    );
    assert!(ls.max() > 0.3, "fig2b loss shape lost");
    c.bench_function("fig2_ghanatel_phase2", |b| {
        b.iter(|| measure_and_assess(&s, &t, from, SimTime::from_date(2016, 6, 29)))
    });
}

fn fig3_knet(c: &mut Criterion) {
    let (s, t) = vp_target(0, "KNET");
    let (from, to) = (dates::knet_congestion_start(), SimTime::from_date(2016, 9, 17));
    let a = measure_and_assess(&s, &t, from, to);
    eprintln!(
        "[fig3a] GIXA-KNET (6 weeks): A_w = {:.1} ms (paper 17.5), diurnal = {}, near flat = {}",
        a.stats.a_w_ms,
        a.diurnal,
        a.near_guard == NearGuard::Clean
    );
    let lc = LossCampaignConfig::paper(from, SimTime::from_date(2016, 8, 20));
    let ls = measure_loss_series(&s.net, s.vp, t.dst, t.far_ttl, &lc);
    eprintln!("[fig3b] loss: mean {:.2}% (paper: 0.1% average)", ls.mean() * 100.0);
    assert!(a.diurnal && ls.mean() < 0.02, "fig3 shape lost");
    c.bench_function("fig3_knet", |b| {
        b.iter(|| measure_and_assess(&s, &t, from, SimTime::from_date(2016, 8, 20)))
    });
}

fn fig4_netpage(c: &mut Criterion) {
    let (s, t) = vp_target(3, "NETPAGE");
    let p1 = measure_and_assess(&s, &t, dates::netpage_phase1_start(), dates::netpage_upgrade());
    let p2 = measure_and_assess(
        &s,
        &t,
        dates::netpage_upgrade(),
        dates::netpage_upgrade() + SimDuration::from_days(42),
    );
    eprintln!(
        "[fig4a] QCELL-NETPAGE phase 1: A_w = {:.1} ms (paper 10.7), Δt_UD = {} (paper 6h22m), diurnal = {}",
        p1.stats.a_w_ms, p1.stats.dt_ud, p1.diurnal
    );
    eprintln!(
        "[fig4b] after the upgrade: flagged = {} (paper: congestion disappeared)",
        p2.flagged
    );
    assert!(p1.diurnal && !p2.flagged, "fig4 shape lost");
    c.bench_function("fig4_netpage", |b| {
        b.iter(|| {
            measure_and_assess(&s, &t, dates::netpage_phase1_start(), SimTime::from_date(2016, 4, 11))
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = fig1_ghanatel_phase1, fig2_ghanatel_phase2, fig3_knet, fig4_netpage
}
criterion_main!(figures);
