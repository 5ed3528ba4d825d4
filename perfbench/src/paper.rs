//! `paper_case_studies`: the paper's own workload. `run_vp_study` on VP1
//! (GIXA, GHANATEL and KNET) and VP4 (SIXP, NETPAGE) over the full 13-month
//! window with screening, record-route and loss follow-ups, on two campaign
//! workers. Detection does most of the work.

use crate::chain::{self, PoolTotals, Worker};
use crate::outcome::{set_setup_s, timed, with_peak_rss, Outcome, THREADS};
use crate::spans::{self, Span, SpanLog};
use crate::stats::median;
use ixp_bdrmap::infer::{run_bdrmap, BdrmapConfig, InferredLink};
use ixp_bdrmap::ipasn::IpAsnMapper;
use ixp_prober::rr::{record_route_symmetry, Symmetry};
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::{Asn, Ipv4};
use ixp_simnet::rng::mix;
use ixp_simnet::time::SimDuration;
use ixp_study::groundtruth::truth_expects_congested;
use ixp_study::{confusion, run_vp_study, VpStudy, VpStudyConfig, THRESHOLDS_MS};
use ixp_topology::{build_vp, paper_directory, paper_vps, TruthKind, VpSpec, VpSubstrate};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use tslp_core::campaign::CampaignConfig;
use tslp_core::lossanalysis::{measure_loss_series, LossCampaignConfig};

/// The substrate seed EXPERIMENTS.md was measured at. The workload is the
/// paper's own substrate, so every benchmark seed runs it; the benchmark
/// seed drives the detector's bootstrap permutations instead (see
/// [`config`]). Substrate seeds change the discovered link population by
/// up to a third, and links per second with it.
pub const PAPER_SEED: u64 = 0xAF12_2017;

/// Table 1 rows at the paper seed, per threshold: flagged (diurnal). From
/// EXPERIMENTS.md.
pub const PAPER_TABLE1: [(&str, [(usize, usize); 4]); 2] =
    [("VP1", [(5, 2); 4]), ("VP4", [(1, 1); 4])];

/// The case studies each VP must call congested.
pub const CASES: [(&str, &str); 3] = [("VP1", "GHANATEL"), ("VP1", "KNET"), ("VP4", "NETPAGE")];

/// The two vantage points.
pub fn specs() -> Vec<VpSpec> {
    let all = paper_vps();
    vec![all[0].clone(), all[3].clone()]
}

/// Study configuration for benchmark seed `seed`: paper defaults (full
/// window, screening, RR and loss on) on [`THREADS`] workers, with the
/// bootstrap stream offset by `seed` (seed 0 is the default stream).
pub fn config(seed: u64) -> VpStudyConfig {
    let mut cfg = VpStudyConfig {
        seed: PAPER_SEED,
        threads: THREADS,
        ..VpStudyConfig::default()
    };
    cfg.assess.detector.seed = cfg.assess.detector.seed.wrapping_add(seed);
    cfg
}

/// What the checks look at in one VP's result, from either pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyView {
    /// VP name.
    pub vp: &'static str,
    /// Probed links (near, far), in probing order.
    pub links: Vec<(Ipv4, Ipv4)>,
    /// Table 1 row: (threshold, flagged, diurnal).
    pub row: Vec<(f64, usize, usize)>,
    /// Far-AS names of links called congested, in probing order.
    pub congested: Vec<String>,
    /// Ground-truth precision and recall of the congested verdict.
    pub precision: f64,
    /// See `precision`.
    pub recall: f64,
    /// Quarantined links.
    pub quarantined: usize,
}

impl StudyView {
    /// The view of a `run_vp_study` result.
    pub fn of(study: &VpStudy) -> StudyView {
        let c = confusion(study);
        StudyView {
            vp: study.spec.name,
            links: study.outcomes.iter().map(|o| (o.near, o.far)).collect(),
            row: study.table1_row(),
            congested: study
                .congested_links()
                .iter()
                .map(|o| o.far_name.clone())
                .collect(),
            precision: c.precision(),
            recall: c.recall(),
            quarantined: study.integrity_summary().quarantined,
        }
    }
}

/// Check one VP's result. `discovered` is the link list set-up inferred.
pub fn check_view(out: &mut Outcome, seed: u64, v: &StudyView, discovered: &[(Ipv4, Ipv4)]) {
    out.check(v.quarantined == 0, || {
        format!("{}: {} links quarantined", v.vp, v.quarantined)
    });
    out.check(v.links == discovered, || {
        format!("{}: probed links differ from the bdrmap inference", v.vp)
    });
    for (vp, name) in CASES.iter().filter(|(vp, _)| *vp == v.vp) {
        out.check(v.congested.iter().any(|c| c == name), || {
            format!("{vp}: {name} not called congested")
        });
    }
    out.check(v.precision == 1.0 && v.recall == 1.0, || {
        format!(
            "{}: ground-truth precision {} recall {}",
            v.vp, v.precision, v.recall
        )
    });
    if seed == 0 {
        if let Some((_, want)) = PAPER_TABLE1.iter().find(|(vp, _)| *vp == v.vp) {
            let got: Vec<(usize, usize)> = v.row.iter().map(|&(_, f, d)| (f, d)).collect();
            out.check(got == want, || {
                format!("{}: Table 1 row {got:?}, EXPERIMENTS.md has {want:?}", v.vp)
            });
        }
    }
}

/// bdrmap at the VP's three snapshot dates, as the study runs it: one
/// discovery context across snapshots, links deduplicated by (near, far).
pub fn discover(
    sub: &VpSubstrate,
    spec: &VpSpec,
    substrate_seed: u64,
    mut log: Option<&mut SpanLog>,
) -> Vec<InferredLink> {
    let dir = paper_directory();
    let siblings: HashSet<u32> = sub
        .orgs
        .sibling_pairs()
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .filter(|&a| sub.orgs.are_siblings(Asn(a), spec.host_asn))
        .collect();
    let mut ctx = sub.net.probe_ctx(mix(&[substrate_seed, 0xbd]));
    let mut seen = HashSet::new();
    let mut links = Vec::new();
    for (k, &snap) in spec.snapshots.iter().enumerate() {
        let mapper = IpAsnMapper::new(&sub.bgp, &sub.delegations, &dir);
        let mut call = || {
            run_bdrmap(
                &sub.net,
                &mut ctx,
                sub.vp,
                spec.host_asn,
                &siblings,
                &mapper,
                &BdrmapConfig::default(),
                snap,
            )
        };
        let result = match log.as_deref_mut() {
            Some(log) => log.span("bdrmap.run_bdrmap", k as u64, |_| call()),
            None => call(),
        };
        for l in result.links {
            if seen.insert((l.near, l.far)) {
                links.push(l);
            }
        }
    }
    links
}

/// Everything a run of the timed loop needs that is not the study itself:
/// per VP, the discovered link list the study must probe.
fn set_up() -> Vec<Vec<(Ipv4, Ipv4)>> {
    specs()
        .iter()
        .map(|spec| {
            let sub = build_vp(spec, PAPER_SEED);
            discover(&sub, spec, PAPER_SEED, None)
                .iter()
                .map(|l| (l.near, l.far))
                .collect()
        })
        .collect()
}

/// The untraced run: passes over both VPs until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let (discovered, first_setup_s) = timed(set_up);
    let specs = specs();
    let cfg = config(seed);
    let started = Instant::now();
    let (mut link_rates, mut sample_rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<StudyView>> = None;
    let mut passes = 0;
    loop {
        let t0 = Instant::now();
        let mut views = Vec::new();
        let (mut links, mut samples) = (0usize, 0u64);
        let ((), pass_rss) = with_peak_rss(|| {
            for spec in &specs {
                let (study, dt) = timed(|| run_vp_study(spec, &cfg));
                links += study.outcomes.len();
                samples += study.probe_rounds / 2;
                out.line(format!(
                    "pass {}: {} {} links ({} screened) in {dt:.3} s",
                    passes + 1,
                    spec.name,
                    study.outcomes.len(),
                    study.screened
                ));
                views.push(StudyView::of(&study));
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        rss.push(pass_rss);
        passes += 1;
        link_rates.push(links as f64 / dt);
        sample_rates.push(samples as f64 / dt);
        out.attempted += links as u64;
        out.failed += views.iter().map(|v| v.quarantined as u64).sum::<u64>();
        for (v, d) in views.iter().zip(&discovered) {
            check_view(out, seed, v, d);
        }
        match &first {
            None => first = Some(views),
            Some(f) => out.check(*f == views, || format!("pass {passes} differs from pass 1")),
        }
        if started.elapsed().as_secs_f64() >= seconds || !out.failures.is_empty() {
            break;
        }
    }
    set_setup_s(out, first_setup_s, set_up);
    for v in first.iter().flatten() {
        out.line(format!(
            "{} Table 1 {:?}, congested {:?}",
            v.vp, v.row, v.congested
        ));
    }
    out.set("links_per_s", median(&link_rates));
    out.set("ingest_samples_per_s", median(&sample_rates));
    out.set("peak_rss_mb", median(&rss));
    out.fact("vps", "VP1,VP4");
    out.fact("links", discovered.iter().map(Vec::len).sum::<usize>());
    out.fact("substrate_seed", cfg.seed);
    out.fact("bootstrap_seed", cfg.assess.detector.seed);
    out.fact("passes", passes);
    out.fact("campaign_workers", THREADS);
    out.fact(
        "warmup",
        "none: every pass is timed; throughput is the median over passes",
    );
}

/// One link's result from the rebuilt pipeline.
struct Traced {
    near: Ipv4,
    far: Ipv4,
    far_name: String,
    sweep: Vec<(f64, bool, bool)>,
    symmetry: Option<Symmetry>,
    congested: bool,
    truth: Option<TruthKind>,
    rr: bool,
    loss: bool,
}

/// Per-VP totals of the rebuilt pipeline.
#[derive(Default)]
struct VpTotals {
    pools: PoolTotals,
    rr_checks: u64,
    loss_campaigns: u64,
    bdrmap_links: u64,
}

/// The study rebuilt from public layer calls, with spans. Mirrors
/// `run_vp_study` step for step up to the verdicts (geolocation and the
/// Table 2 scoring, which no verdict reads, are left out).
fn traced_vp(
    spec: &VpSpec,
    cfg: &VpStudyConfig,
    top: &mut SpanLog,
    epoch: Instant,
    logs: &mut Vec<SpanLog>,
    tot: &mut VpTotals,
) -> StudyView {
    let sub = top.span("topology.build_vp", 0, |_| build_vp(spec, cfg.seed));
    let discovered = discover(&sub, spec, cfg.seed, Some(top));
    tot.bdrmap_links += discovered.len() as u64;
    let (start, end) = (spec.measure_start, spec.measure_end);
    let mut campaign = CampaignConfig::paper(start, end);
    campaign.threads = cfg.threads;
    let targets: Vec<TslpTarget> = discovered
        .iter()
        .map(|l| TslpTarget {
            dst: l.dst,
            near_ttl: l.near_ttl,
            far_ttl: l.far_ttl,
            near_addr: l.near,
            far_addr: l.far,
        })
        .collect();
    let mut addr_to_link: HashMap<Ipv4, u64> = HashMap::new();
    for nid in sub.net.node_ids() {
        for iface in &sub.net.node(nid).ifaces {
            if let Some((lid, _)) = iface.link {
                addr_to_link.insert(iface.addr, lid.0 as u64);
            }
        }
    }
    let truth_of = |near: Ipv4, far: Ipv4| {
        sub.links
            .iter()
            .find(|t| t.near == near && t.far == far)
            .map(|t| t.kind.clone())
    };

    let lanes = logs.len();
    let t0 = Instant::now();
    let (links, workers) = crate::pool::map(
        THREADS,
        targets.len(),
        |w| Worker::new(epoch, lanes + w),
        |w, i| {
            let l = &discovered[i];
            let root = w.log.enter("study.link", i as u64);
            let a = chain::assess_traced(
                w,
                i as u64,
                &sub.net,
                sub.vp,
                &targets[i],
                &campaign,
                &cfg.assess,
            );
            let assessment = a.at(cfg.assess.threshold_ms);
            let symmetry = (cfg.with_rr && assessment.diurnal).then(|| {
                w.log.span("study.record_route_symmetry", i as u64, |_| {
                    let when = assessment
                        .events
                        .first()
                        .map(|e| e.start + SimDuration::from_micros(e.width().as_micros() / 2))
                        .unwrap_or(start);
                    let mut rr_ctx =
                        sub.net
                            .probe_ctx(mix(&[l.near.0 as u64, l.far.0 as u64, 0x5252]));
                    let resolve = |addr: Ipv4| addr_to_link.get(&addr).copied();
                    record_route_symmetry(&sub.net, &mut rr_ctx, sub.vp, l.far, resolve, when)
                })
            });
            let mut loss = false;
            if cfg.with_loss && assessment.congested && assessment.events.len() >= 3 {
                let last_valid = a
                    .series
                    .far_clean()
                    .1
                    .last()
                    .map(|&k| a.series.timestamp(k) + SimDuration::from_days(1))
                    .unwrap_or(end);
                let loss_start = ixp_traffic::scenarios::dates::loss_campaign_start().max(start);
                let loss_end = ixp_traffic::scenarios::dates::loss_campaign_end()
                    .min(end)
                    .min(last_valid);
                if loss_start < loss_end {
                    loss = true;
                    w.log.span("study.measure_loss_series", i as u64, |_| {
                        let lc = LossCampaignConfig::paper(loss_start, loss_end);
                        measure_loss_series(&sub.net, sub.vp, l.dst, l.far_ttl, &lc).mean()
                    });
                }
            }
            w.log.exit(root);
            Traced {
                near: l.near,
                far: l.far,
                far_name: sub.asdb.name_of(l.far_asn),
                sweep: a
                    .sweep
                    .iter()
                    .map(|(t, x)| (*t, x.flagged, x.diurnal))
                    .collect(),
                symmetry,
                congested: assessment.congested && symmetry != Some(Symmetry::Asymmetric),
                truth: truth_of(l.near, l.far),
                rr: symmetry.is_some(),
                loss,
            }
        },
    );
    tot.pools.add(workers, t0.elapsed().as_secs_f64(), logs);
    for t in &links {
        tot.rr_checks += u64::from(t.rr);
        tot.loss_campaigns += u64::from(t.loss);
    }
    view_of_traced(spec.name, &links)
}

/// Table 1, congested set and confusion of the rebuilt pipeline, by the
/// same definitions `VpStudy` and `confusion` use.
fn view_of_traced(vp: &'static str, links: &[Traced]) -> StudyView {
    let row = THRESHOLDS_MS
        .iter()
        .map(|&t| {
            let flagged = links
                .iter()
                .filter(|o| o.sweep.iter().any(|&(th, f, _)| th == t && f))
                .count();
            let diurnal = links
                .iter()
                .filter(|o| {
                    o.sweep.iter().any(|&(th, _, d)| th == t && d)
                        && o.symmetry != Some(Symmetry::Asymmetric)
                })
                .count();
            (t, flagged, diurnal)
        })
        .collect();
    let (mut tp, mut fp, mut fneg) = (0usize, 0usize, 0usize);
    for o in links {
        if let Some(kind) = &o.truth {
            match (truth_expects_congested(kind), o.congested) {
                (true, true) => tp += 1,
                (true, false) => fneg += 1,
                (false, true) => fp += 1,
                (false, false) => {}
            }
        }
    }
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    StudyView {
        vp,
        links: links.iter().map(|o| (o.near, o.far)).collect(),
        row,
        congested: links
            .iter()
            .filter(|o| o.congested)
            .map(|o| o.far_name.clone())
            .collect(),
        precision: ratio(tp, tp + fp),
        recall: ratio(tp, tp + fneg),
        quarantined: 0,
    }
}

/// The traced run: `run_vp_study` once for the reference verdicts and the
/// overhead baseline, then the rebuilt pipeline with spans.
pub fn run_traced(seed: u64, out: &mut Outcome) -> Vec<Span> {
    let specs = specs();
    let cfg = config(seed);
    let t0 = Instant::now();
    let reference: Vec<StudyView> = specs
        .iter()
        .map(|s| StudyView::of(&run_vp_study(s, &cfg)))
        .collect();
    let plain_s = t0.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let mut top = SpanLog::new(epoch, 0);
    let mut logs = Vec::new();
    let mut tot = VpTotals::default();
    let t1 = Instant::now();
    let views: Vec<StudyView> = specs
        .iter()
        .map(|s| traced_vp(s, &cfg, &mut top, epoch, &mut logs, &mut tot))
        .collect();
    let traced_s = t1.elapsed().as_secs_f64();
    for (v, r) in views.iter().zip(&reference) {
        check_view(out, seed, r, &r.links);
        check_view(out, seed, v, &r.links);
        out.check(v == r, || {
            format!(
                "{}: rebuilt pipeline verdicts differ from run_vp_study: {v:?} vs {r:?}",
                v.vp
            )
        });
        out.line(format!(
            "{} Table 1 {:?}, congested {:?}",
            v.vp, v.row, v.congested
        ));
    }
    logs.push(top);
    let spans = spans::merge(logs);
    let layer = spans::self_by_layer(&spans);
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let by_name = spans::self_by_name(&spans);
    let named = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    out.attempted = tot.pools.counts.links;
    out.failed = reference.iter().map(|r| r.quarantined as u64).sum();
    out.set("topology.build_s", get("topology"));
    out.set("bdrmap.self_s", get("bdrmap"));
    out.set("bdrmap.links", tot.bdrmap_links as f64);
    chain::set_batch_layers(out, &spans, &tot.pools, THREADS);
    out.set("study.rr_s", named("study.record_route_symmetry"));
    out.set("study.loss_s", named("study.measure_loss_series"));
    out.set("study.rr_checks", tot.rr_checks as f64);
    out.set("study.loss_campaigns", tot.loss_campaigns as f64);
    out.set("obs.trace_overhead_frac", 1.0 - plain_s / traced_s);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.line(format!(
        "run_vp_study {plain_s:.3} s, rebuilt traced pipeline {traced_s:.3} s"
    ));
    out.fact("vps", "VP1,VP4");
    out.fact("links", tot.pools.counts.links);
    out.fact("substrate_seed", cfg.seed);
    out.fact("bootstrap_seed", cfg.assess.detector.seed);
    out.fact("campaign_workers", THREADS);
    out.fact(
        "warmup",
        "one untraced run_vp_study pass before the traced one",
    );
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_vp1() -> StudyView {
        StudyView {
            vp: "VP1",
            links: vec![(Ipv4(1), Ipv4(2)), (Ipv4(3), Ipv4(4))],
            row: THRESHOLDS_MS.iter().map(|&t| (t, 5, 2)).collect(),
            congested: vec!["GHANATEL".into(), "KNET".into()],
            precision: 1.0,
            recall: 1.0,
            quarantined: 0,
        }
    }

    #[test]
    fn view_check_accepts_the_paper_and_rejects_wrong_outputs() {
        let good = good_vp1();
        let mut ok = Outcome::default();
        check_view(&mut ok, 0, &good, &good.links);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);

        let mut no_knet = good.clone();
        no_knet.congested.pop();
        let mut o = Outcome::default();
        check_view(&mut o, 0, &no_knet, &good.links);
        assert!(
            o.failures.iter().any(|f| f.contains("KNET")),
            "{:?}",
            o.failures
        );

        let mut off_row = good.clone();
        off_row.row[2].1 = 4;
        let mut o = Outcome::default();
        check_view(&mut o, 0, &off_row, &good.links);
        assert!(
            o.failures.iter().any(|f| f.contains("Table 1")),
            "{:?}",
            o.failures
        );
        // Other seeds run other substrates: the EXPERIMENTS.md row is not
        // theirs, the ground truth still is.
        let mut o = Outcome::default();
        check_view(&mut o, 3, &off_row, &good.links);
        assert!(o.failures.is_empty(), "{:?}", o.failures);

        let mut imprecise = good.clone();
        imprecise.precision = 0.5;
        let mut o = Outcome::default();
        check_view(&mut o, 3, &imprecise, &good.links);
        assert!(
            o.failures.iter().any(|f| f.contains("precision")),
            "{:?}",
            o.failures
        );

        let mut o = Outcome::default();
        check_view(&mut o, 3, &good, &good.links[..1]);
        assert!(
            o.failures.iter().any(|f| f.contains("bdrmap")),
            "{:?}",
            o.failures
        );
    }
}
