//! One vantage point, end to end: build the substrate, run bdrmap at the
//! three Table 2 snapshot dates, derive TSLP targets from the *inferred*
//! links (the pipeline never peeks at ground truth), run the year-long TSLP
//! campaign, assess every link at the Table 1 thresholds, check record-route
//! symmetry for diurnal candidates, and measure loss on links with repeated
//! congestion (§4–§5).

use ixp_bdrmap::infer::{run_bdrmap, BdrmapConfig, InferredLink};
use ixp_bdrmap::ipasn::IpAsnMapper;
use ixp_bdrmap::validate::{score, BdrmapAccuracy};
use ixp_chgpt::DetectorScratch;
use ixp_obs::{LinkEvent, LinkKey, NoopRecorder, QuarantineNote, Recorder, StageSpan};
use ixp_prober::rr::{record_route_symmetry, Symmetry};
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::{Asn, Ipv4, ProbeCtx, SimTime};
use ixp_simnet::rng::mix;
use ixp_simnet::time::SimDuration;
use ixp_geo::{link_in_country, GeoDb};
use ixp_simnet::fault::FaultPlan;
use ixp_topology::{build_vp, paper_directory, TruthKind, VpSpec};
use serde::{Deserialize, Serialize};
use tslp_core::campaign::{campaign_fingerprint, measure_link_with, stream_vp_links_rec, CampaignConfig};
use tslp_core::checkpoint::CheckpointStore;
use tslp_core::detect::{assess_at_thresholds_masked_with, record_assessment, AssessConfig, Assessment};
use tslp_core::health::{classify_link, LinkHealth};
use tslp_core::lossanalysis::{measure_loss_series, split_by_events, LossCampaignConfig};
use tslp_core::series::LinkSeries;

/// The Table 1 thresholds.
pub const THRESHOLDS_MS: [f64; 4] = [5.0, 10.0, 15.0, 20.0];

/// Study configuration for one VP.
#[derive(Clone, Debug)]
pub struct VpStudyConfig {
    /// Substrate/build seed.
    pub seed: u64,
    /// Probe at most this many discovered links (None = all). Tests and
    /// benches cap this; the full campaign does not.
    pub max_links: Option<usize>,
    /// Override the campaign window (None = the spec's measurement window).
    pub window: Option<(SimTime, SimTime)>,
    /// Disable the screening pass (paper-exact probing).
    pub exact_probing: bool,
    /// Run record-route symmetry checks for diurnal candidates.
    pub with_rr: bool,
    /// Run loss campaigns for links with repeated congestion events.
    pub with_loss: bool,
    /// Keep full series for congested / case-study links (figure data).
    pub keep_series: bool,
    /// Worker threads for the per-link campaign fan-out (0 = one per core,
    /// 1 = sequential). Results are identical at any thread count.
    pub threads: usize,
    /// Assessment configuration.
    pub assess: AssessConfig,
    /// Faults injected into the substrate before discovery and probing —
    /// the chaos-gauntlet hook. Empty by default.
    pub faults: FaultPlan,
    /// Checkpoint per-link series under this directory; on a re-run,
    /// finished links replay from disk and the study result is bit-identical
    /// to an uninterrupted run. `None` disables checkpointing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for VpStudyConfig {
    fn default() -> Self {
        VpStudyConfig {
            seed: 0xAF12_2017,
            max_links: None,
            window: None,
            exact_probing: false,
            with_rr: true,
            with_loss: true,
            keep_series: true,
            threads: 0,
            assess: AssessConfig::default(),
            faults: FaultPlan::default(),
            checkpoint_dir: None,
        }
    }
}

/// Loss summary for one link.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LossSummary {
    /// Mean batch loss over the loss campaign.
    pub mean: f64,
    /// Maximum batch loss.
    pub max: f64,
    /// Mean loss during congestion events.
    pub during_events: f64,
    /// Mean loss outside events.
    pub outside_events: f64,
}

/// Everything the study learned about one discovered link.
#[derive(Clone, Debug)]
pub struct LinkOutcome {
    /// Near-side address.
    pub near: Ipv4,
    /// Far-side address.
    pub far: Ipv4,
    /// Inferred far AS.
    pub far_asn: Asn,
    /// Far AS name (from the AS database).
    pub far_name: String,
    /// Classified as an IXP link (§5.1).
    pub at_ixp: bool,
    /// `(threshold_ms, flagged, diurnal)` for the Table 1 sweep.
    pub sweep: Vec<(f64, bool, bool)>,
    /// The full assessment at the paper's 10 ms operating point.
    pub assessment: Assessment,
    /// RR symmetry verdict (diurnal candidates only).
    pub symmetry: Option<Symmetry>,
    /// §5.1's added check: do both link ends geolocate (database + rDNS
    /// hints) to the IXP's country? `None` = neither source covers them.
    pub geo_consistent: Option<bool>,
    /// Loss summary (congested links only).
    pub loss: Option<LossSummary>,
    /// Ground truth of this link (for validation; inference never reads it).
    pub truth: Option<TruthKind>,
    /// Retained series for figures (congested/case-study links only).
    pub series: Option<LinkSeries>,
    /// Screening short-circuited this link.
    pub screened_out: bool,
    /// Measurement health of the link's series (the integrity column).
    pub health: LinkHealth,
    /// Level shifts attributed to measurement artifacts instead of
    /// congestion (gap- or path-change-coincident boundaries).
    pub artifact_events: usize,
    /// Of those, how many were masked by a far gap/outage boundary.
    pub gap_artifacts: usize,
    /// Of those, how many were masked by a path-change boundary.
    pub path_artifacts: usize,
    /// The assessment worker panicked on this link; the panic message. A
    /// quarantined link carries an empty assessment and never counts as
    /// congested.
    pub quarantined: Option<String>,
}

impl LinkOutcome {
    /// The §6.1 definition: recurring diurnal far pattern, flat near side.
    pub fn congested(&self) -> bool {
        self.quarantined.is_none()
            && self.assessment.congested
            && self.symmetry != Some(Symmetry::Asymmetric)
    }
}

/// One bdrmap snapshot's counts (a Table 2 row fragment).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SnapshotCounts {
    /// Snapshot date.
    pub date: SimTime,
    /// Discovered IP links.
    pub links: usize,
    /// Discovered IP links classified at the IXP.
    pub peering_links: usize,
    /// Distinct neighbor ASes.
    pub neighbors: usize,
    /// Distinct peers (neighbors with an IXP link).
    pub peers: usize,
    /// Congested peering links active around this date.
    pub congested_peering: usize,
    /// bdrmap accuracy vs ground truth.
    pub accuracy: BdrmapAccuracy,
}

/// The complete per-VP study result.
pub struct VpStudy {
    /// The spec that was run.
    pub spec: VpSpec,
    /// Per-snapshot counts (Table 2 material).
    pub snapshots: Vec<SnapshotCounts>,
    /// Per-link outcomes (Table 1 + case-study material).
    pub outcomes: Vec<LinkOutcome>,
    /// Links short-circuited by the screening pass.
    pub screened: usize,
    /// Total probing rounds represented (for the Table 2 traceroute column).
    pub probe_rounds: u64,
}

impl VpStudy {
    /// Table 1 row: flagged (diurnal) counts at each threshold.
    pub fn table1_row(&self) -> Vec<(f64, usize, usize)> {
        THRESHOLDS_MS
            .iter()
            .map(|&t| {
                let flagged = self
                    .outcomes
                    .iter()
                    .filter(|o| o.sweep.iter().any(|&(th, f, _)| th == t && f))
                    .count();
                let diurnal = self
                    .outcomes
                    .iter()
                    .filter(|o| {
                        o.sweep.iter().any(|&(th, _, d)| th == t && d)
                            && o.symmetry != Some(Symmetry::Asymmetric)
                    })
                    .count();
                (t, flagged, diurnal)
            })
            .collect()
    }

    /// Congested links at the 10 ms operating point.
    pub fn congested_links(&self) -> Vec<&LinkOutcome> {
        self.outcomes.iter().filter(|o| o.congested()).collect()
    }

    /// Measurement-integrity summary over all outcomes: per-health-class
    /// counts, total artifact-masked events, quarantined links.
    pub fn integrity_summary(&self) -> IntegritySummary {
        let mut s = IntegritySummary::default();
        for o in &self.outcomes {
            match o.health {
                LinkHealth::Clean => s.clean += 1,
                LinkHealth::Gappy => s.gappy += 1,
                LinkHealth::RateLimited => s.rate_limited += 1,
                LinkHealth::PathChange => s.path_change += 1,
                LinkHealth::AddrUnstable => s.addr_unstable += 1,
                LinkHealth::Silent => s.silent += 1,
            }
            s.artifact_events += o.artifact_events;
            s.gap_artifacts += o.gap_artifacts;
            s.path_artifacts += o.path_artifacts;
            s.quarantined += usize::from(o.quarantined.is_some());
        }
        s
    }
}

/// Per-VP counts for the measurement-integrity report column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegritySummary {
    /// Links whose series measured clean.
    pub clean: usize,
    /// Links with gap/outage intervals.
    pub gappy: usize,
    /// Links shaped by an ICMP rate limiter.
    pub rate_limited: usize,
    /// Links whose TTL-ladder fingerprint changed mid-campaign (routing
    /// events under the measurement).
    pub path_change: usize,
    /// Links answering from unexpected addresses.
    pub addr_unstable: usize,
    /// Links with (almost) no far answers.
    pub silent: usize,
    /// Level shifts attributed to measurement artifacts across all links.
    pub artifact_events: usize,
    /// Artifact events whose cause was a far gap/outage boundary.
    pub gap_artifacts: usize,
    /// Artifact events whose cause was a path-change boundary.
    pub path_artifacts: usize,
    /// Links whose assessment worker panicked and was quarantined.
    pub quarantined: usize,
}

/// Derive a TSLP target from an inferred link.
fn to_target(l: &InferredLink) -> TslpTarget {
    TslpTarget { dst: l.dst, near_ttl: l.near_ttl, far_ttl: l.far_ttl, near_addr: l.near, far_addr: l.far }
}

/// Run the full study for one VP spec.
pub fn run_vp_study(spec: &VpSpec, cfg: &VpStudyConfig) -> VpStudy {
    run_vp_study_rec(spec, cfg, &NoopRecorder)
}

/// [`run_vp_study`] with telemetry: every pipeline stage times itself into
/// the recorder's stage profile (`vp/<name>/build`, `.../bdrmap`, and
/// `.../campaign`, which covers the fused measure-and-assess streaming
/// pass), the campaign fans its per-link probe
/// ledgers through worker-local sheets, and assessment verdicts, health
/// classes, RR checks, loss campaigns, and quarantines all land in counters
/// and per-link ledger fields. With a disabled recorder (the default
/// [`NoopRecorder`]) the study is bit-identical to [`run_vp_study`] and no
/// clock is ever read.
pub fn run_vp_study_rec<R: Recorder + Sync>(spec: &VpSpec, cfg: &VpStudyConfig, rec: &R) -> VpStudy {
    let stage = |name: &str| format!("vp/{}/{}", spec.name, name);
    let build_span = StageSpan::enter(rec, stage("build"));
    let mut substrate = build_vp(spec, cfg.seed);
    // Chaos hook: compile injected faults onto the substrate before anything
    // probes it — discovery and the campaign both run under the faults.
    cfg.faults.apply(&mut substrate.net);
    drop(build_span);
    let dir = paper_directory();
    let (start, end) = cfg.window.unwrap_or((spec.measure_start, spec.measure_end));

    // ---- bdrmap snapshots ----
    let bdrmap_span = StageSpan::enter(rec, stage("bdrmap"));
    let mut snapshots = Vec::new();
    let mut discovered: Vec<InferredLink> = Vec::new();
    let mut seen: std::collections::HashSet<(Ipv4, Ipv4)> = std::collections::HashSet::new();
    let sibling_pairs = substrate.orgs.sibling_pairs();
    let siblings: std::collections::HashSet<u32> = sibling_pairs
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .filter(|&a| substrate.orgs.are_siblings(Asn(a), spec.host_asn))
        .collect();

    // One discovery ctx shared across snapshots: router IP-ID counters keep
    // incrementing between snapshots exactly as on the old shared engine,
    // which the alias tests rely on.
    let mut disc_ctx = substrate.net.probe_ctx(mix(&[cfg.seed, 0xbd]));
    for &snap in &spec.snapshots {
        let result = {
            let mapper = IpAsnMapper::new(&substrate.bgp, &substrate.delegations, &dir);
            run_bdrmap(
                &substrate.net,
                &mut disc_ctx,
                substrate.vp,
                spec.host_asn,
                &siblings,
                &mapper,
                &BdrmapConfig::default(),
                snap,
            )
        };
        let acc = score(&substrate, &result, snap);
        snapshots.push(SnapshotCounts {
            date: snap,
            links: result.links.len(),
            peering_links: result.peering_links().len(),
            neighbors: result.neighbors.len(),
            peers: result.peers().len(),
            congested_peering: 0, // filled in after assessment
            accuracy: acc,
        });
        for l in result.links {
            if seen.insert((l.near, l.far)) {
                discovered.push(l);
            }
        }
    }
    rec.add("bdrmap_snapshots", spec.snapshots.len() as u64);
    rec.add("links_discovered", discovered.len() as u64);
    drop(bdrmap_span);

    // No queue-state reset needed after discovery: every campaign target
    // gets a fresh ProbeCtx whose lazy queue anchors start at zero.

    // ---- TSLP campaign over the union of discovered links ----
    if let Some(cap) = cfg.max_links {
        discovered.truncate(cap);
    }
    let mut campaign = if cfg.exact_probing {
        CampaignConfig::exact(start, end)
    } else {
        CampaignConfig::paper(start, end)
    };
    campaign.threads = cfg.threads;

    let truth_of = |near: Ipv4, far: Ipv4| -> Option<TruthKind> {
        substrate.links.iter().find(|t| t.near == near && t.far == far).map(|t| t.kind.clone())
    };

    // The Netacuity-style database (§5.1), built from the same delegations
    // bdrmap uses, with the documented commercial error rate.
    let geodb = GeoDb::build(&substrate.delegations, &dir, 0.08, ixp_simnet::rng::HashNoise::new(cfg.seed ^ 0x9e0));

    // Address → link identity, precomputed for RR symmetry checks (the
    // stand-in for bdrmap's point-to-point link inference).
    let addr_to_link: std::collections::HashMap<Ipv4, u64> = {
        let mut m = std::collections::HashMap::new();
        for nid in substrate.net.node_ids() {
            for iface in &substrate.net.node(nid).ifaces {
                if let Some((lid, _)) = iface.link {
                    m.insert(iface.addr, lid.0 as u64);
                }
            }
        }
        m
    };

    // Fan the per-link campaigns out over the worker pool. Each target owns
    // a private ProbeCtx, so results come back in target order bit-identical
    // to a sequential run; the slower post-processing below stays sequential.
    let targets: Vec<_> = discovered.iter().map(to_target).collect();
    rec.add("links_probed", targets.len() as u64);
    // Checkpoints are bound to the campaign config, the substrate identity
    // (seed, host AS), *and* the injected fault plan: a checkpoint from
    // another VP, another seed, or a differently-faulted substrate must
    // never replay here. The fault plan is folded in as an FNV hash of its
    // debug form — every fault parameter lands in that string.
    let store = cfg.checkpoint_dir.as_ref().map(|d| {
        let faults_fp = format!("{:?}", cfg.faults)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        let fp = mix(&[campaign_fingerprint(&campaign), cfg.seed, spec.host_asn.0 as u64, faults_fp]);
        CheckpointStore::new(d, fp).expect("checkpoint directory must be creatable")
    });
    // The streaming campaign: each worker measures a link, then classifies
    // and assesses it (detector + RR + loss) in the same pass, dropping the
    // series the moment its verdict is out — peak series memory is one
    // window per live worker, not one per link. Workers reuse one
    // DetectorScratch across every link they claim, and every probe context
    // inside is seeded from link identity, so outcomes are identical at any
    // thread count (tested below).
    let streamed = {
        let mut span = StageSpan::enter(rec, stage("campaign"));
        span.add_sim_us(end.since(start).as_micros());
        stream_vp_links_rec(
            &substrate.net,
            substrate.vp,
            &targets,
            &campaign,
            store.as_ref(),
            rec,
            DetectorScratch::new,
            |scratch, i, _target, series: LinkSeries, screened_out| {
                let l = &discovered[i];
                let series = &series;
        // Loss campaign window (§4), clamped to the window where the far
        // end still answers — probing a withdrawn link (GHANATEL after
        // 06/08/2016) measures only absence.
        let loss_window = cfg.with_loss.then(|| {
            let last_valid = series
                .far_ms
                .iter()
                .rposition(|v| v.is_finite())
                .map(|i| series.timestamp(i) + SimDuration::from_days(1))
                .unwrap_or(end);
            let loss_start = ixp_traffic::scenarios::dates::loss_campaign_start().max(start);
            let loss_end = ixp_traffic::scenarios::dates::loss_campaign_end().min(end).min(last_valid);
            (loss_start < loss_end).then_some((loss_start, loss_end))
        }).flatten();
        // The campaign depends on the series alone, not on the assessment,
        // so an unscreened link starts it on a spare lane, if there is one,
        // while the detector runs; it is used only if the verdict asks.
        let (net, vp) = (&substrate.net, substrate.vp);
        let measure_loss = move || {
            let (from, until) = loss_window?;
            Some(measure_loss_series(net, vp, l.dst, l.far_ttl, &LossCampaignConfig::paper(from, until)))
        };
        ixp_chgpt::lanes::speculate(loss_window.is_some() && !screened_out, measure_loss, |take_loss| {
        let key = LinkKey::new(l.near.0, l.far.0);
        // Measurement-integrity mask: classify the series once, thread the
        // gap/outage intervals through every threshold's assessment.
        let mask = tslp_core::health::classify_link_rec(series, &cfg.assess.health, rec, key);
        // One segmentation serves the Table 1 sweep and the headline
        // verdict; a configured threshold off the Table 1 grid is assessed
        // as one extra threshold over it.
        let headline_t = cfg.assess.threshold_ms;
        let on_grid = THRESHOLDS_MS.iter().position(|&t| t == headline_t);
        let mut thresholds = THRESHOLDS_MS.to_vec();
        if on_grid.is_none() {
            thresholds.push(headline_t);
        }
        let mut sweep_full =
            assess_at_thresholds_masked_with(series, &cfg.assess, &thresholds, &mask, scratch);
        let assessment = match on_grid {
            Some(i) => sweep_full[i].1.clone(),
            None => sweep_full.pop().expect("headline threshold assessed").1,
        };
        let sweep: Vec<(f64, bool, bool)> =
            sweep_full.iter().map(|(t, a)| (*t, a.flagged, a.diurnal)).collect();
        record_assessment(rec, key, &assessment);

        // RR symmetry for diurnal candidates (§5.2), probed *during* an
        // event window so the link is guaranteed up (the KNET link does not
        // even exist at campaign start).
        let symmetry = if cfg.with_rr && assessment.diurnal {
            let resolve = |addr: Ipv4| addr_to_link.get(&addr).copied();
            let when = assessment
                .events
                .first()
                .map(|e| e.start + SimDuration::from_micros(e.width().as_micros() / 2))
                .unwrap_or(start);
            let mut rr_ctx =
                substrate.net.probe_ctx(mix(&[l.near.0 as u64, l.far.0 as u64, 0x5252]));
            rec.add("rr_checks", 1);
            Some(record_route_symmetry(&substrate.net, &mut rr_ctx, substrate.vp, l.far, resolve, when))
        } else {
            None
        };

        // Loss campaign for links with repeated congestion events (§4).
        let loss = if cfg.with_loss && assessment.congested && assessment.events.len() >= 3 {
            take_loss().map(|ls| {
                rec.add("loss_campaigns", 1);
                let split = split_by_events(&ls, &assessment.events);
                LossSummary {
                    mean: ls.mean(),
                    max: ls.max(),
                    during_events: split.during_events,
                    outside_events: split.outside_events,
                }
            })
        } else {
            None
        };

        // §5.1: geolocate both IPs of the link as an added check that it is
        // established at the IXP (database record or rDNS hint).
        let geo_consistent = link_in_country(
            &geodb,
            (l.near, substrate.rdns.get(&l.near).map(|s| s.as_str())),
            (l.far, substrate.rdns.get(&l.far).map(|s| s.as_str())),
            spec.country,
        );

        let keep = cfg.keep_series && (assessment.congested || matches!(truth_of(l.near, l.far), Some(TruthKind::CaseStudy { .. })));
        let rounds = series.len() as u64 * 2;
        let outcome = LinkOutcome {
            near: l.near,
            far: l.far,
            far_asn: l.far_asn,
            far_name: substrate.asdb.name_of(l.far_asn),
            at_ixp: l.at_ixp,
            sweep,
            health: mask.overall,
            artifact_events: assessment.artifacts.len(),
            gap_artifacts: assessment.artifact_causes.iter().filter(|c| c.is_gap()).count(),
            path_artifacts: assessment.artifact_causes.iter().filter(|c| !c.is_gap()).count(),
            quarantined: None,
            assessment,
            symmetry,
            geo_consistent,
            loss,
            truth: truth_of(l.near, l.far),
            series: if keep { Some(series.clone()) } else { None },
            screened_out,
        };
        // The series drops here — the streaming contract: nothing past this
        // point holds a window that already has its verdict.
        (outcome, rounds, screened_out)
        })
            },
        )
    };

    // Quarantine fold: a panicked worker becomes an inert outcome carrying
    // the panic message instead of killing the whole study. The worker
    // dropped its series with the panic; measurement is a pure function, so
    // re-obtaining it (a checkpoint replay when a store exists — the shard
    // was written before the consumer ran) restores the health class, the
    // screening flag, and the round count bit-identically.
    let mut screened = 0usize;
    let mut probe_rounds = 0u64;
    let outcomes: Vec<LinkOutcome> = streamed
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok((outcome, rounds, screened_out)) => {
                probe_rounds += rounds;
                screened += usize::from(screened_out);
                outcome
            }
            Err(failure) => {
                let l = &discovered[i];
                let (series, screened_out) = measure_link_with(
                    &substrate.net,
                    &mut ProbeCtx::default(),
                    substrate.vp,
                    &targets[i],
                    &campaign,
                    store.as_ref(),
                    &NoopRecorder,
                );
                probe_rounds += series.len() as u64 * 2;
                screened += usize::from(screened_out);
                rec.add("links_quarantined", 1);
                rec.link_event(
                    LinkKey::new(l.near.0, l.far.0),
                    LinkEvent::Quarantined(QuarantineNote {
                        worker: failure.worker,
                        message: failure.message.clone(),
                    }),
                );
                LinkOutcome {
                    near: l.near,
                    far: l.far,
                    far_asn: l.far_asn,
                    far_name: substrate.asdb.name_of(l.far_asn),
                    at_ixp: l.at_ixp,
                    sweep: Vec::new(),
                    health: classify_link(&series, &cfg.assess.health).overall,
                    artifact_events: 0,
                    gap_artifacts: 0,
                    path_artifacts: 0,
                    quarantined: Some(failure.message),
                    assessment: Assessment::empty(series.far_validity(), f64::NAN),
                    symmetry: None,
                    geo_consistent: None,
                    loss: None,
                    truth: truth_of(l.near, l.far),
                    series: None,
                    screened_out,
                }
            }
        })
        .collect();

    // Fill per-snapshot congested counts: a congested peering link counts at
    // a snapshot when it has an event within ±20 days of the date.
    let margin = SimDuration::from_days(20);
    for snap in snapshots.iter_mut() {
        snap.congested_peering = outcomes
            .iter()
            .filter(|o| o.congested() && o.at_ixp)
            .filter(|o| {
                o.assessment.events.iter().any(|e| {
                    e.end + margin >= snap.date && e.start <= snap.date + margin
                })
            })
            .count();
    }

    VpStudy { spec: spec.clone(), snapshots, outcomes, screened, probe_rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_topology::paper_vps;

    /// VP4 (SIXP) over a 10-week window: small enough for unit tests, long
    /// enough to catch the NETPAGE phase-1 congestion and its mitigation.
    fn quick_vp4() -> VpStudy {
        let spec = &paper_vps()[3];
        let cfg = VpStudyConfig {
            window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 5, 20))),
            with_loss: false,
            ..Default::default()
        };
        run_vp_study(spec, &cfg)
    }

    #[test]
    fn vp4_discovers_and_assesses() {
        let s = quick_vp4();
        assert_eq!(s.snapshots.len(), 3);
        assert!(s.snapshots[0].links >= 10, "{:?}", s.snapshots[0]);
        assert!(s.snapshots[0].accuracy.neighbor_recall >= 0.9);
        assert!(!s.outcomes.is_empty());
        // Most links are healthy and screened out.
        assert!(s.screened > s.outcomes.len() / 2);
    }

    #[test]
    fn vp4_finds_netpage_congestion() {
        let s = quick_vp4();
        let netpage = s
            .outcomes
            .iter()
            .find(|o| o.far_name == "NETPAGE")
            .expect("NETPAGE link discovered");
        assert!(netpage.at_ixp);
        assert!(netpage.assessment.flagged, "NETPAGE not flagged");
        assert!(netpage.assessment.diurnal, "NETPAGE not diurnal");
        assert!(netpage.congested());
        // Magnitude in the ballpark of the paper's 10.7 ms (we accept the
        // 30-40 ms weekday peaks pulling the average up to ~2x).
        let aw = netpage.assessment.stats.a_w_ms;
        assert!((6.0..40.0).contains(&aw), "A_w {aw}");
        // Mitigated on 28/04: transient.
        assert_eq!(netpage.assessment.sustained, Some(false));
        assert_eq!(netpage.symmetry, Some(Symmetry::Symmetric));
    }

    #[test]
    fn vp4_table1_row_monotone() {
        let s = quick_vp4();
        let row = s.table1_row();
        assert_eq!(row.len(), 4);
        for w in row.windows(2) {
            assert!(w[0].1 >= w[1].1, "flagged counts must not grow with threshold: {row:?}");
            assert!(w[0].2 >= w[1].2, "diurnal counts must not grow with threshold: {row:?}");
        }
        // NETPAGE is diurnal at 5 and 10 ms.
        assert!(row[0].2 >= 1, "{row:?}");
        assert!(row[1].2 >= 1, "{row:?}");
    }

    #[test]
    fn outcomes_identical_at_any_thread_count() {
        let spec = &paper_vps()[3];
        let run = |threads: usize| {
            let cfg = VpStudyConfig {
                window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 3, 21))),
                with_loss: false,
                max_links: Some(12),
                threads,
                ..Default::default()
            };
            run_vp_study(spec, &cfg)
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.screened, b.screened);
        assert_eq!(a.probe_rounds, b.probe_rounds);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!((x.near, x.far), (y.near, y.far));
            assert_eq!(x.sweep, y.sweep);
            assert_eq!(x.symmetry, y.symmetry);
            assert_eq!(x.geo_consistent, y.geo_consistent);
            assert_eq!(
                serde_json::to_string(&x.assessment).unwrap(),
                serde_json::to_string(&y.assessment).unwrap()
            );
        }
    }

    /// Lent lanes cannot move an outcome: a window long enough for
    /// segmentation windows of 1,024+ samples to be lent, overlapping the
    /// loss campaign so unscreened links start it speculatively, gives the
    /// same outcomes at 1, 2 and 4 threads.
    #[test]
    fn outcomes_with_lent_lanes_identical_at_1_2_4_threads() {
        let spec = &paper_vps()[3];
        let run = |threads: usize| {
            let cfg = VpStudyConfig {
                window: Some((SimTime::from_date(2016, 4, 4), SimTime::from_date(2016, 8, 8))),
                max_links: Some(12),
                threads,
                ..Default::default()
            };
            run_vp_study(spec, &cfg)
        };
        let json = |o: &LinkOutcome| {
            serde_json::to_string(&(&o.sweep, &o.assessment, &o.loss, o.health)).unwrap()
        };
        let serial = run(1);
        assert!(serial.outcomes.iter().any(|o| o.loss.is_some()), "NETPAGE runs its loss campaign");
        for threads in [2, 4] {
            let study = run(threads);
            assert_eq!((study.screened, study.probe_rounds), (serial.screened, serial.probe_rounds));
            assert_eq!(study.outcomes.len(), serial.outcomes.len());
            for (x, y) in study.outcomes.iter().zip(&serial.outcomes) {
                assert_eq!((x.near, x.far), (y.near, y.far));
                assert!(x.quarantined.is_none(), "{}: {:?}", x.far_name, x.quarantined);
                assert_eq!(json(x), json(y), "{} at {threads} threads", x.far_name);
                assert_eq!(x.symmetry, y.symmetry);
            }
        }
    }

    #[test]
    fn healthy_links_not_congested() {
        let s = quick_vp4();
        for o in &s.outcomes {
            if matches!(o.truth, Some(TruthKind::Healthy) | Some(TruthKind::Transit)) {
                assert!(!o.congested(), "healthy link {} flagged congested", o.far_name);
            }
        }
    }

    #[test]
    fn off_grid_threshold_drives_the_headline_verdict() {
        // Neither 12 ms nor 40 ms is a Table 1 threshold: the headline
        // verdict must be the link's assessment at that threshold, over the
        // same segmentation, not the 10 ms sweep entry. At 40 ms NETPAGE's
        // ~35 ms plateaus no longer flag, so that run tells the two apart.
        let spec = &paper_vps()[3];
        for threshold_ms in [12.0, 40.0] {
            let assess = AssessConfig { threshold_ms, ..AssessConfig::default() };
            let cfg = VpStudyConfig {
                window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 5, 20))),
                with_loss: false,
                with_rr: false,
                assess: assess.clone(),
                ..Default::default()
            };
            let study = run_vp_study(spec, &cfg);
            let mut checked = 0;
            for o in &study.outcomes {
                let Some(series) = &o.series else { continue };
                let mask = classify_link(series, &assess.health);
                let direct =
                    tslp_core::detect::assess_link(series, &assess, &mask, &mut DetectorScratch::new());
                let json = |a: &Assessment| serde_json::to_string(a).unwrap();
                assert_eq!(json(&o.assessment), json(&direct), "{} at {threshold_ms} ms", o.far_name);
                assert_eq!(o.sweep.iter().map(|s| s.0).collect::<Vec<_>>(), THRESHOLDS_MS);
                checked += 1;
            }
            assert!(checked > 0, "the NETPAGE case-study series is kept");
            let netpage = study.outcomes.iter().find(|o| o.far_name == "NETPAGE").expect("NETPAGE");
            assert!(netpage.sweep[1].1, "NETPAGE flags at 10 ms");
            assert_eq!(netpage.assessment.flagged, threshold_ms < 40.0);
        }
    }
}
