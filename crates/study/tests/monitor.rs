//! Streaming-vs-batch equivalence for the resident monitor.
//!
//! The acceptance contract of the monitoring service: feeding a link's
//! measured series through [`ixp_monitor::LinkState`] one sample at a time
//! must reproduce [`ixp_chgpt::online_events`] over the same series
//! **bit-identically** — alarm rounds, event boundaries, trailing open
//! events — and the causal path-change masking must agree with the batch
//! reference view *and* with the series' own fingerprint change record.
//!
//! The corpus is the VP4 (SIXP) substrate under the routing-event fault
//! kinds the chaos/storm gauntlets sweep (session resets, prefix
//! withdrawals, reconfiguration transients, route flips), so the streams
//! carry real gaps, real fingerprint changes, and the seeded NETPAGE
//! diurnal congestion — not synthetic step functions.
//!
//! The suite also kill/resumes a [`MonitorService`] mid-ingest over the
//! measured corpus at 1 and 3 threads (bit-identical continuation), and
//! runs a 1k-link continent smoke: the streaming campaign feeds the
//! service round-major; congested links elevate, clean links do not.

use ixp_chgpt::online_events;
use ixp_monitor::{
    masked_online_events, monitor_fingerprint, LinkDesc, LinkState, MaskOutcome, MonitorConfig,
    MonitorSample, MonitorService,
};
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::fault::{Fault, FaultPlan};
use ixp_simnet::prelude::{Ipv4, Network, NodeId, SimDuration, SimTime};
use ixp_topology::{build_continent, build_vp, paper_vps, ContinentSpec, VpSpec};
use tslp_core::campaign::{measure_link, stream_vp_links, CampaignConfig};
use tslp_core::series::LinkSeries;
use tslp_core::CheckpointStore;

const SEED: u64 = 0xAF12_2017;

fn vp4() -> &'static VpSpec {
    Box::leak(Box::new(paper_vps()[3].clone()))
}

fn node_of(net: &Network, addr: Ipv4) -> Option<NodeId> {
    net.node_ids().find(|&n| net.node(n).ifaces.iter().any(|i| i.addr == addr))
}

/// The measured corpus: every responsive VP4 truth link probed over four
/// weeks under a routing-event storm mixing all four control-plane fault
/// kinds, staggered per link. Returns one `LinkSeries` per link.
fn fault_corpus() -> Vec<LinkSeries> {
    let mut substrate = build_vp(vp4(), SEED);
    let from = SimTime::from_date(2016, 3, 1);
    let until = SimTime::from_date(2016, 3, 29);
    let day = |d: u64| from + SimDuration::from_days(d);

    let mut plan = FaultPlan::new();
    for (k, t) in substrate.links.iter().enumerate() {
        if !t.responsive {
            continue;
        }
        let Some(node) = node_of(&substrate.net, t.near) else { continue };
        let Some(good) = substrate.net.node(node).next_hop(t.dst) else { continue };
        let wrong_via = substrate
            .net
            .node(node)
            .ifaces
            .iter()
            .enumerate()
            .find(|(i, f)| ixp_simnet::prelude::IfaceId(*i as u16) != good && f.link.is_some())
            .map(|(i, _)| ixp_simnet::prelude::IfaceId(i as u16));
        let off = SimDuration::from_hours(k as u64 % 17);
        match k % 4 {
            0 => {
                plan = plan.with(Fault::SessionReset {
                    node,
                    prefix: t.prefix,
                    at: day(7) + off,
                    downtime: SimDuration::from_mins(40),
                });
            }
            1 => {
                plan = plan.with(Fault::PrefixWithdraw {
                    node,
                    prefix: t.prefix,
                    from: day(10) + off,
                    until: Some(day(10) + off + SimDuration::from_hours(6)),
                });
            }
            2 => {
                if let Some(via) = wrong_via {
                    plan = plan.with(Fault::ReconfigTransient {
                        node,
                        prefix: t.prefix,
                        wrong_via: via,
                        at: day(14) + off,
                        settle: SimDuration::from_hours(2),
                    });
                }
            }
            _ => {
                if let Some(via) = wrong_via {
                    plan = plan.with(Fault::RouteFlip {
                        node,
                        prefix: t.prefix,
                        via,
                        from: day(18) + off,
                        until: Some(day(18) + off + SimDuration::from_days(2)),
                    });
                }
            }
        }
    }
    plan.apply(&mut substrate.net);

    let cfg = CampaignConfig::exact(from, until);
    substrate
        .links
        .iter()
        .filter(|t| t.responsive)
        .map(|t| {
            let target = TslpTarget {
                dst: t.dst,
                near_ttl: t.near_ttl,
                far_ttl: t.far_ttl,
                near_addr: t.near,
                far_addr: t.far,
            };
            measure_link(&substrate.net, substrate.vp, &target, &cfg).0
        })
        .collect()
}

#[test]
fn streaming_reproduces_online_events_across_fault_corpus() {
    let corpus = fault_corpus();
    assert!(corpus.len() >= 8, "VP4 corpus unexpectedly small: {}", corpus.len());
    let cfg = MonitorConfig::default();
    let mut total_events = 0usize;
    let mut total_gaps = 0usize;
    let mut total_changes = 0usize;
    for (li, series) in corpus.iter().enumerate() {
        // The batch view on the raw far series.
        let batch = online_events(&series.far_ms, cfg.online);

        // The streaming view: one LinkState pushed sample-by-sample.
        let mut st = LinkState::with_config(&cfg);
        let mut streamed: Vec<(usize, usize)> = Vec::new();
        let mut open: Option<usize> = None;
        for (i, &x) in series.far_ms.iter().enumerate() {
            let s = MonitorSample { far_ms: x, path_fp: series.path_fp[i], far_addr_ok: true };
            let up = st.push(&s, &cfg);
            assert_eq!(up.round as usize, i, "link {li}: rounds must track series indices");
            match up.verdict {
                ixp_chgpt::OnlineVerdict::UpshiftAlarm => open = Some(i),
                ixp_chgpt::OnlineVerdict::DownshiftAlarm => {
                    if let Some(s0) = open.take() {
                        streamed.push((s0, i));
                    }
                }
                _ => {}
            }
        }
        if let Some(s0) = open {
            streamed.push((s0, series.far_ms.len()));
        }
        assert_eq!(streamed, batch, "link {li}: streaming and batch events diverged");
        total_events += batch.len();
        total_gaps += series.far_ms.iter().filter(|v| !v.is_finite()).count();
        total_changes += series.path_change_rounds().len();
        assert_eq!(st.detector().gap_count() as usize,
            series.far_ms.iter().filter(|v| !v.is_finite()).count(),
            "link {li}: gap accounting diverged");
        assert_eq!(st.path_changes() as usize, series.path_change_rounds().len(),
            "link {li}: path-change accounting diverged");
    }
    // The corpus must actually exercise the machinery.
    assert!(total_events > 0, "no events in the corpus");
    assert!(total_gaps > 0, "no gaps in the corpus — faults did not bite");
    assert!(total_changes > 0, "no fingerprint changes — transients did not bite");
}

#[test]
fn masking_agrees_with_batch_reference_and_fingerprint_record() {
    let corpus = fault_corpus();
    let cfg = MonitorConfig::default();
    let slack = cfg.mask_slack as usize;
    let mut total_masked = 0usize;
    for (li, series) in corpus.iter().enumerate() {
        let events = masked_online_events(&series.far_ms, &series.path_fp, &cfg);
        // The (up, down) pairs are exactly the unmasked batch view.
        let plain: Vec<(usize, usize)> = events.iter().map(|e| (e.up, e.down)).collect();
        assert_eq!(plain, online_events(&series.far_ms, cfg.online), "link {li}");
        // Masked flags must agree with the series' own change record under
        // the causal rule: change at c masks upshifts in [c, c + slack].
        let changes = series.path_change_rounds();
        for e in &events {
            let near_change =
                changes.iter().any(|&c| e.up >= c && e.up <= c.saturating_add(slack));
            assert_eq!(
                e.masked, near_change,
                "link {li}: event at {} masked={} but changes={:?}",
                e.up, e.masked, changes
            );
            total_masked += e.masked as usize;
        }
    }
    assert!(total_masked > 0, "the storm corpus must produce at least one masked upshift");
}

#[test]
fn service_kill_resume_over_corpus_at_1_and_3_threads() {
    let corpus = fault_corpus();
    let n = corpus.len();
    let rounds = corpus.iter().map(|s| s.len()).min().unwrap_or(0);
    assert!(rounds > 200);
    let links: Vec<LinkDesc> = (0..n).map(|i| LinkDesc { ixp: i as u32 % 3 }).collect();
    let batch_at = |r: usize| -> Vec<(u32, u64, MonitorSample)> {
        (0..n)
            .map(|li| {
                let s = &corpus[li];
                (
                    li as u32,
                    r as u64,
                    MonitorSample { far_ms: s.far_ms[r], path_fp: s.path_fp[r], far_addr_ok: true },
                )
            })
            .collect()
    };
    let dir = std::env::temp_dir().join(format!("monitor-corpus-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for threads in [1usize, 3] {
        let cfg = MonitorConfig { threads, shards: 5, ..MonitorConfig::default() };
        let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();

        let straight = MonitorService::new(cfg, &links);
        for r in 0..rounds {
            straight.ingest_sequenced(&batch_at(r));
        }

        let cut = rounds / 2;
        let first = MonitorService::new(cfg, &links);
        for r in 0..cut {
            first.ingest_sequenced(&batch_at(r));
        }
        first.checkpoint(&store).unwrap();
        drop(first);
        let resumed =
            MonitorService::resume(cfg, &links, &store).expect("corpus checkpoint must resume");
        for r in cut..rounds {
            resumed.ingest_sequenced(&batch_at(r));
        }

        for id in 0..n as u32 {
            assert_eq!(
                straight.verdict(id),
                resumed.verdict(id),
                "threads={threads}: link {id} diverged after resume"
            );
        }
        assert_eq!(straight.index().elevated_links(), resumed.index().elevated_links());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The flight recorder's acceptance contract over real measured streams: a
/// service with live tracing publishes **bit-identical** verdicts to an
/// untraced one, and afterwards every elevation, alarm, and mask decision
/// is explained — the verdict evidence is internally consistent, every
/// alarm the verdicts count appears as an `OnlineUpshift` trace event, and
/// the black-box dump round-trips losslessly.
#[test]
fn live_recorder_is_invisible_and_explains_every_alarm() {
    use ixp_obs::{parse_dump, FlightRecorder, TraceKind};
    use std::sync::Arc;

    let corpus = fault_corpus();
    let n = corpus.len();
    let rounds = corpus.iter().map(|s| s.len()).min().unwrap_or(0);
    assert!(rounds > 200);
    let links: Vec<LinkDesc> = (0..n).map(|i| LinkDesc { ixp: i as u32 % 3 }).collect();
    let batch_at = |r: usize| -> Vec<(u32, u64, MonitorSample)> {
        (0..n)
            .map(|li| {
                let s = &corpus[li];
                (
                    li as u32,
                    r as u64,
                    MonitorSample { far_ms: s.far_ms[r], path_fp: s.path_fp[r], far_addr_ok: true },
                )
            })
            .collect()
    };
    let cfg = MonitorConfig { threads: 2, shards: 4, ..MonitorConfig::default() };

    let plain = MonitorService::new(cfg, &links);
    for r in 0..rounds {
        plain.ingest_sequenced(&batch_at(r));
    }

    let traced = MonitorService::new(cfg, &links);
    let fl = Arc::new(FlightRecorder::new(cfg.shards, 1 << 16));
    traced.attach_flight_recorder(Arc::clone(&fl));
    for r in 0..rounds {
        traced.ingest_sequenced(&batch_at(r));
    }

    // Tracing must be invisible to the pipeline: every published verdict —
    // including the evidence — matches the untraced run exactly.
    for id in 0..n as u32 {
        assert_eq!(plain.verdict(id), traced.verdict(id), "link {id}: tracing perturbed verdict");
    }
    assert_eq!(plain.mode_history(), traced.mode_history());

    // The ring must have held everything for this corpus size.
    assert_eq!(fl.dropped(), 0, "trace ring too small for the corpus");

    // Every counted alarm has a trace event; every mask decision in a trace
    // agrees with the causal slack rule.
    let events = fl.snapshot();
    assert!(!events.is_empty(), "live tracing recorded nothing");
    let mut upshifts = vec![0u64; n];
    let mut masks = vec![0u64; n];
    for e in &events {
        match e.kind {
            TraceKind::OnlineUpshift => upshifts[e.link as usize] += 1,
            TraceKind::MaskApplied => {
                masks[e.link as usize] += 1;
                assert!(
                    e.b <= cfg.mask_slack,
                    "link {}: mask applied {} rounds after change, slack {}",
                    e.link,
                    e.b,
                    cfg.mask_slack
                );
            }
            _ => {}
        }
    }
    let mut alarms_total = 0u64;
    for id in 0..n as u32 {
        let v = traced.verdict(id);
        alarms_total += v.alarms;
        assert_eq!(upshifts[id as usize], v.alarms, "link {id}: alarms without trace events");
        assert_eq!(masks[id as usize], v.masked_alarms, "link {id}: masked alarms untraced");
        if v.alarms > 0 {
            let ev = v.evidence;
            assert_ne!(ev.change_round, u64::MAX, "link {id}: alarm left no evidence round");
            assert!(ev.level_before_ms.is_finite(), "link {id}: evidence level not finite");
            match ev.mask {
                MaskOutcome::Applied { rounds_since_change } => {
                    assert!(rounds_since_change <= cfg.mask_slack, "link {id}")
                }
                MaskOutcome::Rejected { rounds_since_change } => {
                    assert!(rounds_since_change > cfg.mask_slack, "link {id}")
                }
                MaskOutcome::NotConsidered => {}
            }
        } else {
            assert_eq!(v.evidence.change_round, u64::MAX, "link {id}: evidence without alarm");
        }
    }
    assert!(alarms_total > 0, "the fault corpus must raise alarms");

    // The black-box dump round-trips: same events, same order, versioned.
    let dump = parse_dump(&fl.dump_jsonl("acceptance")).expect("dump must parse");
    assert_eq!(dump.reason, "acceptance");
    assert_eq!(dump.events.len(), events.len());
    assert!(dump.events.iter().zip(&events).all(|(a, b)| a.seq == b.seq && a.kind == b.kind));
}

#[test]
fn thousand_link_continent_monitor_smoke() {
    let spec = ContinentSpec::with_total_links(1_000);
    let cont = build_continent(&spec, 0x5CA1E_2017);
    let targets: Vec<TslpTarget> = cont
        .links
        .iter()
        .map(|l| TslpTarget {
            dst: l.dst,
            near_ttl: l.near_ttl,
            far_ttl: l.far_ttl,
            near_addr: l.near,
            far_addr: l.far,
        })
        .collect();

    // Two pre-plateau hours (7–9h) then four plateau hours: the congested
    // links step up at 9h, which is exactly the transition the online
    // detector must catch live.
    let start =
        SimTime(SimTime::from_date(2016, 3, 1).0 + SimDuration::from_hours(7).as_micros());
    let end = SimTime(start.0 + SimDuration::from_hours(6).as_micros());
    let ccfg = CampaignConfig::exact(start, end);
    let series: Vec<(Vec<f64>, Vec<u64>, bool)> = stream_vp_links(
        &cont.net,
        cont.vp,
        &targets,
        &ccfg,
        None,
        || (),
        |_, i, _, s, _| (s.far_ms.clone(), s.path_fp.clone(), cont.links[i].congested),
    )
    .into_iter()
    .map(|r| r.expect("no link may quarantine"))
    .collect();

    let n = series.len();
    let rounds = series[0].0.len();
    assert_eq!(rounds, 72);
    let links: Vec<LinkDesc> = (0..n).map(|i| LinkDesc { ixp: i as u32 % 8 }).collect();
    let cfg = MonitorConfig { threads: 2, shards: 32, ..MonitorConfig::default() };
    let svc = MonitorService::new(cfg, &links);
    for r in 0..rounds {
        let batch: Vec<(u32, u64, MonitorSample)> = (0..n)
            .map(|li| {
                let (far, fp, _) = &series[li];
                let s = MonitorSample { far_ms: far[r], path_fp: fp[r], far_addr_ok: true };
                (li as u32, r as u64, s)
            })
            .collect();
        svc.ingest_sequenced(&batch);
    }

    let mut hot_elevated = 0u32;
    let mut hot_total = 0u32;
    let mut false_elevated = 0u32;
    for (li, (far, _, congested)) in series.iter().enumerate() {
        let v = svc.verdict(li as u32);
        assert_eq!(v.round as usize, rounds);
        // The live verdict must agree with the batch view of the same data.
        let batch_open =
            online_events(far, cfg.online).last().is_some_and(|&(_, down)| down == far.len());
        assert_eq!(
            v.elevated, batch_open,
            "link {li}: live elevation disagrees with online_events"
        );
        if *congested {
            hot_total += 1;
            hot_elevated += u32::from(v.elevated);
        } else {
            false_elevated += u32::from(v.elevated);
        }
    }
    assert!(hot_total >= 10, "congested fraction must materialize at 1k links");
    assert!(
        hot_elevated as f64 >= 0.9 * hot_total as f64,
        "monitor must catch the plateau live: {hot_elevated}/{hot_total}"
    );
    assert_eq!(false_elevated, 0, "no clean link may read elevated");
    assert_eq!(svc.index().elevated_links(), hot_elevated as u64);
    assert_eq!(svc.samples_ingested(), (n * rounds) as u64);
}
