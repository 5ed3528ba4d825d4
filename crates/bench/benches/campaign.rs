//! Campaign throughput (DESIGN.md §5, §5.16): the links-scaling curve and
//! the worker-pool thread sweep, in one record.
//!
//! The headline is the scaling curve: a continent-scale substrate
//! (`ixp_topology::continent`) at 1k / 10k / 100k member links, each point
//! measured through the streaming campaign ([`stream_vp_links`]) so every
//! `LinkSeries` drops the moment its verdict is out. Per point we record
//! `links_per_sec` and `peak_rss_mb` (VmHWM, reset between points) — the
//! curve documents that throughput holds roughly flat while peak memory
//! grows with the substrate, not with links × windows. The record goes to
//! `target/bench-records/campaign.json`; the `bench-gate` binary
//! regression-gates the 1k point against `BENCH_campaign.json`.
//!
//! The second section keeps the original sixteen-branch hub workload and
//! sweeps the worker pool, half the branches carrying a diurnal overload so
//! both screening outcomes appear in every run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ixp_bench::record::Record;
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::*;
use ixp_topology::{build_continent, ContinentSpec};
use ixp_traffic::{DiurnalLoad, Shape};
use std::sync::Arc;
use std::time::Instant;
use tslp_core::campaign::{stream_vp_links, CampaignConfig};

/// Hub-and-branches substrate: `branches` interdomain links behind one hub,
/// odd branches congested with a weekday plateau.
fn fanout_net(branches: u8) -> (Network, NodeId, Vec<TslpTarget>) {
    let mut net = Network::new(0xBE7C);
    let vp = net.add_node(NodeKind::Host, Asn(1), "vp");
    let hub = net.add_node(NodeKind::Router, Asn(1), "hub");
    net.connect_idle(vp, Ipv4::new(10, 0, 0, 2), hub, Ipv4::new(10, 0, 0, 1), LinkConfig::default());
    net.add_route(vp, Prefix::DEFAULT, IfaceId(0));
    net.add_route(hub, "10.0.0.0/24".parse().unwrap(), IfaceId(0));

    let mut targets = Vec::new();
    for i in 0..branches {
        let border = net.add_node(NodeKind::Router, Asn(1), "border");
        let peer = net.add_node(NodeKind::Router, Asn(100 + i as u32), "peer");
        let port = LinkConfig {
            capacity_bps: Schedule::constant(1e8),
            buffer_bytes: Schedule::constant(150_000.0),
            ..LinkConfig::default()
        };
        let load: Arc<dyn OfferedLoad> = if i % 2 == 1 {
            Arc::new(DiurnalLoad {
                base_bps: 6e7,
                weekday_peak_bps: 5e7,
                weekend_peak_bps: 5e7,
                shape: Shape::Plateau { start_hour: 11.0, end_hour: 15.0, ramp_hours: 1.5 },
                noise_frac: 0.02,
                noise_bin: SimDuration::from_mins(5),
                noise: net.noise().child(80 + i as u64, 3),
            })
        } else {
            Arc::new(NoLoad)
        };
        let near_addr = Ipv4::new(10, i + 1, 1, 2);
        let far_addr = Ipv4::new(10, i + 1, 2, 2);
        net.connect(hub, Ipv4::new(10, i + 1, 1, 1), border, near_addr, port, load, Arc::new(NoLoad));
        net.connect_idle(border, Ipv4::new(10, i + 1, 2, 1), peer, far_addr, LinkConfig::default());
        let prefix: Prefix = format!("41.{i}.0.0/24").parse().unwrap();
        net.add_route(hub, prefix, IfaceId(1 + i as u16));
        net.add_route(border, "10.0.0.0/24".parse().unwrap(), IfaceId(0));
        net.add_route(border, prefix, IfaceId(1));
        net.add_route(peer, Prefix::DEFAULT, IfaceId(0));
        targets.push(TslpTarget { dst: prefix.addr(9), near_ttl: 2, far_ttl: 3, near_addr, far_addr });
    }
    (net, vp, targets)
}

/// One scaling point: build a continent sized for `links`, stream a 3-day
/// exact campaign through it `iters` times, and report the best pass.
fn scaling_point(links: u32, iters: usize, cfg: &CampaignConfig) -> (usize, f64, f64, f64) {
    let spec = ContinentSpec::with_total_links(links);
    let cont = build_continent(&spec, 0xAF_5CA1E5);
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
    // Reset VmHWM *after* the build so the recorded peak is what the
    // campaign itself adds on top of the resident substrate.
    ixp_obs::reset_peak_rss();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = stream_vp_links(&cont.net, cont.vp, &targets, cfg, None, || 0usize, |acc, _, _, series, _| {
            // Touch the series, then drop it — the streaming contract.
            *acc += series.len();
            series.len()
        });
        let dt = t0.elapsed().as_secs_f64();
        assert!(out.iter().all(|r| r.is_ok()), "scaling pass quarantined a link");
        best = best.min(dt);
    }
    let rss = ixp_obs::peak_rss_mb().unwrap_or(f64::NAN);
    (targets.len(), best, targets.len() as f64 / best, rss)
}

fn campaign_throughput(c: &mut Criterion) {
    // ---- Section 1: thread sweep on the 16-branch hub (criterion). ----
    let (net, vp, targets) = fanout_net(16);
    let base = CampaignConfig::exact(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 4));
    let thread_counts = [1usize, 2, 4, 8];

    let mut g = c.benchmark_group("campaign_throughput");
    g.throughput(Throughput::Elements(targets.len() as u64));
    g.sample_size(10);
    let mut measured: Vec<(usize, f64)> = Vec::new();
    for &threads in &thread_counts {
        let mut cfg = base;
        cfg.threads = threads;
        let mut mean_ns = 0.0;
        g.bench_with_input(BenchmarkId::new("threads", threads), &cfg, |b, cfg| {
            b.iter(|| stream_vp_links(&net, vp, &targets, cfg, None, || (), |_, _, _, s, sc| (s, sc)));
            mean_ns = b.mean_ns;
        });
        measured.push((threads, mean_ns));
    }
    g.finish();

    let mut rec = Record::new("campaign");
    let seq_ns = measured[0].1;
    let links = targets.len() as f64;
    for &(threads, ns) in &measured {
        let links_per_sec = if ns > 0.0 { links * 1e9 / ns } else { 0.0 };
        let speedup = if ns > 0.0 { seq_ns / ns } else { 0.0 };
        eprintln!(
            "[campaign] threads={threads:<2} {links_per_sec:>8.1} links/s  speedup {speedup:.2}x"
        );
        let point = format!("sweep_16_links.threads_{threads}");
        rec.metric(format!("{point}.mean_ns"), "ns", ns)
            .metric(format!("{point}.links_per_sec"), "links/s", links_per_sec)
            .metric(format!("{point}.speedup"), "x", speedup);
    }

    // ---- Section 2: links-scaling curve on the continent substrate. ----
    // Same 3-day exact window as the sweep, so per-link cost is comparable;
    // threads auto-sized to the host. Small points get extra passes to damp
    // timer noise; the 100k point is a single ~2-minute pass.
    let scale_cfg = base; // threads: 0 (auto)
    for &(nominal, iters) in &[(1_000u32, 3usize), (10_000, 1), (100_000, 1)] {
        let (actual, wall_s, lps, rss) = scaling_point(nominal, iters, &scale_cfg);
        eprintln!(
            "[campaign] scale {nominal:>6} links ({actual} actual): {lps:>8.1} links/s, peak RSS {rss:.1} MiB"
        );
        let point = format!("links_{nominal}");
        rec.metric(format!("{point}.links"), "count", actual as f64)
            .metric(format!("{point}.wall_s"), "s", wall_s)
            .metric(format!("{point}.links_per_sec"), "links/s", lps)
            .metric(format!("{point}.peak_rss_mb"), "MiB", rss);
    }

    // Speedup is bounded by the host: on a single-core container every
    // thread count collapses to ~1.0x; the record carries the parallelism
    // the numbers were taken under.
    eprintln!("[campaign] host parallelism: {} (speedup is capped at this)", rec.host_parallelism);
    let rounds = (base.end.0 - base.start.0) / base.interval.as_micros();
    rec.regime("rounds_per_link", rounds).regime("threads", 0);
    rec.write_fresh();
}

criterion_group! {
    name = campaign;
    config = Criterion::default();
    targets = campaign_throughput
}
criterion_main!(campaign);
