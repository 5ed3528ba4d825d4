//! Telemetry overhead (DESIGN.md §5.14): the instrumentation layer promises
//! near-zero cost when off (the no-op recorder monomorphizes away) and <3%
//! when on (worker-local sheets, no hot-path contention). This bench runs
//! the same streaming campaign fan-out three ways — plain, no-op recorder,
//! and a live [`MetricsRegistry`] — timed by the shared protocol of
//! `ixp_bench::paired`, one whole campaign per item, and writes the median
//! over passes of `(registry − plain) / plain` to
//! `target/bench-records/obs.json`; the `bench-gate` binary gates it
//! against `BENCH_obs.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ixp_bench::paired::{self, Overhead, PASSES};
use ixp_bench::record::Record;
use ixp_obs::{MetricsRegistry, NoopRecorder};
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::*;
use ixp_traffic::{DiurnalLoad, Shape};
use std::sync::Arc;
use tslp_core::campaign::{stream_vp_links, stream_vp_links_rec, CampaignConfig};
use tslp_core::series::LinkSeries;

/// Hub-and-branches substrate (the campaign-bench workload): `branches`
/// interdomain links behind one hub, odd branches congested with a weekday
/// plateau so both screening outcomes appear.
fn fanout_net(branches: u8) -> (Network, NodeId, Vec<TslpTarget>) {
    let mut net = Network::new(0x0B5E);
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

/// Campaigns per pass.
const ITEMS: usize = 4;

fn obs_overhead(_c: &mut Criterion) {
    // Few links over a week: telemetry has two cost classes — per-probe
    // (the Recorder::probe dispatch, proportional to work) and per-link
    // (ledger fold, histogram scan, registry merge, amortized over the
    // series length). The paper's campaigns hold ~113k rounds per link, so
    // per-link costs vanish in production; a days-long window would
    // over-weight them ~100×. A week (2016 rounds/link) keeps the mix
    // honest.
    let (net, vp, targets) = fanout_net(4);
    let mut cfg = CampaignConfig::exact(SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 3, 8));
    cfg.threads = 1; // sequential: isolates per-probe cost from pool scheduling noise

    // Every arm hands each series back through the identity consumer.
    let keep = |_: &mut (), _: usize, _: &TslpTarget, s: LinkSeries, sc: bool| (s, sc);
    let run = |arm: usize, _: usize| {
        match arm {
            0 => black_box(stream_vp_links(&net, vp, &targets, &cfg, None, || (), keep)),
            1 => black_box(stream_vp_links_rec(&net, vp, &targets, &cfg, None, &NoopRecorder, || (), keep)),
            _ => {
                let reg = MetricsRegistry::new();
                black_box(stream_vp_links_rec(&net, vp, &targets, &cfg, None, &reg, || (), keep))
            }
        };
    };
    {
        let reg = MetricsRegistry::new();
        stream_vp_links_rec(&net, vp, &targets, &cfg, None, &reg, || (), keep);
        eprintln!("[obs] workload: {}", reg.snapshot().one_line());
    }
    let passes = paired::passes(|p| paired::time_pass::<3>(p, ITEMS, &run));
    let live = Overhead::of(passes.iter().map(|[plain, _, live]| live / plain - 1.0));
    let noop = Overhead::of(passes.iter().map(|[plain, noop, _]| noop / plain - 1.0));
    let plain_ns = paired::median(passes.iter().map(|p| p[0]));

    let links_per_sec = (ITEMS * targets.len()) as f64 * 1e9 / plain_ns;
    eprintln!("[obs] plain    {:>10.0} ns/pass  ({links_per_sec:.1} links/s)", plain_ns);
    eprintln!("[obs] noop     {:+.2}% (IQR {:.2})", noop.pct, noop.iqr_pct);
    eprintln!("[obs] registry {:+.2}% (IQR {:.2}, {PASSES} passes)", live.pct, live.iqr_pct);

    let mut rec = Record::new("obs");
    rec.regime("links", targets.len() as u64).regime("items_per_pass", ITEMS as u64).regime("threads", 1);
    rec.metric("plain.links_per_sec", "links/s", links_per_sec)
        .metric("noop_overhead_pct", "%", noop.pct);
    live.write(&mut rec);
    rec.write_fresh();
}

criterion_group! {
    name = obs;
    config = Criterion::default();
    targets = obs_overhead
}
criterion_main!(obs);
