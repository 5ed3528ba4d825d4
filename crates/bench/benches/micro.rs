//! Microbenchmarks of the substrate hot paths: the costs that decide
//! whether a year × six VPs × every-link-every-5-minutes campaign is
//! tractable (DESIGN.md §5).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ixp_prober::testutil::{congested_line, line_topology};
use ixp_prober::tslp::{tslp_probe, TslpConfig, TslpTarget};
use ixp_prober::traceroute::{traceroute, TracerouteConfig};
use ixp_simnet::ip::PrefixTable;
use ixp_simnet::prelude::*;

fn micro_probe_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_fast_path");
    g.throughput(Throughput::Elements(1));
    g.bench_function("idle_line_echo", |b| {
        let (net, vp, tgt) = line_topology(1);
        let mut ctx = net.probe_ctx(0);
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000_000;
            net.send_probe(&mut ctx, vp, ProbeSpec::echo(tgt), SimTime(t)).unwrap().rtt
        })
    });
    g.bench_function("congested_line_ttl2", |b| {
        let (net, vp, tgt) = congested_line(2, 1.2);
        let mut ctx = net.probe_ctx(0);
        let mut t = 3_600_000_000u64;
        b.iter(|| {
            t += 1_000_000;
            let _ = net.send_probe(&mut ctx, vp, ProbeSpec::ttl_limited(tgt, 2), SimTime(t));
        })
    });
    g.finish();
}

fn micro_tslp_round(c: &mut Criterion) {
    let (net, vp, tgt) = line_topology(3);
    let mut ctx = net.probe_ctx(0);
    let target = TslpTarget {
        dst: tgt,
        near_ttl: 1,
        far_ttl: 2,
        near_addr: Ipv4::new(10, 0, 0, 1),
        far_addr: Ipv4::new(10, 0, 1, 2),
    };
    let cfg = TslpConfig::default();
    let mut t = 0u64;
    c.bench_function("tslp_probe_pair", |b| {
        b.iter(|| {
            t += 300_000_000;
            tslp_probe(&net, &mut ctx, vp, &target, &cfg, SimTime(t))
        })
    });
}

fn micro_traceroute(c: &mut Criterion) {
    let (net, vp, tgt) = line_topology(4);
    let mut ctx = net.probe_ctx(0);
    let cfg = TracerouteConfig::default();
    let mut t = 0u64;
    c.bench_function("traceroute_3_hops", |b| {
        b.iter(|| {
            t += 1_000_000_000;
            traceroute(&net, &mut ctx, vp, tgt, &cfg, SimTime(t)).hops.len()
        })
    });
}

fn micro_prefix_table(c: &mut Criterion) {
    // A routing-table-scale LPM structure (10k prefixes, like the Liquid VP).
    let mut table = PrefixTable::new();
    let mut n = 0u32;
    for a in 0..40u32 {
        for b in 0..=255u32 {
            table.insert(Prefix::new(Ipv4::new(41, a as u8, b as u8, 0), 24), n);
            n += 1;
        }
    }
    let mut g = c.benchmark_group("prefix_table");
    g.throughput(Throughput::Elements(1));
    g.bench_function("lookup_10k", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            table.lookup(Ipv4::new(41, (x >> 8) as u8 % 40, x as u8, 1)).map(|(_, v)| *v)
        })
    });
    g.finish();
}

fn micro_queue_advance(c: &mut Criterion) {
    use ixp_simnet::link::{ConstantLoad, Dir, Link, LinkConfig, LinkId, NoLoad, Schedule};
    use std::sync::Arc;
    let cfg = LinkConfig {
        capacity_bps: Schedule::constant(1e8),
        ..LinkConfig::default()
    };
    let link = Link::new(
        LinkId(0),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(10, 0, 0, 2),
        cfg,
        Arc::new(ConstantLoad(9e7)), // near capacity: integration runs
        Arc::new(NoLoad),
        HashNoise::new(1),
    );
    let mut st = link.fresh_queue_state(Dir::AtoB);
    let mut t = 0u64;
    c.bench_function("queue_advance_5min_step", |b| {
        b.iter(|| {
            t += 300_000_000;
            link.queue_delay(Dir::AtoB, &mut st, SimTime(t))
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default();
    targets = micro_probe_fast_path, micro_tslp_round, micro_traceroute, micro_prefix_table,
              micro_queue_advance
}
criterion_main!(micro);
