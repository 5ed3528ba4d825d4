//! Continent probe golden.
//!
//! One paper-exact day over a 2,000-link generated continent, measured
//! through `stream_vp_links` at one and at two workers. The hash folds
//! every series bit — near and far RTTs (NaN holes included), path
//! fingerprints, far-address mismatch counts — in target order. It was
//! pinned before the probe walk gained its ownership memo and lost its
//! per-link atomic counters; both changes claim to leave every probe result
//! untouched, and this test holds them to it on a substrate whose border
//! routers carry hundreds of interfaces.
//!
//! If the hash changes, the probe walk changed a result. Fix the walk,
//! never the golden.

use african_ixp_congestion::prober::tslp::TslpTarget;
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::topology::{build_continent, ContinentSpec};
use african_ixp_congestion::tslp::campaign::{stream_vp_links, CampaignConfig};
use african_ixp_congestion::tslp::series::LinkSeries;

const SEED: u64 = 5;
const LINKS: u32 = 2_000;

/// FNV-1a over little-endian u64 words.
fn fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_series(mut h: u64, s: &LinkSeries, screened: bool) -> u64 {
    h = fold(h, screened as u64);
    h = fold(h, s.near_ms.len() as u64);
    for &v in &s.near_ms {
        h = fold(h, v.to_bits());
    }
    for &v in &s.far_ms {
        h = fold(h, v.to_bits());
    }
    for &fp in &s.path_fp {
        h = fold(h, fp);
    }
    fold(h, s.far_addr_mismatches as u64)
}

fn hash_day(threads: usize) -> (usize, u64) {
    let c = build_continent(&ContinentSpec::with_total_links(LINKS), SEED);
    let targets: Vec<TslpTarget> = c
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
    let start = SimTime::from_date(2016, 3, 1);
    let cfg = CampaignConfig {
        threads,
        ..CampaignConfig::exact(start, start + SimDuration::from_days(1))
    };
    let per_link = stream_vp_links(
        &c.net,
        c.vp,
        &targets,
        &cfg,
        None,
        || (),
        |_, _, _, s, screened| fold_series(FNV_SEED, &s, screened),
    );
    let h = per_link
        .into_iter()
        .fold(FNV_SEED, |h, r| fold(h, r.expect("no link quarantined")));
    (targets.len(), h)
}

#[test]
fn continent_day_series_match_pinned_walk() {
    for threads in [1, 2] {
        let (n, h) = hash_day(threads);
        assert!(n > 1_500, "continent shape drifted: {n} links");
        assert_eq!(
            h, GOLDEN_CONTINENT_DAY,
            "continent series diverged at {threads} thread(s) (got {h:#018x})"
        );
    }
}

const GOLDEN_CONTINENT_DAY: u64 = 0x77a124f54348e6a8;
