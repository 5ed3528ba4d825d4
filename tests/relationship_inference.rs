//! The AS-rank stand-in at scale: Gao-style relationship inference over a
//! synthetic valley-free Internet, validated against ground truth — the
//! quality bar for the relationship data bdrmap consumes (§4).

use african_ixp_congestion::registry::prelude::*;
use african_ixp_congestion::simnet::prelude::{Asn, HashNoise};
use std::collections::HashSet;

/// Build a 3-tier hierarchy: `t1` tier-1s (full peer mesh), `t2` regionals
/// (customers of 2 tier-1s, peering with some siblings-in-tier), `t3` stubs
/// (customers of 2 regionals). Returns (truth, valley-free paths).
fn synthetic_internet(t1: u32, t2: u32, t3: u32, seed: u64) -> (RelationshipDb, Vec<Vec<Asn>>) {
    let noise = HashNoise::new(seed);
    let mut truth = RelationshipDb::new();
    let tier1: Vec<Asn> = (0..t1).map(|i| Asn(100 + i)).collect();
    let tier2: Vec<Asn> = (0..t2).map(|i| Asn(1000 + i)).collect();
    let tier3: Vec<Asn> = (0..t3).map(|i| Asn(10_000 + i)).collect();

    for (i, &a) in tier1.iter().enumerate() {
        for &b in &tier1[i + 1..] {
            truth.set(a, b, Relationship::PeerOf);
        }
    }
    let mut providers_of = std::collections::HashMap::new();
    for (i, &r) in tier2.iter().enumerate() {
        let p1 = tier1[i % tier1.len()];
        let p2 = tier1[(i / 2 + 1) % tier1.len()];
        truth.set(r, p1, Relationship::CustomerOf);
        if p2 != p1 {
            truth.set(r, p2, Relationship::CustomerOf);
        }
        providers_of.insert(r, (p1, p2));
    }
    let mut stub_providers = std::collections::HashMap::new();
    for (i, &s) in tier3.iter().enumerate() {
        let r1 = tier2[i % tier2.len()];
        let r2 = tier2[(i * 7 + 3) % tier2.len()];
        truth.set(s, r1, Relationship::CustomerOf);
        if r2 != r1 {
            truth.set(s, r2, Relationship::CustomerOf);
        }
        stub_providers.insert(s, (r1, r2));
    }

    // Valley-free paths: stub → regional → tier1 [→ tier1 peer → regional → stub].
    let mut paths = Vec::new();
    for (si, &s) in tier3.iter().enumerate() {
        for k in 0..6u64 {
            let (r1, _) = stub_providers[&s];
            let (p1, _) = providers_of[&r1];
            let dst = tier3[(noise.u64(1, si as u64 * 31 + k) % tier3.len() as u64) as usize];
            if dst == s {
                continue;
            }
            let (dr1, _) = stub_providers[&dst];
            let (dp1, _) = providers_of[&dr1];
            let mut path = vec![s, r1, p1];
            if dp1 != p1 {
                path.push(dp1); // tier-1 peering hop
            }
            path.push(dr1);
            path.push(dst);
            path.dedup();
            paths.push(path);
        }
    }
    (truth, paths)
}

#[test]
fn inference_recovers_hierarchy() {
    let (truth, paths) = synthetic_internet(4, 20, 150, 7);
    assert!(paths.len() > 500);
    let inferred = infer_relationships(&paths, &HashSet::new());
    let agreement = truth.agreement_with(&inferred).expect("overlapping edges");
    assert!(agreement >= 0.85, "agreement {agreement:.3} over {} inferred edges", inferred.len());
}

#[test]
fn customer_provider_direction_mostly_right() {
    let (truth, paths) = synthetic_internet(3, 12, 80, 11);
    let inferred = infer_relationships(&paths, &HashSet::new());
    // Specifically check c2p direction (where Gao's heuristic earns its keep).
    let mut checked = 0;
    let mut right = 0;
    for (a, b, r) in truth.edges() {
        if r == Relationship::PeerOf {
            continue;
        }
        if let Some(inf) = inferred.get(a, b) {
            checked += 1;
            if inf == r {
                right += 1;
            }
        }
    }
    assert!(checked > 50, "only {checked} c2p edges overlapped");
    let frac = right as f64 / checked as f64;
    assert!(frac >= 0.9, "c2p direction right {frac:.3}");
}
