//! AS business relationships and their inference from BGP paths.
//!
//! The paper feeds bdrmap "CAIDA's AS-rank algorithm used to infer AS
//! relationships" (§4). We provide both sides of that coin:
//!
//! - [`RelationshipDb`]: the ground-truth store the topology generator fills
//!   in (customer→provider, peer–peer, sibling), queryable in either
//!   direction;
//! - [`infer_relationships`]: a Gao-style inference pass over observed AS
//!   paths (the transit-degree heuristic at the heart of AS-rank's
//!   bootstrap): the highest-degree AS in a path is its summit, links on the
//!   way up are customer→provider, links on the way down provider→customer,
//!   and the summit link (if the path is valley-free with a flat top) is
//!   peer–peer.
//!
//! The study crate validates inference against ground truth the way the
//! paper validated bdrmap output against public datasets.

use ixp_simnet::prelude::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Relationship of `a` to `b` (read: "a is X of b").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// `a` buys transit from `b`.
    CustomerOf,
    /// `a` sells transit to `b`.
    ProviderOf,
    /// Settlement-free peers.
    PeerOf,
    /// Same organization.
    SiblingOf,
}

impl Relationship {
    /// The relationship as seen from the other side.
    fn invert(self) -> Relationship {
        match self {
            Relationship::CustomerOf => Relationship::ProviderOf,
            Relationship::ProviderOf => Relationship::CustomerOf,
            Relationship::PeerOf => Relationship::PeerOf,
            Relationship::SiblingOf => Relationship::SiblingOf,
        }
    }
}

/// Ground-truth (or inferred) relationship store.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RelationshipDb {
    // Key is the ordered pair (min, max); value is min's relationship to max.
    edges: BTreeMap<(u32, u32), Relationship>,
}

impl RelationshipDb {
    /// Empty store.
    pub fn new() -> RelationshipDb {
        RelationshipDb::default()
    }

    /// Record that `a` is `rel` of `b` (the symmetric view is implied).
    pub fn set(&mut self, a: Asn, b: Asn, rel: Relationship) {
        assert!(a != b, "relationship with self");
        if a.0 < b.0 {
            self.edges.insert((a.0, b.0), rel);
        } else {
            self.edges.insert((b.0, a.0), rel.invert());
        }
    }

    /// `a`'s relationship to `b`, if known.
    pub fn get(&self, a: Asn, b: Asn) -> Option<Relationship> {
        if a.0 < b.0 {
            self.edges.get(&(a.0, b.0)).copied()
        } else {
            self.edges.get(&(b.0, a.0)).map(|r| r.invert())
        }
    }

    /// All edges as `(a, b, a-rel-to-b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        self.edges.iter().map(|(&(a, b), &r)| (Asn(a), Asn(b), r))
    }

    /// Providers of `asn`.
    pub fn providers_of(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors_with(asn, Relationship::CustomerOf)
    }

    /// Customers of `asn`.
    pub fn customers_of(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors_with(asn, Relationship::ProviderOf)
    }

    /// Peers of `asn`.
    pub fn peers_of(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors_with(asn, Relationship::PeerOf)
    }

    fn neighbors_with(&self, asn: Asn, rel: Relationship) -> Vec<Asn> {
        let mut out = Vec::new();
        for (a, b, r) in self.edges() {
            if a == asn && r == rel {
                out.push(b);
            } else if b == asn && r.invert() == rel {
                out.push(a);
            }
        }
        out
    }

    /// Number of stored edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }
    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Fraction of edges in `other` that agree with this store (this = truth).
    /// Edges missing from `self` are skipped; returns `None` when nothing
    /// overlaps.
    pub fn agreement_with(&self, other: &RelationshipDb) -> Option<f64> {
        let mut seen = 0usize;
        let mut agree = 0usize;
        for (a, b, r) in other.edges() {
            if let Some(truth) = self.get(a, b) {
                seen += 1;
                if truth == r {
                    agree += 1;
                }
            }
        }
        if seen == 0 {
            None
        } else {
            Some(agree as f64 / seen as f64)
        }
    }
}

/// Gao-style relationship inference from a set of AS paths.
///
/// `siblings` lists organization-mates to annotate as [`Relationship::SiblingOf`]
/// instead of letting degree decide.
pub fn infer_relationships(paths: &[Vec<Asn>], siblings: &HashSet<(u32, u32)>) -> RelationshipDb {
    // 1. Transit degree: number of distinct neighbors an AS appears adjacent
    //    to across all paths.
    let mut neighbors: HashMap<u32, HashSet<u32>> = HashMap::new();
    for path in paths {
        for w in path.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            neighbors.entry(w[0].0).or_default().insert(w[1].0);
            neighbors.entry(w[1].0).or_default().insert(w[0].0);
        }
    }
    let degree = |a: Asn| neighbors.get(&a.0).map(|s| s.len()).unwrap_or(0);

    let is_sibling =
        |a: Asn, b: Asn| siblings.contains(&(a.0.min(b.0), a.0.max(b.0)));

    // 2. Vote per edge: each path votes up/down/top for each of its links.
    #[derive(Default, Clone, Copy)]
    struct Votes {
        up: u32,   // first is customer of second
        down: u32, // first is provider of second
        top: u32,  // summit link: peer candidate
    }
    let mut votes: HashMap<(u32, u32), Votes> = HashMap::new();
    for path in paths {
        if path.len() < 2 {
            continue;
        }
        // Summit = position of the max-degree AS.
        let summit = (0..path.len()).max_by_key(|&i| (degree(path[i]), usize::MAX - i)).unwrap();
        for (i, w) in path.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            if a == b || is_sibling(a, b) {
                continue;
            }
            let key = (a.0.min(b.0), b.0.max(a.0));
            let v = votes.entry(key).or_default();
            let a_first = a.0 < b.0;
            if i < summit {
                // Climbing: earlier is customer of later.
                if a_first {
                    v.up += 1;
                } else {
                    v.down += 1;
                }
            } else if i >= summit {
                // Descending: earlier is provider of later.
                if a_first {
                    v.down += 1;
                } else {
                    v.up += 1;
                }
            } else {
                v.top += 1;
            }
        }
        // A flat-topped path (two adjacent ASes of equal max degree) marks
        // the summit link a peering candidate.
        if summit + 1 < path.len() && degree(path[summit + 1]) == degree(path[summit]) {
            let (a, b) = (path[summit], path[summit + 1]);
            if a != b && !is_sibling(a, b) {
                let key = (a.0.min(b.0), b.0.max(a.0));
                votes.entry(key).or_default().top += 2;
            }
        }
    }

    // 3. Decide: peers need dominant top votes; otherwise majority up/down.
    let mut db = RelationshipDb::new();
    for (&(lo, hi), v) in &votes {
        let rel = if v.top > v.up && v.top > v.down {
            Relationship::PeerOf
        } else if v.up >= v.down {
            Relationship::CustomerOf
        } else {
            Relationship::ProviderOf
        };
        db.set(Asn(lo), Asn(hi), rel);
    }
    for &(a, b) in siblings {
        if neighbors.get(&a).map(|s| s.contains(&b)).unwrap_or(false) {
            db.set(Asn(a), Asn(b), Relationship::SiblingOf);
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_symmetric() {
        let mut db = RelationshipDb::new();
        db.set(Asn(10), Asn(20), Relationship::CustomerOf);
        assert_eq!(db.get(Asn(10), Asn(20)), Some(Relationship::CustomerOf));
        assert_eq!(db.get(Asn(20), Asn(10)), Some(Relationship::ProviderOf));
        db.set(Asn(30), Asn(20), Relationship::PeerOf);
        assert_eq!(db.get(Asn(20), Asn(30)), Some(Relationship::PeerOf));
        assert_eq!(db.get(Asn(1), Asn(2)), None);
    }

    #[test]
    fn neighbor_queries() {
        let mut db = RelationshipDb::new();
        db.set(Asn(100), Asn(1), Relationship::CustomerOf);
        db.set(Asn(100), Asn(2), Relationship::CustomerOf);
        db.set(Asn(100), Asn(50), Relationship::PeerOf);
        db.set(Asn(100), Asn(200), Relationship::ProviderOf);
        let mut p = db.providers_of(Asn(100));
        p.sort();
        assert_eq!(p, vec![Asn(1), Asn(2)]);
        assert_eq!(db.customers_of(Asn(100)), vec![Asn(200)]);
        assert_eq!(db.peers_of(Asn(100)), vec![Asn(50)]);
    }

    #[test]
    fn inference_on_simple_hierarchy() {
        // Tier1 (1) sells to regionals (10, 20); they sell to stubs (100..).
        // Many observed paths radiate through the hierarchy.
        let paths: Vec<Vec<Asn>> = vec![
            vec![Asn(100), Asn(10), Asn(1), Asn(20), Asn(200)],
            vec![Asn(101), Asn(10), Asn(1), Asn(20), Asn(201)],
            vec![Asn(100), Asn(10), Asn(1)],
            vec![Asn(200), Asn(20), Asn(1)],
            vec![Asn(102), Asn(10), Asn(1), Asn(20), Asn(202)],
            // Direct customers of the tier-1, so its transit degree tops the
            // regionals' (as in any real BGP view).
            vec![Asn(300), Asn(1)],
            vec![Asn(301), Asn(1)],
            vec![Asn(302), Asn(1)],
            vec![Asn(303), Asn(1)],
            vec![Asn(304), Asn(1)],
        ];
        let db = infer_relationships(&paths, &HashSet::new());
        assert_eq!(db.get(Asn(100), Asn(10)), Some(Relationship::CustomerOf));
        assert_eq!(db.get(Asn(10), Asn(1)), Some(Relationship::CustomerOf));
        assert_eq!(db.get(Asn(1), Asn(20)), Some(Relationship::ProviderOf));
        assert_eq!(db.get(Asn(20), Asn(200)), Some(Relationship::ProviderOf));
    }

    #[test]
    fn inference_detects_flat_top_peering() {
        // Two equal-degree regionals peer; stubs hang off each.
        let paths: Vec<Vec<Asn>> = vec![
            vec![Asn(100), Asn(10), Asn(20), Asn(200)],
            vec![Asn(101), Asn(10), Asn(20), Asn(201)],
            vec![Asn(200), Asn(20), Asn(10), Asn(100)],
            vec![Asn(201), Asn(20), Asn(10), Asn(101)],
        ];
        let db = infer_relationships(&paths, &HashSet::new());
        assert_eq!(db.get(Asn(10), Asn(20)), Some(Relationship::PeerOf));
        assert_eq!(db.get(Asn(100), Asn(10)), Some(Relationship::CustomerOf));
    }

    #[test]
    fn siblings_override_votes() {
        let mut sib = HashSet::new();
        sib.insert((10, 11));
        let paths = vec![vec![Asn(100), Asn(10), Asn(11), Asn(200)]];
        let db = infer_relationships(&paths, &sib);
        assert_eq!(db.get(Asn(10), Asn(11)), Some(Relationship::SiblingOf));
    }

    #[test]
    fn agreement_metric() {
        let mut truth = RelationshipDb::new();
        truth.set(Asn(1), Asn(2), Relationship::CustomerOf);
        truth.set(Asn(2), Asn(3), Relationship::PeerOf);
        let mut inferred = RelationshipDb::new();
        inferred.set(Asn(1), Asn(2), Relationship::CustomerOf);
        inferred.set(Asn(2), Asn(3), Relationship::CustomerOf);
        inferred.set(Asn(7), Asn(8), Relationship::PeerOf); // unknown to truth
        assert_eq!(truth.agreement_with(&inferred), Some(0.5));
        assert_eq!(RelationshipDb::new().agreement_with(&inferred), None);
    }

    #[test]
    #[should_panic(expected = "relationship with self")]
    fn self_relationship_rejected() {
        RelationshipDb::new().set(Asn(5), Asn(5), Relationship::PeerOf);
    }
}
