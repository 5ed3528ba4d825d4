//! Organizations and sibling lists.
//!
//! bdrmap needs "a list of sibling ASes of the VP's AS", built by a
//! "semi-manual process seeded with CAIDA's AS-to-organization mapping" (§4).
//! This module is that mapping: organizations own sets of ASes; two ASes are
//! siblings when one organization owns both. The synthetic substrate's
//! organization data is already correct, so there is no manual curation step
//! to layer on top of it.

use ixp_simnet::prelude::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// AS-to-organization mapping.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct OrgDb {
    org_of: HashMap<u32, String>,
    members: HashMap<String, Vec<u32>>,
}

impl OrgDb {
    /// Empty database.
    pub fn new() -> OrgDb {
        OrgDb::default()
    }

    /// Register `asn` as owned by `org`.
    pub fn assign(&mut self, asn: Asn, org: &str) {
        if let Some(old) = self.org_of.insert(asn.0, org.to_string()) {
            if let Some(v) = self.members.get_mut(&old) {
                v.retain(|&a| a != asn.0);
            }
        }
        self.members.entry(org.to_string()).or_default().push(asn.0);
    }

    /// Organization owning `asn`.
    pub fn org_of(&self, asn: Asn) -> Option<&str> {
        self.org_of.get(&asn.0).map(|s| s.as_str())
    }

    /// ASes owned by `org`.
    fn members_of(&self, org: &str) -> Vec<Asn> {
        self.members.get(org).map(|v| v.iter().map(|&a| Asn(a)).collect()).unwrap_or_default()
    }

    /// Are `a` and `b` siblings: distinct ASes one organization owns?
    pub fn are_siblings(&self, a: Asn, b: Asn) -> bool {
        if a == b {
            return false;
        }
        match (self.org_of(a), self.org_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Sibling list of `asn` (the bdrmap input).
    pub fn siblings_of(&self, asn: Asn) -> Vec<Asn> {
        let mut out: Vec<Asn> = match self.org_of(asn) {
            Some(org) => self.members_of(org).into_iter().filter(|&m| m != asn).collect(),
            None => Vec::new(),
        };
        out.sort();
        out
    }

    /// All sibling pairs as `(min, max)` ASN tuples — the input format
    /// [`crate::relationships::infer_relationships`] takes.
    pub fn sibling_pairs(&self) -> HashSet<(u32, u32)> {
        let mut pairs = HashSet::new();
        for members in self.members.values() {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    pairs.insert((a.min(b), a.max(b)));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_membership_implies_siblings() {
        let mut db = OrgDb::new();
        db.assign(Asn(30844), "liquid-telecom");
        db.assign(Asn(30969), "liquid-telecom");
        db.assign(Asn(29614), "vodafone-gh");
        assert!(db.are_siblings(Asn(30844), Asn(30969)));
        assert!(!db.are_siblings(Asn(30844), Asn(29614)));
        assert!(!db.are_siblings(Asn(30844), Asn(30844)));
        assert_eq!(db.siblings_of(Asn(30844)), vec![Asn(30969)]);
    }

    #[test]
    fn reassignment_moves_membership() {
        let mut db = OrgDb::new();
        db.assign(Asn(10), "x");
        db.assign(Asn(10), "y");
        assert_eq!(db.org_of(Asn(10)), Some("y"));
        assert!(db.members_of("x").is_empty());
        assert_eq!(db.members_of("y"), vec![Asn(10)]);
    }

    #[test]
    fn sibling_pairs_for_inference() {
        let mut db = OrgDb::new();
        db.assign(Asn(1), "a");
        db.assign(Asn(2), "a");
        db.assign(Asn(3), "a");
        db.assign(Asn(7), "b");
        let pairs = db.sibling_pairs();
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(1, 3)));
        assert!(pairs.contains(&(2, 3)));
        assert!(!pairs.contains(&(1, 7)));
    }
}
