//! The autonomous-system database: who an ASN is.
//!
//! Mirrors the role CAIDA's AS-to-organization mapping and the RIR whois
//! databases play for bdrmap: a place to look up the name, country, and
//! business type of an AS. The African IXP substrate entries (GIXA AS30997,
//! TIX AS33791, Liquid Telecom AS30844, …) are seeded by the topology crate;
//! synthetic member ASes get generated records.

use ixp_simnet::prelude::Asn;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Business category of an AS — drives both topology generation (who peers
/// with whom) and bdrmap's interpretation of a border.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Sells transit (regional or intercontinental carrier).
    Transit,
    /// Eyeball / access ISP.
    Access,
    /// Content provider or CDN cache operator.
    Content,
    /// An IXP's own AS (route servers, content network).
    IxpOperator,
    /// Research & education network.
    Education,
    /// Mobile operator.
    Mobile,
}

/// One AS record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsRecord {
    /// The AS number.
    pub asn: Asn,
    /// Short name ("GIXA", "GHANATEL", …).
    pub name: String,
    /// Organization id (joins [`crate::org::OrgDb`]).
    pub org: String,
    /// ISO-3166-ish country code ("GH", "KE", …).
    pub country: String,
    /// Business category.
    pub kind: AsKind,
}

/// In-memory AS database.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AsDb {
    records: HashMap<u32, AsRecord>,
}

impl AsDb {
    /// Empty database.
    pub fn new() -> AsDb {
        AsDb::default()
    }

    /// Insert or replace a record.
    pub fn insert(&mut self, rec: AsRecord) {
        self.records.insert(rec.asn.0, rec);
    }

    /// Look up an ASN.
    pub fn get(&self, asn: Asn) -> Option<&AsRecord> {
        self.records.get(&asn.0)
    }

    /// Name for an ASN, or `"AS<n>"` when unknown.
    pub fn name_of(&self, asn: Asn) -> String {
        self.get(asn).map(|r| r.name.clone()).unwrap_or_else(|| format!("AS{}", asn.0))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }
    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate all records (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &AsRecord> {
        self.records.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(asn: u32, name: &str, cc: &str, kind: AsKind) -> AsRecord {
        AsRecord { asn: Asn(asn), name: name.into(), org: format!("org-{name}"), country: cc.into(), kind }
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = AsDb::new();
        db.insert(rec(30997, "GIXA", "GH", AsKind::IxpOperator));
        db.insert(rec(29614, "GHANATEL", "GH", AsKind::Access));
        assert_eq!(db.get(Asn(30997)).unwrap().name, "GIXA");
        assert_eq!(db.len(), 2);
        assert!(db.get(Asn(1)).is_none());
    }

    #[test]
    fn name_of_falls_back() {
        let mut db = AsDb::new();
        db.insert(rec(33786, "KNET", "GH", AsKind::Content));
        assert_eq!(db.name_of(Asn(33786)), "KNET");
        assert_eq!(db.name_of(Asn(12345)), "AS12345");
    }

    #[test]
    fn replace_updates() {
        let mut db = AsDb::new();
        db.insert(rec(1, "A", "GH", AsKind::Access));
        db.insert(rec(1, "B", "KE", AsKind::Transit));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(Asn(1)).unwrap().name, "B");
    }
}
