//! RIR delegation files and the address allocator.
//!
//! bdrmap's inputs include "delegation files published by the 5 Regional
//! Internet Registries" (§4). We synthesize an AfriNIC-style delegation
//! table: each AS is allocated prefixes out of the blocks AfriNIC actually
//! administers (41/8, 102/8, 105/8, 154/8, 196/8, 197/8), deterministically,
//! with an allocation date and country. The same allocator hands out the IXP
//! peering/management LANs so that prefix ownership is consistent across the
//! whole synthetic Internet.

use ixp_simnet::prelude::{Asn, Ipv4, Prefix};
use serde::{Deserialize, Serialize};

/// Address blocks administered by the synthetic registry (AfriNIC's v4 pools).
pub const REGISTRY_BLOCKS: [(u8, u8); 6] = [(41, 8), (102, 8), (105, 8), (154, 8), (196, 8), (197, 8)];

/// One delegation record, in the spirit of an RIR extended-delegation line.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delegation {
    /// The delegated prefix.
    pub prefix: Prefix,
    /// Receiving AS.
    pub asn: Asn,
    /// Country code of the registrant.
    pub country: String,
    /// Allocation date, `YYYYMMDD` as in real delegation files.
    pub date: u32,
    /// Status column (`allocated` / `assigned`).
    pub status: DelegationStatus,
}

/// Delegation status.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelegationStatus {
    /// Provider-independent allocation to an LIR/ISP.
    Allocated,
    /// Direct assignment (IXPs receive assigned peering LANs).
    Assigned,
}

/// Deterministic sequential allocator over the registry blocks, plus the
/// resulting delegation table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AddressRegistry {
    delegations: Vec<Delegation>,
    /// Next free /16 index within each top-level block.
    cursor: usize,
    /// Allocation cursor *within* the current /16, in units of /24.
    sub_cursor: u32,
}

impl Default for AddressRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressRegistry {
    /// Fresh, empty registry.
    pub fn new() -> AddressRegistry {
        AddressRegistry { delegations: Vec::new(), cursor: 0, sub_cursor: 0 }
    }

    /// Total /16 pool size across all registry blocks.
    fn pool_slots() -> usize {
        REGISTRY_BLOCKS.len() * 256
    }

    fn slot_base(slot: usize) -> Ipv4 {
        let block = REGISTRY_BLOCKS[slot / 256].0;
        let second = (slot % 256) as u8;
        Ipv4::new(block, second, 0, 0)
    }

    /// Allocate a prefix of length `len` (16 ≤ len ≤ 24) to `asn`.
    ///
    /// Allocations are packed: /24s fill a /16 before the cursor moves on.
    /// Panics when the pool is exhausted (the synthetic Internet never gets
    /// close) or `len` is out of the supported range.
    pub fn allocate(&mut self, asn: Asn, country: &str, date: u32, len: u8, status: DelegationStatus) -> Prefix {
        assert!((16..=24).contains(&len), "supported allocation sizes are /16../24, got /{len}");
        let units = 1u32 << (24 - len); // size in /24s
        // Align within the current /16.
        let aligned = self.sub_cursor.div_ceil(units) * units;
        let (slot, offset) = if aligned + units <= 256 {
            (self.cursor, aligned)
        } else {
            (self.cursor + 1, 0)
        };
        assert!(slot < Self::pool_slots(), "registry address pool exhausted");
        let base = Self::slot_base(slot);
        let prefix = Prefix::new(Ipv4(base.0 + offset * 256), len);
        self.cursor = slot;
        self.sub_cursor = offset + units;
        if self.sub_cursor >= 256 {
            self.cursor += 1;
            self.sub_cursor = 0;
        }
        self.delegations.push(Delegation { prefix, asn, country: country.to_string(), date, status });
        prefix
    }

    /// All delegations, in allocation order.
    pub fn delegations(&self) -> &[Delegation] {
        &self.delegations
    }

    /// The delegation covering `addr`, if any.
    pub fn covering(&self, addr: Ipv4) -> Option<&Delegation> {
        // Delegations never overlap, so a linear scan is unambiguous; real
        // lookups go through the prefix→AS table built from announcements.
        self.delegations.iter().find(|d| d.prefix.contains(addr))
    }

    /// Render as an extended-delegation-format-style file body.
    pub fn to_file(&self) -> String {
        let mut out = String::new();
        for d in &self.delegations {
            let status = match d.status {
                DelegationStatus::Allocated => "allocated",
                DelegationStatus::Assigned => "assigned",
            };
            out.push_str(&format!(
                "afrinic|{}|ipv4|{}|{}|{}|{}|AS{}\n",
                d.country,
                d.prefix.base(),
                d.prefix.size(),
                d.date,
                status,
                d.asn.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_in_pool() {
        let mut reg = AddressRegistry::new();
        let mut got: Vec<Prefix> = Vec::new();
        for i in 0..200u32 {
            let len = 16 + (i % 9) as u8;
            let p = reg.allocate(Asn(i), "GH", 20160101, len, DelegationStatus::Allocated);
            for q in &got {
                assert!(!p.covers(*q) && !q.covers(p), "{p} overlaps {q}");
            }
            assert!(
                REGISTRY_BLOCKS.iter().any(|(b, l)| Prefix::new(Ipv4::new(*b, 0, 0, 0), *l).covers(p)),
                "{p} outside registry blocks"
            );
            got.push(p);
        }
    }

    #[test]
    fn covering_finds_owner() {
        let mut reg = AddressRegistry::new();
        let p = reg.allocate(Asn(33791), "TZ", 20040101, 22, DelegationStatus::Allocated);
        let d = reg.covering(p.addr(100)).unwrap();
        assert_eq!(d.asn, Asn(33791));
        assert!(reg.covering(Ipv4::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn file_format_lines() {
        let mut reg = AddressRegistry::new();
        reg.allocate(Asn(30997), "GH", 20050101, 24, DelegationStatus::Assigned);
        let f = reg.to_file();
        assert!(f.starts_with("afrinic|GH|ipv4|41.0.0.0|256|20050101|assigned|AS30997"), "{f}");
    }

    #[test]
    fn alignment_is_respected() {
        let mut reg = AddressRegistry::new();
        reg.allocate(Asn(1), "GH", 1, 24, DelegationStatus::Allocated); // 41.0.0/24
        let p = reg.allocate(Asn(2), "GH", 1, 20, DelegationStatus::Allocated);
        // /20 must start on a 16×/24 boundary: 41.0.16.0/20.
        assert_eq!(p.to_string(), "41.0.16.0/20");
        let q = reg.allocate(Asn(3), "GH", 1, 24, DelegationStatus::Allocated);
        assert_eq!(q.to_string(), "41.0.32.0/24");
    }

    #[test]
    #[should_panic(expected = "supported allocation sizes")]
    fn rejects_bad_length() {
        AddressRegistry::new().allocate(Asn(1), "GH", 1, 8, DelegationStatus::Allocated);
    }

    #[test]
    fn sixteen_fills_whole_slot() {
        let mut reg = AddressRegistry::new();
        let a = reg.allocate(Asn(1), "KE", 1, 16, DelegationStatus::Allocated);
        let b = reg.allocate(Asn(2), "KE", 1, 16, DelegationStatus::Allocated);
        assert_eq!(a.to_string(), "41.0.0.0/16");
        assert_eq!(b.to_string(), "41.1.0.0/16");
    }
}
