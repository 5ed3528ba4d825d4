//! IPv4 addressing: addresses, prefixes, and a longest-prefix-match table.
//!
//! The study's inference chain is address-driven end to end: bdrmap maps
//! traceroute hops to ASes through a prefix→AS table, IXP peering LANs are
//! recognized by prefix membership (§5.1 "links having any of their IPs
//! belonging to the (peering or management) prefix of any studied IXP"), and
//! forwarding in the simulator uses longest-prefix match.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address (host byte order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4 = Ipv4(0);

    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    const fn octets(self) -> [u8; 4] {
        [(self.0 >> 24) as u8, (self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }

    /// Address `n` positions after `self`, panicking on wraparound.
    pub fn offset(self, n: u32) -> Ipv4 {
        Ipv4(self.0.checked_add(n).expect("IPv4 address space overflow"))
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

/// Error parsing an address or prefix from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Ipv4 {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split('.');
        let mut octets = [0u8; 4];
        for o in octets.iter_mut() {
            let part = it.next().ok_or_else(|| AddrParseError(s.to_string()))?;
            *o = part.parse().map_err(|_| AddrParseError(s.to_string()))?;
        }
        if it.next().is_some() {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 CIDR prefix. The network bits below the mask are always zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prefix {
    base: Ipv4,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { base: Ipv4(0), len: 0 };

    /// Construct a prefix, masking stray host bits. Panics if `len > 32`.
    pub fn new(base: Ipv4, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length out of range: {len}");
        Prefix { base: Ipv4(base.0 & Self::mask_bits(len)), len }
    }

    fn mask_bits(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Network base address.
    pub const fn base(self) -> Ipv4 {
        self.base
    }
    /// Mask length in bits.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }
    /// Number of addresses covered (saturates at `u32::MAX` for `/0`).
    pub fn size(self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len)
        }
    }

    /// Membership test.
    pub fn contains(self, addr: Ipv4) -> bool {
        (addr.0 & Self::mask_bits(self.len)) == self.base.0
    }

    /// True if `other` is fully inside `self` (or equal).
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.base)
    }

    /// The `i`-th address within the prefix. Panics when out of range.
    pub fn addr(self, i: u32) -> Ipv4 {
        assert!(self.len == 0 || i < self.size(), "address index {i} out of /{} prefix", self.len);
        self.base.offset(i)
    }

    /// Split into the two child prefixes of length `len + 1`.
    pub fn split(self) -> (Prefix, Prefix) {
        assert!(self.len < 32, "cannot split a /32");
        let child = self.len + 1;
        let hi = Ipv4(self.base.0 | (1u32 << (32 - child)));
        (Prefix::new(self.base, child), Prefix::new(hi, child))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl FromStr for Prefix {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| AddrParseError(s.to_string()))?;
        let base: Ipv4 = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| AddrParseError(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Prefix::new(base, len))
    }
}

/// A longest-prefix-match table mapping prefixes to values.
///
/// Implemented as a binary trie compressed into a flat node arena; lookup is
/// O(prefix length). This is the routing/forwarding structure used both by
/// simulated routers and by the bdrmap prefix→AS database.
#[derive(Clone, Debug)]
pub struct PrefixTable<T> {
    nodes: Vec<TrieNode<T>>,
    len: usize,
}

#[derive(Clone, Debug)]
struct TrieNode<T> {
    children: [Option<u32>; 2],
    value: Option<T>,
}

impl<T> Default for PrefixTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTable<T> {
    /// Empty table.
    pub fn new() -> Self {
        PrefixTable { nodes: vec![TrieNode { children: [None, None], value: None }], len: 0 }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }
    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(addr: Ipv4, depth: u8) -> usize {
        ((addr.0 >> (31 - depth)) & 1) as usize
    }

    /// Insert or replace the value at `prefix`, returning the previous value.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut idx = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.base(), depth);
            let next = match self.nodes[idx].children[b] {
                Some(n) => n as usize,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(TrieNode { children: [None, None], value: None });
                    self.nodes[idx].children[b] = Some(n as u32);
                    n
                }
            };
            idx = next;
        }
        let old = self.nodes[idx].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the value at exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let mut idx = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.base(), depth);
            idx = self.nodes[idx].children[b]? as usize;
        }
        let old = self.nodes[idx].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let mut idx = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.base(), depth);
            idx = self.nodes[idx].children[b]? as usize;
        }
        self.nodes[idx].value.as_ref()
    }

    /// Longest-prefix match: the most specific stored prefix containing `addr`.
    pub fn lookup(&self, addr: Ipv4) -> Option<(Prefix, &T)> {
        let mut idx = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            let b = Self::bit(addr, depth);
            match self.nodes[idx].children[b] {
                Some(n) => {
                    idx = n as usize;
                    if let Some(v) = self.nodes[idx].value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| {
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            (Prefix::new(Ipv4(addr.0 & mask), len), v)
        })
    }

    /// Iterate all `(prefix, value)` pairs in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::new();
        self.walk(0, 0, 0, &mut out);
        out.into_iter()
    }

    fn walk<'a>(&'a self, idx: usize, bits: u32, depth: u8, out: &mut Vec<(Prefix, &'a T)>) {
        if let Some(v) = self.nodes[idx].value.as_ref() {
            out.push((Prefix::new(Ipv4(bits), depth), v));
        }
        for b in 0..2u32 {
            if let Some(n) = self.nodes[idx].children[b as usize] {
                let bits = if depth < 32 { bits | (b << (31 - depth)) } else { bits };
                self.walk(n as usize, bits, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_display_and_parse() {
        let a = Ipv4::new(196, 49, 14, 1);
        assert_eq!(a.to_string(), "196.49.14.1");
        assert_eq!("196.49.14.1".parse::<Ipv4>().unwrap(), a);
        assert!("196.49.14".parse::<Ipv4>().is_err());
        assert!("196.49.14.1.9".parse::<Ipv4>().is_err());
        assert!("300.49.14.1".parse::<Ipv4>().is_err());
    }

    #[test]
    fn prefix_contains_and_masking() {
        let p: Prefix = "196.49.14.77/24".parse().unwrap();
        assert_eq!(p.base(), Ipv4::new(196, 49, 14, 0));
        assert!(p.contains(Ipv4::new(196, 49, 14, 255)));
        assert!(!p.contains(Ipv4::new(196, 49, 15, 0)));
        assert_eq!(p.size(), 256);
        assert_eq!(p.addr(7), Ipv4::new(196, 49, 14, 7));
    }

    #[test]
    fn prefix_covers() {
        let p24: Prefix = "10.0.0.0/24".parse().unwrap();
        let p26: Prefix = "10.0.0.64/26".parse().unwrap();
        assert!(p24.covers(p26));
        assert!(!p26.covers(p24));
        assert!(Prefix::DEFAULT.covers(p24));
        assert!(p24.covers(p24));
    }

    #[test]
    fn prefix_split_and_subprefixes() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let (lo, hi) = p.split();
        assert_eq!(lo.to_string(), "10.0.0.0/25");
        assert_eq!(hi.to_string(), "10.0.0.128/25");
        let ((a, b), (c, d)) = (lo.split(), hi.split());
        let subs = [a, b, c, d].map(|s| s.to_string());
        assert_eq!(subs, ["10.0.0.0/26", "10.0.0.64/26", "10.0.0.128/26", "10.0.0.192/26"]);
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = PrefixTable::new();
        t.insert(Prefix::DEFAULT, "default");
        t.insert("10.0.0.0/8".parse().unwrap(), "eight");
        t.insert("10.1.0.0/16".parse().unwrap(), "sixteen");
        t.insert("10.1.2.0/24".parse().unwrap(), "twentyfour");
        assert_eq!(t.lookup(Ipv4::new(10, 1, 2, 3)).unwrap().1, &"twentyfour");
        assert_eq!(t.lookup(Ipv4::new(10, 1, 9, 3)).unwrap().1, &"sixteen");
        assert_eq!(t.lookup(Ipv4::new(10, 9, 9, 9)).unwrap().1, &"eight");
        assert_eq!(t.lookup(Ipv4::new(192, 0, 2, 1)).unwrap().1, &"default");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn lpm_without_default_misses() {
        let mut t = PrefixTable::new();
        t.insert("10.0.0.0/8".parse().unwrap(), 1u32);
        assert!(t.lookup(Ipv4::new(11, 0, 0, 1)).is_none());
        let (p, v) = t.lookup(Ipv4::new(10, 255, 0, 1)).unwrap();
        assert_eq!((p.to_string().as_str(), *v), ("10.0.0.0/8", 1));
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = PrefixTable::new();
        let p: Prefix = "172.16.0.0/12".parse().unwrap();
        assert_eq!(t.insert(p, 1), None);
        assert_eq!(t.insert(p, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p), Some(&2));
        assert_eq!(t.remove(p), Some(2));
        assert_eq!(t.remove(p), None);
        assert!(t.is_empty());
        assert!(t.lookup(Ipv4::new(172, 16, 0, 1)).is_none());
    }

    #[test]
    fn iter_returns_all() {
        let mut t = PrefixTable::new();
        let ps: Vec<Prefix> =
            ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24", "0.0.0.0/0"].iter().map(|s| s.parse().unwrap()).collect();
        for (i, p) in ps.iter().enumerate() {
            t.insert(*p, i);
        }
        let mut got: Vec<_> = t.iter().map(|(p, _)| p).collect();
        got.sort();
        let mut want = ps.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn host_route_lookup() {
        let mut t = PrefixTable::new();
        let host = Prefix::new(Ipv4::new(197, 155, 64, 1), 32);
        t.insert(host, 9u8);
        let (p, v) = t.lookup(Ipv4::new(197, 155, 64, 1)).unwrap();
        assert_eq!(p, host);
        assert_eq!(*v, 9);
        assert!(t.lookup(Ipv4::new(197, 155, 64, 2)).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ipv4(a), l))
    }

    proptest! {
        /// LPM must agree with a brute-force scan over stored prefixes.
        #[test]
        fn lpm_matches_linear_scan(prefixes in proptest::collection::vec(arb_prefix(), 1..40), probe in any::<u32>()) {
            let mut t = PrefixTable::new();
            // Last insert wins for duplicate prefixes, mirror that in the model.
            let mut model: Vec<(Prefix, usize)> = Vec::new();
            for (i, p) in prefixes.iter().enumerate() {
                t.insert(*p, i);
                model.retain(|(q, _)| q != p);
                model.push((*p, i));
            }
            let addr = Ipv4(probe);
            let expect = model.iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            let got = t.lookup(addr).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, expect);
        }

        /// Parse/display round-trip for addresses and prefixes.
        #[test]
        fn display_parse_roundtrip(a in any::<u32>(), l in 0u8..=32) {
            let ip = Ipv4(a);
            prop_assert_eq!(ip.to_string().parse::<Ipv4>().unwrap(), ip);
            let p = Prefix::new(ip, l);
            prop_assert_eq!(p.to_string().parse::<Prefix>().unwrap(), p);
        }

        /// The four subprefixes two splits down are covered by their parent
        /// and tile it exactly.
        #[test]
        fn subprefixes_tile_parent(a in any::<u32>(), l in 8u8..=24) {
            let p = Prefix::new(Ipv4(a), l);
            let sub = l + 2;
            let (lo, hi) = p.split();
            let ((a, b), (c, d)) = (lo.split(), hi.split());
            let mut total = 0u64;
            for s in [a, b, c, d] {
                prop_assert_eq!(s.len(), sub);
                prop_assert!(p.covers(s));
                total += s.size() as u64;
            }
            prop_assert_eq!(total, p.size() as u64);
        }
    }
}
