//! # ixp-geo — geolocation and reverse-DNS hints
//!
//! §5.1: "We also geolocated both IPs of each link using the Netacuity Edge
//! Database and hints in Reverse DNS outputs as added checks that those
//! links were indeed established at the IXPs." This crate supplies both
//! inputs:
//!
//! - [`GeoDb`] — a commercial-style geolocation database built from the
//!   synthetic delegations, with a configurable error model (the literature
//!   the paper cites — Geocompare, "IP Geolocation Databases: Unreliable?" —
//!   is precisely about such errors, so a perfect database would be the
//!   wrong substitute);
//! - [`rdns`] — interface hostname synthesis and hint parsing (city / IATA /
//!   country tokens embedded in router names).

#![warn(missing_docs)]

pub mod rdns;

use ixp_registry::delegation::AddressRegistry;
use ixp_registry::ixpdir::IxpDirectory;
use ixp_simnet::ip::PrefixTable;
use ixp_simnet::prelude::{Ipv4, Prefix};
use ixp_simnet::rng::{streams, HashNoise};
use serde::{Deserialize, Serialize};

/// A geolocation answer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeoRecord {
    /// ISO country code.
    pub country: String,
    /// City name.
    pub city: String,
}

/// The canonical city for a country in the studied region.
pub fn capital_of(country: &str) -> &'static str {
    match country {
        "GH" => "Accra",
        "TZ" => "Dar es Salaam",
        "ZA" => "Johannesburg",
        "GM" => "Serekunda",
        "KE" => "Nairobi",
        "RW" => "Kigali",
        "EU" => "London",
        _ => "Unknown",
    }
}

/// A Netacuity-style prefix-keyed geolocation database with injected error.
pub struct GeoDb {
    table: PrefixTable<GeoRecord>,
    noise: HashNoise,
}

/// Country codes the error model draws wrong answers from.
const WRONG_POOL: [&str; 6] = ["US", "GB", "FR", "DE", "NL", "IN"];

impl GeoDb {
    /// Build from delegations and the IXP directory. `error_rate` is the
    /// per-prefix probability of recording a wrong country (commercial
    /// databases famously misplace African space).
    pub fn build(delegations: &AddressRegistry, ixps: &IxpDirectory, error_rate: f64, noise: HashNoise) -> GeoDb {
        assert!((0.0..=1.0).contains(&error_rate), "error rate out of range");
        let mut table = PrefixTable::new();
        for d in delegations.delegations() {
            let wrong = noise.chance(streams::GEO_ERROR, d.prefix.base().0 as u64, error_rate);
            let country = if wrong {
                WRONG_POOL[(noise.u64(streams::GEO_ERROR, d.prefix.base().0 as u64 ^ 0xf) % 6) as usize].to_string()
            } else {
                d.country.clone()
            };
            let city = capital_of(&country).to_string();
            table.insert(d.prefix, GeoRecord { country, city });
        }
        for r in ixps.iter() {
            for p in r.peering.iter().chain(r.management.iter()) {
                table.insert(
                    *p,
                    GeoRecord { country: r.country.clone(), city: capital_of(&r.country).to_string() },
                );
            }
        }
        GeoDb { table, noise }
    }

    /// An empty database (tests).
    pub fn empty() -> GeoDb {
        GeoDb { table: PrefixTable::new(), noise: HashNoise::new(0) }
    }

    /// Insert one record directly.
    pub fn insert(&mut self, prefix: Prefix, rec: GeoRecord) {
        self.table.insert(prefix, rec);
    }

    /// Look up an address.
    pub fn lookup(&self, addr: Ipv4) -> Option<&GeoRecord> {
        self.table.lookup(addr).map(|(_, r)| r)
    }

    /// Internal noise handle (for derived synthetic artefacts).
    pub fn noise(&self) -> HashNoise {
        self.noise
    }
}

/// §5.1's added check: do both ends of a link geolocate to the IXP's
/// country (by database or by rDNS hint)? Returns `None` when neither
/// source covers an address — the honest "inconclusive".
pub fn link_in_country(
    geo: &GeoDb,
    a: (Ipv4, Option<&str>),
    b: (Ipv4, Option<&str>),
    country: &str,
) -> Option<bool> {
    let side = |(addr, hostname): (Ipv4, Option<&str>)| -> Option<bool> {
        if let Some(h) = hostname {
            if let Some(hint) = rdns::parse_hints(h) {
                return Some(hint.country.eq_ignore_ascii_case(country));
            }
        }
        geo.lookup(addr).map(|r| r.country == country)
    };
    match (side(a), side(b)) {
        (Some(x), Some(y)) => Some(x && y),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_registry::delegation::DelegationStatus;
    use ixp_simnet::prelude::Asn;

    fn db(error: f64) -> (GeoDb, Prefix) {
        let mut reg = AddressRegistry::new();
        let p = reg.allocate(Asn(30997), "GH", 20050101, 24, DelegationStatus::Assigned);
        for i in 0..200u32 {
            reg.allocate(Asn(100 + i), "KE", 20100101, 24, DelegationStatus::Allocated);
        }
        let dir = IxpDirectory::new();
        (GeoDb::build(&reg, &dir, error, HashNoise::new(5)), p)
    }

    #[test]
    fn clean_db_geolocates_correctly() {
        let (g, p) = db(0.0);
        let r = g.lookup(p.addr(7)).unwrap();
        assert_eq!(r.country, "GH");
        assert_eq!(r.city, "Accra");
        assert!(g.lookup(Ipv4::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn error_model_misplaces_roughly_at_rate() {
        let (g, _) = db(0.2);
        let mut wrong = 0;
        let mut total = 0;
        for d in 0..200u32 {
            let addr = Ipv4::new(41, 0, (d + 1) as u8, 1);
            if let Some(r) = g.lookup(addr) {
                total += 1;
                if r.country != "GH" && r.country != "KE" {
                    wrong += 1;
                }
            }
        }
        assert!(total > 100);
        let rate = wrong as f64 / total as f64;
        assert!((0.08..0.35).contains(&rate), "error rate {rate}");
    }

    #[test]
    fn ixp_lans_always_right() {
        let mut reg = AddressRegistry::new();
        let mut dir = IxpDirectory::new();
        dir.add(ixp_registry::ixpdir::IxpRecord {
            id: dir.next_id(),
            name: "KIXP".into(),
            country: "KE".into(),
            region: "East Africa".into(),
            operator_asn: Asn(4558),
            peering: vec!["196.223.20.0/22".parse().unwrap()],
            management: vec![],
            members: vec![],
            launched: 2002,
        });
        reg.allocate(Asn(1), "GH", 1, 24, DelegationStatus::Allocated);
        let g = GeoDb::build(&reg, &dir, 1.0, HashNoise::new(9));
        // Even at 100% delegation error, LAN records come from the directory.
        assert_eq!(g.lookup(Ipv4::new(196, 223, 21, 4)).unwrap().country, "KE");
    }

    #[test]
    fn link_in_country_combines_sources() {
        let (g, p) = db(0.0);
        let a = (p.addr(1), None);
        let b = (p.addr(2), Some("xe-0.rtr1.accra.gh.afrixp.net"));
        assert_eq!(link_in_country(&g, a, b, "GH"), Some(true));
        assert_eq!(link_in_country(&g, a, b, "KE"), Some(false));
        let unknown = (Ipv4::new(9, 9, 9, 9), None);
        assert_eq!(link_in_country(&g, unknown, unknown, "GH"), None);
        // Hostname hint wins over a missing database record.
        let only_hint = (Ipv4::new(9, 9, 9, 9), Some("ge-1.core.nairobi.ke.example.net"));
        assert_eq!(link_in_country(&g, only_hint, (Ipv4::new(9, 9, 9, 8), None), "KE"), Some(true));
    }
}
