//! # ixp-topology — the African IXP substrate generator
//!
//! Generates the six vantage-point hosting networks of the study (Table 2)
//! as independent `ixp-simnet` networks, together with the synthetic
//! registry artefacts bdrmap consumes (BGP view, delegations, AS database,
//! organizations, IXP directory) and full ground truth for validation:
//!
//! - [`spec`] — the six [`spec::VpSpec`]s with the paper's shape numbers;
//! - [`evolution`] — membership churn (join/leave windows matching the
//!   snapshot counts of Table 2);
//! - [`ixps`] — the global IXP directory with fixed peering/management LANs;
//! - [`build`] — the builder: hosts, routers, churning neighbors, case-study
//!   links, noisy routers, routing, announcements.

#![warn(missing_docs)]

pub mod build;
pub mod continent;
pub mod evolution;
pub mod ixps;
pub mod spec;

pub use build::{build_vp, TruthKind, TruthLink, VpSubstrate};
pub use continent::{build_continent, Continent, ContinentSpec, MemberLink};
pub use evolution::{windows_from_schedule, Lifetime};
pub use ixps::{build_directory, ixp_lans, paper_directory};
pub use spec::{paper_vps, CountAt, NoisySpec, SpecialLink, VpSetting, VpSpec};
