//! # ixp-prober — the scamper-equivalent probing engine
//!
//! The measurement front-end the study runs on its Ark vantage points,
//! reimplemented against `ixp-simnet`:
//!
//! - [`traceroute`](crate::traceroute::traceroute) — TTL-incrementing path
//!   discovery with retries, pacing, and a gap limit (the bdrmap input
//!   primitive);
//! - [`tslp`] — the paper's core primitive: per-round TTL-limited probes to
//!   the near and far routers of each mapped link (§3–4);
//! - [`loss`] — 1 packet/s, 100-probe loss batches (§4, Figures 2b/3b);
//! - [`rr`] — record-route path-symmetry checks (§5.2);
//! - [`mod@fingerprint`] — per-round path fingerprints from the TSLP TTL ladder
//!   plus periodic RR symmetry spot checks, so the campaign records when the
//!   near/far path actually changed.
//!
//! All probing is paced to respect the study's ethics budget (small packets,
//! ≤100 packets per second from a vantage point).

#![warn(missing_docs)]

pub mod fingerprint;
pub mod loss;
pub mod rr;
pub mod testutil;
pub mod traceroute;
pub mod tslp;

pub use fingerprint::{fingerprint, spot_check_symmetry, transitions, FP_UNKNOWN};
pub use loss::{loss_batch, LossBatch, LossConfig};
pub use rr::{record_route_symmetry, symmetry_votes, Symmetry};
pub use traceroute::{traceroute, Hop, Traceroute, TracerouteConfig};
pub use tslp::{tslp_probe, tslp_round, TslpConfig, TslpSample, TslpTarget};

/// Common imports.
pub mod prelude {
    pub use crate::fingerprint::{fingerprint, spot_check_symmetry, transitions, FP_UNKNOWN};
    pub use crate::loss::{loss_batch, LossBatch, LossConfig};
    pub use crate::rr::{record_route_symmetry, symmetry_votes, Symmetry};
    pub use crate::traceroute::{traceroute, Hop, Traceroute, TracerouteConfig};
    pub use crate::tslp::{tslp_probe, tslp_round, TslpConfig, TslpSample, TslpTarget};
}
