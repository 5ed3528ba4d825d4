//! # ixp-traffic — offered-load workloads for the simulated IXP substrate
//!
//! The paper never sees traffic directly — only its *consequences*: queueing
//! delay and loss on interdomain links, sampled by TSLP probes. This crate
//! supplies the deterministic, random-access load functions that drive the
//! `ixp-simnet` fluid queues:
//!
//! - [`profile`] — diurnal/weekly load shapes ([`profile::DiurnalLoad`]);
//! - [`phased`] — date-keyed regime changes ([`phased::PhasedLoad`]);
//! - [`slowpath`] — delay that is *not* queueing: diurnal ICMP slow paths
//!   (the KNET mechanism) and sporadic non-diurnal level shifts;
//! - [`scenarios`] — the calibrated paper case studies (GIXA–GHANATEL,
//!   GIXA–KNET, QCELL–NETPAGE) plus the healthy link generator, each with
//!   machine-readable ground truth.

#![warn(missing_docs)]

pub mod phased;
pub mod profile;
pub mod scenarios;
pub mod slowpath;

pub use phased::PhasedLoad;
pub use profile::{DiurnalLoad, Shape};
pub use scenarios::{Cause, GroundTruth, LinkScenario, PhaseTruth};
pub use slowpath::{DiurnalSlowPath, RandomShifts, WindowedSlowPath};
