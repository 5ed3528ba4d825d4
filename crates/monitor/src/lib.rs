//! # ixp-monitor — the resident always-on congestion monitor
//!
//! The paper closes (§8) with the intent to keep analyzing TSLP data
//! continuously — a production monitor, not a retrospective study. This
//! crate is that service, built from the pieces the batch pipeline already
//! trusts:
//!
//! - [`state`] — per-link streaming state: one [`ixp_chgpt::OnlineDetector`]
//!   (Page's CUSUM), path-fingerprint change tracking with the same causal
//!   masking rule the batch assessment uses, and an incremental
//!   measurement-health ladder mirroring [`tslp_core::health`]'s precedence.
//!   Fed sample-by-sample, the verdict stream is **bit-identical** to
//!   running [`ixp_chgpt::online_events`] over the full series (tested
//!   across the chaos/storm fault corpus).
//! - [`index`] — the concurrent verdict index: per-shard `RwLock`ed verdict
//!   slabs that absorb heavy read traffic (dashboards, alerting pollers)
//!   without stalling ingestion, plus lock-free elevated-link aggregates
//!   per IXP.
//! - [`service`] — [`MonitorService`]: shard layout, one ingest path
//!   ([`MonitorService::ingest_sequenced`]: admission control, per-link
//!   sequence gates, supervised shard workers — sequential or across a
//!   thread pool, bit-identical either way), live gauges through any
//!   [`ixp_obs::Recorder`], and checkpoint/resume of the full shard state
//!   through [`tslp_core::CheckpointStore`] blobs so a restarted monitor
//!   continues exactly where it stopped.
//!
//! Memory is O(links), about 570 bytes per link: no link retains its RTT
//! series — only the O(1) detector state, the current health window
//! counters, its admission gate and its published verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod service;
pub mod state;

pub use index::{LinkVerdict, MaskOutcome, VerdictEvidence, VerdictIndex};
pub use service::{
    monitor_fingerprint, IngestReport, LinkDesc, MonitorConfig, MonitorService, ResumeReport,
    SeqStats, ServiceMode, ShardRecovery,
};
pub use state::{
    masked_online_events, AdmitDelta, LinkState, LinkUpdate, MonitorEvent, MonitorSample, SeqGate,
    REORDER_CAP,
};

/// Common imports.
pub mod prelude {
    pub use crate::index::{LinkVerdict, MaskOutcome, VerdictEvidence, VerdictIndex};
    pub use crate::service::{
        monitor_fingerprint, IngestReport, LinkDesc, MonitorConfig, MonitorService, ResumeReport,
        SeqStats, ServiceMode, ShardRecovery,
    };
    pub use crate::state::{
        masked_online_events, AdmitDelta, LinkState, LinkUpdate, MonitorEvent, MonitorSample,
        SeqGate, REORDER_CAP,
    };
}
