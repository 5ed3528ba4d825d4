//! # ixp-monitor — the resident always-on congestion monitor
//!
//! The paper closes (§8) with the intent to keep analyzing TSLP data
//! continuously — a production monitor, not a retrospective study. This
//! crate is that service, built from the pieces the batch pipeline already
//! trusts:
//!
//! - [`state`] — per-link streaming state: Page's CUSUM
//!   ([`ixp_chgpt::online_step`], the one step behind
//!   [`ixp_chgpt::online_events`] too), path-fingerprint change tracking
//!   with the same causal masking rule the batch assessment uses,
//!   incremental measurement-health evidence read with
//!   [`tslp_core::health`]'s ladder, and the sequence gate
//!   ([`LinkState::admit`]), split into a 64-byte hot record and a cold
//!   record.
//!   Fed sample-by-sample, the verdict stream is **bit-identical** to
//!   running [`ixp_chgpt::online_events`] over the full series (tested
//!   across the chaos/storm fault corpus).
//! - [`index`] — the concurrent verdict index: per-shard `RwLock`ed verdict
//!   slabs that absorb heavy read traffic (dashboards, alerting pollers)
//!   without stalling ingestion, plus lock-free elevated-link aggregates
//!   per IXP. Each slab splits a verdict into the part every sample moves
//!   and the part only events move, and joins them on read.
//! - [`service`] — [`MonitorService`]: shard layout, one ingest path
//!   ([`MonitorService::ingest_sequenced`]: admission control, per-link
//!   sequence gates, supervised shard workers — sequential or across a
//!   thread pool, bit-identical either way), live gauges through any
//!   [`ixp_obs::Recorder`], and checkpoint/resume of the full shard state
//!   through [`tslp_core::CheckpointStore`] blobs so a restarted monitor
//!   continues exactly where it stopped.
//!
//! Memory is O(links), about 385 bytes per link, and no link retains its
//! RTT series: a 64-byte hot record (everything a quiet in-order sample
//! touches, the gate's in-order words included), a 160-byte cold record
//! (event state, gate counters, a reorder buffer only while samples are
//! parked), a 1-byte published health label, the published verdict —
//! a 32-byte record rewritten every sample and an 88-byte one rewritten
//! only when it changes — and 40 bytes of reused batch buffer per sample
//! of a one-round batch.

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
    masked_online_events, AdmitDelta, LinkState, LinkUpdate, MonitorEvent, MonitorSample,
    COLD_RECORD_BYTES, HOT_RECORD_BYTES, MASK_SLACK_ROUNDS, REORDER_CAP,
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
        MASK_SLACK_ROUNDS, REORDER_CAP,
    };
}
