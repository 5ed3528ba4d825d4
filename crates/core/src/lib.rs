//! # tslp-core — time-sequence latency probes, end to end
//!
//! The paper's primary contribution as a reusable pipeline: feed it a set of
//! border links (from `ixp-bdrmap`), it probes both ends of each link every
//! five minutes (`ixp-prober`), detects level shifts with rank-CUSUM
//! change-point analysis (`ixp-chgpt`), applies the §5.2 decision chain —
//! magnitude threshold, ≥30-minute duration, near-side guard, recurring
//! diurnal pattern, record-route symmetry (via `ixp-prober::rr`) — and
//! characterizes each congested link's waveform (`A_w`, `Δt_UD`,
//! sustained/transient) and loss impact.
//!
//! - [`series`] — per-link near/far RTT series with missing-data handling;
//! - [`campaign`] — the year-long probing driver (with the documented
//!   screening optimization; disable for paper-exact probing);
//! - [`health`] — per-link measurement-health classification and the
//!   gap/outage intervals the masked assessment consumes;
//! - [`detect`] — the per-link congestion assessment (masked and unmasked);
//! - [`checkpoint`] — versioned on-disk per-link series checkpoints for
//!   resumable campaigns;
//! - [`lossanalysis`] — 1 pps / 100-probe loss batches and event correlation.

#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod detect;
pub mod health;
pub mod lossanalysis;
pub mod series;

pub use campaign::{
    far_excursions, link_key, measure_link, measure_link_in, measure_link_with, resolve_threads,
    stream_vp_links, stream_vp_links_rec, CampaignConfig, Screening, WorkerFailure,
};
pub use checkpoint::{BlobStatus, CheckpointStore};
pub use detect::{
    assess_at_thresholds_masked_with, assess_link, record_assessment, record_health, ArtifactCause,
    ArtifactCauseKind, AssessConfig, Assessment, EventEvidence, NearGuard, TimedEvent,
    WaveformStats,
};
pub use health::{
    classify_link, GapInterval, GapKind, HealthConfig, HealthReport, LinkHealth, WindowEvidence,
};
pub use lossanalysis::{measure_loss_series, split_by_events, LossCampaignConfig, LossSeries, LossSplit};
pub use series::{LinkSeries, SeriesConfig};

/// Common imports.
pub mod prelude {
    pub use crate::campaign::{measure_link, stream_vp_links, CampaignConfig, Screening};
    pub use crate::checkpoint::{BlobStatus, CheckpointStore};
    pub use crate::detect::{
        assess_at_thresholds_masked_with, assess_link, ArtifactCause, ArtifactCauseKind,
        AssessConfig, Assessment, EventEvidence, NearGuard, TimedEvent, WaveformStats,
    };
    pub use ixp_chgpt::DetectorScratch;
    pub use crate::health::{classify_link, HealthConfig, HealthReport, LinkHealth};
    pub use crate::lossanalysis::{
        measure_loss_series, split_by_events, LossCampaignConfig, LossSeries, LossSplit,
    };
    pub use crate::series::{LinkSeries, SeriesConfig};
}
