//! # ixp-study — campaign orchestration and paper-artefact regeneration
//!
//! The top of the stack: runs the six vantage-point studies end to end
//! (substrate → bdrmap snapshots → TSLP campaign → assessment → RR/loss
//! follow-ups), regenerates the paper's tables and figures, and validates
//! every verdict against scenario ground truth:
//!
//! - [`vpstudy`] — one VP end to end ([`vpstudy::run_vp_study`]);
//! - [`parallel`] — all six VPs concurrently;
//! - [`tables`] — Table 1 (threshold sensitivity) and Table 2 (link
//!   evolution) builders + text renderers;
//! - [`figures`] — Figure 1–4 series extraction, CSV, and ASCII plots;
//! - [`groundtruth`] — the operator-interview replacement: confusion
//!   matrices and paper-vs-measured case comparisons;
//! - [`report`] — the assembled study report (text + JSON).

#![warn(missing_docs)]

pub mod figures;
pub mod groundtruth;
pub mod parallel;
pub mod report;
pub mod tables;
pub mod vpstudy;

pub use figures::{Figure, FigureSeries};
pub use groundtruth::{case_comparisons, confusion, CaseComparison, Confusion};
pub use parallel::run_all_vps;
pub use report::StudyReport;
pub use tables::{IntegrityTable, Table1, Table2};
pub use vpstudy::{
    run_vp_study, run_vp_study_rec, IntegritySummary, LinkOutcome, SnapshotCounts, VpStudy,
    VpStudyConfig, THRESHOLDS_MS,
};

/// Common imports.
pub mod prelude {
    pub use crate::figures::{Figure, FigureSeries};
    pub use crate::groundtruth::{case_comparisons, confusion, Confusion};
    pub use crate::parallel::run_all_vps;
    pub use crate::report::StudyReport;
    pub use crate::tables::{IntegrityTable, Table1, Table2};
    pub use crate::vpstudy::{
        run_vp_study, IntegritySummary, LinkOutcome, VpStudy, VpStudyConfig, THRESHOLDS_MS,
    };
}
