//! # ixp-chgpt — level-shift (change-point) detection
//!
//! The statistical engine behind §5.2 of the paper: Taylor's change-point
//! analysis built from a **rank-based non-parametric CUSUM** statistic with
//! **permutation-bootstrap significance**, applied recursively (binary
//! segmentation) to cut an RTT time series into level segments; plus the
//! machinery that turns segments into *shift events* with magnitudes
//! (`A_w`), widths (`Δt_UD`), minimum-duration filtering (30 minutes) and
//! the Table 1 magnitude thresholds (5/10/15/20 ms).
//!
//! The crate is deliberately substrate-free: series are `&[f64]` at uniform
//! spacing and events are index ranges. `tslp-core` maps indices to
//! campaign timestamps.
//!
//! ```
//! use ixp_chgpt::prelude::*;
//!
//! // A day of 5-minute samples: flat at 2 ms, one 3-hour event at 25 ms.
//! let mut rtt_ms = vec![2.0; 288];
//! for v in rtt_ms[120..156].iter_mut() { *v = 25.0; }
//!
//! let segs = level_segments(&rtt_ms, &DetectorConfig::default());
//! let base = baseline_level(&segs, 0.10);
//! let events = extract_events(&segs, base, 10.0, 6);
//! assert_eq!(events.len(), 1);
//! assert!((events[0].magnitude - 23.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]

pub mod cusum;
pub mod events;
pub mod lanes;
pub mod online;
pub mod rank;
pub mod scratch;
pub mod segment;
pub mod window;

pub use cusum::{cusum_bootstrap, cusum_peak, spread_reaches, CusumResult};
pub use events::{baseline_level, event_stats, extract_events, sanitize_events, EventStats, ShiftEvent};
pub use online::{elevation_estimate, online_events, online_step, OnlineCold, OnlineHot, OnlineVerdict};
pub use rank::rank_transform;
pub use scratch::DetectorScratch;
pub use segment::{detect_change_points, level_segments, segments, DetectorConfig, Segment, MAX_WINDOW};
pub use window::{detect_window_shifts, WindowConfig};

/// Common imports.
pub mod prelude {
    pub use crate::cusum::{cusum_bootstrap, CusumResult};
    pub use crate::events::{
        baseline_level, event_stats, extract_events, sanitize_events, EventStats, ShiftEvent,
    };
    pub use crate::online::{online_events, OnlineVerdict};
    pub use crate::rank::rank_transform;
    pub use crate::scratch::DetectorScratch;
    pub use crate::segment::{detect_change_points, level_segments, segments, DetectorConfig, Segment};
}
