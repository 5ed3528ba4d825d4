//! Per-link congestion assessment — §5.2 end to end.
//!
//! Given a link's near/far series, the assessment:
//!
//! 1. runs the rank-CUSUM level-shift detector on the far series (5-minute
//!    samples, shifts lasting ≥ 30 minutes);
//! 2. extracts shift events above the magnitude threshold (Table 1 sweeps
//!    5/10/15/20 ms) and sanitizes them;
//! 3. guards on the **near** series: coincident near-side shifts mean "the
//!    observed congestion was not at the targeted link";
//! 4. classifies **recurring diurnal patterns** by folding event coverage
//!    over the time of day;
//! 5. characterizes the waveform: average magnitude `A_w`, average
//!    up→down width `Δt_UD`, and the sustained/transient label (§6.1).
//!
//! Two entry points share one segmentation and one verdict path:
//! [`assess_link`] assesses at the configured threshold, and
//! [`assess_at_thresholds_masked_with`] runs the Table 1 sweep over a single
//! segmentation. Both take a [`HealthReport`] from [`crate::health`] and
//! attribute level shifts that begin or end inside (or within
//! [`MASK_SLACK`] of) a far-side gap/outage interval — or
//! within slack of a fingerprinted **path change** (a routing event
//! re-converged the forwarding path under the measurement) — to
//! **measurement artifacts** instead of congestion: they land in
//! [`Assessment::artifacts`], never in [`Assessment::events`], and do not
//! contribute to the flagged/diurnal/congested verdicts. Shifts on a stable
//! path are untouched, so campaigns without routing events keep verdicts
//! bit-identical. The near-side guard is extended the same way: far events
//! coincident with *near-side* gaps are vetoed as
//! [`NearGuard::CoincidentGaps`]. [`HealthReport::clean`] is the unmasked
//! assessment: no gaps, no path changes, trusted health.

use crate::health::{HealthReport, LinkHealth};
use crate::series::LinkSeries;
use ixp_chgpt::events::{event_stats, extract_events, sanitize_events, ShiftEvent};
use ixp_chgpt::scratch::DetectorScratch;
use ixp_chgpt::segment::{DetectorConfig, Segment};
use ixp_obs::{LinkEvent, LinkKey, Recorder, TraceEvent, TraceKind};
use ixp_simnet::time::{SimDuration, SimTime, MICROS_PER_DAY};
use serde::{Deserialize, Serialize};

/// Minimum shift duration: the paper's 30 minutes.
const MIN_EVENT: SimDuration = SimDuration::from_mins(30);

/// Merge events separated by gaps up to this long before measuring widths
/// (the §5.2 "sanitization").
const SANITIZE_GAP: SimDuration = SimDuration::from_mins(30);

/// Baseline quantile for the reference level.
const BASELINE_QUANTILE: f64 = 0.10;

/// A diurnal verdict needs events on at least this many distinct days.
const MIN_EVENT_DAYS: usize = 7;

/// Significance level for the Rayleigh test on event onset times-of-day.
/// "Recurring diurnal pattern" requires rejecting onset-uniformity at this
/// level: `exp(−n·R²) < α`, with `R` the circular mean resultant length
/// over `n` events. A waveform rising at a consistent hour every day
/// rejects immediately; sporadic level shifts (R ≈ 1/√n) essentially never
/// do.
const DIURNAL_ALPHA: f64 = 1e-3;

/// Far series must be at least this complete for a clean verdict.
const MIN_VALIDITY: f64 = 0.25;

/// A near-side event overlapping this fraction of far events (in time)
/// disqualifies the link ("congestion was not at the targeted link").
const NEAR_OVERLAP_LIMIT: f64 = 0.3;

/// Events continuing into the last this-many days of valid data make the
/// congestion *sustained*.
const SUSTAIN_TAIL: SimDuration = SimDuration::from_days(10);

/// A level shift beginning or ending within this long of a gap/outage
/// boundary (or of a path change) is attributed to it (a measurement
/// artifact), not to congestion. Matches the 30-minute minimum event
/// duration: the detector cannot place a boundary more precisely than that
/// anyway. The resident monitor's causal mask uses the same slack.
pub const MASK_SLACK: SimDuration = SimDuration::from_mins(30);

/// Assessment tuning (defaults = the paper's choices). The paper's fixed
/// parameters — 30-minute minimum events and mask slack, the diurnal test,
/// the near-side overlap limit — are constants of this module.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AssessConfig {
    /// Level-shift detector settings.
    pub detector: DetectorConfig,
    /// Magnitude threshold in ms for labeling "potentially congested"
    /// (the paper settles on 10 ms after the Table 1 sensitivity study).
    pub threshold_ms: f64,
    /// Health classification thresholds for the masked assessment.
    pub health: crate::health::HealthConfig,
}

impl Default for AssessConfig {
    fn default() -> Self {
        AssessConfig {
            detector: DetectorConfig { magnitude_gate: 4.0, ..DetectorConfig::default() },
            threshold_ms: 10.0,
            health: crate::health::HealthConfig::default(),
        }
    }
}

/// Outcome of the near-side check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NearGuard {
    /// Near series flat: far elevation is attributable to the link.
    Clean,
    /// Near series shifts together with the far series: the congestion is
    /// upstream of the measured link.
    CoincidentShifts,
    /// The near series has gap/outage intervals coincident with the far
    /// events (masked assessment only): whatever elevated the far series
    /// also broke near measurement, so the link cannot be blamed.
    CoincidentGaps,
    /// Not enough near data to decide ("unclear patterns" of §5.2).
    Unclear,
}

/// One shift event mapped to campaign time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Upshift instant.
    pub start: SimTime,
    /// Downshift instant.
    pub end: SimTime,
    /// Mean elevation above baseline, ms.
    pub magnitude_ms: f64,
}

impl TimedEvent {
    /// Event width.
    pub fn width(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Waveform characteristics (§6.2's `A_w` and `Δt_UD`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WaveformStats {
    /// Number of (sanitized) events.
    pub count: usize,
    /// Average magnitude, ms.
    pub a_w_ms: f64,
    /// Average up→down width.
    pub dt_ud: SimDuration,
    /// Fraction of observed time inside events.
    pub duty_cycle: f64,
}

/// Provenance for one sanitized congestion event: the quantities the
/// verdict rests on, kept so "why was this link flagged?" is answerable
/// from the assessment alone, without re-running the detector.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventEvidence {
    /// Round index (into the raw series) where the event begins.
    pub start_round: usize,
    /// Round index one past the event's last round.
    pub end_round: usize,
    /// Baseline level the shift rose from, ms.
    pub baseline_ms: f64,
    /// Mean elevation above the baseline, ms.
    pub magnitude_ms: f64,
    /// Bootstrap confidence of the event's opening changepoint (1.0 when
    /// the boundary was not bootstrap-tested; the p-value is
    /// `1.0 - confidence`).
    pub confidence: f64,
    /// Measurement-health class at decision time.
    pub health: LinkHealth,
    /// Did the artifact masks (far gaps, path changes) run and reject this
    /// event as an artifact — i.e. it survived the masking pass? `false`
    /// when no mask ran or the mask had nothing to test against.
    pub masks_rejected: bool,
}

/// Which mask diverted one event into [`Assessment::artifacts`]. First
/// match wins, in the same precedence the partition tests: far gap at the
/// event's start, far gap at its end, path change at its start, path change
/// at its end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactCauseKind {
    /// The event opens inside (or within slack of) a far gap/outage.
    GapAtStart,
    /// The event closes inside (or within slack of) a far gap/outage.
    GapAtEnd,
    /// The event opens at (or within slack of) a path-fingerprint change.
    PathChangeAtStart,
    /// The event closes at (or within slack of) a path-fingerprint change.
    PathChangeAtEnd,
}

/// Why one event in [`Assessment::artifacts`] was masked, parallel to that
/// vector entry for entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactCause {
    /// The mask that fired.
    pub kind: ArtifactCauseKind,
    /// The round whose proximity to a gap/path change triggered it.
    pub round: usize,
}

impl ArtifactCause {
    /// True when the cause is a far gap (either boundary).
    pub fn is_gap(&self) -> bool {
        matches!(self.kind, ArtifactCauseKind::GapAtStart | ArtifactCauseKind::GapAtEnd)
    }
}

/// Full per-link verdict.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Assessment {
    /// Level shifts ≥ threshold and ≥ 30 min were found on the far side.
    pub flagged: bool,
    /// The flagged shifts recur diurnally.
    pub diurnal: bool,
    /// The paper's *congested link* definition (§6.1): recurring diurnal far
    /// pattern with a flat near side.
    pub congested: bool,
    /// Near-side guard outcome.
    pub near_guard: NearGuard,
    /// Sanitized far-side events in campaign time.
    pub events: Vec<TimedEvent>,
    /// Waveform characterization.
    pub stats: WaveformStats,
    /// Congestion observed until the end of the (valid) series?
    /// `None` when the link was never congested.
    pub sustained: Option<bool>,
    /// Fraction of rounds with a far response.
    pub far_validity: f64,
    /// Baseline far RTT (ms).
    pub baseline_ms: f64,
    /// Measurement health of the series (always `Clean` on the unmasked
    /// path, which assumes nothing about data quality).
    pub health: LinkHealth,
    /// Level shifts attributed to measurement artifacts: they began or
    /// ended inside (or within slack of) a far gap/outage interval. Kept
    /// for reporting; excluded from [`Assessment::events`] and from every
    /// verdict.
    pub artifacts: Vec<TimedEvent>,
    /// Per-event provenance, parallel to [`Assessment::events`].
    pub evidence: Vec<EventEvidence>,
    /// Why each artifact was masked, parallel to [`Assessment::artifacts`].
    pub artifact_causes: Vec<ArtifactCause>,
}

/// Threshold-independent detector output, reusable across a threshold sweep.
struct Segmentation {
    far: Vec<f64>,
    far_idx: Vec<usize>,
    segs: Vec<Segment>,
    baseline: f64,
    det: DetectorConfig,
    min_len: usize,
    far_validity: f64,
}

/// Run the level-shift detector once with the given magnitude gate: the
/// expensive, threshold-independent half of an assessment. The detection
/// internals (shuffle, rank, selection and stack buffers) come from
/// `scratch`, so a per-worker scratch makes the hot per-window path
/// allocation-free; the returned [`Segmentation`] still owns its data — it
/// outlives the scratch across a threshold sweep. `None` when the series is
/// too short.
fn segment(
    series: &LinkSeries,
    cfg: &AssessConfig,
    magnitude_gate: f64,
    scratch: &mut DetectorScratch,
) -> Option<Segmentation> {
    let (far, far_idx) = series.far_clean();
    let far_validity = series.far_validity();
    let min_len = samples_for(MIN_EVENT, series.cfg.interval);
    if far.len() < 2 * cfg.detector.min_segment.max(min_len) {
        return None;
    }
    let det = DetectorConfig {
        min_segment: min_len.max(cfg.detector.min_segment),
        magnitude_gate,
        ..cfg.detector.clone()
    };
    let (segs, baseline) = scratch.segment_series(&far, &det, BASELINE_QUANTILE);
    let segs = segs.to_vec();
    Some(Segmentation { far, far_idx, segs, baseline, det, min_len, far_validity })
}

/// Assess one link at `cfg.threshold_ms` under a measurement-health mask,
/// over reusable detector scratch (one per worker thread).
///
/// Level shifts whose boundaries coincide with a far-side gap/outage
/// interval or a path change in `mask` are attributed to measurement
/// artifacts, and far events coincident with near-side gaps veto the link
/// as [`NearGuard::CoincidentGaps`]. Obtain the mask from
/// [`crate::health::classify_link`] (typically with
/// [`AssessConfig::health`]); [`HealthReport::clean`] assumes nothing about
/// data quality and masks nothing. Callers that want telemetry pass the
/// result to [`record_assessment`].
pub fn assess_link(
    series: &LinkSeries,
    cfg: &AssessConfig,
    mask: &HealthReport,
    scratch: &mut DetectorScratch,
) -> Assessment {
    let pre = segment(series, cfg, cfg.detector.magnitude_gate, scratch);
    assess_core(series, cfg.threshold_ms, pre.as_ref(), mask, &mut None, scratch)
}

/// [`assess_link`] at several thresholds — the Table 1 sensitivity sweep.
/// The (expensive, threshold-independent) segmentation runs once, with the
/// magnitude gate lowered to `0.8 ×` the smallest threshold when the
/// configured gate sits above it; the near side is segmented at most once,
/// and only if some threshold has far events; the verdict logic runs per
/// threshold.
pub fn assess_at_thresholds_masked_with(
    series: &LinkSeries,
    cfg: &AssessConfig,
    thresholds_ms: &[f64],
    mask: &HealthReport,
    scratch: &mut DetectorScratch,
) -> Vec<(f64, Assessment)> {
    let min_t = thresholds_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let pre = segment(series, cfg, cfg.detector.magnitude_gate.min(min_t * 0.8), scratch);
    let mut near = None;
    thresholds_ms
        .iter()
        .map(|&t| (t, assess_core(series, t, pre.as_ref(), mask, &mut near, scratch)))
        .collect()
}

/// Fold one assessment's verdict into a telemetry recorder: aggregate
/// counters, the per-link ledger's event/artifact/health fields, and the
/// validity/baseline distributions.
pub fn record_assessment<R: Recorder>(rec: &R, key: LinkKey, a: &Assessment) {
    if !rec.enabled() {
        return;
    }
    rec.add("links_assessed", 1);
    if a.flagged {
        rec.add("links_flagged", 1);
    }
    if a.diurnal {
        rec.add("links_diurnal", 1);
    }
    if a.congested {
        rec.add("links_congested", 1);
    }
    rec.add("congestion_events", a.events.len() as u64);
    rec.add("artifact_events", a.artifacts.len() as u64);
    let gap_artifacts = a.artifact_causes.iter().filter(|c| c.is_gap()).count() as u64;
    rec.add("artifact_events_gap", gap_artifacts);
    rec.add("artifact_events_path", a.artifact_causes.len() as u64 - gap_artifacts);
    rec.link_event(key, LinkEvent::Events(a.events.len() as u64));
    rec.link_event(key, LinkEvent::Artifacts(a.artifacts.len() as u64));
    rec.link_event(key, LinkEvent::Health(a.health.token()));
    // Provenance for a tracing recorder: one changepoint record per
    // accepted event, carrying the shift round and bootstrap confidence.
    // Lane 0 — the batch pipeline has no worker identity at this layer, and
    // the emission rate is once per event per link, not per sample.
    for ev in &a.evidence {
        rec.trace(
            TraceEvent::new(TraceKind::BatchChangepoint, ev.start_round as u64, 0, key.far)
                .a(ev.start_round as u64)
                .v(ev.confidence),
        );
    }
    rec.observe("far_validity", a.far_validity);
    if a.baseline_ms.is_finite() {
        rec.observe("baseline_far_ms", a.baseline_ms);
    }
}

/// Fold one link's health report into a telemetry recorder: the overall
/// class lands in a `health_<class>` counter, the gap burden in
/// `health_gap_rounds`, and the class token and path-change count in the
/// link's ledger.
pub fn record_health<R: Recorder>(rec: &R, key: LinkKey, rep: &HealthReport) {
    if !rec.enabled() {
        return;
    }
    rec.add("links_classified", 1);
    rec.add(&format!("health_{}", rep.overall.token()), 1);
    rec.add("health_gap_rounds", rep.gap_rounds() as u64);
    rec.link_event(key, LinkEvent::Health(rep.overall.token()));
    if !rep.path_changes.is_empty() {
        rec.add("health_path_change_total", rep.path_changes.len() as u64);
        rec.link_event(key, LinkEvent::PathChanges(rep.path_changes.len() as u64));
    }
}

/// The threshold-dependent half of the assessment, shared by every entry
/// point, at `threshold_ms` (the segmentation carries its own detector
/// settings). A clean `mask` (no gaps, near gaps
/// or path changes) masks nothing and leaves the verdict trusted. `near`
/// caches the near side across the thresholds of one call (start `None`).
fn assess_core(
    series: &LinkSeries,
    threshold_ms: f64,
    pre: Option<&Segmentation>,
    mask: &HealthReport,
    near: &mut Option<NearSide>,
    scratch: &mut DetectorScratch,
) -> Assessment {
    let Some(pre) = pre else {
        return Assessment { health: mask.overall, ..Assessment::empty(series.far_validity(), f64::NAN) };
    };
    let Segmentation { far, far_idx, segs, baseline, min_len, far_validity, .. } = pre;
    let (min_len, far_validity, baseline) = (*min_len, *far_validity, *baseline);
    let raw_events = extract_events(segs, baseline, threshold_ms, min_len);
    let gap = samples_for(SANITIZE_GAP, series.cfg.interval);
    let mut events = sanitize_events(&raw_events, gap);

    // Partition events whose boundaries touch a far gap/outage or a
    // fingerprinted path change (within slack) into artifacts: a shift that
    // starts or ends where measurement broke — or where routing swapped the
    // path under the ladder — is evidence about the measurement, not about
    // the queue. Events on a stable, fully answered path are untouched.
    let slack = samples_for(MASK_SLACK, series.cfg.interval);
    let mut artifact_raw: Vec<ShiftEvent> = Vec::new();
    let mut artifact_causes: Vec<ArtifactCause> = Vec::new();
    let masks_ran = !mask.gaps.is_empty() || !mask.path_changes.is_empty();
    if masks_ran {
        let mut kept = Vec::with_capacity(events.len());
        for e in events {
            let start_round = far_idx[e.start];
            let end_round = far_idx[(e.end - 1).min(far_idx.len() - 1)];
            // The first firing mask is recorded as the artifact's cause.
            let cause = if mask.near_far_gap(start_round, slack) {
                Some(ArtifactCause { kind: ArtifactCauseKind::GapAtStart, round: start_round })
            } else if mask.near_far_gap(end_round, slack) {
                Some(ArtifactCause { kind: ArtifactCauseKind::GapAtEnd, round: end_round })
            } else if mask.near_path_change(start_round, slack) {
                Some(ArtifactCause { kind: ArtifactCauseKind::PathChangeAtStart, round: start_round })
            } else if mask.near_path_change(end_round, slack) {
                Some(ArtifactCause { kind: ArtifactCauseKind::PathChangeAtEnd, round: end_round })
            } else {
                None
            };
            match cause {
                Some(c) => {
                    artifact_causes.push(c);
                    artifact_raw.push(e);
                }
                None => kept.push(e),
            }
        }
        events = kept;
    }
    let flagged = !events.is_empty();

    let to_timed = |e: &ShiftEvent| TimedEvent {
        start: series.timestamp(far_idx[e.start]),
        end: series.timestamp(far_idx[(e.end - 1).min(far_idx.len() - 1)]) + series.cfg.interval,
        magnitude_ms: e.magnitude,
    };
    let timed: Vec<TimedEvent> = events.iter().map(to_timed).collect();
    let artifacts: Vec<TimedEvent> = artifact_raw.iter().map(to_timed).collect();

    // Near-side guard, extended under a mask: far events spending too much
    // of their span inside near-side measurement gaps cannot exonerate the
    // near series, so they veto the link just like coincident near shifts.
    let mut guard = near_guard(series, &events, pre, threshold_ms, near, scratch);
    if guard != NearGuard::CoincidentShifts && !mask.near_gaps.is_empty() && flagged {
        let spans: Vec<(usize, usize)> = events
            .iter()
            .map(|e| (far_idx[e.start], far_idx[(e.end - 1).min(far_idx.len() - 1)] + 1))
            .collect();
        let total: usize = spans.iter().map(|(a, b)| b - a).sum();
        let covered = gap_overlap(&spans, &mask.near_gaps, slack);
        if total > 0 && covered as f64 / total as f64 > NEAR_OVERLAP_LIMIT {
            guard = NearGuard::CoincidentGaps;
        }
    }
    let near_guard = guard;

    // Diurnal classification over the *timed* events.
    let diurnal = flagged && near_guard == NearGuard::Clean && is_diurnal(&timed);

    // Waveform stats from sanitized events.
    let st = event_stats(&events, far.len());
    let stats = WaveformStats {
        count: st.count,
        a_w_ms: st.avg_magnitude,
        dt_ud: SimDuration::from_micros(
            (st.avg_width_samples * series.cfg.interval.as_micros() as f64) as u64,
        ),
        duty_cycle: st.duty_cycle,
    };

    // Sustained vs transient: did events continue to the end of valid data?
    let sustained = if !flagged || !diurnal {
        None
    } else {
        let last_valid = far_idx.last().map(|&i| series.timestamp(i)).unwrap_or(series.cfg.start);
        let last_event_end = timed.last().map(|e| e.end).unwrap_or(series.cfg.start);
        Some(last_valid.saturating_since(last_event_end) <= SUSTAIN_TAIL)
    };

    // An untrusted series cannot support a congestion verdict. AddrUnstable
    // always vetoes (the answers may not even be the link's). Silent vetoes
    // only when validity is below `min_validity`: a link with months of good
    // data that is later decommissioned (the GHANATEL pattern) is Silent
    // overall yet its live-era congestion evidence is real. PathChange stays
    // trusted: the samples themselves are sound, and the change-coincident
    // shifts were already diverted to artifacts above — shifts on the stable
    // stretches between changes are real evidence.
    let health = mask.overall;
    let trusted = match health {
        LinkHealth::AddrUnstable => false,
        LinkHealth::Silent => mask.far_validity >= MIN_VALIDITY,
        _ => true,
    };

    // Per-event provenance: the opening changepoint's bootstrap confidence
    // comes from the segment whose left boundary opened the event (1.0 when
    // sanitization merged away the exact boundary).
    let evidence: Vec<EventEvidence> = events
        .iter()
        .map(|e| EventEvidence {
            start_round: far_idx[e.start],
            end_round: far_idx[(e.end - 1).min(far_idx.len() - 1)] + 1,
            baseline_ms: baseline,
            magnitude_ms: e.magnitude,
            confidence: segs
                .iter()
                .find(|g| g.start == e.start)
                .map_or(1.0, |g| g.confidence),
            health,
            masks_rejected: masks_ran,
        })
        .collect();

    Assessment {
        flagged,
        diurnal,
        congested: flagged && diurnal && near_guard == NearGuard::Clean && trusted,
        near_guard,
        events: timed,
        stats,
        sustained,
        far_validity,
        baseline_ms: baseline,
        health,
        artifacts,
        evidence,
        artifact_causes,
    }
}

/// Rounds of `spans` covered by `gaps`, each gap widened by `slack`.
fn gap_overlap(spans: &[(usize, usize)], gaps: &[crate::health::GapInterval], slack: usize) -> usize {
    let mut overlap = 0usize;
    for &(a, b) in spans {
        for g in gaps {
            let lo = a.max(g.start.saturating_sub(slack));
            let hi = b.min(g.end.saturating_add(slack));
            if hi > lo {
                overlap += hi - lo;
            }
        }
    }
    overlap
}

impl Assessment {
    /// An all-negative assessment: nothing flagged, no events, unknown near
    /// side. Produced for too-short series; also what a quarantined link
    /// carries in the study layer.
    pub fn empty(far_validity: f64, baseline_ms: f64) -> Assessment {
        Assessment {
            flagged: false,
            diurnal: false,
            congested: false,
            near_guard: NearGuard::Unclear,
            events: Vec::new(),
            stats: WaveformStats::default(),
            sustained: None,
            far_validity,
            baseline_ms,
            health: LinkHealth::Clean,
            artifacts: Vec::new(),
            evidence: Vec::new(),
            artifact_causes: Vec::new(),
        }
    }
}

fn samples_for(d: SimDuration, interval: SimDuration) -> usize {
    (d.as_micros() / interval.as_micros().max(1)).max(1) as usize
}

/// The near series and, once a threshold with far events needs it, its
/// segmentation and baseline. The detector settings, the near series and
/// the baseline quantile are the same at every threshold of a sweep, so one
/// value serves them all.
struct NearSide {
    near: Vec<f64>,
    idx: Vec<usize>,
    segmented: Option<(Vec<Segment>, f64)>,
}

/// Check the near series for shifts coincident with the far events,
/// segmenting it with the far side's detector settings.
fn near_guard(
    series: &LinkSeries,
    far_events: &[ShiftEvent],
    far: &Segmentation,
    threshold_ms: f64,
    near: &mut Option<NearSide>,
    scratch: &mut DetectorScratch,
) -> NearGuard {
    let det = &far.det;
    let NearSide { near, idx: near_idx, segmented } = near.get_or_insert_with(|| {
        let (near, idx) = series.near_clean();
        NearSide { near, idx, segmented: None }
    });
    if near.len() < 2 * det.min_segment || near.len() < series.len() / 4 {
        return NearGuard::Unclear;
    }
    if far_events.is_empty() {
        return NearGuard::Clean;
    }
    let (segs, base) = segmented.get_or_insert_with(|| {
        let (segs, base) = scratch.segment_series(near, det, BASELINE_QUANTILE);
        (segs.to_vec(), base)
    });
    let near_events = extract_events(segs, *base, threshold_ms, det.min_segment);
    if near_events.is_empty() {
        return NearGuard::Clean;
    }
    // Overlap between far events and near events in *round index* space.
    let to_rounds = |ev: &ShiftEvent, idx: &[usize]| -> (usize, usize) {
        (idx[ev.start], idx[(ev.end - 1).min(idx.len() - 1)] + 1)
    };
    let far_spans: Vec<(usize, usize)> = far_events.iter().map(|e| to_rounds(e, &far.far_idx)).collect();
    let near_spans: Vec<(usize, usize)> = near_events.iter().map(|e| to_rounds(e, near_idx)).collect();
    let far_total: usize = far_spans.iter().map(|(a, b)| b - a).sum();
    let mut overlap = 0usize;
    for &(fa, fb) in &far_spans {
        for &(na, nb) in &near_spans {
            let lo = fa.max(na);
            let hi = fb.min(nb);
            if hi > lo {
                overlap += hi - lo;
            }
        }
    }
    if far_total > 0 && overlap as f64 / far_total as f64 > NEAR_OVERLAP_LIMIT {
        NearGuard::CoincidentShifts
    } else {
        NearGuard::Clean
    }
}

/// Decide whether events recur diurnally: enough distinct event days, and
/// event *onsets* significantly concentrated at a consistent time of day.
///
/// Onset times map onto the 24-hour clock as angles; the Rayleigh test
/// rejects uniformity when `exp(−n·R²) < α`, `R` being the circular mean
/// resultant length over the `n` events. A queue that starts filling at
/// ~08:30 every morning rejects overwhelmingly; the sporadic level shifts
/// of routing flaps land uniformly on the clock (`R ≈ 1/√n`) and pass a
/// fixed per-link false-positive budget of α — which matters when ten
/// thousand links are screened. Unlike a fold-coverage contrast, the test
/// works equally for sustained congestion and for a two-month transient
/// episode inside a 13-month series.
fn is_diurnal(events: &[TimedEvent]) -> bool {
    if events.is_empty() {
        return false;
    }
    let mut days = std::collections::HashSet::new();
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    for e in events {
        days.insert(e.start.day_index());
        let frac = e.start.time_of_day().as_micros() as f64 / MICROS_PER_DAY as f64;
        let theta = std::f64::consts::TAU * frac;
        sx += theta.cos();
        sy += theta.sin();
    }
    if days.len() < MIN_EVENT_DAYS {
        return false;
    }
    let n = events.len() as f64;
    let r = (sx * sx + sy * sy).sqrt() / n;
    let p_uniform = (-n * r * r).exp();
    p_uniform < DIURNAL_ALPHA
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{LinkSeries, SeriesConfig};
    use ixp_prober::tslp::TslpSample;

    /// The unmasked assessment: a clean report masks nothing.
    fn assess(s: &LinkSeries, cfg: &AssessConfig) -> Assessment {
        assess_masked(s, cfg, &HealthReport::clean())
    }

    fn assess_masked(s: &LinkSeries, cfg: &AssessConfig, mask: &HealthReport) -> Assessment {
        assess_link(s, cfg, mask, &mut DetectorScratch::new())
    }

    /// Synthesize a series: `far(t)` in ms given the round timestamp.
    fn synth(days: u64, far: impl Fn(SimTime) -> f64, near: impl Fn(SimTime) -> f64) -> LinkSeries {
        let start = SimTime::from_date(2016, 3, 1);
        let cfg = SeriesConfig::five_minute(start);
        let mut s = LinkSeries::new(cfg);
        for i in 0..(days * 288) as usize {
            let t = cfg.timestamp(i);
            let f = far(t);
            let n = near(t);
            s.push(&TslpSample {
                t,
                near: if n.is_finite() { Some(SimDuration::from_secs_f64(n / 1e3)) } else { None },
                far: if f.is_finite() { Some(SimDuration::from_secs_f64(f / 1e3)) } else { None },
                near_addr_ok: true,
                far_addr_ok: true,
                path_fp: if n.is_finite() && f.is_finite() { 0xFEED } else { 0 },
            });
        }
        s
    }

    fn jitter(t: SimTime, amp: f64) -> f64 {
        let h = ixp_simnet::rng::splitmix64(t.as_micros());
        amp * ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
    }

    /// Business-hours congestion: 25 ms elevation 10:00–16:00 on weekdays.
    fn diurnal_far(t: SimTime) -> f64 {
        let base = 2.0 + jitter(t, 0.8);
        if !t.is_weekend() && (10.0..16.0).contains(&t.hour_of_day()) {
            base + 25.0 + jitter(t, 2.0)
        } else {
            base
        }
    }

    fn flat(amp: f64) -> impl Fn(SimTime) -> f64 {
        move |t| 1.0 + jitter(t, amp)
    }

    #[test]
    fn detects_diurnal_congestion() {
        let s = synth(28, diurnal_far, flat(0.5));
        let a = assess(&s, &AssessConfig::default());
        assert!(a.flagged);
        assert!(a.diurnal, "diurnal not detected: {:?}", a.stats);
        assert!(a.congested);
        assert_eq!(a.near_guard, NearGuard::Clean);
        assert!((20.0..30.0).contains(&a.stats.a_w_ms), "A_w {}", a.stats.a_w_ms);
        // Six-hour weekday events.
        let w = a.stats.dt_ud.as_secs_f64() / 3600.0;
        assert!((4.0..8.5).contains(&w), "width {w}h");
        assert_eq!(a.sustained, Some(true));
    }

    #[test]
    fn healthy_link_not_flagged() {
        let s = synth(28, flat(0.8), flat(0.5));
        let a = assess(&s, &AssessConfig::default());
        assert!(!a.flagged);
        assert!(!a.congested);
        assert_eq!(a.sustained, None);
    }

    #[test]
    fn single_shift_flagged_but_not_diurnal() {
        // One 3-day 20 ms elevation: a routing change, not congestion.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let far = move |t: SimTime| {
            let base = 2.0 + jitter(t, 0.8);
            let d = t.day_index() - day0;
            if (10..13).contains(&d) {
                base + 20.0
            } else {
                base
            }
        };
        let s = synth(28, far, flat(0.5));
        let a = assess(&s, &AssessConfig::default());
        assert!(a.flagged, "level shift must be flagged");
        assert!(!a.diurnal, "a one-off shift is not diurnal");
        assert!(!a.congested);
    }

    #[test]
    fn near_side_shift_disqualifies() {
        // Both near and far rise together: congestion upstream of the link.
        let elevated = |t: SimTime| {
            let base = 2.0 + jitter(t, 0.5);
            if !t.is_weekend() && (10.0..16.0).contains(&t.hour_of_day()) {
                base + 25.0
            } else {
                base
            }
        };
        let s = synth(28, elevated, elevated);
        let a = assess(&s, &AssessConfig::default());
        assert!(a.flagged);
        assert_eq!(a.near_guard, NearGuard::CoincidentShifts);
        assert!(!a.congested);
    }

    #[test]
    fn missing_near_data_is_unclear() {
        let s = synth(28, diurnal_far, |_| f64::NAN);
        let a = assess(&s, &AssessConfig::default());
        assert!(a.flagged);
        assert_eq!(a.near_guard, NearGuard::Unclear);
        assert!(!a.congested, "unclear near side must not confirm congestion");
    }

    #[test]
    fn transient_congestion_labeled() {
        // Congested for the first 10 days only, then clean for 30.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let far = move |t: SimTime| {
            let base = 2.0 + jitter(t, 0.8);
            if t.day_index() - day0 < 10 && (9.0..17.0).contains(&t.hour_of_day()) {
                base + 22.0
            } else {
                base
            }
        };
        let s = synth(40, far, flat(0.5));
        let a = assess(&s, &AssessConfig::default());
        assert!(a.congested, "events: {}", a.events.len());
        assert_eq!(a.sustained, Some(false));
    }

    #[test]
    fn threshold_sweep_grades_events() {
        // 12 ms diurnal elevation: flagged at 5 and 10, not at 15/20.
        let far = |t: SimTime| {
            let base = 2.0 + jitter(t, 0.7);
            if (11.0..15.0).contains(&t.hour_of_day()) {
                base + 12.0
            } else {
                base
            }
        };
        let s = synth(28, far, flat(0.5));
        let sweep = assess_at_thresholds_masked_with(
            &s,
            &AssessConfig::default(),
            &[5.0, 10.0, 15.0, 20.0],
            &HealthReport::clean(),
            &mut DetectorScratch::new(),
        );
        let flags: Vec<bool> = sweep.iter().map(|(_, a)| a.flagged).collect();
        assert_eq!(flags, vec![true, true, false, false], "{flags:?}");
        assert!(sweep[0].1.diurnal);
    }

    #[test]
    fn far_death_is_handled() {
        // Far answers for 10 days then never again (the GHANATEL shutdown).
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let far = move |t: SimTime| {
            if t.day_index() - day0 < 10 {
                2.0 + jitter(t, 0.5)
            } else {
                f64::NAN
            }
        };
        let s = synth(40, far, flat(0.5));
        let a = assess(&s, &AssessConfig::default());
        assert!(a.far_validity < 0.3);
        assert!(!a.congested);
    }

    #[test]
    fn short_series_safe() {
        let s = synth(0, flat(1.0), flat(1.0));
        let a = assess(&s, &AssessConfig::default());
        assert!(!a.flagged);
    }

    use crate::health::classify_link;

    /// A far series whose only "shift" is the detector stitching across a
    /// maintenance gap: elevated readings hug both edges of a daily outage.
    fn gap_artifact_far(day0: u64) -> impl Fn(SimTime) -> f64 {
        move |t: SimTime| {
            let d = t.day_index() - day0;
            let h = t.hour_of_day();
            if (5..15).contains(&d) && (2.0..5.0).contains(&h) {
                f64::NAN // nightly maintenance window
            } else if (5..15).contains(&d) && ((1.5..2.0).contains(&h) || (5.0..5.5).contains(&h)) {
                30.0 + jitter(t, 1.0) // elevated only while ramping in/out of it
            } else {
                2.0 + jitter(t, 0.8)
            }
        }
    }

    #[test]
    fn gap_edge_shifts_become_artifacts() {
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let s = synth(28, gap_artifact_far(day0), flat(0.5));
        let cfg = AssessConfig::default();
        let unmasked = assess(&s, &cfg);
        let mask = classify_link(&s, &cfg.health);
        assert_eq!(mask.overall, LinkHealth::Gappy, "{mask:?}");
        let masked = assess_masked(&s, &cfg, &mask);
        assert!(!masked.congested, "gap-edge shifts must not read as congestion");
        assert!(!masked.flagged, "every event touches a gap: {:?}", masked.events);
        assert!(!masked.artifacts.is_empty(), "edge shifts must be kept as artifacts");
        assert_eq!(masked.health, LinkHealth::Gappy);
        // The unmasked path keeps its old behavior: whatever it decided,
        // it reports Clean health and no artifacts.
        assert_eq!(unmasked.health, LinkHealth::Clean);
        assert!(unmasked.artifacts.is_empty());
    }

    #[test]
    fn true_congestion_survives_unrelated_gap() {
        // Business-hours congestion plus a 4-hour maintenance gap at night
        // in a different week: masking must not eat the real signal.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let far = move |t: SimTime| {
            if t.day_index() - day0 == 20 && (1.0..5.0).contains(&t.hour_of_day()) {
                f64::NAN
            } else {
                diurnal_far(t)
            }
        };
        let s = synth(28, far, flat(0.5));
        let cfg = AssessConfig::default();
        let mask = classify_link(&s, &cfg.health);
        assert_eq!(mask.overall, LinkHealth::Gappy);
        let a = assess_masked(&s, &cfg, &mask);
        assert!(a.congested, "real congestion must survive an unrelated gap");
        assert_eq!(a.health, LinkHealth::Gappy);
    }

    #[test]
    fn near_gap_coincidence_vetoes() {
        // The far series shifts exactly while the *near* series is dark:
        // the VP (or its access link) was misbehaving, not the far queue.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let far = move |t: SimTime| {
            let base = 2.0 + jitter(t, 0.8);
            if (8..22).contains(&(t.day_index() - day0)) && (9.0..16.0).contains(&t.hour_of_day()) {
                base + 25.0
            } else {
                base
            }
        };
        let near = move |t: SimTime| {
            if (8..22).contains(&(t.day_index() - day0)) && (8.5..16.5).contains(&t.hour_of_day()) {
                f64::NAN
            } else {
                1.0 + jitter(t, 0.5)
            }
        };
        let s = synth(28, far, near);
        let cfg = AssessConfig::default();
        let mask = classify_link(&s, &cfg.health);
        assert!(!mask.near_gaps.is_empty(), "near gaps must be tracked");
        let a = assess_masked(&s, &cfg, &mask);
        assert!(a.flagged, "the far shifts themselves are real events");
        assert_eq!(a.near_guard, NearGuard::CoincidentGaps, "{:?}", a.near_guard);
        assert!(!a.congested);
    }

    /// Rewrite the fingerprint regime of answered rounds by day offset.
    fn set_fp_regimes(s: &mut LinkSeries, day0: u64, regime: impl Fn(u64) -> u64) {
        for i in 0..s.len() {
            if s.path_fp[i] != 0 {
                let d = s.cfg.timestamp(i).day_index() - day0;
                s.path_fp[i] = regime(d);
            }
        }
    }

    #[test]
    fn path_change_shift_becomes_artifact() {
        // A 20 ms level shift exactly spanning a routing transient: the
        // fingerprint flips to a new regime for days 10..13 and back. The
        // elevation is a longer path, not a queue — masked assessment must
        // divert it to artifacts and keep zero congestion labels.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let far = move |t: SimTime| {
            let base = 2.0 + jitter(t, 0.8);
            if (10..13).contains(&(t.day_index() - day0)) {
                base + 20.0
            } else {
                base
            }
        };
        let mut s = synth(28, far, flat(0.5));
        set_fp_regimes(&mut s, day0, |d| if (10..13).contains(&d) { 0xBBBB } else { 0xAAAA });
        let cfg = AssessConfig::default();
        let mask = classify_link(&s, &cfg.health);
        assert_eq!(mask.overall, LinkHealth::PathChange, "{mask:?}");
        assert_eq!(mask.path_changes.len(), 2, "{:?}", mask.path_changes);
        let a = assess_masked(&s, &cfg, &mask);
        assert!(!a.flagged, "path-coincident shift must not flag: {:?}", a.events);
        assert!(!a.congested);
        assert!(!a.artifacts.is_empty(), "the shift must be kept as an artifact");
        assert_eq!(a.health, LinkHealth::PathChange);
        // The unmasked path still sees a plain level shift — the masking is
        // what the fingerprints buy.
        assert!(assess(&s, &cfg).flagged);
    }

    #[test]
    fn true_congestion_survives_unrelated_path_change() {
        // Business-hours congestion all month, plus one midnight routing
        // event on day 20: masking the change instant must not eat the
        // recurring real signal.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let mut s = synth(28, diurnal_far, flat(0.5));
        set_fp_regimes(&mut s, day0, |d| if d < 20 { 0xAAAA } else { 0xBBBB });
        let cfg = AssessConfig::default();
        let mask = classify_link(&s, &cfg.health);
        assert_eq!(mask.overall, LinkHealth::PathChange);
        let a = assess_masked(&s, &cfg, &mask);
        assert!(a.congested, "recall: real congestion must survive a path change");
        assert_eq!(a.health, LinkHealth::PathChange, "the verdict still notes the event");
    }

    #[test]
    fn stable_fingerprints_keep_verdicts_identical() {
        // A series probed on a never-changing path must assess exactly like
        // the same series with no fingerprints at all (pre-fingerprinting
        // checkpoints deserialize with `path_fp` empty).
        let cfg = AssessConfig::default();
        let with_fp = synth(28, diurnal_far, flat(0.5));
        let mut without_fp = with_fp.clone();
        without_fp.path_fp.clear();
        let a = assess_masked(&with_fp, &cfg, &classify_link(&with_fp, &cfg.health));
        let b = assess_masked(&without_fp, &cfg, &classify_link(&without_fp, &cfg.health));
        assert_eq!(
            (a.flagged, a.diurnal, a.congested, a.near_guard, a.health),
            (b.flagged, b.diurnal, b.congested, b.near_guard, b.health)
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.artifacts, b.artifacts);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn masked_matches_unmasked_on_clean_series() {
        let s = synth(28, diurnal_far, flat(0.5));
        let cfg = AssessConfig::default();
        let mask = classify_link(&s, &cfg.health);
        assert_eq!(mask.overall, LinkHealth::Clean);
        let masked = assess_masked(&s, &cfg, &mask);
        let unmasked = assess(&s, &cfg);
        assert_eq!(masked.congested, unmasked.congested);
        assert_eq!(masked.events, unmasked.events);
        assert_eq!(masked.near_guard, unmasked.near_guard);
        assert!(masked.artifacts.is_empty());
    }

    #[test]
    fn untrusted_health_vetoes_congestion() {
        // Diurnal far pattern but every response from the wrong address.
        let start = SimTime::from_date(2016, 3, 1);
        let cfg_s = crate::series::SeriesConfig::five_minute(start);
        let mut s = LinkSeries::new(cfg_s);
        for i in 0..(28 * 288) as usize {
            let t = cfg_s.timestamp(i);
            let f = diurnal_far(t);
            s.push(&TslpSample {
                t,
                near: Some(SimDuration::from_millis(1)),
                far: Some(SimDuration::from_secs_f64(f / 1e3)),
                near_addr_ok: true,
                far_addr_ok: false,
                path_fp: 0xFEED,
            });
        }
        let cfg = AssessConfig::default();
        let mask = classify_link(&s, &cfg.health);
        assert_eq!(mask.overall, LinkHealth::AddrUnstable);
        let a = assess_masked(&s, &cfg, &mask);
        assert!(a.flagged && a.diurnal, "the waveform itself still reads as diurnal");
        assert!(!a.congested, "untrusted responders cannot confirm congestion");
        assert!(assess(&s, &cfg).congested, "unmasked path is blind to this");
    }

    #[test]
    fn single_threshold_matches_sweep_element() {
        // Under the default config the sweep's lowered magnitude gate
        // (min(gate, 0.8 × 5 ms)) equals the configured one, so assessing
        // at one threshold must reproduce that threshold's sweep entry
        // exactly — with the series' own mask and with a clean report.
        let day0 = SimTime::from_date(2016, 3, 1).day_index();
        let mut rerouted = synth(28, diurnal_far, flat(0.5));
        set_fp_regimes(&mut rerouted, day0, |d| if d < 20 { 0xAAAA } else { 0xBBBB });
        let corpus = [
            synth(28, diurnal_far, flat(0.5)),
            synth(28, gap_artifact_far(day0), flat(0.5)),
            synth(28, flat(0.8), flat(0.5)),
            rerouted,
            synth(0, flat(1.0), flat(1.0)),
            // The near side shifts with the far side: CoincidentShifts.
            synth(28, diurnal_far, diurnal_far),
        ];
        let thresholds = [5.0, 10.0, 15.0, 20.0];
        let mut scratch = DetectorScratch::new();
        for s in &corpus {
            let cfg = AssessConfig::default();
            for mask in [classify_link(s, &cfg.health), HealthReport::clean()] {
                let sweep = assess_at_thresholds_masked_with(s, &cfg, &thresholds, &mask, &mut scratch);
                for (t, from_sweep) in &sweep {
                    let cfg_t = AssessConfig { threshold_ms: *t, ..cfg.clone() };
                    let single = assess_link(s, &cfg_t, &mask, &mut scratch);
                    assert_eq!(format!("{single:?}"), format!("{from_sweep:?}"), "threshold {t}");
                }
            }
        }
    }
}
