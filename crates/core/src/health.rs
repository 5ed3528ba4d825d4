//! Link health classification — the measurement-integrity layer under the
//! §5.2 detector.
//!
//! The paper's central methodological risk is mistaking *measurement
//! misbehaving* for *links misbehaving*: ICMP rate limiting, router
//! maintenance, loopback-sourced responses, and decommissioned far routers
//! all produce RTT-series artifacts that a naive level-shift detector can
//! read as congestion. This module inspects one [`LinkSeries`] — before any
//! change-point analysis — and produces a [`HealthReport`]: a per-window and
//! overall [`LinkHealth`] label plus the structured gap/outage intervals the
//! masked assessment ([`crate::detect::assess_link`]) uses to
//! attribute suspicious level shifts to measurement artifacts instead of
//! congestion.
//!
//! The evidence is deliberately cheap (one O(n) pass, no bootstrap):
//!
//! - **validity** — fraction of rounds with a far answer;
//! - **loss-run statistics** — maximal runs of consecutive unanswered
//!   rounds; long runs become [`GapInterval`]s (bounded gaps or a trailing
//!   outage), the signature of link flaps, maintenance windows, and ACL
//!   pushes;
//! - **scattered loss + inter-arrival evidence** — many short, spread-out
//!   loss runs with semi-regular answered spacing are the signature of a
//!   token-bucket ICMP rate limiter, not of queueing;
//! - **address consistency** — far responses arriving from an unexpected
//!   source (loopback-sourced routers, path changes under the measurement).

use crate::series::LinkSeries;
use ixp_simnet::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Data-quality verdict for a link (per window, and overall).
///
/// Ordered worst-last so `max` picks the more alarming label when two
/// windows disagree. The discriminants are the stable checkpoint codes of
/// [`LinkHealth::code`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum LinkHealth {
    /// Measurement behaved: answers on schedule, from the expected address.
    Clean = 0,
    /// Long runs of unanswered rounds (flaps, maintenance windows) — the
    /// series carries [`GapInterval`]s that detection must mask around.
    Gappy = 1,
    /// Many short, scattered loss runs with semi-regular survivors: the
    /// far router is rate-limiting ICMP, so validity is a property of the
    /// limiter, not of the link.
    RateLimited = 2,
    /// The TTL-ladder path fingerprint changed mid-series: a routing event
    /// re-converged the forwarding path under the measurement, so level
    /// shifts coincident with the change are path artifacts, not queueing.
    /// The answered samples themselves are trustworthy — only shifts at the
    /// change instants must be attributed to routing.
    PathChange = 3,
    /// Far responses repeatedly arrive from an unexpected address
    /// (loopback-sourced router or a path change under the measurement).
    AddrUnstable = 4,
    /// Essentially no far answers (decommissioned router, permanent ACL),
    /// or the far side died partway and never came back.
    Silent = 5,
}

impl LinkHealth {
    /// Stable lowercase token for tables and JSON reports.
    pub fn token(self) -> &'static str {
        match self {
            LinkHealth::Clean => "clean",
            LinkHealth::Gappy => "gappy",
            LinkHealth::RateLimited => "rate-limited",
            LinkHealth::PathChange => "path-change",
            LinkHealth::AddrUnstable => "addr-unstable",
            LinkHealth::Silent => "silent",
        }
    }

    /// Stable numeric code for binary checkpoints and trace events: the
    /// declaration order, `Clean` = 0 through `Silent` = 5. Monitor
    /// checkpoints on disk store it, so it is never renumbered.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The class with checkpoint code `code`, `None` for an unknown code.
    pub fn from_code(code: u64) -> Option<LinkHealth> {
        use LinkHealth::*;
        let all = [Clean, Gappy, RateLimited, PathChange, AddrUnstable, Silent];
        all.get(usize::try_from(code).ok()?).copied()
    }
}

/// What a long loss run means.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum GapKind {
    /// Bounded: answers resume after the run.
    Gap,
    /// Unbounded: the run extends to the end of the series.
    Outage,
}

/// One structured interval of consecutive unanswered rounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GapInterval {
    /// First unanswered round index.
    pub start: usize,
    /// One past the last unanswered round index.
    pub end: usize,
    /// Bounded gap or trailing outage.
    pub kind: GapKind,
}

impl GapInterval {
    /// Length in rounds.
    pub fn len(&self) -> usize {
        self.end - self.start
    }
    /// True when the interval covers no rounds.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Classification thresholds. Durations are wall-clock, so the same config
/// works on the 5-minute full-fidelity grid and the hourly screening grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Loss runs at least this long become [`GapInterval`]s (the paper's
    /// 30-minute minimum event duration: anything shorter cannot mask a
    /// reportable shift anyway).
    pub min_gap: SimDuration,
    /// Scattered (non-gap) loss above this fraction of the answered-eligible
    /// rounds reads as rate limiting.
    pub max_scattered_loss: f64,
    /// Answered-address consistency below this reads as `AddrUnstable`.
    pub min_addr_consistency: f64,
    /// Overall validity below this reads as `Silent`.
    pub silent_validity: f64,
    /// A trailing outage covering at least this fraction of the series also
    /// reads as `Silent` (the GHANATEL shutdown pattern).
    pub silent_tail_fraction: f64,
    /// Window length for the per-window labels.
    pub window: SimDuration,
}

impl HealthConfig {
    /// The paper's thresholds: 30-minute gaps, one-day windows. The live
    /// monitor reads these on its fixed 5-minute round.
    pub const DEFAULT: HealthConfig = HealthConfig {
        min_gap: SimDuration::from_mins(30),
        max_scattered_loss: 0.25,
        min_addr_consistency: 0.90,
        silent_validity: 0.05,
        silent_tail_fraction: 0.35,
        window: SimDuration::from_days(1),
    };

    /// `min_gap` in rounds on a given grid (at least 2, so a single missed
    /// round never counts as an outage even on a coarse screening grid).
    pub const fn min_gap_rounds(&self, interval: SimDuration) -> usize {
        rounds_in(self.min_gap, interval, 2)
    }

    /// Window length in rounds on a given grid.
    pub const fn window_rounds(&self, interval: SimDuration) -> usize {
        rounds_in(self.window, interval, 1)
    }

    /// The health ladder — the one rule batch windows, the batch overall
    /// label and the live monitor's windows are all read with.
    ///
    /// Evidence precedence (worst wins): `Silent` (no data, or a long
    /// trailing outage) > `AddrUnstable` (answers cannot be trusted to come
    /// from the link) > `PathChange` (the window spans more than one
    /// forwarding path) > `RateLimited` (validity is shaped by the
    /// limiter) > `Gappy` (usable, but shifts near gap edges are suspect) >
    /// `Clean`.
    #[inline]
    pub fn label(&self, ev: &WindowEvidence) -> LinkHealth {
        if ev.rounds == 0 {
            return LinkHealth::Clean;
        }
        let validity = ev.answered as f64 / ev.rounds as f64;
        if validity < self.silent_validity
            || (ev.tail_fraction > 0.0 && ev.tail_fraction >= self.silent_tail_fraction)
        {
            return LinkHealth::Silent;
        }
        if ev.addr_consistency < self.min_addr_consistency {
            return LinkHealth::AddrUnstable;
        }
        // A fingerprinted path change outranks loss-shape evidence: the
        // window is a concatenation of different paths, so its level
        // structure cannot be read as one link's queue without masking the
        // change instants.
        if ev.path_changes > 0 {
            return LinkHealth::PathChange;
        }
        // Scattered loss: unanswered rounds not explained by gap intervals,
        // relative to the rounds outside gaps. Gaps are structural (flaps,
        // maintenance); scattered loss across many short runs is a limiter.
        let outside = ev.rounds - ev.gap_rounds;
        let scattered = (ev.rounds - ev.answered).saturating_sub(ev.gap_rounds);
        if outside > 0 && scattered as f64 / outside as f64 > self.max_scattered_loss {
            return LinkHealth::RateLimited;
        }
        if ev.gap_rounds > 0 {
            return LinkHealth::Gappy;
        }
        LinkHealth::Clean
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::DEFAULT
    }
}

/// Whole rounds of `interval` in `span`, at least `floor`.
const fn rounds_in(span: SimDuration, interval: SimDuration, floor: usize) -> usize {
    let per = if interval.as_micros() == 0 { 1 } else { interval.as_micros() };
    let rounds = (span.as_micros() / per) as usize;
    if rounds < floor { floor } else { rounds }
}

/// What [`HealthConfig::label`] reads: the far-side evidence of one window
/// (or of a whole series).
#[derive(Clone, Copy, Debug)]
pub struct WindowEvidence {
    /// Rounds in the window.
    pub rounds: usize,
    /// Rounds with a far answer.
    pub answered: usize,
    /// Unanswered rounds inside loss runs long enough to be gaps
    /// (at most `rounds`).
    pub gap_rounds: usize,
    /// Share of the window lost to a loss run still open at its end
    /// (0 when there is none).
    pub tail_fraction: f64,
    /// Fraction of answered rounds from the expected address.
    pub addr_consistency: f64,
    /// Path-fingerprint changes inside the window.
    pub path_changes: usize,
}

/// The measurement-integrity summary for one link.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HealthReport {
    /// Overall label (the worst evidence wins; see [`classify_link`]).
    pub overall: LinkHealth,
    /// One label per [`HealthConfig::window`]-sized window of the series.
    pub windows: Vec<LinkHealth>,
    /// Far-side gap/outage intervals, in round-index space, ascending.
    pub gaps: Vec<GapInterval>,
    /// Near-side gap/outage intervals (for the extended near guard).
    pub near_gaps: Vec<GapInterval>,
    /// Fraction of rounds with a far answer.
    pub far_validity: f64,
    /// Fraction of answered far rounds from the expected address.
    pub addr_consistency: f64,
    /// Longest far loss run, in rounds.
    pub longest_loss_run: usize,
    /// Fraction of gap-exempt rounds lost to scattered (short-run) loss.
    pub scattered_loss: f64,
    /// Mean spacing of answered far rounds, in rounds (1.0 = every round).
    pub mean_interarrival: f64,
    /// Round indices where the TTL-ladder path fingerprint changed
    /// ([`LinkSeries::path_change_rounds`]), ascending.
    pub path_changes: Vec<usize>,
}

impl HealthReport {
    /// A report for an empty series: silent, no evidence.
    pub fn empty() -> HealthReport {
        HealthReport {
            overall: LinkHealth::Silent,
            windows: Vec::new(),
            gaps: Vec::new(),
            near_gaps: Vec::new(),
            far_validity: 0.0,
            addr_consistency: 1.0,
            longest_loss_run: 0,
            scattered_loss: 0.0,
            mean_interarrival: f64::INFINITY,
            path_changes: Vec::new(),
        }
    }

    /// A trivially clean report (what the unmasked assessment assumes).
    pub fn clean() -> HealthReport {
        HealthReport { overall: LinkHealth::Clean, far_validity: 1.0, ..HealthReport::empty() }
    }

    /// Does round `i` fall inside (or exactly on the edge of) a far gap,
    /// extended by `slack` rounds on both sides?
    pub fn near_far_gap(&self, i: usize, slack: usize) -> bool {
        self.gaps
            .iter()
            .any(|g| i + slack >= g.start && i < g.end.saturating_add(slack))
    }

    /// Total rounds covered by far gaps.
    pub fn gap_rounds(&self) -> usize {
        self.gaps.iter().map(|g| g.len()).sum()
    }

    /// Is round `i` within `slack` rounds of a recorded path change? A
    /// change at round `c` taints `[c - slack, c + slack]`: the shift the
    /// detector sees can land a few rounds off the fingerprint transition
    /// when the transition round itself went unanswered.
    pub fn near_path_change(&self, i: usize, slack: usize) -> bool {
        self.path_changes
            .iter()
            .any(|&c| i + slack >= c && i <= c.saturating_add(slack))
    }

}

/// Collect maximal runs of non-finite samples at least `min_run` long.
fn loss_runs(values: &[f64], min_run: usize) -> (Vec<GapInterval>, usize) {
    let mut gaps = Vec::new();
    let mut longest = 0usize;
    let mut run_start: Option<usize> = None;
    for (i, v) in values.iter().enumerate() {
        match (run_start, v.is_finite()) {
            (None, false) => run_start = Some(i),
            (Some(s), true) => {
                let len = i - s;
                longest = longest.max(len);
                if len >= min_run {
                    gaps.push(GapInterval { start: s, end: i, kind: GapKind::Gap });
                }
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        let len = values.len() - s;
        longest = longest.max(len);
        if len >= min_run {
            gaps.push(GapInterval { start: s, end: values.len(), kind: GapKind::Outage });
        }
    }
    (gaps, longest)
}

/// Classify one link's measurement health: every window and the whole
/// series are labelled by [`HealthConfig::label`].
pub fn classify_link(series: &LinkSeries, cfg: &HealthConfig) -> HealthReport {
    let n = series.len();
    if n == 0 {
        return HealthReport::empty();
    }
    let interval = series.cfg.interval;
    let min_run = cfg.min_gap_rounds(interval);
    let (gaps, longest) = loss_runs(&series.far_ms, min_run);
    let (near_gaps, _) = loss_runs(&series.near_ms, min_run);

    let answered = series.far_ms.iter().filter(|v| v.is_finite()).count();
    let far_validity = answered as f64 / n as f64;
    let addr_consistency = series.far_addr_consistency();
    let path_changes = series.path_change_rounds();
    let gap_rounds: usize = gaps.iter().map(|g| g.len()).sum();
    let outage_rounds: usize =
        gaps.iter().filter(|g| g.kind == GapKind::Outage).map(|g| g.len()).sum();
    let scattered = (n - answered).saturating_sub(gap_rounds);
    let outside = n - gap_rounds;
    let scattered_loss = if outside > 0 { scattered as f64 / outside as f64 } else { 0.0 };
    let mean_interarrival = if answered > 0 { n as f64 / answered as f64 } else { f64::INFINITY };

    // Per-window labels. Address mismatches are only counted series-wide
    // (LinkSeries does not keep per-round responder records), so windows
    // inherit the series-wide consistency — good enough to locate loss
    // structure in time, which is what the windows are for.
    let wlen = cfg.window_rounds(interval);
    let windows = (0..n)
        .step_by(wlen)
        .map(|w| {
            let hi = (w + wlen).min(n);
            let clipped = |g: &GapInterval| g.end.min(hi).saturating_sub(g.start.max(w));
            let outage: usize =
                gaps.iter().filter(|g| g.kind == GapKind::Outage).map(clipped).sum();
            cfg.label(&WindowEvidence {
                rounds: hi - w,
                answered: series.far_ms[w..hi].iter().filter(|v| v.is_finite()).count(),
                gap_rounds: gaps.iter().map(clipped).sum(),
                tail_fraction: outage as f64 / (hi - w) as f64,
                addr_consistency,
                path_changes: path_changes.iter().filter(|&&c| (w..hi).contains(&c)).count(),
            })
        })
        .collect();

    let overall = cfg.label(&WindowEvidence {
        rounds: n,
        answered,
        gap_rounds,
        tail_fraction: outage_rounds as f64 / n as f64,
        addr_consistency,
        path_changes: path_changes.len(),
    });

    HealthReport {
        overall,
        windows,
        gaps,
        near_gaps,
        far_validity,
        addr_consistency,
        longest_loss_run: longest,
        scattered_loss,
        mean_interarrival,
        path_changes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesConfig;
    use ixp_prober::tslp::TslpSample;
    use ixp_simnet::time::SimTime;

    /// Build a series from a per-round far closure; near side always answers.
    fn series(rounds: usize, far: impl Fn(usize) -> Option<f64>, addr_ok: impl Fn(usize) -> bool) -> LinkSeries {
        let cfg = SeriesConfig::five_minute(SimTime::from_date(2016, 3, 1));
        let mut s = LinkSeries::new(cfg);
        for i in 0..rounds {
            let f = far(i);
            s.push(&TslpSample {
                t: cfg.timestamp(i),
                near: Some(SimDuration::from_millis(1)),
                far: f.map(SimDuration::from_secs_f64),
                near_addr_ok: true,
                far_addr_ok: f.is_some() && addr_ok(i),
                path_fp: if f.is_some() { 0xFEED } else { 0 },
            });
        }
        s
    }

    #[test]
    fn clean_series_is_clean() {
        let s = series(288 * 7, |_| Some(0.002), |_| true);
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::Clean);
        assert!(h.gaps.is_empty());
        assert!(h.windows.iter().all(|&w| w == LinkHealth::Clean));
        assert_eq!(h.far_validity, 1.0);
    }

    #[test]
    fn long_runs_become_gaps() {
        // A 3-hour outage on day 2 and a 2-round blip on day 4.
        let s = series(
            288 * 7,
            |i| {
                let in_outage = (288 + 40..288 + 76).contains(&i);
                let blip = i == 288 * 3 + 5 || i == 288 * 3 + 6;
                if in_outage || blip { None } else { Some(0.002) }
            },
            |_| true,
        );
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::Gappy);
        assert_eq!(h.gaps.len(), 1, "{:?}", h.gaps);
        assert_eq!(h.gaps[0], GapInterval { start: 328, end: 364, kind: GapKind::Gap });
        assert_eq!(h.longest_loss_run, 36);
        // Day 2's window is gappy, the rest clean (the blip is too short).
        assert_eq!(h.windows[1], LinkHealth::Gappy);
        assert_eq!(h.windows[3], LinkHealth::Clean);
    }

    #[test]
    fn trailing_outage_is_silent() {
        // Far answers for 3 days of 10, then never again.
        let s = series(2880, |i| if i < 864 { Some(0.002) } else { None }, |_| true);
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::Silent);
        assert_eq!(h.gaps.last().unwrap().kind, GapKind::Outage);
        assert_eq!(h.gaps.last().unwrap().end, 2880);
        assert_eq!(h.windows.last(), Some(&LinkHealth::Silent));
        // Early windows stay clean: the link was healthy then.
        assert_eq!(h.windows[0], LinkHealth::Clean);
    }

    #[test]
    fn scattered_loss_reads_as_rate_limited() {
        // Every third round answered: limiter-shaped loss, no long runs.
        let s = series(2880, |i| if i % 3 == 0 { Some(0.002) } else { None }, |_| true);
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::RateLimited);
        assert!(h.gaps.is_empty(), "short runs must not become gaps");
        assert!((h.scattered_loss - 2.0 / 3.0).abs() < 1e-9);
        assert!((h.mean_interarrival - 3.0).abs() < 1e-9);
    }

    #[test]
    fn path_change_outranks_loss_shape_but_not_silence() {
        // A mid-campaign fingerprint flip labels the series PathChange even
        // though every round answered cleanly.
        let mut s = series(2880, |_| Some(0.002), |_| true);
        for fp in s.path_fp[1500..].iter_mut() {
            *fp = 0xBEEF;
        }
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::PathChange);
        assert_eq!(h.path_changes, vec![1500]);
        // Only the window containing the change is tainted.
        assert_eq!(h.windows[1500 / 288], LinkHealth::PathChange);
        assert_eq!(h.windows[0], LinkHealth::Clean);
        assert_eq!(h.windows.last(), Some(&LinkHealth::Clean));
        assert!(h.near_path_change(1500, 0));
        assert!(h.near_path_change(1494, 6) && h.near_path_change(1506, 6));
        assert!(!h.near_path_change(1493, 6));

        // Silence still wins: a path change cannot rescue a dead series.
        let mut dead = series(2880, |i| (i < 100).then_some(0.002), |_| true);
        if let Some(fp) = dead.path_fp.get_mut(50) {
            *fp = 0xBEEF;
        }
        assert_eq!(classify_link(&dead, &HealthConfig::default()).overall, LinkHealth::Silent);
    }

    #[test]
    fn rate_limited_rounds_cannot_fake_a_path_change() {
        // Every third round answered (limiter-shaped): the unknown rounds
        // carry fingerprint 0, and the surviving rounds agree — so the label
        // stays RateLimited, not PathChange.
        let s = series(2880, |i| if i % 3 == 0 { Some(0.002) } else { None }, |_| true);
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::RateLimited);
        assert!(h.path_changes.is_empty());
    }

    #[test]
    fn addr_mismatches_read_as_unstable() {
        let s = series(2880, |_| Some(0.002), |_| false);
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::AddrUnstable);
        assert!(h.addr_consistency < 0.1);
    }

    #[test]
    fn silence_beats_everything() {
        let s = series(2880, |_| None, |_| true);
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::Silent);
        assert_eq!(h.far_validity, 0.0);
        assert_eq!(classify_link(&LinkSeries::new(s.cfg), &HealthConfig::default()).overall, LinkHealth::Silent);
    }

    #[test]
    fn near_gaps_tracked_separately() {
        let cfg = SeriesConfig::five_minute(SimTime::from_date(2016, 3, 1));
        let mut s = LinkSeries::new(cfg);
        for i in 0..2880usize {
            let near_up = !(100..200).contains(&i);
            s.push(&TslpSample {
                t: cfg.timestamp(i),
                near: near_up.then_some(SimDuration::from_millis(1)),
                far: Some(SimDuration::from_millis(2)),
                near_addr_ok: near_up,
                far_addr_ok: true,
                path_fp: if near_up { 0xFEED } else { 0 },
            });
        }
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.overall, LinkHealth::Clean, "near loss must not taint far health");
        assert_eq!(h.near_gaps, vec![GapInterval { start: 100, end: 200, kind: GapKind::Gap }]);
    }

    #[test]
    fn checkpoint_codes_follow_declaration_order() {
        use LinkHealth::*;
        for (i, h) in [Clean, Gappy, RateLimited, PathChange, AddrUnstable, Silent].iter().enumerate() {
            assert_eq!(h.code(), i as u64);
            assert_eq!(LinkHealth::from_code(i as u64), Some(*h));
            // The trace decoder in ixp-obs (below core) names the same codes.
            assert_eq!(ixp_obs::health_class_name(h.code()), format!("{h:?}"));
        }
        assert_eq!(LinkHealth::from_code(6), None);
        assert_eq!(LinkHealth::from_code(u64::MAX), None);
    }

    #[test]
    fn gap_edges_and_slack() {
        let h = HealthReport {
            gaps: vec![GapInterval { start: 100, end: 150, kind: GapKind::Gap }],
            ..HealthReport::clean()
        };
        assert!(h.near_far_gap(100, 0));
        assert!(h.near_far_gap(149, 0));
        assert!(!h.near_far_gap(150, 0), "end is exclusive without slack");
        assert!(h.near_far_gap(155, 6));
        assert!(h.near_far_gap(94, 6));
        assert!(!h.near_far_gap(93, 6));
    }

    #[test]
    fn coarse_grid_uses_duration_thresholds() {
        // Hourly screening grid: a 2-round (2-hour) run is already a gap.
        let cfg = SeriesConfig { start: SimTime::from_date(2016, 3, 1), interval: SimDuration::from_hours(1) };
        let mut s = LinkSeries::new(cfg);
        for i in 0..240usize {
            let up = !(50..52).contains(&i);
            s.push(&TslpSample {
                t: cfg.timestamp(i),
                near: Some(SimDuration::from_millis(1)),
                far: up.then_some(SimDuration::from_millis(2)),
                near_addr_ok: true,
                far_addr_ok: up,
                path_fp: if up { 0xFEED } else { 0 },
            });
        }
        let h = classify_link(&s, &HealthConfig::default());
        assert_eq!(h.gaps, vec![GapInterval { start: 50, end: 52, kind: GapKind::Gap }]);
        assert_eq!(h.overall, LinkHealth::Gappy);
    }
}
