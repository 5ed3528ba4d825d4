//! Per-link streaming state: online detection, causal path-change masking,
//! an incremental measurement-health ladder, and the sequence gate in front
//! of them.
//!
//! The contract that everything else leans on: feeding a link's raw far
//! series through [`LinkState::push`] one sample at a time produces exactly
//! the alarm rounds that [`ixp_chgpt::online_events`] reports over the full
//! series. Non-finite samples reach the detector (which counts them as gaps
//! and leaves its state untouched), so round indices line up with series
//! positions with no skip bookkeeping.
//!
//! Masking follows the batch rule from `assess_link`, made causal: a
//! path change at round `c` taints upshifts in `[c, c + slack]`, with the
//! batch assessor's own [`MASK_SLACK`] counted in rounds
//! ([`MASK_SLACK_ROUNDS`]). The batch assessor can also mask an upshift
//! *before* the change (it sees the whole series); a resident monitor
//! cannot know the future, so the backward half of the window is
//! deliberately absent — the equivalence suite pins the
//! causal rule on both the streaming and batch sides.
//!
//! Health is read with the batch ladder itself, [`HealthConfig::label`]
//! under [`HealthConfig::DEFAULT`], over a tumbling one-day window — the
//! same shape as [`tslp_core::health::classify_link`]'s per-window labels.
//! Only the evidence is collected differently, in O(1) counters instead of
//! a retained series, and in three places it is a streaming approximation:
//! a loss run still open counts at its current length (batch sees every
//! run's final extent); address consistency is counted per window (batch
//! counts it series-wide); and the open run's tail fraction is taken over a
//! full window, whatever share of it has elapsed. On one complete window
//! from a fresh state the two agree exactly (the monitor equivalence suite
//! checks this on a random corpus).
//!
//! ## Layout
//!
//! A link's state is two records. `LinkHot` is one 64-byte cache line
//! holding exactly what a quiet, in-order, answered sample reads or writes:
//! the gate's next sequence number and parked count, the round counter,
//! the last fingerprint, the detector's baseline, upshift statistic and
//! regime flags, the open loss run, the five window counters and the
//! committed health label. `LinkCold` (160 bytes) holds what only events
//! touch: warm-up, elevated-period and gap state, path-change and alarm
//! evidence and counters, and the gate's counters and reorder buffer. The
//! service keeps each in its own per-shard array, so a steady-state sample
//! streams one line; [`LinkState`] owns one pair of the same records and
//! runs the same code, for tests, benches and batch reference views.
//! Neither reads a configuration per sample: the detector's parameters are
//! the constants of [`ixp_chgpt::online`], and only the gate's reorder
//! window comes from [`MonitorConfig`].

use crate::index::{ColdVerdict, HotVerdict, MaskOutcome, VerdictEvidence};
use crate::service::{MonitorConfig, SeqStats};
use ixp_chgpt::{elevation_estimate, online_step, OnlineCold, OnlineHot, OnlineVerdict};
use ixp_simnet::time::SimDuration;
use tslp_core::detect::MASK_SLACK;
use tslp_core::health::{HealthConfig, WindowEvidence};
use tslp_core::LinkHealth;

/// The monitor's round: the paper's 5-minute TSLP cadence.
const ROUND: SimDuration = SimDuration::from_mins(5);

/// Health-window length in rounds: one day of 5-minute rounds = 288.
pub(crate) const WINDOW_ROUNDS: u64 = HealthConfig::DEFAULT.window_rounds(ROUND) as u64;

/// Loss runs at least this long are gap evidence, not scattered loss:
/// the paper's 30-minute minimum = 6 rounds.
pub(crate) const MIN_GAP_ROUNDS: u64 = HealthConfig::DEFAULT.min_gap_rounds(ROUND) as u64;

/// The causal mask's slack: a path change at round `c` masks upshifts in
/// `[c, c + MASK_SLACK_ROUNDS]`. The batch assessor's 30-minute
/// [`MASK_SLACK`] on the 5-minute round = 6.
pub const MASK_SLACK_ROUNDS: u64 = MASK_SLACK.as_micros() / ROUND.as_micros();

/// One ingested measurement round for one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorSample {
    /// Far-side RTT in milliseconds; non-finite = the round went unanswered.
    pub far_ms: f64,
    /// TSLP path fingerprint for the round (0 = unknown, never a change).
    pub path_fp: u64,
    /// Did the far answer come from the expected address? (Ignored for
    /// unanswered rounds.)
    pub far_addr_ok: bool,
}

impl MonitorSample {
    /// An unanswered round.
    pub fn lost() -> MonitorSample {
        MonitorSample { far_ms: f64::NAN, path_fp: 0, far_addr_ok: true }
    }

    /// A clean answered round.
    pub fn answered(far_ms: f64, path_fp: u64) -> MonitorSample {
        MonitorSample { far_ms, path_fp, far_addr_ok: true }
    }
}

/// What one sample did to a link's monitor state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkUpdate {
    /// The round index this sample landed on (0-based, counts every sample).
    pub round: u64,
    /// The detector's verdict for the sample.
    pub verdict: OnlineVerdict,
    /// True when the verdict is an upshift alarm attributed to a recent
    /// path change rather than congestion.
    pub masked: bool,
    /// True when this sample closed a health window and the committed
    /// health class changed. Computed at the rollover itself, so tracing
    /// callers never recompute (or even reread) the label on the hot path.
    pub health_changed: bool,
    /// The health class committed before this sample (only meaningful when
    /// [`LinkUpdate::health_changed`] is set; equals the current class
    /// otherwise).
    pub health_before: LinkHealth,
    /// True when this update is worth tracing: an upshift or downshift
    /// alarm, or a committed health change. One precomputed byte so the
    /// traced ingest path tests a single flag per delivery.
    pub noteworthy: bool,
    /// True when this sample moved a published counter or evidence field:
    /// an upshift alarm, a gap, or a nonzero fingerprint that differs from
    /// the last one (the first one included). Together with a change of
    /// [`LinkState::health`], this is everything that can move the cold
    /// part of the link's verdict.
    pub evidence_moved: bool,
}

/// One congestion event from the batch reference view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorEvent {
    /// Upshift sample index.
    pub up: usize,
    /// Downshift sample index (series length when the event never closed).
    pub down: usize,
    /// True when the upshift was masked as a path-change artifact.
    pub masked: bool,
}

/// The hot record of one link: everything a quiet, in-order, answered
/// sample touches, in one cache line (see the module docs). The window
/// counters never exceed [`WINDOW_ROUNDS`], so they fit `u16`; an open
/// loss run saturates at `u32::MAX` rounds (40,000 years of 5-minute
/// rounds).
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
pub(crate) struct LinkHot {
    /// Next sequence number the link's gate expects.
    pub(crate) next_seq: u64,
    /// Samples pushed (answered or not).
    pub(crate) rounds: u64,
    /// Last nonzero path fingerprint seen (0 = none yet).
    last_fp: u64,
    /// The detector's baseline, upshift statistic and regime flags.
    det: OnlineHot,
    /// Length of the loss run currently open (may span window boundaries).
    cur_loss_run: u32,
    // Tumbling health window counters. `w_rounds` sits after the others,
    // beside two bytes a quiet sample never writes: the compiler may
    // widen its increment to a 4-byte load, which must not overlap the
    // 2-byte store to `w_answered` just before it (a failed store
    // forward stalls the sample).
    w_answered: u16,
    w_addr_bad: u16,
    /// Rounds inside closed loss runs that qualified as gaps.
    w_gap_rounds: u16,
    w_path_changes: u16,
    w_rounds: u16,
    /// Samples parked in the gate's reorder buffer (0 exactly when the
    /// buffer is `None`; at most [`REORDER_CAP`]).
    pub(crate) parked: u8,
    /// Label of the last completed window (`Clean` until one completes).
    prev_health: LinkHealth,
}

/// Bytes of one link's hot record: one cache line.
pub const HOT_RECORD_BYTES: usize = size_of::<LinkHot>();

/// Bytes of one link's cold record.
pub const COLD_RECORD_BYTES: usize = size_of::<LinkCold>();

/// The cold record of one link: what only warm-up, elevated periods, gaps,
/// path changes, alarms and out-of-order arrivals touch.
#[derive(Clone, Debug)]
pub(crate) struct LinkCold {
    /// The detector's warm-up, downshift, elevated-period and gap state.
    det: OnlineCold,
    /// Round of the most recent fingerprint change (`u64::MAX` = never).
    last_change_round: u64,
    /// Fingerprint that was replaced by the most recent change (0 = no
    /// change yet) — the "before" half of the path-change evidence.
    fp_before: u64,
    /// Round of the most recent upshift alarm (`u64::MAX` = never).
    last_alarm_round: u64,
    /// Rounds between the last path change and the last alarm
    /// (`u64::MAX` = no change was on record when the alarm fired).
    last_alarm_gap: u64,
    /// Total fingerprint changes.
    path_changes: u64,
    /// Upshift alarms (masked ones included).
    alarms: u64,
    /// Upshift alarms attributed to path changes.
    masked_alarms: u64,
    /// Was the last alarm masked as a path-change artifact?
    last_alarm_masked: bool,
    /// The gate's counters and reorder buffer.
    pub(crate) gate: GateCold,
}

impl LinkHot {
    /// The hot record of a fresh link.
    pub(crate) fn new() -> LinkHot {
        LinkHot {
            next_seq: 0,
            rounds: 0,
            last_fp: 0,
            det: OnlineHot::new(),
            cur_loss_run: 0,
            w_rounds: 0,
            w_answered: 0,
            w_addr_bad: 0,
            w_gap_rounds: 0,
            w_path_changes: 0,
            parked: 0,
            prev_health: LinkHealth::Clean,
        }
    }

    /// Ingest one round.
    #[inline(always)]
    pub(crate) fn push(&mut self, cold: &mut LinkCold, s: &MonitorSample) -> LinkUpdate {
        let round = self.rounds;
        self.rounds += 1;

        // Path-change detection first — mirrors
        // `LinkSeries::path_change_rounds`: a change happens at the round
        // whose nonzero fingerprint differs from the last nonzero one;
        // fingerprint 0 (unanswered / rate-limited rounds) never changes
        // anything. Detected before the detector sees the sample so a shift
        // landing on the change round itself is maskable.
        let fp_moved = s.path_fp != 0 && s.path_fp != self.last_fp;
        if fp_moved {
            if self.last_fp != 0 {
                cold.path_changes += 1;
                self.w_path_changes += 1;
                cold.last_change_round = round;
                cold.fp_before = self.last_fp;
            }
            self.last_fp = s.path_fp;
        }

        // Window bookkeeping.
        let answered = s.far_ms.is_finite();
        if answered {
            self.w_answered += 1;
            if !s.far_addr_ok {
                self.w_addr_bad += 1;
            }
            if u64::from(self.cur_loss_run) >= MIN_GAP_ROUNDS {
                // At most `w_rounds`, so it fits the window counter.
                self.w_gap_rounds += self.cur_loss_run.min(u32::from(self.w_rounds)) as u16;
            }
            self.cur_loss_run = 0;
        } else {
            self.cur_loss_run = self.cur_loss_run.saturating_add(1);
        }

        let verdict = online_step(&mut self.det, &mut cold.det, s.far_ms);
        let masked =
            verdict == OnlineVerdict::UpshiftAlarm && cold.record_alarm(round);

        self.w_rounds += 1;
        let health_before = self.prev_health;
        if u64::from(self.w_rounds) >= WINDOW_ROUNDS {
            self.prev_health = self.window_label();
            self.w_rounds = 0;
            self.w_answered = 0;
            self.w_addr_bad = 0;
            self.w_gap_rounds = 0;
            self.w_path_changes = 0;
            // cur_loss_run deliberately survives: an outage spanning the
            // boundary keeps accumulating toward Silent evidence.
        }

        let health_changed = self.prev_health != health_before;
        LinkUpdate {
            round,
            verdict,
            masked,
            health_changed,
            health_before,
            noteworthy: matches!(
                verdict,
                OnlineVerdict::UpshiftAlarm | OnlineVerdict::DownshiftAlarm
            ) | health_changed,
            evidence_moved: fp_moved
                | matches!(verdict, OnlineVerdict::UpshiftAlarm | OnlineVerdict::Gap),
        }
    }

    /// The health label over the current (in-progress) window, falling back
    /// to the last completed window's label while the new window is still
    /// too young to say anything (fewer than 6 rounds, the gap minimum).
    pub(crate) fn health(&self) -> LinkHealth {
        if u64::from(self.w_rounds) < MIN_GAP_ROUNDS {
            return self.prev_health;
        }
        self.window_label()
    }

    /// True when admitting `s` at `seq` takes the in-order fast path of
    /// [`LinkHot::admit`] (exactly `s` is delivered) with an answered
    /// sample from the expected address: the only arrival after which
    /// [`LinkHot::stays_clean`] may skip the label. Read before admission.
    #[inline]
    pub(crate) fn quiet_arrival(&self, seq: u64, s: &MonitorSample) -> bool {
        self.in_order(seq) && s.far_ms.is_finite() && s.far_addr_ok
    }

    /// After a [`LinkHot::quiet_arrival`] whose push moved no evidence, true
    /// when [`LinkHot::health`] was `label` = `Clean` before the push and so
    /// still is, without computing it.
    ///
    /// Exact: with more than [`MIN_GAP_ROUNDS`] rounds now in the window,
    /// the push neither rolled the window over nor moved `health` off the
    /// committed label, so `Clean` was this window's own label: no path
    /// change, no gap rounds, an open loss run shorter than a gap. An
    /// answered, address-consistent push with no fingerprint change raises
    /// validity and address consistency, closes that loss run, keeps gap
    /// rounds and path changes at 0 and lowers the scattered-loss ratio,
    /// so no rung of [`HealthConfig::label`] above `Clean` can fire.
    #[inline]
    pub(crate) fn stays_clean(&self, label: LinkHealth) -> bool {
        label == LinkHealth::Clean && u64::from(self.w_rounds) > MIN_GAP_ROUNDS
    }

    /// The health class committed at the last window boundary — an O(1)
    /// field read, unlike [`LinkHot::health`], which recomputes the live
    /// label. The tracing path compares this across a push to report
    /// [`ixp_obs::TraceKind::HealthChanged`] without pricing a label
    /// computation into every sample.
    pub(crate) fn committed_health(&self) -> LinkHealth {
        self.prev_health
    }

    /// Current detector baseline, milliseconds.
    pub(crate) fn baseline(&self) -> f64 {
        self.det.baseline
    }

    /// The current window's evidence, read with the batch ladder. Only
    /// called with at least [`MIN_GAP_ROUNDS`] rounds in the window.
    fn window_label(&self) -> LinkHealth {
        let rounds = u32::from(self.w_rounds);
        // An open loss run contributes at its current length once it
        // qualifies, clipped to this window.
        let open_gap = if u64::from(self.cur_loss_run) >= MIN_GAP_ROUNDS {
            self.cur_loss_run.min(rounds)
        } else {
            0
        };
        let addr_consistency = if self.w_answered == 0 {
            1.0
        } else {
            f64::from(self.w_answered - self.w_addr_bad) / f64::from(self.w_answered)
        };
        HealthConfig::DEFAULT.label(&WindowEvidence {
            rounds: rounds as usize,
            answered: usize::from(self.w_answered),
            gap_rounds: (u32::from(self.w_gap_rounds) + open_gap).min(rounds) as usize,
            tail_fraction: f64::from(self.cur_loss_run) / WINDOW_ROUNDS as f64,
            addr_consistency,
            path_changes: usize::from(self.w_path_changes),
        })
    }

    /// Provenance for the link's current verdict: where the last shift
    /// happened, what the path looked like before and after the most recent
    /// fingerprint change, and whether the path-change mask was applied,
    /// rejected, or never in play at the last alarm.
    pub(crate) fn verdict_evidence(&self, cold: &LinkCold) -> VerdictEvidence {
        VerdictEvidence {
            change_round: cold.last_alarm_round,
            level_before_ms: cold.det.level_before,
            fp_before: cold.fp_before,
            fp_after: self.last_fp,
            path_change_round: cold.last_change_round,
            mask: if cold.last_alarm_round == u64::MAX || cold.last_alarm_gap == u64::MAX {
                MaskOutcome::NotConsidered
            } else if cold.last_alarm_masked {
                MaskOutcome::Applied { rounds_since_change: cold.last_alarm_gap }
            } else {
                MaskOutcome::Rejected { rounds_since_change: cold.last_alarm_gap }
            },
        }
    }

    /// The part of the link's verdict that moves with every sample. Reads
    /// the cold record only while the link is elevated.
    pub(crate) fn hot_verdict(&self, cold: &LinkCold) -> HotVerdict {
        HotVerdict {
            round: self.rounds,
            elevated: self.det.elevated,
            baseline_ms: self.det.baseline,
            elevation_ms: elevation_estimate(&self.det, &cold.det),
        }
    }

    /// The part of the link's verdict that moves only when
    /// [`LinkUpdate::evidence_moved`] is set or [`LinkHot::health`]
    /// changes. `health` is the caller's [`LinkHot::health`] of the current
    /// state, passed in so a publish does not compute it twice.
    pub(crate) fn cold_verdict(&self, cold: &LinkCold, health: LinkHealth) -> ColdVerdict {
        debug_assert_eq!(health, self.health());
        ColdVerdict {
            health,
            alarms: cold.alarms,
            masked_alarms: cold.masked_alarms,
            gaps: cold.det.gaps,
            evidence: self.verdict_evidence(cold),
        }
    }

    /// True when `seq` takes the clean in-order fast path of
    /// [`LinkHot::admit`]: the expected sequence number with nothing
    /// parked, so the admission delta is a known constant (one delivery, no
    /// anomalies). Both words sit in the line the push then writes.
    #[inline]
    fn in_order(&self, seq: u64) -> bool {
        in_order(self.next_seq, self.parked, seq)
    }

    /// Admit one `(seq, sample)` arrival through this link's gate: the
    /// in-order check inline, everything else out of line. Released
    /// samples are handed to `deliver` with both records, in strictly
    /// increasing sequence order (see [`LinkState::admit`] for the rules).
    #[inline(always)]
    pub(crate) fn admit(
        &mut self,
        cold: &mut LinkCold,
        seq: u64,
        s: MonitorSample,
        window: u64,
        deliver: &mut impl FnMut(&mut LinkHot, &mut LinkCold, MonitorSample),
    ) -> AdmitDelta {
        if self.in_order(seq) {
            deliver(self, cold, s);
            self.next_seq += 1;
            return AdmitDelta { delivered: 1, ..AdmitDelta::default() };
        }
        self.admit_out_of_order(cold, seq, s, window, deliver)
    }

    /// Everything but the in-order case of [`LinkHot::admit`], kept out of
    /// line so the caller's loop holds a single, inlined copy of `deliver`.
    #[inline(never)]
    fn admit_out_of_order(
        &mut self,
        cold: &mut LinkCold,
        seq: u64,
        s: MonitorSample,
        window: u64,
        deliver: &mut impl FnMut(&mut LinkHot, &mut LinkCold, MonitorSample),
    ) -> AdmitDelta {
        let mut out = Released::new();
        let delta = self.admit_slow(&mut cold.gate, seq, s, window, &mut out);
        for &smp in out.samples() {
            deliver(self, cold, smp);
        }
        delta
    }

    /// Fixed-layout encode of the link for checkpointing: 27 u64
    /// little-endian words, the gate excluded (see [`GateCold::encode_into`]).
    /// The detector's parameters are not serialized: they are constants,
    /// which the checkpoint fingerprint binds.
    pub(crate) fn encode_into(&self, cold: &LinkCold, out: &mut Vec<u8>) {
        let (h, c) = (&self.det, &cold.det);
        let words: [u64; 27] = [
            h.baseline.to_bits(),
            c.warmup_seen as u64,
            c.warmup_sum.to_bits(),
            h.s_up.to_bits(),
            c.s_down.to_bits(),
            u64::from(h.elevated),
            c.level_before.to_bits(),
            c.elevated_sum.to_bits(),
            c.elevated_n as u64,
            c.gaps,
            self.last_fp,
            cold.last_change_round,
            self.rounds,
            cold.path_changes,
            cold.alarms,
            cold.masked_alarms,
            u64::from(self.w_rounds),
            u64::from(self.w_answered),
            u64::from(self.w_addr_bad),
            u64::from(self.w_gap_rounds),
            u64::from(self.w_path_changes),
            u64::from(self.cur_loss_run),
            self.prev_health.code(),
            cold.fp_before,
            cold.last_alarm_round,
            cold.last_alarm_gap,
            u64::from(cold.last_alarm_masked),
        ];
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Number of encoded bytes per link.
    pub(crate) const ENCODED_LEN: usize = 27 * 8;

    /// Decode a link previously written by [`LinkHot::encode_into`], with a
    /// fresh gate. `None` on a short record and on any word no live link
    /// could hold: a window counter above [`WINDOW_ROUNDS`] (or more bad
    /// addresses than answers), an open loss run beyond `u32::MAX`, a mask
    /// flag other than 0 or 1, an unknown health code, or a last-change or
    /// last-alarm round that is neither `u64::MAX` (never) nor below the
    /// rounds ingested (the next alarm would subtract past zero).
    pub(crate) fn decode(bytes: &[u8]) -> Option<(LinkHot, LinkCold)> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let mut words = [0u64; 27];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().ok()?);
        }
        let det_cold = OnlineCold {
            warmup_seen: words[1] as usize,
            warmup_sum: f64::from_bits(words[2]),
            s_down: f64::from_bits(words[4]),
            level_before: f64::from_bits(words[6]),
            elevated_sum: f64::from_bits(words[7]),
            elevated_n: words[8] as usize,
            gaps: words[9],
        };
        let det_hot = OnlineHot::restore(
            f64::from_bits(words[0]),
            f64::from_bits(words[3]),
            words[5] != 0,
            &det_cold,
        );
        let past_round = |w: u64| w == u64::MAX || w < words[12];
        if words[26] > 1 || !past_round(words[11]) || !past_round(words[24]) {
            return None;
        }
        let window = |w: u64| u16::try_from(w).ok().filter(|&c| u64::from(c) <= WINDOW_ROUNDS);
        let hot = LinkHot {
            next_seq: 0,
            rounds: words[12],
            last_fp: words[10],
            det: det_hot,
            cur_loss_run: u32::try_from(words[21]).ok()?,
            w_rounds: window(words[16])?,
            w_answered: window(words[17])?,
            w_addr_bad: window(words[18])?,
            w_gap_rounds: window(words[19])?,
            w_path_changes: window(words[20])?,
            parked: 0,
            prev_health: LinkHealth::from_code(words[22])?,
        };
        if hot.w_addr_bad > hot.w_answered {
            return None;
        }
        let cold = LinkCold {
            det: det_cold,
            last_change_round: words[11],
            fp_before: words[23],
            last_alarm_round: words[24],
            last_alarm_gap: words[25],
            path_changes: words[13],
            alarms: words[14],
            masked_alarms: words[15],
            last_alarm_masked: words[26] != 0,
            gate: GateCold::default(),
        };
        Some((hot, cold))
    }
}

impl LinkCold {
    /// The cold record of a fresh link.
    pub(crate) fn new() -> LinkCold {
        LinkCold {
            det: OnlineCold::default(),
            last_change_round: u64::MAX,
            fp_before: 0,
            last_alarm_round: u64::MAX,
            last_alarm_gap: u64::MAX,
            path_changes: 0,
            alarms: 0,
            masked_alarms: 0,
            last_alarm_masked: false,
            gate: GateCold::default(),
        }
    }

    /// Book an upshift alarm at `round` and return whether the causal mask
    /// applies: a change at `c` taints `[c, c + MASK_SLACK_ROUNDS]`.
    fn record_alarm(&mut self, round: u64) -> bool {
        self.alarms += 1;
        self.last_alarm_round = round;
        let since_change =
            (self.last_change_round != u64::MAX).then(|| round - self.last_change_round);
        self.last_alarm_gap = since_change.unwrap_or(u64::MAX);
        let masked = since_change.is_some_and(|gap| gap <= MASK_SLACK_ROUNDS);
        if masked {
            self.masked_alarms += 1;
        }
        self.last_alarm_masked = masked;
        masked
    }
}

/// Full streaming state for one monitored link, gate included: a 64-byte
/// hot record and a 160-byte cold record (see the module docs), O(1) per
/// sample. The service keeps the same two records in per-shard arrays and
/// runs the same code on them.
#[derive(Clone, Debug)]
pub struct LinkState {
    hot: LinkHot,
    cold: LinkCold,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState::new()
    }
}

impl LinkState {
    /// Fresh state.
    pub fn new() -> LinkState {
        LinkState { hot: LinkHot::new(), cold: LinkCold::new() }
    }

    /// The state held in a service slab's two records (tests compare it
    /// with a reference built through the public API).
    #[cfg(test)]
    pub(crate) fn from_parts(hot: LinkHot, cold: LinkCold) -> LinkState {
        LinkState { hot, cold }
    }

    /// Rounds ingested so far.
    pub fn rounds(&self) -> u64 {
        self.hot.rounds
    }

    /// Total upshift alarms (masked included).
    pub fn alarms(&self) -> u64 {
        self.cold.alarms
    }

    /// Upshift alarms masked as path-change artifacts.
    pub fn masked_alarms(&self) -> u64 {
        self.cold.masked_alarms
    }

    /// Total path-fingerprint changes observed.
    pub fn path_changes(&self) -> u64 {
        self.cold.path_changes
    }

    /// Unanswered (non-finite or subnormal) rounds so far.
    pub fn gaps(&self) -> u64 {
        self.cold.det.gaps
    }

    /// Is the detector inside an elevated period?
    pub fn is_elevated(&self) -> bool {
        self.hot.det.elevated
    }

    /// Detector baseline estimate, milliseconds.
    pub fn baseline(&self) -> f64 {
        self.hot.det.baseline
    }

    /// Estimated elevation magnitude, milliseconds (0 when quiet).
    pub fn elevation_estimate(&self) -> f64 {
        elevation_estimate(&self.hot.det, &self.cold.det)
    }

    /// Provenance for the link's current verdict (see
    /// [`crate::index::VerdictEvidence`]).
    pub fn verdict_evidence(&self) -> VerdictEvidence {
        self.hot.verdict_evidence(&self.cold)
    }

    /// Ingest one round, bypassing the link's gate.
    #[inline(always)]
    pub fn push(&mut self, s: &MonitorSample) -> LinkUpdate {
        self.hot.push(&mut self.cold, s)
    }

    /// Admit one `(seq, sample)` arrival through the link's own sequence
    /// gate — the same in-line check and slow path the service runs — and
    /// push every sample it releases, so disordered telemetry is healed
    /// when possible and **counted** when not, never pushed into the CUSUM
    /// state out of order.
    ///
    /// The gate releases samples in strictly increasing sequence order. A
    /// sample whose sequence number is within the window
    /// ([`MonitorConfig::reorder_window`], clamped to [`REORDER_CAP`])
    /// ahead of the next expected one is parked and released once the gap
    /// fills; one further ahead slides the window (the skipped sequence
    /// numbers are counted as dropped); one at or behind the last delivery
    /// is counted as duplicate (within the window, at least one behind) or
    /// stale (older), and so is one already parked. Sequence number
    /// `u64::MAX` is reserved (counted as stale) so the internal arithmetic
    /// cannot overflow. All decisions are pure functions of the per-link
    /// arrival order, so the outcome is bit-identical at any ingest thread
    /// count.
    ///
    /// The gate's in-order words sit in the hot record; its counters and
    /// reorder buffer in the cold one. The buffer exists only while samples
    /// are parked: it is allocated when the first sample parks and freed as
    /// soon as the gap heals, so the ~99% of links with nothing out of
    /// order carry no buffer at all.
    #[inline]
    pub fn admit(&mut self, seq: u64, s: MonitorSample, cfg: &MonitorConfig) -> AdmitDelta {
        self.hot.admit(&mut self.cold, seq, s, cfg.reorder_window, &mut |hot, cold, smp| {
            hot.push(cold, &smp);
        })
    }

    /// The health label over the current (in-progress) window, falling back
    /// to the last completed window's label while the new window is still
    /// too young to say anything (fewer than 6 rounds, the gap minimum).
    pub fn health(&self) -> LinkHealth {
        self.hot.health()
    }

    /// Fixed-layout encode for checkpointing (see [`LinkHot::encode_into`]).
    #[cfg(test)]
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        self.hot.encode_into(&self.cold, out);
    }

    /// Number of encoded bytes per link.
    #[cfg(test)]
    pub(crate) const ENCODED_LEN: usize = LinkHot::ENCODED_LEN;

    /// Decode a state previously written by [`LinkState::encode_into`].
    #[cfg(test)]
    pub(crate) fn decode(bytes: &[u8]) -> Option<LinkState> {
        let (hot, cold) = LinkHot::decode(bytes)?;
        Some(LinkState { hot, cold })
    }
}

/// Reorder-buffer capacity: the hard upper bound on
/// [`crate::MonitorConfig::reorder_window`]. Eight pending rounds is 40
/// minutes of telemetry at the paper's 5-minute cadence — far beyond any
/// plausible collector skew; larger windows would only delay loss verdicts.
pub const REORDER_CAP: usize = 8;

/// What one [`LinkState::admit`] call did, for batch-level accounting. The
/// gate also keeps running per-link totals; this is the per-call delta the
/// ingest worker folds into its shard report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmitDelta {
    /// Samples released into the detector by this call (the admitted
    /// sample itself and any buffered samples it unblocked).
    pub delivered: u32,
    /// Duplicate sequence numbers detected (recently delivered or already
    /// buffered).
    pub duplicates: u32,
    /// Sequence numbers older than the duplicate horizon: ancient replays.
    pub stale: u32,
    /// Samples delivered out of arrival order via the reorder buffer.
    pub reordered: u32,
    /// Sequence numbers given up on: never arrived before the window slid
    /// past them. Counted, never fabricated.
    pub dropped: u64,
}

/// A sample parked in a reorder buffer, keyed by its sequence number.
type Parked = Option<(u64, MonitorSample)>;

/// Slots of a reorder buffer (see [`GateCold`]'s `buf`).
const PARK_SLOTS: usize = REORDER_CAP + 1;

/// The in-order test of admission over a gate's two hot words: the
/// expected sequence number with nothing parked (`u64::MAX` is reserved).
#[inline(always)]
fn in_order(next_seq: u64, parked: u8, seq: u64) -> bool {
    seq == next_seq && parked == 0 && seq != u64::MAX
}

/// The part of a gate only out-of-order arrivals touch: its running
/// counters and its reorder buffer. The two words the in-order path reads,
/// the next sequence number and the parked count, live in the link's hot
/// record.
#[derive(Clone, Debug, Default)]
pub(crate) struct GateCold {
    duplicates: u64,
    stale: u64,
    reordered: u64,
    dropped: u64,
    /// Parked out-of-order samples, each holding sequence numbers in
    /// `(next_seq, next_seq + window]`: at most `window ≤ REORDER_CAP`
    /// between calls. A window slide can leave a parked sample on the new
    /// base until the drain that follows, while the arrival that slid it
    /// parks at the window's far end, so one slot more than the window
    /// keeps a vacant slot there too. `None` while nothing is parked.
    buf: Option<Box<[Parked; PARK_SLOTS]>>,
}

impl GateCold {
    /// The parked `(seq, sample)` pairs, in buffer order.
    fn parked(&self) -> impl Iterator<Item = (u64, MonitorSample)> + '_ {
        self.buf.iter().flat_map(|b| b.iter().flatten().copied())
    }

    /// Fixed-layout encode of the gate's counters for checkpointing: 5
    /// little-endian u64 words, `next_seq` first. Parked samples are not
    /// part of this record — see [`GateCold::encode_parked`].
    pub(crate) fn encode_into(&self, next_seq: u64, out: &mut Vec<u8>) {
        for w in [next_seq, self.duplicates, self.stale, self.reordered, self.dropped] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Number of encoded counter bytes per gate.
    pub(crate) const ENCODED_LEN: usize = 5 * 8;

    /// Append one [`PARKED_LEN`]-byte record per parked sample, in
    /// ascending sequence order: `(slot, seq, far_ms bits, path_fp,
    /// flags)` with flags bit 0 set (occupied) and bit 1 = `far_addr_ok`.
    /// Sorting makes the encoding canonical: two gates that behave the same
    /// encode the same, wherever their samples sit in the buffer.
    pub(crate) fn encode_parked(&self, slot: u64, out: &mut Vec<u8>) {
        let mut parked: Vec<(u64, MonitorSample)> = self.parked().collect();
        parked.sort_unstable_by_key(|&(q, _)| q);
        for (q, s) in parked {
            let flags = 1u64 | (u64::from(s.far_addr_ok) << 1);
            for w in [slot, q, s.far_ms.to_bits(), s.path_fp, flags] {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }

    /// The gate's counters for dashboards, with the two words `hot` holds.
    pub(crate) fn stats(&self, hot: &LinkHot) -> SeqStats {
        SeqStats {
            next_seq: hot.next_seq,
            duplicates: self.duplicates,
            stale: self.stale,
            reordered: self.reordered,
            dropped: self.dropped,
            buffered: usize::from(hot.parked),
        }
    }

    /// Decode a gate's counters previously written by
    /// [`GateCold::encode_into`] into `(next_seq, counters)`; the buffer
    /// starts empty (see [`LinkHot::restore_parked`]).
    pub(crate) fn decode(bytes: &[u8]) -> Option<(u64, GateCold)> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let cold = GateCold {
            duplicates: word(1),
            stale: word(2),
            reordered: word(3),
            dropped: word(4),
            buf: None,
        };
        Some((word(0), cold))
    }
}

/// Samples one admission released, in delivery order. One call releases
/// at most every parked sample plus the arriving one.
struct Released {
    len: usize,
    buf: [MonitorSample; REORDER_CAP + 1],
}

impl Released {
    fn new() -> Released {
        Released { len: 0, buf: [MonitorSample::lost(); REORDER_CAP + 1] }
    }

    fn push(&mut self, s: MonitorSample) {
        self.buf[self.len] = s;
        self.len += 1;
    }

    fn samples(&self) -> &[MonitorSample] {
        &self.buf[..self.len]
    }
}

/// The gate's slow path: everything but the in-order case of
/// [`LinkHot::admit`], over the two hot words and the link's [`GateCold`].
impl LinkHot {
    /// Admit an arrival that is not the clean in-order case, collecting
    /// the samples it releases into `out` in delivery order.
    #[inline(never)]
    fn admit_slow(
        &mut self,
        gate: &mut GateCold,
        seq: u64,
        s: MonitorSample,
        window: u64,
        out: &mut Released,
    ) -> AdmitDelta {
        let mut delta = AdmitDelta::default();
        let w = window.min(REORDER_CAP as u64);
        if seq == u64::MAX {
            gate.stale += 1;
            delta.stale += 1;
            return delta;
        }
        if seq < self.next_seq {
            // Behind the gate: recently delivered (duplicate) or ancient
            // (stale). The duplicate horizon is at least one so an exact
            // re-send of the last delivery always reads as a duplicate.
            if self.next_seq - seq <= w.max(1) {
                gate.duplicates += 1;
                delta.duplicates += 1;
            } else {
                gate.stale += 1;
                delta.stale += 1;
            }
            return delta;
        }
        if seq > self.next_seq.saturating_add(w) {
            // Too far ahead: the window slides. Whatever is due before the
            // new base is released (reordered) or given up on (dropped).
            self.advance_to(gate, seq - w, &mut delta, out);
        }
        if seq == self.next_seq {
            out.push(s);
            delta.delivered += 1;
            self.next_seq += 1;
        } else if gate.parked().any(|(q, _)| q == seq) {
            // (next_seq, next_seq + w], already parked.
            gate.duplicates += 1;
            delta.duplicates += 1;
        } else {
            // (next_seq, next_seq + w]: park it.
            let buf = gate.buf.get_or_insert_with(|| Box::new([None; PARK_SLOTS]));
            let slot = buf
                .iter_mut()
                .find(|s| s.is_none())
                .expect("reorder buffer full despite window bound (gate invariant broken)");
            *slot = Some((seq, s));
            self.parked += 1;
        }
        self.drain(gate, &mut delta, out);
        if self.parked == 0 {
            gate.buf = None;
        }
        delta
    }

    /// Take the parked sample with sequence number `q` out of the buffer.
    fn unpark(&mut self, gate: &mut GateCold, q: u64) -> MonitorSample {
        let buf = gate.buf.as_mut().expect("unpark from a gate with nothing parked");
        let slot = buf
            .iter_mut()
            .find(|s| s.is_some_and(|(p, _)| p == q))
            .expect("unpark of a sequence number that is not parked");
        self.parked -= 1;
        slot.take().expect("slot just observed occupied").1
    }

    /// Slide the gate forward to `new_next`, releasing due buffered samples
    /// in order and counting the holes as dropped. Work is bounded by the
    /// buffer capacity, not the distance — a huge sequence jump (collector
    /// restart) costs O(REORDER_CAP²), and the skipped range is *counted*,
    /// never materialized.
    fn advance_to(
        &mut self,
        gate: &mut GateCold,
        new_next: u64,
        delta: &mut AdmitDelta,
        out: &mut Released,
    ) {
        while self.next_seq < new_next {
            match gate.parked().map(|(q, _)| q).filter(|&q| q < new_next).min() {
                Some(q) => {
                    let missing = q - self.next_seq;
                    gate.dropped += missing;
                    delta.dropped += missing;
                    out.push(self.unpark(gate, q));
                    delta.delivered += 1;
                    gate.reordered += 1;
                    delta.reordered += 1;
                    self.next_seq = q + 1;
                }
                None => {
                    let missing = new_next - self.next_seq;
                    gate.dropped += missing;
                    delta.dropped += missing;
                    self.next_seq = new_next;
                }
            }
        }
    }

    /// Release consecutively buffered samples now that the gap has filled.
    fn drain(&mut self, gate: &mut GateCold, delta: &mut AdmitDelta, out: &mut Released) {
        while self.parked > 0 && gate.parked().any(|(q, _)| q == self.next_seq) {
            let q = self.next_seq;
            out.push(self.unpark(gate, q));
            delta.delivered += 1;
            gate.reordered += 1;
            delta.reordered += 1;
            self.next_seq += 1;
        }
    }

    /// Re-park one sample from a [`GateCold::encode_parked`] record (the
    /// slot word already consumed by the caller). Refuses — `None` — any
    /// record a live gate could never hold: a sequence number outside
    /// `(next_seq, next_seq + window]` (the window clamped to
    /// [`REORDER_CAP`]), one not above the last re-parked sequence (so a
    /// duplicate cannot slip in, and the buffer never holds more than
    /// `REORDER_CAP`), or a flags word other than 1 or 3. Such a gate
    /// would never take the fast path again, and its next window slide
    /// would underflow.
    pub(crate) fn restore_parked(
        &mut self,
        gate: &mut GateCold,
        rec: [u64; 4],
        window: u64,
    ) -> Option<()> {
        let [q, far, fp, flags] = rec;
        let w = window.min(REORDER_CAP as u64);
        let ahead = q.checked_sub(self.next_seq)?;
        let above_last = gate.parked().all(|(p, _)| p < q);
        if ahead == 0 || ahead > w || !above_last || !matches!(flags, 1 | 3) {
            return None;
        }
        let s = MonitorSample {
            far_ms: f64::from_bits(far),
            path_fp: fp,
            far_addr_ok: flags & 2 != 0,
        };
        let buf = gate.buf.get_or_insert_with(|| Box::new([None; PARK_SLOTS]));
        buf[usize::from(self.parked)] = Some((q, s));
        self.parked += 1;
        Some(())
    }
}

/// Bytes one parked-sample record occupies in a shard checkpoint.
pub(crate) const PARKED_LEN: usize = 5 * 8;

/// The batch reference view of the streaming path: run a fresh [`LinkState`]
/// over a whole `(far_ms, path_fp)` series and collect the congestion
/// events with their masked flags. The `(up, down)` pairs are exactly
/// [`ixp_chgpt::online_events`] on `far_ms` (the equivalence suite asserts
/// this); the masked flag applies the same causal path-change rule the
/// resident service applies sample-by-sample.
pub fn masked_online_events(far_ms: &[f64], path_fp: &[u64]) -> Vec<MonitorEvent> {
    let mut st = LinkState::new();
    let mut out = Vec::new();
    let mut open: Option<(usize, bool)> = None;
    for (i, &x) in far_ms.iter().enumerate() {
        let s = MonitorSample {
            far_ms: x,
            path_fp: path_fp.get(i).copied().unwrap_or(0),
            far_addr_ok: true,
        };
        match st.push(&s) {
            LinkUpdate { verdict: OnlineVerdict::UpshiftAlarm, masked, .. } => {
                open = Some((i, masked));
            }
            LinkUpdate { verdict: OnlineVerdict::DownshiftAlarm, .. } => {
                if let Some((up, masked)) = open.take() {
                    out.push(MonitorEvent { up, down: i, masked });
                }
            }
            _ => {}
        }
    }
    if let Some((up, masked)) = open {
        out.push(MonitorEvent { up, down: far_ms.len(), masked });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_chgpt::online_events;
    use std::collections::btree_map::{BTreeMap, Entry};

    fn noisy_step(pattern: &[(usize, f64)], amp: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for &(n, level) in pattern {
            for i in 0..n {
                let h = (out.len() as u64 ^ (i as u64) << 9).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                out.push(level + amp * u);
            }
        }
        out
    }

    #[test]
    fn streaming_equals_online_events() {
        let mut series = noisy_step(&[(300, 2.0), (80, 24.0), (300, 2.0), (80, 28.0), (100, 2.0)], 1.0);
        // Punch some gaps in.
        for i in (13..series.len()).step_by(41) {
            series[i] = f64::NAN;
        }
        let batch = online_events(&series);
        let streamed: Vec<(usize, usize)> = masked_online_events(&series, &vec![0; series.len()])
            .into_iter()
            .map(|e| (e.up, e.down))
            .collect();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn upshift_near_path_change_is_masked() {
        let series = noisy_step(&[(300, 2.0), (100, 25.0)], 0.5);
        let mut fp = vec![0xAAu64; series.len()];
        // The path flips right where the level shifts: a routing artifact.
        for f in fp[300..].iter_mut() {
            *f = 0xBB;
        }
        let ev = masked_online_events(&series, &fp);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].masked, "{ev:?}");

        // Same shift on a stable path: genuine.
        let stable = masked_online_events(&series, &vec![0xAAu64; series.len()]);
        assert_eq!(stable.len(), 1);
        assert!(!stable[0].masked);
    }

    #[test]
    fn change_far_from_shift_does_not_mask() {
        let series = noisy_step(&[(300, 2.0), (100, 25.0)], 0.5);
        let mut fp = vec![0xAAu64; series.len()];
        // Path changed 100 rounds before the shift: outside the slack.
        for f in fp[200..].iter_mut() {
            *f = 0xBB;
        }
        let ev = masked_online_events(&series, &fp);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].masked, "{ev:?}");
    }

    #[test]
    fn zero_fingerprint_never_changes_path() {
        let series = noisy_step(&[(300, 2.0), (100, 25.0)], 0.5);
        // Rate-limiter shape: fingerprint known only every 3rd round, but
        // always the same when known.
        let fp: Vec<u64> = (0..series.len()).map(|i| if i % 3 == 0 { 0xAA } else { 0 }).collect();
        let mut st = LinkState::new();
        for (i, &x) in series.iter().enumerate() {
            st.push(&MonitorSample { far_ms: x, path_fp: fp[i], far_addr_ok: true });
        }
        assert_eq!(st.path_changes(), 0);
    }

    #[test]
    fn health_ladder_matches_batch_precedence() {
        // Clean link.
        let mut st = LinkState::new();
        for _ in 0..600 {
            st.push(&MonitorSample::answered(2.0, 0xAA));
        }
        assert_eq!(st.health(), LinkHealth::Clean);

        // Rate-limiter shape: every third round answered.
        let mut st = LinkState::new();
        for i in 0..600u64 {
            let s = if i % 3 == 0 {
                MonitorSample::answered(2.0, 0xAA)
            } else {
                MonitorSample::lost()
            };
            st.push(&s);
        }
        assert_eq!(st.health(), LinkHealth::RateLimited);

        // One long bounded gap in an otherwise clean window.
        let mut st = LinkState::new();
        for i in 0..280u64 {
            let s = if (60..90).contains(&i) { MonitorSample::lost() } else { MonitorSample::answered(2.0, 0xAA) };
            st.push(&s);
        }
        assert_eq!(st.health(), LinkHealth::Gappy);

        // Wrong source address on most answers.
        let mut st = LinkState::new();
        for _ in 0..200 {
            st.push(&MonitorSample { far_ms: 2.0, path_fp: 0xAA, far_addr_ok: false });
        }
        assert_eq!(st.health(), LinkHealth::AddrUnstable);

        // Dead link: Silent beats everything.
        let mut st = LinkState::new();
        st.push(&MonitorSample::answered(2.0, 0xAA));
        for _ in 0..(WINDOW_ROUNDS / 2) {
            st.push(&MonitorSample::lost());
        }
        assert_eq!(st.health(), LinkHealth::Silent);

        // Path change outranks gap evidence.
        let mut st = LinkState::new();
        for i in 0..280u64 {
            let fp = if i < 100 { 0xAA } else { 0xBB };
            let s = if (150..190).contains(&i) {
                MonitorSample::lost()
            } else {
                MonitorSample::answered(2.0, fp)
            };
            st.push(&s);
        }
        assert_eq!(st.health(), LinkHealth::PathChange);
    }

    /// One link's two records driven through [`LinkHot::admit`] alone: the
    /// `deliver` closure records what the gate releases and pushes
    /// nothing, so these tests see the gate's rules in isolation.
    struct Gated {
        hot: LinkHot,
        cold: LinkCold,
        out: Vec<f64>,
    }

    impl Gated {
        fn new() -> Gated {
            let hot = LinkHot::new();
            Gated { hot, cold: LinkCold::new(), out: Vec::new() }
        }

        /// Admit `seq` carrying far value `v`, recording every release.
        fn admit(&mut self, seq: u64, v: f64, window: u64) -> AdmitDelta {
            let out = &mut self.out;
            let s = MonitorSample::answered(v, 0xAA);
            self.hot.admit(&mut self.cold, seq, s, window, &mut |_, _, smp| out.push(smp.far_ms))
        }

        fn stats(&self) -> SeqStats {
            self.cold.gate.stats(&self.hot)
        }

        /// Encode the gate the way a shard checkpoint does: the counter
        /// record, then its parked-sample records under slot 0.
        fn encode(&self) -> (Vec<u8>, Vec<u8>) {
            let (mut counters, mut parked) = (Vec::new(), Vec::new());
            self.cold.gate.encode_into(self.hot.next_seq, &mut counters);
            self.cold.gate.encode_parked(0, &mut parked);
            (counters, parked)
        }

        /// Decode what [`Gated::encode`] wrote onto a fresh link (every
        /// parked record must name slot 0).
        fn decode(counters: &[u8], parked: &[u8], window: u64) -> Option<Gated> {
            let mut g = Gated::new();
            (g.hot.next_seq, g.cold.gate) = GateCold::decode(counters)?;
            for rec in parked.chunks(PARKED_LEN) {
                let w: Vec<u64> =
                    rec.chunks(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).collect();
                if w.len() != 5 || w[0] != 0 {
                    return None;
                }
                g.hot.restore_parked(&mut g.cold.gate, [w[1], w[2], w[3], w[4]], window)?;
            }
            Some(g)
        }
    }

    /// Run a `(seq, value)` arrival schedule through a fresh link's gate.
    fn run_gate(arrivals: &[(u64, f64)], window: u64) -> Gated {
        let mut g = Gated::new();
        for &(seq, v) in arrivals {
            g.admit(seq, v, window);
        }
        g
    }

    #[test]
    fn gate_passes_in_order_stream_through() {
        let arrivals: Vec<(u64, f64)> = (0..50).map(|i| (i, i as f64)).collect();
        let g = run_gate(&arrivals, 4);
        assert_eq!(g.out, (0..50).map(|i| i as f64).collect::<Vec<_>>());
        let st = g.stats();
        assert_eq!(st.next_seq, 50);
        assert_eq!(st.duplicates + st.stale + st.reordered + st.dropped, 0);
    }

    #[test]
    fn gate_heals_reorder_within_window() {
        // 0,1,3,2,4: 3 parks, 2 releases both.
        let g = run_gate(&[(0, 0.0), (1, 1.0), (3, 3.0), (2, 2.0), (4, 4.0)], 4);
        assert_eq!(g.out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let st = g.stats();
        assert_eq!((st.reordered, st.dropped, st.buffered), (1, 0, 0));
    }

    #[test]
    fn gate_counts_duplicates_and_stale() {
        let g = run_gate(&[(0, 0.0), (1, 1.0), (1, 1.5), (2, 2.0), (0, 0.5), (2, 2.5)], 1);
        // Re-sends never reach the detector. With window 1 the duplicate
        // horizon is 1: the seq-0 replay (3 behind) reads as stale.
        assert_eq!(g.out, vec![0.0, 1.0, 2.0]);
        assert_eq!(g.stats().duplicates, 2, "seq 1 and seq 2 re-sent within horizon");
        assert_eq!(g.stats().stale, 1, "seq 0 replay is beyond the horizon");
    }

    #[test]
    fn gate_slides_window_and_counts_drops() {
        // Jump from 0 straight to 100 with window 4: sequences 0..96 are
        // given up on (96 dropped), 96..100 still have a chance.
        let g = run_gate(&[(100, 100.0)], 4);
        assert!(g.out.is_empty(), "seq 100 parks until 96..100 resolve");
        let st = g.stats();
        assert_eq!((st.dropped, st.next_seq, st.buffered), (96, 96, 1));
    }

    #[test]
    fn gate_window_zero_is_strict_in_order() {
        let g = run_gate(&[(0, 0.0), (2, 2.0), (1, 1.0), (3, 3.0)], 0);
        // With no buffer, 2 slides past 1 (dropped), then 1 is stale-or-dup.
        assert_eq!(g.out, vec![0.0, 2.0, 3.0]);
        assert_eq!(g.stats().dropped, 1);
        assert_eq!(g.stats().duplicates + g.stats().stale, 1);
    }

    #[test]
    fn gate_in_buffer_duplicate_is_counted_once() {
        let g = run_gate(&[(0, 0.0), (3, 3.0), (3, 3.5), (1, 1.0), (2, 2.0)], 4);
        assert_eq!(g.out, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(g.stats().duplicates, 1);
    }

    /// At a full window, a slide can leave a parked sample on the new base
    /// while the arrival that slid it parks: lose seq 0, park 1..=8, then
    /// 9 slides the base to 1 and parks before the drain releases 1..=9.
    #[test]
    fn gate_slide_onto_a_parked_base_at_full_window() {
        let w = REORDER_CAP as u64;
        let g = run_gate(&(1..=w + 1).map(|i| (i, i as f64)).collect::<Vec<_>>(), w);
        assert_eq!(g.out, (1..=w + 1).map(|i| i as f64).collect::<Vec<_>>());
        let st = g.stats();
        assert_eq!((st.next_seq, st.dropped, st.reordered, st.buffered), (w + 2, 1, w + 1, 0));
    }

    #[test]
    fn gate_reserved_seq_is_rejected() {
        let g = run_gate(&[(u64::MAX, 9.0), (0, 0.0)], 4);
        assert_eq!(g.out, vec![0.0]);
        assert_eq!(g.stats().stale, 1);
    }

    #[test]
    fn gate_never_delivers_out_of_seq_order() {
        // Pseudo-random arrival storm; delivered sequence numbers must be
        // strictly increasing regardless of the mess.
        let mut g = Gated::new();
        let mut state = 0x1234_5678u64;
        for i in 0..5000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let jitter = (state >> 33) % 13;
            let seq = (i / 2).saturating_add(jitter).saturating_sub(6);
            g.admit(seq, seq as f64, 5);
        }
        assert!(!g.out.is_empty());
        assert!(g.out.windows(2).all(|w| w[0] < w[1]), "delivered out of sequence order");
    }

    /// One parked-sample record for slot 0.
    fn parked_record(seq: u64, flags: u64) -> Vec<u8> {
        [0, seq, 1.5f64.to_bits(), 0xAA, flags].iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn gate_encode_decode_roundtrip() {
        // Window 6: 5 and 7 park, 40 slides the window to 34 (healing 5
        // and 7 on the way) and parks — the gate ends with one sample
        // parked, so the roundtrip covers the parked-sample records too.
        let mut a = run_gate(&[(0, 0.0), (5, 5.0), (7, 7.0), (40, 40.0)], 6);
        assert_eq!(a.stats().buffered, 1);
        let (counters, parked) = a.encode();
        assert_eq!(counters.len(), GateCold::ENCODED_LEN);
        assert_eq!(parked.len(), a.stats().buffered * PARKED_LEN);
        let mut b = Gated::decode(&counters, &parked, 6).unwrap();
        assert_eq!(b.encode(), (counters.clone(), parked.clone()));
        assert_eq!(b.stats(), a.stats());
        // A truncated counter record refuses to decode.
        assert!(GateCold::decode(&counters[..counters.len() - 1]).is_none());
        // Parked-record flag words outside {1,3} refuse to decode.
        let mut bad = parked.clone();
        bad[4 * 8] = 0xFF; // the record's flags word
        assert!(Gated::decode(&counters, &bad, 6).is_none());
        // Both continue in lockstep.
        a.out.clear();
        for seq in 34..60 {
            assert_eq!(a.admit(seq, seq as f64, 6), b.admit(seq, seq as f64, 6));
        }
        assert_eq!(a.out, b.out);
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn gate_decode_rejects_impossible_parked_samples() {
        // A gate at next_seq 10, window 4: parked sequences must lie in
        // (10, 14], each at most once.
        let in_order: Vec<(u64, f64)> = (0..10).map(|i| (i, i as f64)).collect();
        let (counters, _) = run_gate(&in_order, 4).encode();
        let ok = |recs: &[Vec<u8>]| Gated::decode(&counters, &recs.concat(), 4).is_some();
        assert!(ok(&[parked_record(11, 3), parked_record(14, 1)]));
        assert!(!ok(&[parked_record(10, 3)]), "parked at next_seq");
        assert!(!ok(&[parked_record(7, 3)]), "parked behind next_seq");
        assert!(!ok(&[parked_record(15, 3)]), "parked beyond the window");
        assert!(!ok(&[parked_record(12, 3), parked_record(12, 3)]), "parked twice");
        assert!(!ok(&[parked_record(13, 3), parked_record(12, 3)]), "not in sequence order");
        assert!(!ok(&[parked_record(12, 0)]), "vacant flags");
        // The window is the configured one, not the buffer capacity.
        assert!(Gated::decode(&counters, &parked_record(14, 3), 3).is_none());
        assert!(Gated::decode(&counters, &parked_record(11, 3), 0).is_none());
    }

    #[test]
    fn gate_is_compact_and_frees_its_buffer_once_healed() {
        // Four counters and the buffer pointer; the in-order words live in
        // the hot record. The buffer is nine 32-byte slots.
        assert_eq!((size_of::<GateCold>(), size_of::<[Parked; PARK_SLOTS]>()), (40, 288));
        let mut g = Gated::new();
        g.admit(0, 0.0, 4);
        assert!(g.cold.gate.buf.is_none(), "in-order traffic allocates nothing");
        g.admit(2, 2.0, 4);
        g.admit(3, 3.0, 4);
        assert_eq!(g.stats().buffered, 2);
        assert!(g.cold.gate.buf.is_some());
        g.admit(1, 1.0, 4);
        assert_eq!(g.stats().buffered, 0);
        assert!(g.cold.gate.buf.is_none(), "a healed reorder frees the buffer");
        // A window slide heals what was parked on its way; the buffer
        // goes once the gap in front of the sample it then parks heals.
        g.admit(6, 6.0, 4);
        assert!(g.cold.gate.buf.is_some());
        g.admit(20, 20.0, 4);
        g.admit(16, 16.0, 4);
        assert_eq!(g.stats().next_seq, 16 + 1);
        assert_eq!(g.stats().buffered, 1);
        for seq in 17..20 {
            g.admit(seq, seq as f64, 4);
        }
        assert!(g.cold.gate.buf.is_none());
        assert_eq!(g.out, vec![0.0, 1.0, 2.0, 3.0, 6.0, 16.0, 17.0, 18.0, 19.0, 20.0]);
    }

    /// A quiet in-order sample streams one cache line: the hot record is
    /// exactly one aligned line, and the cold record stays bounded.
    #[test]
    fn hot_record_is_one_cache_line() {
        assert_eq!((HOT_RECORD_BYTES, align_of::<LinkHot>()), (64, 64));
        const { assert!(COLD_RECORD_BYTES <= 160) };
    }

    /// The gate's rules written out once more, independently of the
    /// records: a map of parked samples, the duplicate/stale horizon, a
    /// window slide that walks every skipped sequence number, and the
    /// reserved `u64::MAX`.
    struct GateModel {
        window: u64,
        next: u64,
        parked: BTreeMap<u64, MonitorSample>,
        totals: AdmitDelta,
    }

    impl GateModel {
        fn new(window: u64) -> GateModel {
            let window = window.min(REORDER_CAP as u64);
            GateModel { window, next: 0, parked: Default::default(), totals: AdmitDelta::default() }
        }

        /// Admit `seq`, appending every sample it releases to `out`.
        fn admit(
            &mut self,
            seq: u64,
            s: MonitorSample,
            out: &mut Vec<MonitorSample>,
        ) -> AdmitDelta {
            let mut d = AdmitDelta::default();
            if seq == u64::MAX {
                d.stale = 1;
            } else if seq < self.next {
                if self.next - seq <= self.window.max(1) {
                    d.duplicates = 1;
                } else {
                    d.stale = 1;
                }
            } else {
                while seq > self.next + self.window {
                    match self.parked.remove(&self.next) {
                        Some(p) => {
                            out.push(p);
                            d.delivered += 1;
                            d.reordered += 1;
                        }
                        None => d.dropped += 1,
                    }
                    self.next += 1;
                }
                if seq == self.next {
                    out.push(s);
                    d.delivered += 1;
                    self.next += 1;
                } else if let Entry::Vacant(slot) = self.parked.entry(seq) {
                    slot.insert(s);
                } else {
                    d.duplicates = 1;
                }
                while let Some(p) = self.parked.remove(&self.next) {
                    out.push(p);
                    d.delivered += 1;
                    d.reordered += 1;
                    self.next += 1;
                }
            }
            let t = &mut self.totals;
            t.duplicates += d.duplicates;
            t.stale += d.stale;
            t.reordered += d.reordered;
            t.dropped += d.dropped;
            d
        }
    }

    /// A link's own gate against [`GateModel`] over a pseudo-random storm
    /// of reorders, replays, window slides and reserved sequence numbers,
    /// at window 0 and at [`REORDER_CAP`]: the same deltas and the same
    /// released samples, arrival by arrival; the same counters at the end;
    /// and [`LinkState::admit`] leaves the state a bare push loop over the
    /// model's releases does.
    #[test]
    fn link_admit_matches_gate_model() {
        let series = noisy_step(&[(300, 2.0), (80, 24.0), (300, 2.0)], 1.0);
        for window in [0, REORDER_CAP as u64] {
            let cfg = MonitorConfig { reorder_window: window, ..MonitorConfig::default() };
            let mut model = GateModel::new(window);
            let mut g = Gated::new();
            let mut gated = LinkState::new();
            let mut pushed = LinkState::new();
            let mut state = 0x9E37_79B9u64;
            for i in 0..2 * series.len() as u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = state >> 33;
                let seq = match r % 97 {
                    0 => u64::MAX,
                    1 => (i / 2) + 20 + r % 7, // a jump that slides the window
                    _ => (i / 2).saturating_add(r % 9).saturating_sub(3),
                };
                // Each arrival carries a value of its own, so a re-sent
                // copy delivered in place of the first would show.
                let far = series[(i / 2) as usize % series.len()] + (i % 2) as f64 * 1e-6;
                let s = MonitorSample::answered(far, 0xAA);
                let mut want = Vec::new();
                let expect = model.admit(seq, s, &mut want);
                let before = g.out.len();
                let got = g.hot.admit(&mut g.cold, seq, s, window, &mut |_, _, smp| {
                    g.out.push(smp.far_ms)
                });
                assert_eq!(got, expect, "window {window} arrival {i} (seq {seq})");
                let released: Vec<f64> = want.iter().map(|m| m.far_ms).collect();
                assert_eq!(g.out[before..], released, "window {window} arrival {i}");
                assert_eq!(gated.admit(seq, s, &cfg), expect);
                for smp in &want {
                    pushed.push(smp);
                }
            }
            let (st, t) = (g.stats(), model.totals);
            let counts = |d: u32, s: u32, r: u32| (u64::from(d), u64::from(s), u64::from(r));
            assert_eq!(
                (st.next_seq, st.buffered, st.dropped),
                (model.next, model.parked.len(), t.dropped)
            );
            assert_eq!((st.duplicates, st.stale, st.reordered), counts(t.duplicates, t.stale, t.reordered));
            assert!(t.duplicates > 0 && t.stale > 0 && t.dropped > 0, "window {window}: {t:?}");
            assert_eq!(t.reordered > 0, window > 0, "window {window}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            gated.encode_into(&mut a);
            pushed.encode_into(&mut b);
            assert_eq!(a, b, "window {window}");
            assert!(gated.alarms() > 0);
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let mut st = LinkState::new();
        let series = noisy_step(&[(300, 2.0), (50, 24.0)], 1.0);
        for (i, &x) in series.iter().enumerate() {
            let fp = if i < 200 { 0xAA } else { 0xBB };
            st.push(&MonitorSample { far_ms: if i % 7 == 0 { f64::NAN } else { x }, path_fp: fp, far_addr_ok: i % 11 != 0 });
        }
        let mut buf = Vec::new();
        st.encode_into(&mut buf);
        assert_eq!(buf.len(), LinkState::ENCODED_LEN);
        // A checkpoint slot is the link state plus the gate's counters.
        assert_eq!(LinkState::ENCODED_LEN + GateCold::ENCODED_LEN, 256);
        let back = LinkState::decode(&buf).unwrap();
        // Continuing both must stay in lockstep (state equality via re-encode).
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
        let mut a = st.clone();
        let mut b = back;
        for &x in &series[..100] {
            let ua = a.push(&MonitorSample::answered(x, 0xBB));
            let ub = b.push(&MonitorSample::answered(x, 0xBB));
            assert_eq!(ua, ub);
        }
        assert!(LinkState::decode(&buf[..buf.len() - 1]).is_none());
    }
}
