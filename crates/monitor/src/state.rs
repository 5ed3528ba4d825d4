//! Per-link streaming state: online detection, causal path-change masking,
//! and an incremental measurement-health ladder.
//!
//! The contract that everything else leans on: feeding a link's raw far
//! series through [`LinkState::push`] one sample at a time produces exactly
//! the alarm rounds that [`ixp_chgpt::online_events`] reports over the full
//! series. Non-finite samples reach the detector (which counts them as gaps
//! and leaves its state untouched), so round indices line up with series
//! positions with no skip bookkeeping.
//!
//! Masking follows the batch rule from `assess_link`, made causal: a
//! path change at round `c` taints upshifts in `[c, c + slack]`. The batch
//! assessor can also mask an upshift *before* the change (it sees the whole
//! series); a resident monitor cannot know the future, so the backward half
//! of the window is deliberately absent — the equivalence suite pins the
//! causal rule on both the streaming and batch sides.
//!
//! Health mirrors [`tslp_core::health::classify_link`]'s evidence precedence
//! (Silent > AddrUnstable > PathChange > RateLimited > Gappy > Clean) over a
//! tumbling window — the same shape as the batch classifier's per-window
//! labels — using O(1) counters instead of a retained series. It is the
//! documented streaming approximation: loss runs count toward gap evidence
//! once they close (or while still open, at their current length), whereas
//! the batch classifier sees every run's final extent.

use crate::service::MonitorConfig;
use ixp_chgpt::{OnlineDetector, OnlineSnapshot, OnlineVerdict};
use tslp_core::LinkHealth;

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

/// Full streaming state for one monitored link: 240 bytes (the 112-byte
/// detector plus path, alarm and health-window counters), O(1) per sample.
#[derive(Clone, Debug)]
pub struct LinkState {
    det: OnlineDetector,
    /// Last nonzero path fingerprint seen (0 = none yet).
    last_fp: u64,
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
    /// Was the last alarm masked as a path-change artifact?
    last_alarm_masked: bool,
    /// Samples pushed (answered or not).
    rounds: u64,
    /// Total fingerprint changes.
    path_changes: u64,
    /// Upshift alarms (masked ones included).
    alarms: u64,
    /// Upshift alarms attributed to path changes.
    masked_alarms: u64,
    // Tumbling health window counters.
    w_rounds: u64,
    w_answered: u64,
    w_addr_bad: u64,
    /// Rounds inside closed loss runs that qualified as gaps.
    w_gap_rounds: u64,
    w_path_changes: u64,
    /// Length of the loss run currently open (may span window boundaries).
    cur_loss_run: u64,
    /// Label of the last completed window (`Clean` until one completes).
    prev_health: LinkHealth,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState::new()
    }
}

impl LinkState {
    /// Fresh state under the default [`MonitorConfig`]. The detector owns
    /// its configuration from birth, so a service running any other
    /// configuration builds through [`LinkState::with_config`] instead.
    pub fn new() -> LinkState {
        LinkState::with_config(&MonitorConfig::default())
    }

    /// Fresh state for a service configuration.
    pub fn with_config(cfg: &MonitorConfig) -> LinkState {
        LinkState {
            det: OnlineDetector::new(cfg.online),
            last_fp: 0,
            last_change_round: u64::MAX,
            fp_before: 0,
            last_alarm_round: u64::MAX,
            last_alarm_gap: u64::MAX,
            last_alarm_masked: false,
            rounds: 0,
            path_changes: 0,
            alarms: 0,
            masked_alarms: 0,
            w_rounds: 0,
            w_answered: 0,
            w_addr_bad: 0,
            w_gap_rounds: 0,
            w_path_changes: 0,
            cur_loss_run: 0,
            prev_health: LinkHealth::Clean,
        }
    }

    /// Rounds ingested so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total upshift alarms (masked included).
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Upshift alarms masked as path-change artifacts.
    pub fn masked_alarms(&self) -> u64 {
        self.masked_alarms
    }

    /// Total path-fingerprint changes observed.
    pub fn path_changes(&self) -> u64 {
        self.path_changes
    }

    /// The underlying detector (read access for verdict assembly).
    pub fn detector(&self) -> &OnlineDetector {
        &self.det
    }

    /// Provenance for the link's current verdict: where the last shift
    /// happened, what the path looked like before and after the most recent
    /// fingerprint change, and whether the path-change mask was applied,
    /// rejected, or never in play at the last alarm.
    pub fn verdict_evidence(&self) -> crate::index::VerdictEvidence {
        use crate::index::MaskOutcome;
        crate::index::VerdictEvidence {
            change_round: self.last_alarm_round,
            level_before_ms: self.det.snapshot().level_before,
            fp_before: self.fp_before,
            fp_after: self.last_fp,
            path_change_round: self.last_change_round,
            mask: if self.last_alarm_round == u64::MAX || self.last_alarm_gap == u64::MAX {
                MaskOutcome::NotConsidered
            } else if self.last_alarm_masked {
                MaskOutcome::Applied { rounds_since_change: self.last_alarm_gap }
            } else {
                MaskOutcome::Rejected { rounds_since_change: self.last_alarm_gap }
            },
        }
    }

    /// Ingest one round. `cfg` must be the same configuration every call
    /// (the service guarantees this; mixing configs is a logic error).
    #[inline(always)]
    pub fn push(&mut self, s: &MonitorSample, cfg: &MonitorConfig) -> LinkUpdate {
        let round = self.rounds;
        self.rounds += 1;

        // Path-change detection first — mirrors
        // `LinkSeries::path_change_rounds`: a change happens at the round
        // whose nonzero fingerprint differs from the last nonzero one;
        // fingerprint 0 (unanswered / rate-limited rounds) never changes
        // anything. Detected before the detector sees the sample so a shift
        // landing on the change round itself is maskable.
        if s.path_fp != 0 {
            if self.last_fp != 0 && s.path_fp != self.last_fp {
                self.path_changes += 1;
                self.w_path_changes += 1;
                self.last_change_round = round;
                self.fp_before = self.last_fp;
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
            if self.cur_loss_run >= cfg.min_gap_rounds {
                self.w_gap_rounds += self.cur_loss_run.min(self.w_rounds);
            }
            self.cur_loss_run = 0;
        } else {
            self.cur_loss_run += 1;
        }

        let verdict = self.det.push(s.far_ms);
        let mut masked = false;
        if verdict == OnlineVerdict::UpshiftAlarm {
            self.alarms += 1;
            self.last_alarm_round = round;
            self.last_alarm_gap = if self.last_change_round == u64::MAX {
                u64::MAX
            } else {
                round - self.last_change_round
            };
            // Causal masking: the change at `c` taints `[c, c + slack]`.
            if self.last_change_round != u64::MAX
                && round - self.last_change_round <= cfg.mask_slack
            {
                masked = true;
                self.masked_alarms += 1;
            }
            self.last_alarm_masked = masked;
        }

        self.w_rounds += 1;
        let health_before = self.prev_health;
        if self.w_rounds >= cfg.window_rounds {
            self.prev_health = self.window_label(cfg);
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
        }
    }

    /// The health label over the current (in-progress) window, falling back
    /// to the last completed window's label while the new window is still
    /// too young to say anything (fewer than `min_gap_rounds` rounds).
    pub fn health(&self, cfg: &MonitorConfig) -> LinkHealth {
        if self.w_rounds < cfg.min_gap_rounds {
            return self.prev_health;
        }
        self.window_label(cfg)
    }

    /// The health class committed at the last window boundary — an O(1)
    /// field read, unlike [`LinkState::health`], which recomputes the live
    /// label. The tracing path compares this across a push to report
    /// [`ixp_obs::TraceKind::HealthChanged`] without pricing a label
    /// computation into every sample.
    pub(crate) fn committed_health(&self) -> LinkHealth {
        self.prev_health
    }

    fn window_label(&self, cfg: &MonitorConfig) -> LinkHealth {
        let rounds = self.w_rounds;
        if rounds == 0 {
            return self.prev_health;
        }
        // An open loss run contributes at its current length once it
        // qualifies, clipped to this window.
        let open_gap = if self.cur_loss_run >= cfg.min_gap_rounds {
            self.cur_loss_run.min(rounds)
        } else {
            0
        };
        let gap_rounds = (self.w_gap_rounds + open_gap).min(rounds);
        let validity = self.w_answered as f64 / rounds as f64;
        let trailing = self.cur_loss_run as f64 / cfg.window_rounds as f64;
        if validity < cfg.silent_validity || trailing >= cfg.silent_tail_fraction {
            return LinkHealth::Silent;
        }
        let consistency = if self.w_answered == 0 {
            1.0
        } else {
            (self.w_answered - self.w_addr_bad) as f64 / self.w_answered as f64
        };
        if consistency < cfg.min_addr_consistency {
            return LinkHealth::AddrUnstable;
        }
        if self.w_path_changes > 0 {
            return LinkHealth::PathChange;
        }
        let lost = rounds - self.w_answered;
        let scattered = lost.saturating_sub(gap_rounds);
        let outside = rounds - gap_rounds;
        if outside > 0 && scattered as f64 / outside as f64 > cfg.max_scattered_loss {
            return LinkHealth::RateLimited;
        }
        if gap_rounds > 0 {
            return LinkHealth::Gappy;
        }
        LinkHealth::Clean
    }

    /// Fixed-layout encode for checkpointing: 27 u64 little-endian words.
    /// The detector config is not serialized — it is rebuilt from the
    /// service config, which the checkpoint fingerprint binds.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let d = self.det.snapshot();
        let words: [u64; 27] = [
            d.baseline.to_bits(),
            d.warmup_seen as u64,
            d.warmup_sum.to_bits(),
            d.s_up.to_bits(),
            d.s_down.to_bits(),
            d.elevated as u64,
            d.level_before.to_bits(),
            d.elevated_sum.to_bits(),
            d.elevated_n as u64,
            d.gaps,
            self.last_fp,
            self.last_change_round,
            self.rounds,
            self.path_changes,
            self.alarms,
            self.masked_alarms,
            self.w_rounds,
            self.w_answered,
            self.w_addr_bad,
            self.w_gap_rounds,
            self.w_path_changes,
            self.cur_loss_run,
            health_token(self.prev_health),
            self.fp_before,
            self.last_alarm_round,
            self.last_alarm_gap,
            u64::from(self.last_alarm_masked),
        ];
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Number of encoded bytes per link.
    pub(crate) const ENCODED_LEN: usize = 27 * 8;

    /// Decode a state previously written by [`LinkState::encode_into`].
    pub(crate) fn decode(bytes: &[u8], cfg: &MonitorConfig) -> Option<LinkState> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let mut words = [0u64; 27];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().ok()?);
        }
        let snap = OnlineSnapshot {
            cfg: cfg.online,
            baseline: f64::from_bits(words[0]),
            warmup_seen: words[1] as usize,
            warmup_sum: f64::from_bits(words[2]),
            s_up: f64::from_bits(words[3]),
            s_down: f64::from_bits(words[4]),
            elevated: words[5] != 0,
            level_before: f64::from_bits(words[6]),
            elevated_sum: f64::from_bits(words[7]),
            elevated_n: words[8] as usize,
            gaps: words[9],
        };
        if words[26] > 1 {
            return None;
        }
        Some(LinkState {
            det: OnlineDetector::restore(&snap),
            last_fp: words[10],
            last_change_round: words[11],
            fp_before: words[23],
            last_alarm_round: words[24],
            last_alarm_gap: words[25],
            last_alarm_masked: words[26] != 0,
            rounds: words[12],
            path_changes: words[13],
            alarms: words[14],
            masked_alarms: words[15],
            w_rounds: words[16],
            w_answered: words[17],
            w_addr_bad: words[18],
            w_gap_rounds: words[19],
            w_path_changes: words[20],
            cur_loss_run: words[21],
            prev_health: health_from_token(words[22])?,
        })
    }
}

/// Reorder-buffer capacity: the hard upper bound on
/// [`crate::MonitorConfig::reorder_window`]. Eight pending rounds is 40
/// minutes of telemetry at the paper's 5-minute cadence — far beyond any
/// plausible collector skew; larger windows would only delay loss verdicts.
pub const REORDER_CAP: usize = 8;

/// What one [`SeqGate::admit`] call did, for batch-level accounting. The
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

/// Per-link admission gate: sequence-number tracking with a small reorder
/// buffer, so disordered telemetry is healed when possible and **counted**
/// when not — never silently pushed into the CUSUM state out of order.
///
/// The contract: [`SeqGate::admit`] releases samples to the detector in
/// strictly increasing sequence order. A sample whose sequence number is
/// within `window` ahead of the next expected one is parked and released
/// once the gap fills; one further ahead slides the window (the skipped
/// sequence numbers are counted as dropped); one at or behind the last
/// delivery is counted as duplicate (within the window) or stale (older).
/// All decisions are pure functions of the per-link arrival order, so the
/// outcome is bit-identical at any ingest thread count.
///
/// A gate is 56 bytes: two hot words, four counters, and a pointer. The
/// reorder buffer lives behind that pointer and exists only while the link
/// has samples parked — it is allocated when the first sample parks and
/// freed as soon as the gap heals, so the ~99% of links with nothing out
/// of order carry no buffer at all.
#[derive(Clone, Debug)]
#[repr(C)] // next_seq and live lead the record — see below.
pub struct SeqGate {
    /// Next sequence number expected for delivery.
    next_seq: u64,
    /// Occupied `buf` slots (0 exactly when `buf` is `None`). Declared
    /// next to `next_seq` under `repr(C)` on purpose: the in-order hot
    /// path reads exactly these two words and nothing else, so a healthy
    /// producer costs one cache line per gate — the resilience bench
    /// measures that fast path's share of sequenced ingest (gated at 3%).
    live: u64,
    duplicates: u64,
    stale: u64,
    reordered: u64,
    dropped: u64,
    /// Parked out-of-order samples, each holding sequence numbers in
    /// `(next_seq, next_seq + window]`. At most `window ≤ REORDER_CAP`
    /// distinct values fit, so a vacant slot always exists. `None` while
    /// nothing is parked.
    buf: Option<Box<[Parked; REORDER_CAP]>>,
}

impl Default for SeqGate {
    fn default() -> Self {
        SeqGate::new()
    }
}

impl SeqGate {
    /// A fresh gate expecting sequence number 0.
    pub fn new() -> SeqGate {
        SeqGate {
            next_seq: 0,
            live: 0,
            duplicates: 0,
            stale: 0,
            reordered: 0,
            dropped: 0,
            buf: None,
        }
    }

    /// Next sequence number the gate will deliver.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total duplicate sequence numbers seen.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total stale (ancient replay) sequence numbers seen.
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// Total samples delivered out of arrival order via the buffer.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Total sequence numbers the window slid past without a sample.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Samples currently parked in the reorder buffer.
    pub fn buffered(&self) -> usize {
        self.live as usize
    }

    /// True when `seq` would take the clean in-order fast path of
    /// [`SeqGate::admit`]: the expected sequence number with nothing
    /// parked, so the admission delta is a known constant (one delivery,
    /// no anomalies). The traced ingest loop uses this to keep clean
    /// arrivals — the steady state — free of per-call delta inspection.
    #[inline]
    pub fn in_order(&self, seq: u64) -> bool {
        seq == self.next_seq && self.live == 0 && seq != u64::MAX
    }

    /// Admit one `(seq, sample)` arrival. In-order and healed samples are
    /// handed to `deliver` in strictly increasing sequence order; the rest
    /// are counted. `window` is clamped to [`REORDER_CAP`]; sequence
    /// number `u64::MAX` is reserved (rejected as stale) so the internal
    /// arithmetic cannot overflow.
    #[inline]
    pub fn admit(
        &mut self,
        seq: u64,
        s: MonitorSample,
        window: u64,
        deliver: &mut impl FnMut(MonitorSample),
    ) -> AdmitDelta {
        // Hot path: the expected sequence number with nothing parked —
        // the steady state of a healthy producer. Two words read, no
        // buffer traffic, and small enough to inline into the shard
        // loop (the full gate machinery stays out of line in
        // `admit_slow`).
        if self.in_order(seq) {
            deliver(s);
            self.next_seq += 1;
            return AdmitDelta { delivered: 1, ..AdmitDelta::default() };
        }
        self.admit_slow(seq, s, window, deliver)
    }

    fn admit_slow(
        &mut self,
        seq: u64,
        s: MonitorSample,
        window: u64,
        deliver: &mut impl FnMut(MonitorSample),
    ) -> AdmitDelta {
        let mut delta = AdmitDelta::default();
        let w = window.min(REORDER_CAP as u64);
        if seq == u64::MAX {
            self.stale += 1;
            delta.stale += 1;
            return delta;
        }
        if seq < self.next_seq {
            // Behind the gate: recently delivered (duplicate) or ancient
            // (stale). The duplicate horizon is at least one so an exact
            // re-send of the last delivery always reads as a duplicate.
            if self.next_seq - seq <= w.max(1) {
                self.duplicates += 1;
                delta.duplicates += 1;
            } else {
                self.stale += 1;
                delta.stale += 1;
            }
            return delta;
        }
        if seq > self.next_seq.saturating_add(w) {
            // Too far ahead: the window slides. Whatever is due before the
            // new base is released (reordered) or given up on (dropped).
            self.advance_to(seq - w, &mut delta, deliver);
        }
        if seq == self.next_seq {
            deliver(s);
            delta.delivered += 1;
            self.next_seq += 1;
        } else if self.parked().any(|(q, _)| q == seq) {
            // (next_seq, next_seq + w], already parked.
            self.duplicates += 1;
            delta.duplicates += 1;
        } else {
            // (next_seq, next_seq + w]: park it.
            let buf = self.buf.get_or_insert_with(|| Box::new([None; REORDER_CAP]));
            let slot = buf
                .iter_mut()
                .find(|s| s.is_none())
                .expect("reorder buffer full despite window bound (gate invariant broken)");
            *slot = Some((seq, s));
            self.live += 1;
        }
        self.drain(&mut delta, deliver);
        if self.live == 0 {
            self.buf = None;
        }
        delta
    }

    /// The parked `(seq, sample)` pairs, in buffer order.
    fn parked(&self) -> impl Iterator<Item = (u64, MonitorSample)> + '_ {
        self.buf.iter().flat_map(|b| b.iter().flatten().copied())
    }

    /// Take the parked sample with sequence number `q` out of the buffer.
    fn unpark(&mut self, q: u64) -> MonitorSample {
        let buf = self.buf.as_mut().expect("unpark from a gate with nothing parked");
        let slot = buf
            .iter_mut()
            .find(|s| s.is_some_and(|(p, _)| p == q))
            .expect("unpark of a sequence number that is not parked");
        self.live -= 1;
        slot.take().expect("slot just observed occupied").1
    }

    /// Slide the gate forward to `new_next`, releasing due buffered samples
    /// in order and counting the holes as dropped. Work is bounded by the
    /// buffer capacity, not the distance — a huge sequence jump (collector
    /// restart) costs O(REORDER_CAP²), and the skipped range is *counted*,
    /// never materialized.
    fn advance_to(
        &mut self,
        new_next: u64,
        delta: &mut AdmitDelta,
        deliver: &mut impl FnMut(MonitorSample),
    ) {
        while self.next_seq < new_next {
            match self.parked().map(|(q, _)| q).filter(|&q| q < new_next).min() {
                Some(q) => {
                    let missing = q - self.next_seq;
                    self.dropped += missing;
                    delta.dropped += missing;
                    deliver(self.unpark(q));
                    delta.delivered += 1;
                    self.reordered += 1;
                    delta.reordered += 1;
                    self.next_seq = q + 1;
                }
                None => {
                    let missing = new_next - self.next_seq;
                    self.dropped += missing;
                    delta.dropped += missing;
                    self.next_seq = new_next;
                }
            }
        }
    }

    /// Release consecutively buffered samples now that the gap has filled.
    fn drain(&mut self, delta: &mut AdmitDelta, deliver: &mut impl FnMut(MonitorSample)) {
        while self.live > 0 && self.parked().any(|(q, _)| q == self.next_seq) {
            deliver(self.unpark(self.next_seq));
            delta.delivered += 1;
            self.reordered += 1;
            delta.reordered += 1;
            self.next_seq += 1;
        }
    }

    /// Fixed-layout encode of the gate's counters for checkpointing: 5
    /// little-endian u64 words. Parked samples are not part of this record
    /// — see [`SeqGate::encode_parked`].
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        for w in [self.next_seq, self.duplicates, self.stale, self.reordered, self.dropped] {
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

    /// Decode a gate's counters previously written by
    /// [`SeqGate::encode_into`]; the buffer starts empty (see
    /// [`SeqGate::restore_parked`]).
    pub(crate) fn decode(bytes: &[u8]) -> Option<SeqGate> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        Some(SeqGate {
            next_seq: word(0),
            duplicates: word(1),
            stale: word(2),
            reordered: word(3),
            dropped: word(4),
            ..SeqGate::new()
        })
    }

    /// Re-park one sample from a [`SeqGate::encode_parked`] record (the
    /// slot word already consumed by the caller). Refuses — `None` — any
    /// record a live gate could never hold: a sequence number outside
    /// `(next_seq, next_seq + window]` (the window clamped to
    /// [`REORDER_CAP`]), one not above the last re-parked sequence (so a
    /// duplicate cannot slip in), or a flags word other than 1 or 3. Such
    /// a gate would never take the fast path again, and its next window
    /// slide would underflow.
    pub(crate) fn restore_parked(&mut self, rec: [u64; 4], window: u64) -> Option<()> {
        let [q, far, fp, flags] = rec;
        let w = window.min(REORDER_CAP as u64);
        let ahead = q.checked_sub(self.next_seq)?;
        let above_last = self.parked().all(|(p, _)| p < q);
        if ahead == 0 || ahead > w || !above_last || !matches!(flags, 1 | 3) {
            return None;
        }
        let s = MonitorSample {
            far_ms: f64::from_bits(far),
            path_fp: fp,
            far_addr_ok: flags & 2 != 0,
        };
        let buf = self.buf.get_or_insert_with(|| Box::new([None; REORDER_CAP]));
        buf[self.live as usize] = Some((q, s));
        self.live += 1;
        Some(())
    }
}

/// Bytes one parked-sample record occupies in a shard checkpoint.
pub(crate) const PARKED_LEN: usize = 5 * 8;

pub(crate) fn health_token(h: LinkHealth) -> u64 {
    match h {
        LinkHealth::Clean => 0,
        LinkHealth::Gappy => 1,
        LinkHealth::RateLimited => 2,
        LinkHealth::PathChange => 3,
        LinkHealth::AddrUnstable => 4,
        LinkHealth::Silent => 5,
    }
}

fn health_from_token(t: u64) -> Option<LinkHealth> {
    Some(match t {
        0 => LinkHealth::Clean,
        1 => LinkHealth::Gappy,
        2 => LinkHealth::RateLimited,
        3 => LinkHealth::PathChange,
        4 => LinkHealth::AddrUnstable,
        5 => LinkHealth::Silent,
        _ => return None,
    })
}

/// The batch reference view of the streaming path: run a fresh [`LinkState`]
/// over a whole `(far_ms, path_fp)` series and collect the congestion
/// events with their masked flags. The `(up, down)` pairs are exactly
/// [`ixp_chgpt::online_events`] on `far_ms` (the equivalence suite asserts
/// this); the masked flag applies the same causal path-change rule the
/// resident service applies sample-by-sample.
pub fn masked_online_events(
    far_ms: &[f64],
    path_fp: &[u64],
    cfg: &MonitorConfig,
) -> Vec<MonitorEvent> {
    let mut st = LinkState::with_config(cfg);
    let mut out = Vec::new();
    let mut open: Option<(usize, bool)> = None;
    for (i, &x) in far_ms.iter().enumerate() {
        let s = MonitorSample {
            far_ms: x,
            path_fp: path_fp.get(i).copied().unwrap_or(0),
            far_addr_ok: true,
        };
        match st.push(&s, cfg) {
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
        let cfg = MonitorConfig::default();
        let batch = online_events(&series, cfg.online);
        let streamed: Vec<(usize, usize)> = masked_online_events(&series, &vec![0; series.len()], &cfg)
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
        let cfg = MonitorConfig::default();
        let ev = masked_online_events(&series, &fp, &cfg);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].masked, "{ev:?}");

        // Same shift on a stable path: genuine.
        let stable = masked_online_events(&series, &vec![0xAAu64; series.len()], &cfg);
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
        let ev = masked_online_events(&series, &fp, &MonitorConfig::default());
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].masked, "{ev:?}");
    }

    #[test]
    fn zero_fingerprint_never_changes_path() {
        let series = noisy_step(&[(300, 2.0), (100, 25.0)], 0.5);
        // Rate-limiter shape: fingerprint known only every 3rd round, but
        // always the same when known.
        let fp: Vec<u64> = (0..series.len()).map(|i| if i % 3 == 0 { 0xAA } else { 0 }).collect();
        let mut st = LinkState::with_config(&MonitorConfig::default());
        let cfg = MonitorConfig::default();
        for (i, &x) in series.iter().enumerate() {
            st.push(&MonitorSample { far_ms: x, path_fp: fp[i], far_addr_ok: true }, &cfg);
        }
        assert_eq!(st.path_changes(), 0);
    }

    #[test]
    fn health_ladder_matches_batch_precedence() {
        let cfg = MonitorConfig::default();
        // Clean link.
        let mut st = LinkState::with_config(&cfg);
        for _ in 0..600 {
            st.push(&MonitorSample::answered(2.0, 0xAA), &cfg);
        }
        assert_eq!(st.health(&cfg), LinkHealth::Clean);

        // Rate-limiter shape: every third round answered.
        let mut st = LinkState::with_config(&cfg);
        for i in 0..600u64 {
            let s = if i % 3 == 0 {
                MonitorSample::answered(2.0, 0xAA)
            } else {
                MonitorSample::lost()
            };
            st.push(&s, &cfg);
        }
        assert_eq!(st.health(&cfg), LinkHealth::RateLimited);

        // One long bounded gap in an otherwise clean window.
        let mut st = LinkState::with_config(&cfg);
        for i in 0..280u64 {
            let s = if (60..90).contains(&i) { MonitorSample::lost() } else { MonitorSample::answered(2.0, 0xAA) };
            st.push(&s, &cfg);
        }
        assert_eq!(st.health(&cfg), LinkHealth::Gappy);

        // Wrong source address on most answers.
        let mut st = LinkState::with_config(&cfg);
        for _ in 0..200 {
            st.push(&MonitorSample { far_ms: 2.0, path_fp: 0xAA, far_addr_ok: false }, &cfg);
        }
        assert_eq!(st.health(&cfg), LinkHealth::AddrUnstable);

        // Dead link: Silent beats everything.
        let mut st = LinkState::with_config(&cfg);
        st.push(&MonitorSample::answered(2.0, 0xAA), &cfg);
        for _ in 0..(cfg.window_rounds / 2) {
            st.push(&MonitorSample::lost(), &cfg);
        }
        assert_eq!(st.health(&cfg), LinkHealth::Silent);

        // Path change outranks gap evidence.
        let mut st = LinkState::with_config(&cfg);
        for i in 0..280u64 {
            let fp = if i < 100 { 0xAA } else { 0xBB };
            let s = if (150..190).contains(&i) {
                MonitorSample::lost()
            } else {
                MonitorSample::answered(2.0, fp)
            };
            st.push(&s, &cfg);
        }
        assert_eq!(st.health(&cfg), LinkHealth::PathChange);
    }

    /// Run a `(seq, value)` arrival schedule through a gate and return the
    /// delivered far values plus the final counter state.
    fn run_gate(arrivals: &[(u64, f64)], window: u64) -> (Vec<f64>, SeqGate) {
        let mut gate = SeqGate::new();
        let mut out = Vec::new();
        for &(seq, v) in arrivals {
            gate.admit(seq, MonitorSample::answered(v, 0xAA), window, &mut |s| {
                out.push(s.far_ms);
            });
        }
        (out, gate)
    }

    #[test]
    fn gate_passes_in_order_stream_through() {
        let arrivals: Vec<(u64, f64)> = (0..50).map(|i| (i, i as f64)).collect();
        let (out, gate) = run_gate(&arrivals, 4);
        assert_eq!(out, (0..50).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(gate.next_seq(), 50);
        assert_eq!(gate.duplicates() + gate.stale() + gate.reordered() + gate.dropped(), 0);
    }

    #[test]
    fn gate_heals_reorder_within_window() {
        // 0,1,3,2,4: 3 parks, 2 releases both.
        let (out, gate) = run_gate(&[(0, 0.0), (1, 1.0), (3, 3.0), (2, 2.0), (4, 4.0)], 4);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(gate.reordered(), 1);
        assert_eq!(gate.dropped(), 0);
        assert_eq!(gate.buffered(), 0);
    }

    #[test]
    fn gate_counts_duplicates_and_stale() {
        let (out, gate) = run_gate(
            &[(0, 0.0), (1, 1.0), (1, 1.5), (2, 2.0), (0, 0.5), (2, 2.5)],
            1,
        );
        // Re-sends never reach the detector. With window 1 the duplicate
        // horizon is 1: the seq-0 replay (3 behind) reads as stale.
        assert_eq!(out, vec![0.0, 1.0, 2.0]);
        assert_eq!(gate.duplicates(), 2, "seq 1 and seq 2 re-sent within horizon");
        assert_eq!(gate.stale(), 1, "seq 0 replay is beyond the horizon");
    }

    #[test]
    fn gate_slides_window_and_counts_drops() {
        // Jump from 0 straight to 100 with window 4: sequences 0..96 are
        // given up on (96 dropped), 96..100 still have a chance.
        let (out, gate) = run_gate(&[(100, 100.0)], 4);
        assert!(out.is_empty(), "seq 100 parks until 96..100 resolve");
        assert_eq!(gate.dropped(), 96);
        assert_eq!(gate.next_seq(), 96);
        assert_eq!(gate.buffered(), 1);
    }

    #[test]
    fn gate_window_zero_is_strict_in_order() {
        let (out, gate) = run_gate(&[(0, 0.0), (2, 2.0), (1, 1.0), (3, 3.0)], 0);
        // With no buffer, 2 slides past 1 (dropped), then 1 is stale-or-dup.
        assert_eq!(out, vec![0.0, 2.0, 3.0]);
        assert_eq!(gate.dropped(), 1);
        assert_eq!(gate.duplicates() + gate.stale(), 1);
    }

    #[test]
    fn gate_in_buffer_duplicate_is_counted_once() {
        let (out, gate) = run_gate(&[(0, 0.0), (3, 3.0), (3, 3.5), (1, 1.0), (2, 2.0)], 4);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(gate.duplicates(), 1);
    }

    #[test]
    fn gate_reserved_seq_is_rejected() {
        let (out, gate) = run_gate(&[(u64::MAX, 9.0), (0, 0.0)], 4);
        assert_eq!(out, vec![0.0]);
        assert_eq!(gate.stale(), 1);
    }

    #[test]
    fn gate_never_delivers_out_of_seq_order() {
        // Pseudo-random arrival storm; delivered sequence numbers must be
        // strictly increasing regardless of the mess.
        let mut gate = SeqGate::new();
        let mut last: Option<u64> = None;
        let mut state = 0x1234_5678u64;
        for i in 0..5000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let jitter = (state >> 33) % 13;
            let seq = (i / 2).saturating_add(jitter).saturating_sub(6);
            gate.admit(
                seq,
                MonitorSample { far_ms: seq as f64, path_fp: 0xAA, far_addr_ok: true },
                5,
                &mut |s| {
                    let q = s.far_ms as u64;
                    if let Some(p) = last {
                        assert!(q > p, "delivered {q} after {p}");
                    }
                    last = Some(q);
                },
            );
        }
        assert!(last.is_some());
    }

    /// Encode a gate the way a shard checkpoint does: the counter record,
    /// then its parked-sample records under slot 0.
    fn encode_gate(gate: &SeqGate) -> (Vec<u8>, Vec<u8>) {
        let (mut counters, mut parked) = (Vec::new(), Vec::new());
        gate.encode_into(&mut counters);
        gate.encode_parked(0, &mut parked);
        (counters, parked)
    }

    /// Decode what [`encode_gate`] wrote (every record must name slot 0).
    fn decode_gate(counters: &[u8], parked: &[u8], window: u64) -> Option<SeqGate> {
        let mut gate = SeqGate::decode(counters)?;
        for rec in parked.chunks(PARKED_LEN) {
            let w: Vec<u64> =
                rec.chunks(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).collect();
            if w.len() != 5 || w[0] != 0 {
                return None;
            }
            gate.restore_parked([w[1], w[2], w[3], w[4]], window)?;
        }
        Some(gate)
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
        let (_, gate) = run_gate(&[(0, 0.0), (5, 5.0), (7, 7.0), (40, 40.0)], 6);
        assert_eq!(gate.buffered(), 1);
        let (counters, parked) = encode_gate(&gate);
        assert_eq!(counters.len(), SeqGate::ENCODED_LEN);
        assert_eq!(parked.len(), gate.buffered() * PARKED_LEN);
        let back = decode_gate(&counters, &parked, 6).unwrap();
        assert_eq!(encode_gate(&back), (counters.clone(), parked.clone()));
        assert_eq!(back.next_seq(), gate.next_seq());
        assert_eq!(back.buffered(), gate.buffered());
        // A truncated counter record refuses to decode.
        assert!(SeqGate::decode(&counters[..counters.len() - 1]).is_none());
        // Parked-record flag words outside {1,3} refuse to decode.
        let mut bad = parked.clone();
        bad[4 * 8] = 0xFF; // the record's flags word
        assert!(decode_gate(&counters, &bad, 6).is_none());
        // Both halves continue in lockstep.
        let (mut a, mut b) = (gate, back);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for seq in 34..60 {
            let s = MonitorSample::answered(seq as f64, 0xAA);
            let da = a.admit(seq, s, 6, &mut |s| out_a.push(s.far_ms));
            let db = b.admit(seq, s, 6, &mut |s| out_b.push(s.far_ms));
            assert_eq!(da, db);
        }
        assert_eq!(out_a, out_b);
        assert_eq!(encode_gate(&a), encode_gate(&b));
    }

    #[test]
    fn gate_decode_rejects_impossible_parked_samples() {
        // A gate at next_seq 10, window 4: parked sequences must lie in
        // (10, 14], each at most once.
        let gate = run_gate(&(0..10).map(|i| (i, i as f64)).collect::<Vec<_>>(), 4).1;
        let (counters, _) = encode_gate(&gate);
        let ok = |recs: &[Vec<u8>]| decode_gate(&counters, &recs.concat(), 4).is_some();
        assert!(ok(&[parked_record(11, 3), parked_record(14, 1)]));
        assert!(!ok(&[parked_record(10, 3)]), "parked at next_seq");
        assert!(!ok(&[parked_record(7, 3)]), "parked behind next_seq");
        assert!(!ok(&[parked_record(15, 3)]), "parked beyond the window");
        assert!(!ok(&[parked_record(12, 3), parked_record(12, 3)]), "parked twice");
        assert!(!ok(&[parked_record(13, 3), parked_record(12, 3)]), "not in sequence order");
        assert!(!ok(&[parked_record(12, 0)]), "vacant flags");
        // The window is the configured one, not the buffer capacity.
        assert!(decode_gate(&counters, &parked_record(14, 3), 3).is_none());
        assert!(decode_gate(&counters, &parked_record(11, 3), 0).is_none());
    }

    #[test]
    fn gate_is_compact_and_frees_its_buffer_once_healed() {
        assert!(size_of::<SeqGate>() <= 64, "SeqGate is {} bytes", size_of::<SeqGate>());
        let mut gate = SeqGate::new();
        let mut out = Vec::new();
        let mut admit = |gate: &mut SeqGate, seq: u64| {
            gate.admit(seq, MonitorSample::answered(seq as f64, 0xAA), 4, &mut |s| {
                out.push(s.far_ms)
            });
        };
        admit(&mut gate, 0);
        assert!(gate.buf.is_none(), "in-order traffic allocates nothing");
        admit(&mut gate, 2);
        admit(&mut gate, 3);
        assert_eq!(gate.buffered(), 2);
        assert!(gate.buf.is_some());
        admit(&mut gate, 1);
        assert_eq!(gate.buffered(), 0);
        assert!(gate.buf.is_none(), "a healed reorder frees the buffer");
        // A window slide heals what was parked on its way; the buffer
        // goes once the gap in front of the sample it then parks heals.
        admit(&mut gate, 6);
        assert!(gate.buf.is_some());
        admit(&mut gate, 20);
        admit(&mut gate, 16);
        assert_eq!(gate.next_seq(), 16 + 1);
        assert_eq!(gate.buffered(), 1);
        admit(&mut gate, 17);
        admit(&mut gate, 18);
        admit(&mut gate, 19);
        assert!(gate.buf.is_none());
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 6.0, 16.0, 17.0, 18.0, 19.0, 20.0]);
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let cfg = MonitorConfig::default();
        let mut st = LinkState::with_config(&cfg);
        let series = noisy_step(&[(300, 2.0), (50, 24.0)], 1.0);
        for (i, &x) in series.iter().enumerate() {
            let fp = if i < 200 { 0xAA } else { 0xBB };
            st.push(&MonitorSample { far_ms: if i % 7 == 0 { f64::NAN } else { x }, path_fp: fp, far_addr_ok: i % 11 != 0 }, &cfg);
        }
        let mut buf = Vec::new();
        st.encode_into(&mut buf);
        assert_eq!(buf.len(), LinkState::ENCODED_LEN);
        // A checkpoint slot is the link state plus the gate's counters.
        assert_eq!(LinkState::ENCODED_LEN + SeqGate::ENCODED_LEN, 256);
        let back = LinkState::decode(&buf, &cfg).unwrap();
        // Continuing both must stay in lockstep (state equality via re-encode).
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
        let mut a = st.clone();
        let mut b = back;
        for &x in &series[..100] {
            let ua = a.push(&MonitorSample::answered(x, 0xBB), &cfg);
            let ub = b.push(&MonitorSample::answered(x, 0xBB), &cfg);
            assert_eq!(ua, ub);
        }
        assert!(LinkState::decode(&buf[..buf.len() - 1], &cfg).is_none());
    }
}
