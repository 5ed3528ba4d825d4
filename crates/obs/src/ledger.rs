//! Per-link probe bookkeeping.
//!
//! A campaign's hot path is the probe walk; its telemetry must not pay for
//! map lookups per probe. [`LinkRecorder`] is the hot-path sink — the
//! [`ProbeLedger`] counters as bare `Cell`s — created once per measured
//! link and folded into the worker's sheet when the link finishes.

use crate::Recorder;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;

/// Identity of a measured link: the raw IPv4 addresses of its near and far
/// interfaces (the same pair that keys `TslpTarget` and the integrity table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkKey {
    /// Near-side interface address, raw network-order u32.
    pub near: u32,
    /// Far-side interface address, raw network-order u32.
    pub far: u32,
}

impl LinkKey {
    /// Build from raw address words.
    pub fn new(near: u32, far: u32) -> LinkKey {
        LinkKey { near, far }
    }

    /// Stable text form, `near-far` in dotted quads. Used as the ledger map
    /// key and as the Prometheus `link` label.
    pub fn label(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for LinkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = |v: u32| [(v >> 24) & 255, (v >> 16) & 255, (v >> 8) & 255, v & 255];
        let n = q(self.near);
        let r = q(self.far);
        write!(f, "{}.{}.{}.{}-{}.{}.{}.{}", n[0], n[1], n[2], n[3], r[0], r[1], r[2], r[3])
    }
}

/// Which end of the link a probe targeted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    /// The near router (TTL expires before the link).
    Near,
    /// The far router (TTL expires after the link).
    Far,
}

/// One end's complete outcome for one TSLP round, reported as a single
/// event from inside the probe walk. Batching the whole retry loop into one
/// [`Recorder::probe`] call (instead of an event per attempt) keeps the
/// hot path at one dispatch per end per round.
#[derive(Clone, Copy, Debug)]
pub struct ProbeEvent {
    /// Which end of the link the round targeted.
    pub end: End,
    /// Transmissions made (the first probe plus `attempts - 1` retries).
    pub attempts: u32,
    /// How many of those transmissions an ICMP rate limiter ate.
    pub rate_limited: u32,
    /// RTT of the accepted answer in milliseconds; `None` when the round
    /// ended with no usable answer from this end.
    pub rtt_ms: Option<f64>,
}

/// A link-level event, reported by the campaign/assessment drivers.
#[derive(Clone, Debug)]
pub enum LinkEvent {
    /// The screening pass short-circuited the link at coarse fidelity.
    ScreenedOut,
    /// The link's series replayed from an on-disk checkpoint.
    CheckpointHit,
    /// The link's freshly measured series was persisted.
    CheckpointWrite,
    /// The health classifier's verdict token (`"clean"`, `"gappy"`, …).
    Health(&'static str),
    /// Congestion events confirmed at the operating threshold.
    Events(u64),
    /// Level shifts attributed to measurement artifacts (masked).
    Artifacts(u64),
    /// Forwarding-path changes observed in the link's TTL-ladder
    /// fingerprints (routing events under the measurement).
    PathChanges(u64),
    /// The worker processing this link panicked and was quarantined.
    Quarantined(QuarantineNote),
}

/// Who quarantined a link and why.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineNote {
    /// Pool worker index that ran the panicking closure (volatile: the
    /// work-stealing pool assigns items by arrival).
    pub worker: usize,
    /// The panic payload, rendered as text.
    pub message: String,
}

/// Everything the campaign knows about probing one link. Plain integers —
/// merging is field-wise and exactly order-independent.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProbeLedger {
    /// Probe transmissions (every attempt).
    pub sent: u64,
    /// Accepted answers.
    pub answered: u64,
    /// Rounds that ended with no usable answer from one end.
    pub timed_out: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Probes eaten by ICMP rate limiters.
    pub rate_limited: u64,
    /// TSLP rounds represented.
    pub rounds: u64,
    /// Screening short-circuited this link.
    pub screened_out: bool,
    /// Series replays from checkpoints.
    pub checkpoint_hits: u64,
    /// Series persisted to checkpoints.
    pub checkpoint_writes: u64,
    /// Health classification token, once assessed.
    pub health: Option<String>,
    /// Congestion events at the operating threshold.
    pub events: u64,
    /// Artifact-masked level shifts.
    pub artifact_events: u64,
    /// Forwarding-path changes seen in the TTL-ladder fingerprints.
    pub path_changes: u64,
    /// Set when the link's worker panicked and the link was quarantined.
    pub quarantined: Option<QuarantineNote>,
}

impl ProbeLedger {
    /// Apply one probe-outcome event.
    pub fn apply(&mut self, ev: ProbeEvent) {
        self.sent += ev.attempts as u64;
        self.retries += ev.attempts.saturating_sub(1) as u64;
        self.rate_limited += ev.rate_limited as u64;
        if ev.rtt_ms.is_some() {
            self.answered += 1;
        } else {
            self.timed_out += 1;
        }
    }

    /// Apply one link-level event.
    pub fn apply_event(&mut self, ev: &LinkEvent) {
        match ev {
            LinkEvent::ScreenedOut => self.screened_out = true,
            LinkEvent::CheckpointHit => self.checkpoint_hits += 1,
            LinkEvent::CheckpointWrite => self.checkpoint_writes += 1,
            LinkEvent::Health(tok) => self.health = Some((*tok).to_string()),
            LinkEvent::Events(n) => self.events += n,
            LinkEvent::Artifacts(n) => self.artifact_events += n,
            LinkEvent::PathChanges(n) => self.path_changes += n,
            LinkEvent::Quarantined(note) => self.quarantined = Some(note.clone()),
        }
    }

    /// Field-wise merge: counts sum, flags or, verdicts prefer `other`'s
    /// when present (the later drain carries the assessment).
    pub fn merge(&mut self, other: &ProbeLedger) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.timed_out += other.timed_out;
        self.retries += other.retries;
        self.rate_limited += other.rate_limited;
        self.rounds += other.rounds;
        self.screened_out |= other.screened_out;
        self.checkpoint_hits += other.checkpoint_hits;
        self.checkpoint_writes += other.checkpoint_writes;
        if other.health.is_some() {
            self.health.clone_from(&other.health);
        }
        self.events += other.events;
        self.artifact_events += other.artifact_events;
        self.path_changes += other.path_changes;
        if other.quarantined.is_some() {
            self.quarantined.clone_from(&other.quarantined);
        }
    }
}

/// The hot-path recorder for one link's campaign: the probe ledger's
/// counters as individual [`Cell`]s — no map lookups, no `RefCell` borrow
/// flag, each event a bare load/add/store. Fold it into a sheet-backed
/// recorder with [`LinkRecorder::fold_into`] when the link finishes.
///
/// Deliberately *not* here: RTT histograms. Every answered probe's RTT is
/// already retained in the link's series, so the campaign derives the
/// histograms with one sequential scan at fold time (see
/// `tslp_core::campaign::measure_link_with`) instead of paying scattered bucket updates inside
/// the TSLP loop. The obs bench (`BENCH_obs.json`) holds the whole
/// instrumented path to <3% over uninstrumented probing.
#[derive(Debug, Default)]
pub struct LinkRecorder {
    sent: Cell<u64>,
    answered: Cell<u64>,
    timed_out: Cell<u64>,
    retries: Cell<u64>,
    rate_limited: Cell<u64>,
    rounds: Cell<u64>,
    screened: Cell<bool>,
}

#[inline]
fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl LinkRecorder {
    /// A fresh recorder for one link.
    pub fn new() -> LinkRecorder {
        LinkRecorder::default()
    }

    /// Note TSLP rounds represented by the link's series.
    pub fn add_rounds(&self, rounds: u64) {
        self.rounds.set(self.rounds.get() + rounds);
    }

    /// Mark the link screened out.
    pub fn screened_out(&self) {
        self.screened.set(true);
    }

    /// Read out the accumulated ledger.
    pub fn ledger_snapshot(&self) -> ProbeLedger {
        ProbeLedger {
            sent: self.sent.get(),
            answered: self.answered.get(),
            timed_out: self.timed_out.get(),
            retries: self.retries.get(),
            rate_limited: self.rate_limited.get(),
            rounds: self.rounds.get(),
            screened_out: self.screened.get(),
            ..ProbeLedger::default()
        }
    }

    /// Fold this link's telemetry into `rec`: the ledger under `key` and
    /// the campaign-wide probe counters.
    pub fn fold_into<R: Recorder>(&self, rec: &R, key: LinkKey) {
        let ledger = self.ledger_snapshot();
        rec.ledger(key, &ledger);
        rec.add("probes_sent", ledger.sent);
        rec.add("probes_answered", ledger.answered);
        rec.add("probes_timed_out", ledger.timed_out);
        rec.add("probes_retried", ledger.retries);
        rec.add("probes_rate_limited", ledger.rate_limited);
        rec.add("probe_rounds", ledger.rounds);
        rec.add("links_measured", 1);
        if ledger.screened_out {
            rec.add("links_screened", 1);
        }
    }
}

impl Recorder for LinkRecorder {
    fn enabled(&self) -> bool {
        true
    }
    #[inline]
    fn probe(&self, ev: ProbeEvent) {
        self.sent.set(self.sent.get() + ev.attempts as u64);
        if ev.attempts > 1 {
            self.retries.set(self.retries.get() + (ev.attempts - 1) as u64);
        }
        if ev.rate_limited > 0 {
            self.rate_limited.set(self.rate_limited.get() + ev.rate_limited as u64);
        }
        if ev.rtt_ms.is_some() {
            bump(&self.answered);
        } else {
            bump(&self.timed_out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SheetRecorder;

    #[test]
    fn link_key_label_is_dotted() {
        let k = LinkKey::new(0x0A000001, 0x0A000102);
        assert_eq!(k.label(), "10.0.0.1-10.0.1.2");
    }

    #[test]
    fn ledger_applies_and_merges() {
        let mut a = ProbeLedger::default();
        a.apply(ProbeEvent { end: End::Near, attempts: 1, rate_limited: 0, rtt_ms: Some(1.0) });
        let mut b = ProbeLedger::default();
        b.apply(ProbeEvent { end: End::Far, attempts: 1, rate_limited: 1, rtt_ms: None });
        b.apply_event(&LinkEvent::Health("gappy"));
        b.apply_event(&LinkEvent::PathChanges(2));
        a.merge(&b);
        assert_eq!((a.sent, a.answered, a.rate_limited, a.timed_out), (2, 1, 1, 1));
        assert_eq!(a.health.as_deref(), Some("gappy"));
        assert_eq!(a.path_changes, 2);
    }

    #[test]
    fn link_recorder_folds_counters() {
        let lr = LinkRecorder::new();
        lr.probe(ProbeEvent { end: End::Near, attempts: 1, rate_limited: 0, rtt_ms: Some(0.8) });
        lr.probe(ProbeEvent { end: End::Far, attempts: 2, rate_limited: 0, rtt_ms: Some(12.0) });
        lr.add_rounds(1);
        let sink = SheetRecorder::new();
        lr.fold_into(&sink, LinkKey::new(1, 2));
        let sheet = sink.into_sheet();
        assert_eq!(sheet.counter("probes_sent"), 3);
        assert_eq!(sheet.counter("probes_answered"), 2);
        assert_eq!(sheet.counter("probes_retried"), 1);
        assert_eq!(sheet.ledgers["0.0.0.1-0.0.0.2"].sent, 3);
    }
}
