//! The flight recorder: fixed-capacity trace rings and versioned JSONL
//! black-box dumps.
//!
//! Every exceptional step a pipeline takes — a shed or rejected sample, a
//! healed reorder, a health-class transition, a mask application, an online
//! or batch changepoint, a checkpoint write/restore, a worker panic and its
//! recovery — can be reported as a [`TraceEvent`] through
//! [`Recorder::trace`]. The default trait body is empty, so the
//! uninstrumented path ([`crate::NoopRecorder`]) still monomorphizes to
//! nothing; a live [`FlightRecorder`] appends the event to a per-lane ring
//! of fixed capacity, stamping a per-lane monotone sequence number.
//!
//! ## Memory model
//!
//! One lane per shard/worker, each a preallocated `Vec<TraceEvent>` used as
//! an overwrite ring: pushing into a full ring evicts the oldest event and
//! bumps the lane's `dropped` count — memory is bounded at
//! `lanes × capacity × size_of::<TraceEvent>()` forever, and the hot path
//! never allocates. Lanes are mutex-guarded, but a lane is only ever
//! touched by the worker that owns its shard (plus the dumper), so the
//! lock is uncontended in steady state.
//!
//! ## Dump format
//!
//! [`FlightRecorder::dump_jsonl`] serializes the merged rings to JSON
//! Lines: a header object (`format`/`version`/`reason`/`lanes`/`dropped`)
//! followed by one event object per line, sorted by `(round, shard, seq)`
//! so interleaved lanes read as one timeline. [`parse_dump`] is the
//! inverse; `examples/forensics.rs` replays dumps into per-link timelines.

use crate::Recorder;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Current dump format version (the header's `version` field).
pub const TRACE_DUMP_VERSION: u32 = 1;

/// What happened. The payload fields `a`, `b`, and `v` of the carrying
/// [`TraceEvent`] are interpreted per kind — see each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Admission control shed this sample before workers started.
    /// `a` = sequence number.
    SampleShed,
    /// Sample refused at the door (unknown link id or reserved sequence).
    /// `a` = sequence number.
    SampleRejected,
    /// The link's gate saw a duplicate of an already-delivered sequence.
    /// `a` = sequence number.
    SampleDuplicate,
    /// The link's gate saw an ancient sequence replay. `a` = next expected
    /// sequence at the time.
    SampleStale,
    /// Sequence numbers abandoned because the reorder window slid past
    /// them. `a` = count dropped in this admission.
    SampleDropped,
    /// Out-of-order samples healed into order via the reorder buffer.
    /// `a` = count delivered out of arrival order in this admission.
    ReorderHealed,
    /// The link's incremental health class changed at a window boundary.
    /// `a` = previous class token, `b` = new class token (see
    /// [`health_class_name`]).
    HealthChanged,
    /// A causal path-change mask suppressed an online upshift alarm.
    /// `a` = round of the triggering path change, `b` = rounds elapsed
    /// since it.
    MaskApplied,
    /// The online detector raised an (unmasked) upshift alarm.
    /// `a` = round of the last path change (`u64::MAX` = never),
    /// `v` = baseline level before the shift (ms).
    OnlineUpshift,
    /// The online detector returned to baseline. `v` = baseline (ms).
    OnlineDownshift,
    /// The batch detector accepted a changepoint. `a` = sample index,
    /// `v` = bootstrap confidence.
    BatchChangepoint,
    /// A shard checkpoint blob was written. `a` = links encoded.
    CheckpointWrite,
    /// A shard restored from its checkpoint blob. `a` = recovery outcome
    /// token (see [`recovery_name`]).
    CheckpointRestore,
    /// Checkpointed samples replayed through a restored shard.
    /// `a` = items replayed.
    CheckpointReplay,
    /// A shard worker panicked mid-batch. `a` = restart count so far.
    WorkerPanic,
    /// The supervisor restored a panicked shard and is retrying.
    ShardRestore,
    /// A second panic quarantined the shard for this batch.
    ShardQuarantine,
    /// The service mode flipped. `a` = 0 for Healthy, 1 for Degraded.
    ModeChange,
}

/// One structured trace record. `Copy` and fixed-size: pushing one into a
/// ring moves 56 bytes and allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Per-lane monotone sequence number, stamped by the ring at push.
    pub seq: u64,
    /// Sim-time round (or batch index) the event belongs to.
    pub round: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Lane the event routes to (shard id, or worker id for batch stages).
    pub shard: u32,
    /// Link the event concerns (`u32::MAX` = not link-scoped).
    pub link: u32,
    /// First kind-specific payload word (see [`TraceKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// Kind-specific measure (levels, confidences; `0.0` when unused).
    pub v: f64,
}

/// Sentinel for [`TraceEvent::link`] on events that are not link-scoped.
pub const NO_LINK: u32 = u32::MAX;

impl TraceEvent {
    /// A fresh event with empty payload; the ring stamps `seq`.
    pub fn new(kind: TraceKind, round: u64, shard: u32, link: u32) -> TraceEvent {
        TraceEvent { seq: 0, round, kind, shard, link, a: 0, b: 0, v: 0.0 }
    }

    /// Attach the first payload word.
    pub fn a(mut self, a: u64) -> TraceEvent {
        self.a = a;
        self
    }

    /// Attach the second payload word.
    pub fn b(mut self, b: u64) -> TraceEvent {
        self.b = b;
        self
    }

    /// Attach the measure.
    pub fn v(mut self, v: f64) -> TraceEvent {
        self.v = v;
        self
    }
}

/// One lane's fixed-capacity overwrite ring.
#[derive(Debug)]
struct TraceRing {
    /// Preallocated storage; never grows past `cap`.
    buf: Vec<TraceEvent>,
    /// Next write position once the ring is full.
    head: usize,
    /// Events evicted because the ring was full.
    dropped: u64,
    /// Next sequence number to stamp.
    next_seq: u64,
}

impl TraceRing {
    fn new(cap: usize) -> TraceRing {
        TraceRing { buf: Vec::with_capacity(cap), head: 0, dropped: 0, next_seq: 0 }
    }

    fn push(&mut self, mut ev: TraceEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len().max(1);
            self.dropped += 1;
        }
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// A live flight recorder: one bounded trace ring per lane, routed by
/// [`TraceEvent::shard`]. Implements [`Recorder`] so it can stand wherever
/// a recorder is accepted; only [`Recorder::trace`] stores anything — the
/// metric/ledger methods keep their empty defaults, so a flight recorder
/// can be composed alongside a metrics registry without double-counting.
#[derive(Debug)]
pub struct FlightRecorder {
    lanes: Vec<Mutex<TraceRing>>,
}

impl FlightRecorder {
    /// `lanes` rings of `capacity` events each. Lane count is typically the
    /// shard/worker count; capacity bounds memory per lane forever.
    pub fn new(lanes: usize, capacity: usize) -> FlightRecorder {
        let lanes = lanes.max(1);
        FlightRecorder {
            lanes: (0..lanes).map(|_| Mutex::new(TraceRing::new(capacity.max(1)))).collect(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total events evicted across all lanes (rings that wrapped).
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.lock().dropped).sum()
    }

    /// Total events currently retained across all lanes.
    pub fn retained(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().buf.len()).sum()
    }

    /// Merge every lane into one `(round, shard, seq)`-sorted timeline.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> =
            self.lanes.iter().flat_map(|l| l.lock().ordered()).collect();
        all.sort_by_key(|e| (e.round, e.shard, e.seq));
        all
    }

    /// Serialize the merged rings as a versioned JSONL black-box bundle:
    /// one header line, then one event per line in timeline order. The
    /// rings are left intact (a dump is a read, not a drain).
    pub fn dump_jsonl(&self, reason: &str) -> Vec<u8> {
        let events = self.snapshot();
        let header = DumpHeader {
            format: "tslp-trace".to_string(),
            version: TRACE_DUMP_VERSION,
            reason: reason.to_string(),
            lanes: self.lanes.len(),
            dropped: self.dropped(),
            events: events.len(),
        };
        let mut out = serde_json::to_string(&header).expect("header serializes").into_bytes();
        out.push(b'\n');
        for ev in &events {
            out.extend_from_slice(serde_json::to_string(ev).expect("event serializes").as_bytes());
            out.push(b'\n');
        }
        out
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn trace(&self, ev: TraceEvent) {
        self.lanes[ev.shard as usize % self.lanes.len()].lock().push(ev);
    }
}

/// The first line of a dump.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DumpHeader {
    /// Always `"tslp-trace"`.
    format: String,
    /// [`TRACE_DUMP_VERSION`] at write time.
    version: u32,
    /// Why the dump was taken (incident description).
    reason: String,
    /// Lane count at write time.
    lanes: usize,
    /// Events the rings had evicted before the dump.
    dropped: u64,
    /// Event lines that follow.
    events: usize,
}

/// A parsed black-box bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceDump {
    /// Dump format version.
    pub version: u32,
    /// Why the dump was taken.
    pub reason: String,
    /// Events evicted from the rings before the dump (timeline holes).
    pub dropped: u64,
    /// The merged timeline, `(round, shard, seq)`-sorted at write time.
    pub events: Vec<TraceEvent>,
}

/// Parse a [`FlightRecorder::dump_jsonl`] bundle back into a timeline.
/// Rejects bundles with a bad header or a different major format; a
/// truncated event tail yields an error naming the offending line.
pub fn parse_dump(bytes: &[u8]) -> Result<TraceDump, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("dump is not UTF-8: {e}"))?;
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty dump")?;
    let header: DumpHeader =
        serde_json::from_str(header_line).map_err(|e| format!("bad dump header: {e}"))?;
    if header.format != "tslp-trace" {
        return Err(format!("not a trace dump: format {:?}", header.format));
    }
    if header.version != TRACE_DUMP_VERSION {
        return Err(format!(
            "unsupported trace dump version {} (supported: {TRACE_DUMP_VERSION})",
            header.version
        ));
    }
    let mut events = Vec::with_capacity(header.events);
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let ev: TraceEvent =
            serde_json::from_str(line).map_err(|e| format!("bad event on line {}: {e}", i + 2))?;
        events.push(ev);
    }
    if events.len() != header.events {
        return Err(format!(
            "truncated dump: header promises {} events, found {}",
            header.events,
            events.len()
        ));
    }
    Ok(TraceDump { version: header.version, reason: header.reason, dropped: header.dropped, events })
}

/// Human name for the health-class tokens carried by
/// [`TraceKind::HealthChanged`] (tslp-core's `LinkHealth::code`: Clean=0,
/// Gappy=1, RateLimited=2, PathChange=3, AddrUnstable=4, Silent=5).
pub fn health_class_name(token: u64) -> &'static str {
    match token {
        0 => "Clean",
        1 => "Gappy",
        2 => "RateLimited",
        3 => "PathChange",
        4 => "AddrUnstable",
        5 => "Silent",
        _ => "Unknown",
    }
}

/// Human name for the recovery-outcome tokens carried by
/// [`TraceKind::CheckpointRestore`] (`ShardRecovery`'s order: Restored=0,
/// RebuiltMissing=1, RebuiltStale=2, RebuiltCorrupt=3).
pub fn recovery_name(token: u64) -> &'static str {
    match token {
        0 => "Restored",
        1 => "RebuiltMissing",
        2 => "RebuiltStale",
        3 => "RebuiltCorrupt",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let fl = FlightRecorder::new(1, 4);
        for r in 0..10u64 {
            fl.trace(TraceEvent::new(TraceKind::SampleShed, r, 0, 7).a(r));
        }
        assert_eq!(fl.dropped(), 6);
        assert_eq!(fl.retained(), 4);
        let snap = fl.snapshot();
        assert_eq!(snap.len(), 4);
        // Oldest four evicted; rounds 6..10 retained, in order, seq monotone.
        assert_eq!(snap.iter().map(|e| e.round).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn lanes_are_independent_and_merge_sorted() {
        let fl = FlightRecorder::new(4, 16);
        // Interleave rounds across lanes out of submission order.
        fl.trace(TraceEvent::new(TraceKind::OnlineUpshift, 5, 2, 10).v(3.5));
        fl.trace(TraceEvent::new(TraceKind::OnlineUpshift, 1, 3, 11));
        fl.trace(TraceEvent::new(TraceKind::ModeChange, 5, 0, NO_LINK).a(1));
        fl.trace(TraceEvent::new(TraceKind::OnlineDownshift, 3, 2, 10));
        let snap = fl.snapshot();
        assert_eq!(snap.iter().map(|e| (e.round, e.shard)).collect::<Vec<_>>(), vec![
            (1, 3),
            (3, 2),
            (5, 0),
            (5, 2)
        ]);
    }

    #[test]
    fn dump_roundtrips_through_parse() {
        let fl = FlightRecorder::new(2, 8);
        fl.trace(TraceEvent::new(TraceKind::WorkerPanic, 12, 1, NO_LINK).a(1));
        fl.trace(TraceEvent::new(TraceKind::ShardRestore, 12, 1, NO_LINK));
        fl.trace(TraceEvent::new(TraceKind::BatchChangepoint, 40, 0, 3).a(812).v(0.995));
        let bytes = fl.dump_jsonl("unit test");
        let dump = parse_dump(&bytes).expect("roundtrip");
        assert_eq!(dump.version, TRACE_DUMP_VERSION);
        assert_eq!(dump.reason, "unit test");
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.events, fl.snapshot());
        // A dump is a read: the rings still hold everything.
        assert_eq!(fl.retained(), 3);
    }

    #[test]
    fn parse_rejects_garbage_and_truncation() {
        assert!(parse_dump(b"").is_err());
        assert!(parse_dump(b"not json\n").is_err());
        assert!(parse_dump(br#"{"format":"other","version":1,"reason":"","lanes":1,"dropped":0,"events":0}"#).is_err());
        let fl = FlightRecorder::new(1, 4);
        fl.trace(TraceEvent::new(TraceKind::SampleShed, 0, 0, 0));
        fl.trace(TraceEvent::new(TraceKind::SampleShed, 1, 0, 0));
        let bytes = fl.dump_jsonl("t");
        // Drop the last event line: header promises 2, finds 1.
        let cut = bytes[..bytes.len() - 2].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let err = parse_dump(&bytes[..cut]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn token_names_cover_known_values() {
        assert_eq!(health_class_name(0), "Clean");
        assert_eq!(health_class_name(5), "Silent");
        assert_eq!(health_class_name(99), "Unknown");
        assert_eq!(recovery_name(3), "RebuiltCorrupt");
        assert_eq!(recovery_name(42), "Unknown");
    }
}
