//! # ixp-obs — campaign telemetry with a zero-overhead-when-off recorder
//!
//! The paper's TSLP campaigns ran unattended for thirteen months; probing
//! pathologies (ICMP rate limiting, address churn, VP outages — §3.2/§5)
//! were only diagnosed after the fact. This crate gives the pipeline
//! first-class self-measurement so an operator can see what the campaign,
//! detector, and worker pool are doing *while they run*:
//!
//! - [`Recorder`] — the single instrumentation gateway. Every probe walk,
//!   pool worker, detector pass, and pipeline stage reports through it. The
//!   default method bodies are empty, so the uninstrumented path
//!   ([`NoopRecorder`]) monomorphizes to nothing and stays bit-identical to
//!   the never-instrumented code (gated by `benches/obs.rs`).
//! - [`MetricsRegistry`] / [`MetricSheet`] — named counters, gauges, and
//!   log-bucketed [`Histogram`]s. Sheets are plain mergeable values: each
//!   pool worker owns a local sheet and folds it into the shared registry
//!   once at drain, keeping the hot path contention-free.
//! - [`ProbeLedger`] / [`LinkRecorder`] — per-link probe bookkeeping
//!   (sent/answered/timed-out, retries, rate-limit drops, checkpoint hits,
//!   quarantines) accumulated in plain fields, no map lookups per probe.
//! - [`StageSpan`] — RAII wall-time + sim-time timers folding into a
//!   hierarchical (slash-path) stage profile.
//! - [`export`] — Prometheus text exposition and the versioned
//!   [`RunManifest`] JSON snapshot written by `full_campaign --metrics-out`.
//!
//! Determinism contract (tested in `ixp-study/tests/telemetry.rs`): with the
//! no-op recorder, outputs are bit-identical to the uninstrumented build; with
//! a live recorder, counters, ledgers, histograms, and per-stage sim-time are
//! identical at *any* thread count, and the whole snapshot is identical run
//! to run modulo wall-clock fields (`RunManifest::deterministic_json`).

#![warn(missing_docs)]

pub mod export;
pub mod ledger;
pub mod metrics;
pub mod rss;
pub mod span;
pub mod trace;

pub use export::{
    prometheus_text, stage_profile, ModeTransition, ResumeSummary, RunManifest, MANIFEST_VERSION,
};
pub use ledger::{End, LinkEvent, LinkKey, LinkRecorder, ProbeEvent, ProbeLedger, QuarantineNote};
pub use metrics::{
    Histogram, MetricSheet, MetricsRegistry, RateMeter, SheetRecorder, StageTiming, WorkerStat,
};
pub use rss::{peak_rss_mb, reset_peak_rss};
pub use span::StageSpan;
pub use trace::{
    health_class_name, parse_dump, recovery_name, FlightRecorder, TraceDump, TraceEvent, TraceKind,
    NO_LINK, TRACE_DUMP_VERSION,
};

/// The instrumentation gateway: everything the pipeline reports goes through
/// one of these methods. All methods have empty default bodies, so a type
/// only implements what it can absorb, and the no-op implementation compiles
/// away entirely — callers may freely sprinkle calls on hot paths as long as
/// any *argument preparation* is gated on [`Recorder::enabled`].
pub trait Recorder {
    /// Is this recorder live? `false` (the default) lets instrumented code
    /// skip building expensive arguments (wall-clock reads, labels).
    fn enabled(&self) -> bool {
        false
    }
    /// Bump a named monotonic counter.
    fn add(&self, _name: &str, _delta: u64) {}
    /// Set a named gauge. Gauges fold by `max` at merge so the result is
    /// independent of worker drain order.
    fn gauge(&self, _name: &str, _value: f64) {}
    /// Record one sample into a named log-bucketed histogram.
    fn observe(&self, _name: &str, _value: f64) {}
    /// Fold a pre-aggregated histogram into the named histogram.
    fn merge_hist(&self, _name: &str, _hist: &Histogram) {}
    /// Record one probe-level event (hot path; see [`LinkRecorder`]).
    fn probe(&self, _ev: ProbeEvent) {}
    /// Fold a finished per-link ledger in.
    fn ledger(&self, _key: LinkKey, _ledger: &ProbeLedger) {}
    /// Record a link-level event (screening, checkpoint, quarantine, …).
    fn link_event(&self, _key: LinkKey, _ev: LinkEvent) {}
    /// Fold one stage timing (slash-separated `path` nests the profile).
    fn stage(&self, _path: &str, _wall_ns: u64, _sim_us: u64) {}
    /// Fold one pool worker's per-run stats (volatile: scheduling-dependent).
    fn worker(&self, _pool: &str, _worker: usize, _items: u64, _busy_ns: u64) {}
    /// Fold a whole worker-local sheet in (the drain step).
    fn fold(&self, _sheet: &MetricSheet) {}
    /// Record one structured flight-recorder event (hot path: callers pass
    /// a `Copy` [`TraceEvent`] built from values already at hand, so the
    /// no-op body costs nothing and a live [`FlightRecorder`] costs one
    /// uncontended lane push).
    fn trace(&self, _ev: TraceEvent) {}
}

/// The recorder that records nothing. Every method keeps its empty default
/// body; behind monomorphization the instrumented functions collapse to
/// their uninstrumented selves.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

impl<R: Recorder + ?Sized> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn add(&self, name: &str, delta: u64) {
        (**self).add(name, delta)
    }
    fn gauge(&self, name: &str, value: f64) {
        (**self).gauge(name, value)
    }
    fn observe(&self, name: &str, value: f64) {
        (**self).observe(name, value)
    }
    fn merge_hist(&self, name: &str, hist: &Histogram) {
        (**self).merge_hist(name, hist)
    }
    fn probe(&self, ev: ProbeEvent) {
        (**self).probe(ev)
    }
    fn ledger(&self, key: LinkKey, ledger: &ProbeLedger) {
        (**self).ledger(key, ledger)
    }
    fn link_event(&self, key: LinkKey, ev: LinkEvent) {
        (**self).link_event(key, ev)
    }
    fn stage(&self, path: &str, wall_ns: u64, sim_us: u64) {
        (**self).stage(path, wall_ns, sim_us)
    }
    fn worker(&self, pool: &str, worker: usize, items: u64, busy_ns: u64) {
        (**self).worker(pool, worker, items, busy_ns)
    }
    fn fold(&self, sheet: &MetricSheet) {
        (**self).fold(sheet)
    }
    fn trace(&self, ev: TraceEvent) {
        (**self).trace(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.add("x", 1);
        r.observe("y", 2.0);
        r.stage("a/b", 3, 4);
        // A reference forwards.
        assert!(!Recorder::enabled(&&r));
    }
}
