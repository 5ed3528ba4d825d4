//! Driving a TSLP measurement campaign over simulated months.
//!
//! The paper probes *every* discovered link every 5 minutes for 13 months
//! (§4). Replaying that literally against the simulator is ~10⁹ probe walks
//! for the Liquid Telecom vantage point alone, so the runner supports an
//! explicitly documented **screening pass** (see DESIGN.md): each link is
//! first sampled coarsely (hourly); only links whose far-RTT excursions
//! could possibly clear the smallest Table 1 threshold get the full
//! five-minute campaign. Links screened out keep their coarse series — which
//! the detector handles like any other series and (by construction of the
//! excursion gate) can never flag. [`CampaignConfig::exact`] runs
//! paper-exact, with no screen. The per-round probing policy is the
//! prober's own [`TslpConfig`].

use crate::checkpoint::CheckpointStore;
use crate::series::{LinkSeries, SeriesConfig};
use ixp_chgpt::lanes::Lanes;
use ixp_obs::{Histogram, LinkEvent, LinkKey, LinkRecorder, NoopRecorder, Recorder, SheetRecorder};
use ixp_prober::tslp::{tslp_probe_rec, TslpConfig, TslpTarget};
use ixp_simnet::net::{Network, ProbeCtx};
use ixp_simnet::node::NodeId;
use ixp_simnet::rng::mix;
use ixp_simnet::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Telemetry key for a measured link: near/far interface addresses.
pub fn link_key(target: &TslpTarget) -> LinkKey {
    LinkKey::new(target.near_addr.0, target.far_addr.0)
}

/// Screening-pass settings.
#[derive(Clone, Copy, Debug)]
pub struct Screening {
    /// Coarse sampling interval.
    pub interval: SimDuration,
    /// Excursion gate, in ms: the full campaign runs only when at least four
    /// coarse far samples sit more than this far above the coarse series
    /// median ([`far_excursions`]). Must stay below the smallest threshold
    /// swept. The name predates the excursion count; its value is bound into
    /// [`campaign_fingerprint`].
    pub spread_gate_ms: f64,
}

impl Default for Screening {
    fn default() -> Self {
        Screening { interval: SimDuration::from_hours(1), spread_gate_ms: 4.0 }
    }
}

/// Campaign settings.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// First round.
    pub start: SimTime,
    /// End of the campaign (exclusive).
    pub end: SimTime,
    /// Full-fidelity round interval (the paper's 5 minutes).
    pub interval: SimDuration,
    /// Per-round probing policy.
    pub tslp: TslpConfig,
    /// Optional screening pass; `None` = paper-exact probing for all links.
    pub screening: Option<Screening>,
    /// Worker threads for the [`stream_vp_links`] fan-out: `0` = one per
    /// available core, `1` = sequential. Output is identical
    /// at every thread count (each target's walk is an independent pure
    /// function of the shared substrate).
    pub threads: usize,
}

impl CampaignConfig {
    /// The paper's campaign over `[start, end)` with screening enabled.
    pub fn paper(start: SimTime, end: SimTime) -> CampaignConfig {
        CampaignConfig {
            start,
            end,
            interval: SimDuration::from_mins(5),
            tslp: TslpConfig::default(),
            screening: Some(Screening::default()),
            threads: 0,
        }
    }

    /// Paper-exact: every link at 5 minutes, no screening.
    pub fn exact(start: SimTime, end: SimTime) -> CampaignConfig {
        CampaignConfig { screening: None, ..CampaignConfig::paper(start, end) }
    }
}

fn run_grid<P: Recorder>(
    net: &Network,
    ctx: &mut ProbeCtx,
    vp: NodeId,
    target: &TslpTarget,
    tslp: &TslpConfig,
    (grid, end): (SeriesConfig, SimTime),
    prec: &P,
) -> LinkSeries {
    let mut series = LinkSeries::new(grid);
    let rounds = grid.rounds_until(end);
    for i in 0..rounds {
        let t = grid.timestamp(i);
        let s = tslp_probe_rec(net, ctx, vp, target, tslp, t, prec);
        series.push(&s);
    }
    series
}

/// Number of far samples elevated at least `gate_ms` above the series
/// median. This — not a percentile spread — is the screening statistic: a
/// two-month congestion episode inside a 13-month campaign elevates only a
/// few percent of samples, which a 95th percentile can miss entirely, but
/// still produces hundreds of excursions.
pub fn far_excursions(series: &LinkSeries, gate_ms: f64) -> usize {
    let (mut vals, _) = series.far_clean();
    let n = vals.len();
    if n < 8 {
        return 0;
    }
    let median = *vals
        .select_nth_unstable_by(n / 2, |a, b| a.partial_cmp(b).expect("NaN after clean"))
        .1;
    vals.iter().filter(|&&v| v > median + gate_ms).count()
}

/// The probing body of every measurement entry point, generic over the
/// probe-event recorder so the uninstrumented path monomorphizes the
/// telemetry calls away entirely. Also returns the total probe-round count
/// (coarse + full) for the telemetry ledger.
fn probe_link<P: Recorder>(
    net: &Network,
    ctx: &mut ProbeCtx,
    vp: NodeId,
    target: &TslpTarget,
    cfg: &CampaignConfig,
    prec: &P,
) -> (LinkSeries, bool, u64) {
    // Rebase the caller's ctx onto this target's identity: the series is a
    // pure function of (net, vp, target, cfg), independent of which worker
    // thread runs it, in what order, or what the ctx measured before — the
    // ordering guarantee the campaign pool relies on. Rebasing costs what
    // the previous target touched, and a worker reuses one ctx (and its
    // compiled walks) across every link it claims.
    ctx.rebase(
        net,
        mix(&[
            vp.0 as u64,
            target.dst.0 as u64,
            target.near_ttl as u64,
            target.far_ttl as u64,
        ]),
    );
    let mut rounds = 0u64;
    if let Some(sc) = cfg.screening {
        let coarse_grid = SeriesConfig { start: cfg.start, interval: sc.interval };
        let coarse = run_grid(net, ctx, vp, target, &cfg.tslp, (coarse_grid, cfg.end), prec);
        rounds += coarse.len() as u64;
        // A link stays screened out only when the coarse pass saw fewer
        // than a handful of samples elevated past the smallest threshold —
        // the necessary condition for any ≥30-minute, ≥5 ms level shift.
        if far_excursions(&coarse, sc.spread_gate_ms) < 4 {
            return (coarse, true, rounds);
        }
        // The coarse pass advanced this ctx's lazy queue anchors through the
        // whole window; rewind them before re-reading it at full fidelity.
        ctx.reset_queue_state(net);
    }
    let grid = SeriesConfig { start: cfg.start, interval: cfg.interval };
    let full = run_grid(net, ctx, vp, target, &cfg.tslp, (grid, cfg.end), prec);
    rounds += full.len() as u64;
    (full, false, rounds)
}

/// Measure one link over the campaign window. Returns the series (coarse if
/// the screening pass ruled congestion out) and whether screening short-
/// circuited the link.
pub fn measure_link(
    net: &Network,
    vp: NodeId,
    target: &TslpTarget,
    cfg: &CampaignConfig,
) -> (LinkSeries, bool) {
    measure_link_in(net, &mut ProbeCtx::default(), vp, target, cfg)
}

/// [`measure_link`] reusing a caller-owned [`ProbeCtx`]. The context is
/// rebased onto the target's probe-id stream first, so the series is
/// bit-identical to a fresh-context measurement; what's saved is a fresh
/// context's allocations and compiled walks per link — the per-worker reuse
/// pattern every campaign pool runs.
pub fn measure_link_in(
    net: &Network,
    ctx: &mut ProbeCtx,
    vp: NodeId,
    target: &TslpTarget,
    cfg: &CampaignConfig,
) -> (LinkSeries, bool) {
    measure_link_with(net, ctx, vp, target, cfg, None, &NoopRecorder)
}

/// [`measure_link_in`] through an optional [`CheckpointStore`] and with
/// telemetry.
///
/// With a store, the series replays from disk when a checkpoint for this
/// exact target + campaign config exists (the context is not touched);
/// otherwise it is measured and persisted. A failed write is swallowed —
/// persistence is an optimization, never a correctness requirement.
///
/// With an enabled recorder, per-probe events (sent / answered / timed-out /
/// retried / rate-limited) accumulate in a link-local [`LinkRecorder`] and
/// fold into `rec` once, as a per-link [`ixp_obs::ProbeLedger`]; the
/// near/far RTT histograms are derived from the retained series with one
/// sequential scan per link, so the probe loop itself only bumps counters.
/// Checkpoint replays and persists land in the same ledger plus the
/// `checkpoint_hits` / `checkpoint_writes` counters. Telemetry only
/// observes: the series is bit-identical to [`measure_link`].
pub fn measure_link_with<R: Recorder>(
    net: &Network,
    ctx: &mut ProbeCtx,
    vp: NodeId,
    target: &TslpTarget,
    cfg: &CampaignConfig,
    store: Option<&CheckpointStore>,
    rec: &R,
) -> (LinkSeries, bool) {
    let ckpt = store.map(|st| (st, CheckpointStore::key_for(vp, target)));
    if let Some(hit) = ckpt.and_then(|(st, key)| st.load(key)) {
        rec.add("checkpoint_hits", 1);
        rec.link_event(link_key(target), LinkEvent::CheckpointHit);
        return hit;
    }
    let (series, screened) = if rec.enabled() {
        let lr = LinkRecorder::new();
        let (series, screened, rounds) = probe_link(net, ctx, vp, target, cfg, &lr);
        lr.add_rounds(rounds);
        if screened {
            lr.screened_out();
        }
        lr.fold_into(rec, link_key(target));
        let hist_of = |vals: &[f64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v); // NaN holes (missed rounds) carry no magnitude
            }
            h
        };
        rec.merge_hist("tslp_near_rtt_ms", &hist_of(&series.near_ms));
        rec.merge_hist("tslp_far_rtt_ms", &hist_of(&series.far_ms));
        (series, screened)
    } else {
        let (series, screened, _) = probe_link(net, ctx, vp, target, cfg, &NoopRecorder);
        (series, screened)
    };
    if let Some((st, key)) = ckpt {
        if st.store(key, &series, screened).is_ok() {
            rec.add("checkpoint_writes", 1);
            rec.link_event(link_key(target), LinkEvent::CheckpointWrite);
        }
    }
    (series, screened)
}

/// Fingerprint of everything in a [`CampaignConfig`] that shapes measured
/// series. Bound into every checkpoint so a config change invalidates old
/// checkpoints instead of replaying them. `threads` is deliberately
/// excluded: thread count never changes results, so a checkpoint taken at
/// one thread count must resume at any other.
pub fn campaign_fingerprint(cfg: &CampaignConfig) -> u64 {
    let (sc_interval, sc_gate) = match cfg.screening {
        Some(sc) => (sc.interval.as_micros(), sc.spread_gate_ms.to_bits()),
        None => (0, 0),
    };
    mix(&[
        cfg.start.0,
        cfg.end.0,
        cfg.interval.as_micros(),
        cfg.tslp.attempts as u64,
        cfg.tslp.pacing.as_micros(),
        cfg.tslp.retry_backoff.as_micros(),
        cfg.tslp.retry_jitter.to_bits(),
        sc_interval,
        sc_gate,
    ])
}

/// Per-worker pool state for telemetry runs: each worker accumulates into a
/// private [`MetricSheet`](ixp_obs::MetricSheet) (no shared-state contention
/// on the probe hot path) that folds into the campaign recorder exactly once
/// — on drop, so a quarantined worker state still surrenders the telemetry
/// of the items it completed. All sheet merges are commutative and
/// associative, so drain order (and thread count) never shows in the totals.
struct DrainSheet<'a, R: Recorder> {
    local: SheetRecorder,
    out: &'a R,
}

impl<'a, R: Recorder> DrainSheet<'a, R> {
    fn new(out: &'a R) -> Self {
        DrainSheet { local: SheetRecorder::new(), out }
    }
}

impl<R: Recorder> Drop for DrainSheet<'_, R> {
    fn drop(&mut self) {
        self.out.fold(&self.local.take_sheet());
    }
}

/// The VP-level campaign: measure each link and *consume* its series in the
/// same worker pass, fanning targets out over `cfg.threads` workers.
///
/// Each worker measures a link (replaying its checkpoint shard when a store
/// holds one), hands the series to `consume` — the detection/assessment
/// stage — and drops it the moment the verdict is out: peak series memory
/// is O(active windows), one series per live worker, so a continent-scale
/// campaign (100k+ links × a year of five-minute rounds) never holds
/// O(links × series length). A caller that wants every series back passes
/// the identity consumer `|_, _, _, s, sc| (s, sc)`.
///
/// `consume` runs under the same purity contract as the pool itself: a pure
/// function of `(state, index, target, series, screened)` — so results come
/// back in target order, bit-identical at any thread count, and a panic
/// quarantines the link as a [`WorkerFailure`] (the caller can re-obtain
/// the dropped series via [`measure_link_with`]: the measurement is a pure
/// function, and with a store it replays from the shard the worker already
/// wrote).
///
/// With an enabled recorder every worker accumulates per-link probe
/// ledgers, RTT histograms, and campaign counters into a private sheet,
/// folded into `rec` once per worker; only the per-worker rows
/// (`rec.worker`) depend on scheduling. Two gauges observe the streaming
/// promise: `campaign_active_windows` (high-water mark of series alive at
/// once) and `campaign_peak_rss_mb` (process peak RSS after the pass, where
/// procfs exposes it). Gauges are observation-side and excluded from the
/// deterministic manifest form.
#[allow(clippy::too_many_arguments)]
pub fn stream_vp_links_rec<T, S, R>(
    net: &Network,
    vp: NodeId,
    targets: &[TslpTarget],
    cfg: &CampaignConfig,
    store: Option<&CheckpointStore>,
    rec: &R,
    init: impl Fn() -> S + Sync,
    consume: impl Fn(&mut S, usize, &TslpTarget, LinkSeries, bool) -> T + Sync,
) -> Vec<Result<T, WorkerFailure>>
where
    T: Send,
    R: Recorder + Sync,
{
    let key_of = |_: usize, t: &TslpTarget| link_key(t).label();
    if !rec.enabled() {
        // Off path: no worker sheets, no per-link recorders, no clock reads.
        return pool_try_map(
            cfg.threads,
            targets,
            || (init(), ProbeCtx::default()),
            |(s, ctx), i, t| {
                let (series, screened) = measure_link_with(net, ctx, vp, t, cfg, store, &NoopRecorder);
                consume(s, i, t, series, screened)
            },
            &NoopRecorder,
            "campaign",
            key_of,
        );
    }
    let active = AtomicUsize::new(0);
    let out = pool_try_map(
        cfg.threads,
        targets,
        || (init(), ProbeCtx::default(), DrainSheet::new(rec)),
        |(s, ctx, ds), i, t| {
            let (series, screened) = measure_link_with(net, ctx, vp, t, cfg, store, &ds.local);
            let alive = active.fetch_add(1, Ordering::Relaxed) + 1;
            ds.local.gauge("campaign_active_windows", alive as f64);
            let r = consume(s, i, t, series, screened);
            active.fetch_sub(1, Ordering::Relaxed);
            r
        },
        rec,
        "campaign",
        key_of,
    );
    if let Some(mb) = ixp_obs::peak_rss_mb() {
        rec.gauge("campaign_peak_rss_mb", mb);
    }
    out
}

/// [`stream_vp_links_rec`] without telemetry.
pub fn stream_vp_links<T, S>(
    net: &Network,
    vp: NodeId,
    targets: &[TslpTarget],
    cfg: &CampaignConfig,
    store: Option<&CheckpointStore>,
    init: impl Fn() -> S + Sync,
    consume: impl Fn(&mut S, usize, &TslpTarget, LinkSeries, bool) -> T + Sync,
) -> Vec<Result<T, WorkerFailure>>
where
    T: Send,
{
    stream_vp_links_rec(net, vp, targets, cfg, store, &NoopRecorder, init, consume)
}

/// Resolve a `threads` knob: 0 = one worker per available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// One pool item whose worker panicked instead of returning a result.
///
/// A poisoned link (a substrate bug, a pathological series, an assertion
/// deep in the detector) quarantines as a `WorkerFailure` instead of
/// killing a multi-hour campaign: the panic payload is captured, the
/// worker's per-item state is discarded (it may be mid-mutation), and the
/// worker continues with the remaining items on a fresh state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Pool worker that hit the panic. Which worker claims which item is a
    /// scheduling accident, so this field is diagnostic only — telemetry
    /// snapshots strip it from their deterministic form.
    pub worker: usize,
    /// Human-readable key of the failed item (for campaign pools, the
    /// near-far link label), so a quarantine in a multi-hour run can be
    /// traced to its link without re-deriving the target list.
    pub key: String,
    /// The panic payload, rendered as text.
    pub message: String,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// Fan `items` out over a work-stealing pool of `threads` workers, each
/// holding private per-worker state built by `init` (a detector scratch, a
/// probe context — anything that should be reused across items but never
/// shared). Results come back in item order and are identical to the
/// sequential run at any thread count, provided `f` is a pure function of
/// `(state, index, item)` where `state` carries no cross-item information —
/// the contract every caller in this workspace upholds.
///
/// A panic in `f` does not abort the run: the item comes back as
/// `Err(`[`WorkerFailure`]`)`, the possibly-poisoned state is dropped, and
/// the worker rebuilds state via `init` before its next item. Because each
/// item is independent, quarantining one item cannot change any other
/// item's result — the any-thread-count determinism guarantee holds for
/// the `Ok` entries. Callers that treat a panic as fatal unwrap the result.
///
/// Telemetry: each worker reports to `rec` how many items it processed and
/// how long it stayed busy (`rec.worker`, under the `pool` name), panics
/// bump the `pool_panics` counter, and a [`WorkerFailure`] carries the
/// worker id and the item's `key_of` label. `key_of` is only evaluated on a
/// panic — the happy path never pays for it — and with a disabled recorder
/// the timing clock is never read.
///
/// `threads = 1` (or a single item) runs inline on the calling thread with
/// one state, no pool.
///
/// Lanes: a pool of several workers installs one [`Lanes`] value on each
/// of them. A worker whose claim loop finds no items left gives its lane
/// back, so the items still running can lend it to helper threads (window
/// segmentation, speculative loss campaigns; see [`ixp_chgpt::lanes`]).
/// Requested threads beyond the item count start out spare. The inline
/// path installs nothing.
pub fn pool_try_map<T, R, S, Rec>(
    threads: usize,
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
    rec: &Rec,
    pool: &str,
    key_of: impl Fn(usize, &T) -> String + Sync,
) -> Vec<Result<R, WorkerFailure>>
where
    T: Sync,
    R: Send,
    Rec: Recorder + Sync,
{
    pool_with_lanes(threads, Lanes::new, items, init, f, rec, pool, key_of)
}

/// [`pool_try_map`] with the pool's lanes built by `new_lanes(spare)`.
#[allow(clippy::too_many_arguments)]
fn pool_with_lanes<T, R, S, Rec>(
    threads: usize,
    new_lanes: fn(usize) -> Arc<Lanes>,
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
    rec: &Rec,
    pool: &str,
    key_of: impl Fn(usize, &T) -> String + Sync,
) -> Vec<Result<R, WorkerFailure>>
where
    T: Sync,
    R: Send,
    Rec: Recorder + Sync,
{
    // `state` is `None` right after a panic: the old state may be mid-
    // mutation and must not leak into later items.
    let run_one = |state: &mut Option<S>, w: usize, i: usize, item: &T| {
        let mut s = state.take().unwrap_or_else(&init);
        match catch_unwind(AssertUnwindSafe(|| f(&mut s, i, item))) {
            Ok(r) => {
                *state = Some(s);
                Ok(r)
            }
            Err(payload) => {
                rec.add("pool_panics", 1);
                Err(WorkerFailure {
                    index: i,
                    worker: w,
                    key: key_of(i, item),
                    message: panic_message(payload),
                })
            }
        }
    };
    // Per-worker wall clock, read only when telemetry is on — the off path
    // must not touch `Instant` at all.
    let clock = |on: bool| if on { Some(Instant::now()) } else { None };
    let lanes = resolve_threads(threads);
    let threads = lanes.min(items.len().max(1));
    if threads <= 1 {
        let t0 = clock(rec.enabled());
        let mut state = None;
        let out: Vec<_> =
            items.iter().enumerate().map(|(i, t)| run_one(&mut state, 0, i, t)).collect();
        if let Some(t0) = t0 {
            rec.worker(pool, 0, items.len() as u64, t0.elapsed().as_nanos() as u64);
        }
        return out;
    }
    // Work-stealing by atomic claim counter: workers grab the next unclaimed
    // item index and write its result into that index's slot, so output
    // order is item order no matter which worker finishes when.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, WorkerFailure>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let lanes = new_lanes(lanes - threads);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (run_one, slots, next, rec, clock, lanes) = (&run_one, &slots, &next, &rec, &clock, &lanes);
            scope.spawn(move || {
                let _installed = lanes.install();
                let t0 = clock(rec.enabled());
                let mut state = None;
                let mut done = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = run_one(&mut state, w, i, item);
                    *slots[i].lock().expect("slot lock poisoned") = Some(r);
                    done += 1;
                }
                // No items left: the links still running may borrow this lane.
                lanes.release();
                if let Some(t0) = t0 {
                    rec.worker(pool, w, done, t0.elapsed().as_nanos() as u64);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock poisoned").expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{assess_link, AssessConfig};
    use crate::health::HealthReport;
    use ixp_chgpt::DetectorScratch;
    use ixp_prober::testutil::{congested_line, line_topology};
    use ixp_simnet::prelude::Ipv4;

    /// Every target's series, through the streaming campaign with the
    /// identity consumer.
    fn measure_all(
        net: &Network,
        vp: NodeId,
        targets: &[TslpTarget],
        cfg: &CampaignConfig,
        store: Option<&CheckpointStore>,
    ) -> Vec<(LinkSeries, bool)> {
        stream_vp_links(net, vp, targets, cfg, store, || (), |_, _, _, s, sc| (s, sc))
            .into_iter()
            .map(|r| r.expect("no quarantines"))
            .collect()
    }

    fn assess(series: &LinkSeries) -> crate::detect::Assessment {
        assess_link(series, &AssessConfig::default(), &HealthReport::clean(), &mut DetectorScratch::new())
    }

    fn target() -> TslpTarget {
        TslpTarget {
            dst: Ipv4::new(10, 0, 2, 2),
            near_ttl: 1,
            far_ttl: 2,
            near_addr: Ipv4::new(10, 0, 0, 1),
            far_addr: Ipv4::new(10, 0, 1, 2),
        }
    }

    #[test]
    fn healthy_link_is_screened_out() {
        let (net, vp, _) = line_topology(50);
        let cfg = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 8));
        let (series, screened) = measure_link(&net, vp, &target(), &cfg);
        assert!(screened, "clean line should not need the full campaign");
        assert_eq!(series.cfg.interval, SimDuration::from_hours(1));
        assert!(!assess(&series).flagged);
    }

    /// Overload only between 10:00 and 16:00 — a diurnal congestion pulse.
    struct MiddayPulse;
    impl ixp_simnet::link::OfferedLoad for MiddayPulse {
        fn bps(&self, t: SimTime) -> f64 {
            if (10.0..16.0).contains(&t.hour_of_day()) {
                1.3e8
            } else {
                2e7
            }
        }
        fn peak_bps(&self) -> f64 {
            1.3e8
        }
    }

    #[test]
    fn congested_link_gets_full_fidelity() {
        let (mut net, vp, _) = congested_line(51, 1.3);
        // Replace the constant overload with a midday pulse: constant
        // saturation produces no level *shifts* (nothing for TSLP to see),
        // a diurnal pulse does.
        net.link_mut(ixp_simnet::prelude::LinkId(1))
            .set_load(ixp_simnet::prelude::Dir::AtoB, std::sync::Arc::new(MiddayPulse));
        let cfg = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 15));
        let (series, screened) = measure_link(&net, vp, &target(), &cfg);
        assert!(!screened, "a midday pulse must pass the excursion screen");
        assert_eq!(series.cfg.interval, SimDuration::from_mins(5));
        let a = assess(&series);
        assert!(a.flagged);
        assert!(a.diurnal);
        assert!(a.congested);
    }

    #[test]
    fn exact_mode_never_screens() {
        let (net, vp, _) = line_topology(52);
        let cfg = CampaignConfig::exact(SimTime::ZERO, SimTime::from_date(2016, 1, 3));
        let (series, screened) = measure_link(&net, vp, &target(), &cfg);
        assert!(!screened);
        assert_eq!(series.len(), 2 * 288);
    }

    #[test]
    fn pool_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1usize, 2, 3, 8] {
            // Per-worker state: a reused buffer, as a stand-in for a scratch.
            let got: Vec<u64> = pool_try_map(
                threads,
                &items,
                Vec::<u64>::new,
                |buf, i, &x| {
                    buf.push(x);
                    assert_eq!(items[i], x);
                    x * x
                },
                &NoopRecorder,
                "pool",
                |i, _| i.to_string(),
            )
            .into_iter()
            .map(Result::unwrap)
            .collect();
            assert_eq!(got, want, "threads={threads}");
        }
        // Empty input is fine.
        let empty = pool_try_map(4, &[] as &[u64], || (), |_, _, &x| x, &NoopRecorder, "pool", |i, _| i.to_string());
        assert!(empty.is_empty());
    }

    /// Deterministic diurnal-ish series of `days` days for the lanes tests.
    fn lanes_series(days: usize, seed: u64) -> Vec<f64> {
        (0..days * 288)
            .map(|i| {
                let lift = if (200..260).contains(&(i % 288)) && (i / 288) % 7 < 5 { 12.0 } else { 0.0 };
                let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                3.0 + lift + ((h >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    /// Counted with a metered pool: every segmentation window, and each
    /// item's own work, is a section, and no more than `threads` sections
    /// run at once while finished workers' lanes go to the long items'
    /// windows. The output is the serial detector's, and every lane comes
    /// back.
    #[test]
    fn pool_workers_and_helpers_never_exceed_threads() {
        let cfg = ixp_chgpt::DetectorConfig::default();
        let items: Vec<Vec<f64>> =
            [60, 1, 2, 45, 1, 1, 3, 1].iter().enumerate().map(|(k, &d)| lanes_series(d, k as u64)).collect();
        let seen = std::sync::OnceLock::new();
        let got = pool_with_lanes(
            3,
            Lanes::metered,
            &items,
            DetectorScratch::new,
            |scratch, _, series| {
                let lanes = ixp_chgpt::lanes::current().expect("pool workers hold lanes");
                seen.get_or_init(|| Arc::clone(&lanes));
                lanes.section(|| std::hint::black_box(series.iter().sum::<f64>()));
                scratch.detect_change_points(series, &cfg).to_vec()
            },
            &NoopRecorder,
            "lanes",
            |i, _| i.to_string(),
        );
        for (r, series) in got.into_iter().zip(&items) {
            assert_eq!(r.unwrap(), ixp_chgpt::detect_change_points(series, &cfg));
        }
        let lanes: &Arc<Lanes> = seen.get().expect("an item ran");
        assert!((1..=3).contains(&lanes.peak_busy()), "peak {}", lanes.peak_busy());
        assert_eq!(lanes.spare(), 3);
    }

    /// A speculative side computation that panics quarantines its item
    /// only when the item uses the result, exactly as if the item had run
    /// it itself; the lanes all come back either way. Four requested
    /// threads over two items leave two lanes spare from the start, so the
    /// speculation runs on a helper.
    #[test]
    fn a_panicking_speculation_fails_only_the_item_that_uses_it() {
        use ixp_chgpt::lanes::speculate;
        let seen = std::sync::OnceLock::new();
        let got = pool_try_map(
            4,
            &[false, true],
            || (),
            |_, _, &uses| {
                seen.get_or_init(|| ixp_chgpt::lanes::current().expect("pool workers hold lanes"));
                speculate(true, || -> u32 { panic!("loss probe failed") }, |take| if uses { take() } else { 7 })
            },
            &NoopRecorder,
            "speculate",
            |i, _| i.to_string(),
        );
        assert_eq!(got[0], Ok(7));
        let e = got[1].as_ref().expect_err("the item that takes the result fails");
        assert!(e.message.contains("loss probe failed"), "{}", e.message);
        let lanes = seen.get().expect("an item ran");
        assert_eq!(lanes.lent(), 2, "both speculations ran on a helper");
        assert_eq!(lanes.spare(), 4);
    }

    #[test]
    fn streaming_counts_screening() {
        let (net, vp, _) = line_topology(53);
        let cfg = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 5));
        let targets = vec![target(); 3];
        let out = measure_all(&net, vp, &targets, &cfg, None);
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().filter(|(_, sc)| *sc).count(), 3);
    }

    #[test]
    fn poisoned_item_quarantines_not_aborts() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1usize, 3] {
            let got = pool_try_map(
                threads,
                &items,
                || 0u64,
                |acc, _, &x| {
                    assert!(x % 13 != 7, "poisoned item {x}");
                    *acc += 1; // per-worker state keeps working after a panic
                    x * 2
                },
                &NoopRecorder,
                "pool",
                |i, _| i.to_string(),
            );
            assert_eq!(got.len(), items.len());
            for (i, r) in got.iter().enumerate() {
                if i % 13 == 7 {
                    let e = r.as_ref().expect_err("poisoned item must fail");
                    assert_eq!(e.index, i);
                    assert!(e.message.contains("poisoned item"), "{}", e.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 2, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn worker_failures_carry_worker_and_key() {
        let items: Vec<u64> = (0..12).collect();
        for threads in [1usize, 3] {
            let got = pool_try_map(
                threads,
                &items,
                || (),
                |_, _, &x| {
                    assert!(x != 5, "boom");
                    x
                },
                &NoopRecorder,
                "pool",
                |_, x| format!("item-{x}"),
            );
            let e = got[5].as_ref().expect_err("item 5 must fail");
            assert_eq!(e.index, 5);
            assert!(e.worker < threads, "worker {} of {}", e.worker, threads);
            assert_eq!(e.key, "item-5");
        }
    }

    #[test]
    fn pool_telemetry_counts_workers_and_panics() {
        use ixp_obs::MetricsRegistry;
        let items: Vec<u64> = (0..30).collect();
        let reg = MetricsRegistry::new();
        let got = pool_try_map(
            3,
            &items,
            || (),
            |_, _, &x| {
                assert!(x != 11 && x != 22, "boom");
                x
            },
            &reg,
            "sq",
            |i, _| i.to_string(),
        );
        assert_eq!(got.iter().filter(|r| r.is_err()).count(), 2);
        let sheet = reg.snapshot();
        assert_eq!(sheet.counter("pool_panics"), 2);
        let items_done: u64 = sheet
            .workers
            .iter()
            .filter(|(k, _)| k.starts_with("sq/"))
            .map(|(_, w)| w.items)
            .sum();
        assert_eq!(items_done, 30, "every item attributed to some worker");
    }

    #[test]
    fn campaign_telemetry_is_thread_count_invariant() {
        use ixp_obs::MetricsRegistry;
        let (net, vp, _) = line_topology(55);
        let cfg1 = CampaignConfig {
            threads: 1,
            ..CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 5))
        };
        let cfg3 = CampaignConfig { threads: 3, ..cfg1 };
        let targets = vec![target(); 4];

        let run = |cfg: &CampaignConfig| {
            let reg = MetricsRegistry::new();
            let out: Vec<_> = stream_vp_links_rec(&net, vp, &targets, cfg, None, &reg, || (), |_, _, _, s, sc| (s, sc))
                .into_iter()
                .map(Result::unwrap)
                .collect();
            (out, reg.snapshot())
        };
        let (out1, s1) = run(&cfg1);
        let (out3, s3) = run(&cfg3);
        // NaN-proof bitwise comparison of the measured series.
        let bits = |out: &[(LinkSeries, bool)]| {
            out.iter()
                .map(|(s, sc)| {
                    let far: Vec<u64> = s.far_ms.iter().map(|v| v.to_bits()).collect();
                    let near: Vec<u64> = s.near_ms.iter().map(|v| v.to_bits()).collect();
                    (near, far, *sc)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&out1), bits(&out3), "series identical at any thread count");
        // Everything except the scheduling-dependent worker rows must agree.
        assert_eq!(s1.counters, s3.counters);
        assert_eq!(s1.ledgers, s3.ledgers);
        assert_eq!(s1.histograms, s3.histograms);
        assert!(s1.counter("probes_sent") > 0);
        assert_eq!(s1.counter("links_screened"), 4);
        // And the recorded run returns exactly what the plain run returns.
        let plain = measure_all(&net, vp, &targets, &cfg1, None);
        assert_eq!(bits(&out1), bits(&plain), "telemetry only observes");
    }

    #[test]
    fn streaming_matches_per_link_measurement_at_any_thread_count() {
        let (net, vp, _) = line_topology(56);
        let targets = vec![target(); 5];
        let base = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 5));
        let bits = |s: &LinkSeries| {
            s.far_ms.iter().chain(&s.near_ms).map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let one_by_one: Vec<_> = targets
            .iter()
            .map(|t| {
                let (s, sc) = measure_link(&net, vp, t, &base);
                (bits(&s), sc)
            })
            .collect();
        for threads in [1usize, 3] {
            let cfg = CampaignConfig { threads, ..base };
            // Consume inside the pool pass: the series is dropped right here.
            let streamed = stream_vp_links(&net, vp, &targets, &cfg, None, || (), |_, _, _, s, sc| {
                (bits(&s), sc)
            });
            let streamed: Vec<_> = streamed.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(streamed, one_by_one, "threads={threads}");
        }
    }

    #[test]
    fn streaming_quarantine_reobtains_series_from_checkpoint() {
        let dir = std::env::temp_dir()
            .join(format!("tslp-stream-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (net, vp, _) = line_topology(57);
        let cfg = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 5));
        let targets = vec![target(); 3];
        let store = CheckpointStore::new(&dir, campaign_fingerprint(&cfg)).unwrap();
        let out = stream_vp_links(&net, vp, &targets, &cfg, Some(&store), || (), |_, i, _, s, _| {
            assert!(i != 1, "poisoned consumer");
            s.len()
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        let failure = out[1].as_ref().expect_err("item 1 quarantined");
        assert!(failure.message.contains("poisoned consumer"));
        // The dropped series replays from the shard the worker wrote before
        // its consumer panicked — same length as its successful twin.
        let (replayed, _) =
            measure_link_with(&net, &mut ProbeCtx::default(), vp, &targets[1], &cfg, Some(&store), &NoopRecorder);
        assert_eq!(replayed.len(), *out[0].as_ref().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_records_memory_gauges() {
        use ixp_obs::MetricsRegistry;
        let (net, vp, _) = line_topology(58);
        let cfg = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 5));
        let targets = vec![target(); 4];
        let reg = MetricsRegistry::new();
        let out = stream_vp_links_rec(&net, vp, &targets, &cfg, None, &reg, || (), |_, _, _, s, _| s.len());
        assert!(out.iter().all(|r| r.is_ok()));
        let sheet = reg.snapshot();
        let active = sheet.gauges.get("campaign_active_windows").copied().unwrap_or(0.0);
        assert!(active >= 1.0, "active-window high-water mark {active}");
        if ixp_obs::peak_rss_mb().is_some() {
            assert!(sheet.gauges["campaign_peak_rss_mb"] > 0.0);
        }
    }

    #[test]
    fn checkpointed_measurement_resumes_bit_identical() {
        let dir = std::env::temp_dir()
            .join(format!("tslp-campaign-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (net, vp, _) = line_topology(54);
        let cfg = CampaignConfig::paper(SimTime::ZERO, SimTime::from_date(2016, 1, 8));
        let targets = vec![target(); 2];
        let plain = measure_all(&net, vp, &targets, &cfg, None);

        let store = CheckpointStore::new(&dir, campaign_fingerprint(&cfg)).unwrap();
        // First pass measures and persists; both targets share one key (the
        // same walk), so one checkpoint covers them.
        let first = measure_all(&net, vp, &targets, &cfg, Some(&store));
        assert!(!store.is_empty());
        // Second pass replays from disk: must match the uncheckpointed run
        // bit for bit.
        let resumed = measure_all(&net, vp, &targets, &cfg, Some(&store));
        for ((p, f), r) in plain.iter().zip(&first).zip(&resumed) {
            for out in [f, r] {
                assert_eq!(out.1, p.1);
                assert_eq!(
                    out.0.far_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    p.0.far_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                );
                assert_eq!(
                    out.0.near_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    p.0.near_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                );
            }
        }
        // A changed config gets a different fingerprint and ignores the old
        // checkpoints.
        let cfg2 = CampaignConfig::exact(SimTime::ZERO, SimTime::from_date(2016, 1, 8));
        assert_ne!(campaign_fingerprint(&cfg), campaign_fingerprint(&cfg2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Series checkpoints are bound to this fingerprint: a value moving
    /// here means every stored campaign checkpoint stops replaying, so no
    /// refactor of the config may move it.
    #[test]
    fn campaign_fingerprint_is_pinned() {
        let (start, end) = (SimTime::from_date(2016, 3, 1), SimTime::from_date(2016, 4, 1));
        assert_eq!(campaign_fingerprint(&CampaignConfig::paper(start, end)), 11_729_450_269_725_295_100);
        assert_eq!(campaign_fingerprint(&CampaignConfig::exact(start, end)), 9_650_140_965_040_494_285);
    }
}
