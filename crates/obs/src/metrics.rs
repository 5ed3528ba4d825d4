//! Named counters, gauges, and log-bucketed histograms, as mergeable sheets.
//!
//! The design is merge-at-drain: a pool worker never touches shared state
//! per sample. It owns a plain [`MetricSheet`] (or the per-link
//! [`crate::LinkRecorder`], which is even cheaper) and folds it into the
//! shared [`MetricsRegistry`] once, when the worker retires. Every merge
//! operation is commutative and associative over integers, so the folded
//! totals are independent of drain order and worker count.

use crate::ledger::ProbeLedger;
use crate::Recorder;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Smallest finite bucket boundary exponent: the first finite bucket covers
/// `[2^MIN_EXP, 2^(MIN_EXP+1))`. 2⁻¹⁰ ms ≈ 1 µs — below any simulated RTT.
const MIN_EXP: i32 = -10;
/// One past the largest finite bucket: values ≥ `2^MAX_EXP` ms (≈ 17.5 min)
/// land in the overflow bucket.
const MAX_EXP: i32 = 20;
/// Total buckets: underflow + one per exponent + overflow.
pub(crate) const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize + 2;

/// A log₂-bucketed histogram of non-negative samples (milliseconds by
/// convention). Bucket 0 is the underflow bucket (`v < 2^MIN_EXP`, including
/// zero), bucket `i` (1 ≤ i ≤ 30) covers `[2^(MIN_EXP+i-1), 2^(MIN_EXP+i))`,
/// and the last bucket is overflow. The sum is kept in saturating
/// fixed-point micro-units so that merging is exactly associative and
/// commutative — `f64` addition is not — which the property tests pin down.
/// NaN samples are dropped (they carry no magnitude to bucket).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket sample counts (`BUCKETS` entries).
    pub counts: Vec<u64>,
    /// Total recorded samples.
    pub count: u64,
    /// Saturating sum of samples in micro-units (`round(v × 1000)`).
    pub sum_micros: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], count: 0, sum_micros: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Bucket index for a sample. Exponent extraction reads the IEEE-754
    /// bits directly — no libm, so bucketing is identical on every platform.
    #[inline]
    pub fn bucket_of(v: f64) -> Option<usize> {
        if v.is_nan() {
            return None;
        }
        if v < min_bound() {
            return Some(0);
        }
        if v >= max_bound() {
            return Some(BUCKETS - 1);
        }
        // v is normal and within [2^MIN_EXP, 2^MAX_EXP): the biased IEEE
        // exponent is exactly floor(log2 v) + 1023.
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        Some((exp - MIN_EXP + 1) as usize)
    }

    /// Upper bound (exclusive) of bucket `i`; `f64::INFINITY` for overflow.
    pub fn upper_bound(i: usize) -> f64 {
        if i + 1 >= BUCKETS {
            f64::INFINITY
        } else {
            exp2(MIN_EXP + i as i32)
        }
    }

    /// All finite bucket boundaries, in order (the Prometheus `le` labels
    /// minus the implicit `+Inf`).
    pub fn boundaries() -> Vec<f64> {
        (0..BUCKETS - 1).map(Histogram::upper_bound).collect()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let Some(b) = Histogram::bucket_of(v) else { return };
        self.counts[b] += 1;
        self.count += 1;
        // Half-up rounding spelled as floor(x + 0.5): unlike `f64::round`
        // this stays branch-free inline code on every target (no libm
        // fallback), and the hot path runs once per answered probe.
        self.sum_micros = self.sum_micros.saturating_add((v.max(0.0) * 1000.0 + 0.5) as u64);
    }

    /// Fold another histogram in. Commutative and associative exactly.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
    }

    /// Sum of samples in the recording unit (milliseconds by convention).
    pub fn sum(&self) -> f64 {
        self.sum_micros as f64 / 1000.0
    }

    /// Mean sample, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }
}

fn exp2(e: i32) -> f64 {
    // Exact for the exponent range used here (|e| ≤ 20 < 1023).
    f64::from_bits(((1023 + e) as u64) << 52)
}

fn min_bound() -> f64 {
    exp2(MIN_EXP)
}

fn max_bound() -> f64 {
    exp2(MAX_EXP)
}

/// Accumulated timing of one pipeline stage. `wall_ns` is a wall-clock field
/// (volatile run to run); `sim_us` and `calls` are deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Wall time spent in the stage, nanoseconds (volatile).
    pub wall_ns: u64,
    /// Simulated time the stage covered, microseconds.
    pub sim_us: u64,
    /// Number of span closures folded in.
    pub calls: u64,
}

/// One pool worker's lifetime stats. Entirely volatile: the work-stealing
/// pool hands items to whichever worker claims them first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStat {
    /// Items the worker processed.
    pub items: u64,
    /// Wall time the worker spent inside item closures, nanoseconds.
    pub busy_ns: u64,
}

/// A plain, mergeable sheet of everything a recorder can absorb. `BTreeMap`
/// keys keep iteration — and therefore every export — deterministically
/// ordered.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSheet {
    /// Monotonic counters. Merge: sum.
    pub counters: BTreeMap<String, u64>,
    /// Gauges. Merge: max (order-independent; NaN never stored).
    pub gauges: BTreeMap<String, f64>,
    /// Log-bucketed histograms. Merge: bucket-wise sum.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-link probe ledgers, keyed by the link label. Merge: field-wise.
    pub ledgers: BTreeMap<String, ProbeLedger>,
    /// Hierarchical stage profile, keyed by slash path. Merge: field-wise sum.
    pub stages: BTreeMap<String, StageTiming>,
    /// Per-pool-worker stats, keyed by `pool/worker<N>`. Merge: sum.
    pub workers: BTreeMap<String, WorkerStat>,
}

impl MetricSheet {
    /// An empty sheet.
    pub fn new() -> MetricSheet {
        MetricSheet::default()
    }

    /// Bump a counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Set a gauge (max-merged later; NaN is ignored).
    pub fn gauge(&mut self, name: &str, v: f64) {
        if !v.is_nan() {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_string()).or_default().record(v);
    }

    /// Fold a pre-aggregated histogram in.
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        self.histograms.entry(name.to_string()).or_default().merge(h);
    }

    /// Fold a per-link ledger in.
    fn merge_ledger(&mut self, key: &str, l: &ProbeLedger) {
        self.ledgers.entry(key.to_string()).or_default().merge(l);
    }

    /// Fold one stage timing in.
    pub fn stage(&mut self, path: &str, wall_ns: u64, sim_us: u64) {
        let t = self.stages.entry(path.to_string()).or_default();
        t.wall_ns += wall_ns;
        t.sim_us += sim_us;
        t.calls += 1;
    }

    /// Fold one worker stat in.
    pub fn worker(&mut self, pool: &str, worker: usize, items: u64, busy_ns: u64) {
        let s = self.workers.entry(format!("{pool}/worker{worker}")).or_default();
        s.items += items;
        s.busy_ns += busy_ns;
    }

    /// Fold a whole sheet in. Commutative/associative per field class
    /// (counters sum, gauges max, histograms/ledgers/stages field-wise).
    pub fn merge(&mut self, other: &MetricSheet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *g = g.max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, l) in &other.ledgers {
            self.ledgers.entry(k.clone()).or_default().merge(l);
        }
        for (k, t) in &other.stages {
            let s = self.stages.entry(k.clone()).or_default();
            s.wall_ns += t.wall_ns;
            s.sim_us += t.sim_us;
            s.calls += t.calls;
        }
        for (k, w) in &other.workers {
            let s = self.workers.entry(k.clone()).or_default();
            s.items += w.items;
            s.busy_ns += w.busy_ns;
        }
    }

    /// Counter value, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A compact one-line summary (the `online_monitor` progress line).
    pub fn one_line(&self) -> String {
        let mut parts: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        for (k, g) in &self.gauges {
            parts.push(format!("{k}={g:.1}"));
        }
        parts.join(" ")
    }
}

/// A worker-local recorder: a [`MetricSheet`] behind a `RefCell`. Not `Sync`
/// by design — it belongs to exactly one worker, records without locking,
/// and is folded into the shared registry at drain.
#[derive(Debug, Default)]
pub struct SheetRecorder {
    sheet: RefCell<MetricSheet>,
}

impl SheetRecorder {
    /// An empty local sheet.
    pub fn new() -> SheetRecorder {
        SheetRecorder::default()
    }

    /// Take the accumulated sheet out.
    pub fn into_sheet(self) -> MetricSheet {
        self.sheet.into_inner()
    }

    /// Take the accumulated sheet out through a shared reference, leaving an
    /// empty sheet behind (the drop-time drain hook).
    pub fn take_sheet(&self) -> MetricSheet {
        std::mem::take(&mut *self.sheet.borrow_mut())
    }
}

impl Recorder for SheetRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, name: &str, delta: u64) {
        self.sheet.borrow_mut().add(name, delta);
    }
    fn gauge(&self, name: &str, v: f64) {
        self.sheet.borrow_mut().gauge(name, v);
    }
    fn observe(&self, name: &str, v: f64) {
        self.sheet.borrow_mut().observe(name, v);
    }
    fn merge_hist(&self, name: &str, h: &Histogram) {
        self.sheet.borrow_mut().merge_hist(name, h);
    }
    fn ledger(&self, key: crate::LinkKey, l: &ProbeLedger) {
        self.sheet.borrow_mut().merge_ledger(&key.label(), l);
    }
    fn link_event(&self, key: crate::LinkKey, ev: crate::LinkEvent) {
        let mut s = self.sheet.borrow_mut();
        let led = s.ledgers.entry(key.label()).or_default();
        led.apply_event(&ev);
    }
    fn stage(&self, path: &str, wall_ns: u64, sim_us: u64) {
        self.sheet.borrow_mut().stage(path, wall_ns, sim_us);
    }
    fn worker(&self, pool: &str, worker: usize, items: u64, busy_ns: u64) {
        self.sheet.borrow_mut().worker(pool, worker, items, busy_ns);
    }
    fn fold(&self, sheet: &MetricSheet) {
        self.sheet.borrow_mut().merge(sheet);
    }
}

/// The shared sink: a [`MetricSheet`] behind a `parking_lot::Mutex`. Used
/// directly as a [`Recorder`] by sequential/coarse-grained call sites (one
/// lock per link or per stage, never per probe) and as the drain target for
/// worker-local sheets.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricSheet>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Fold a finished worker sheet in (the drain step).
    pub fn drain(&self, sheet: &MetricSheet) {
        self.inner.lock().merge(sheet);
    }

    /// Clone the current contents.
    pub fn snapshot(&self) -> MetricSheet {
        self.inner.lock().clone()
    }
}

impl Recorder for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, name: &str, delta: u64) {
        self.inner.lock().add(name, delta);
    }
    fn gauge(&self, name: &str, v: f64) {
        self.inner.lock().gauge(name, v);
    }
    fn observe(&self, name: &str, v: f64) {
        self.inner.lock().observe(name, v);
    }
    fn merge_hist(&self, name: &str, h: &Histogram) {
        self.inner.lock().merge_hist(name, h);
    }
    fn ledger(&self, key: crate::LinkKey, l: &ProbeLedger) {
        self.inner.lock().merge_ledger(&key.label(), l);
    }
    fn link_event(&self, key: crate::LinkKey, ev: crate::LinkEvent) {
        let mut s = self.inner.lock();
        s.ledgers.entry(key.label()).or_default().apply_event(&ev);
    }
    fn stage(&self, path: &str, wall_ns: u64, sim_us: u64) {
        self.inner.lock().stage(path, wall_ns, sim_us);
    }
    fn worker(&self, pool: &str, worker: usize, items: u64, busy_ns: u64) {
        self.inner.lock().worker(pool, worker, items, busy_ns);
    }
    fn fold(&self, sheet: &MetricSheet) {
        self.drain(sheet);
    }
}

/// A wall-clock event-rate meter for live gauges (ingest samples/s,
/// verdict-index read QPS). `mark` is one relaxed atomic add — safe to call
/// from any thread at full ingest rate; `take_rate` closes the current
/// window and starts the next, so periodic gauge publication sees the rate
/// over the interval since the last publication. Rates are wall-clock and
/// therefore volatile run to run; they are for live dashboards, never for
/// deterministic output.
#[derive(Debug)]
pub struct RateMeter {
    total: std::sync::atomic::AtomicU64,
    window: Mutex<(std::time::Instant, u64)>,
}

impl Default for RateMeter {
    fn default() -> Self {
        RateMeter::new()
    }
}

impl RateMeter {
    /// A meter whose first window starts now.
    pub fn new() -> RateMeter {
        RateMeter {
            total: std::sync::atomic::AtomicU64::new(0),
            window: Mutex::new((std::time::Instant::now(), 0)),
        }
    }

    /// Count `n` events (relaxed; aggregate only).
    #[inline]
    pub fn mark(&self, n: u64) {
        self.total.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Events counted since construction.
    pub fn total(&self) -> u64 {
        self.total.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Events/second over the current window, without closing it.
    pub fn rate(&self) -> f64 {
        let (start, base) = *self.window.lock();
        let dt = start.elapsed().as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        (self.total().saturating_sub(base)) as f64 / dt
    }

    /// Events/second over the current window, then start a new window.
    pub fn take_rate(&self) -> f64 {
        let mut w = self.window.lock();
        let dt = w.0.elapsed().as_secs_f64();
        let now_total = self.total();
        let r = if dt <= 0.0 { 0.0 } else { (now_total.saturating_sub(w.1)) as f64 / dt };
        *w = (std::time::Instant::now(), now_total);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0.0), Some(0));
        assert_eq!(Histogram::bucket_of(-3.0), Some(0));
        assert_eq!(Histogram::bucket_of(f64::NAN), None);
        assert_eq!(Histogram::bucket_of(f64::INFINITY), Some(BUCKETS - 1));
        // 1.0 ms sits in the bucket whose bounds are [1, 2).
        let b = Histogram::bucket_of(1.0).unwrap();
        assert_eq!(Histogram::upper_bound(b), 2.0);
        assert_eq!(Histogram::upper_bound(b - 1), 1.0);
        // Exactly on a boundary goes to the upper bucket.
        assert_eq!(Histogram::bucket_of(2.0), Some(b + 1));
        assert_eq!(Histogram::bucket_of(1.999_999), Some(b));
        // Giant values overflow.
        assert_eq!(Histogram::bucket_of(1e9), Some(BUCKETS - 1));
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(0.5);
        a.record(3.0);
        b.record(3.5);
        b.record(f64::NAN); // dropped
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum_micros, 500 + 3000 + 3500);
        assert!((a.mean() - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sheet_merge_is_order_independent() {
        let mut a = MetricSheet::new();
        a.add("probes", 3);
        a.gauge("threads", 4.0);
        a.observe("rtt", 2.0);
        let mut b = MetricSheet::new();
        b.add("probes", 5);
        b.gauge("threads", 2.0);
        b.observe("rtt", 9.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("probes"), 8);
        assert_eq!(ab.gauges["threads"], 4.0);
        assert_eq!(ab.histograms["rtt"].count, 2);
    }

    #[test]
    fn rate_meter_counts_and_windows() {
        let m = RateMeter::new();
        assert_eq!(m.total(), 0);
        m.mark(5);
        m.mark(7);
        assert_eq!(m.total(), 12);
        assert!(m.rate() >= 0.0);
        let _ = m.take_rate();
        // New window: no events yet, rate near zero regardless of history.
        m.mark(3);
        assert_eq!(m.total(), 15);
    }

    #[test]
    fn registry_drains_local_sheets() {
        let reg = MetricsRegistry::new();
        let local = SheetRecorder::new();
        local.add("items", 2);
        local.stage("vp/campaign", 10, 20);
        reg.drain(&local.into_sheet());
        reg.add("items", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("items"), 3);
        assert_eq!(snap.stages["vp/campaign"].sim_us, 20);
        assert_eq!(snap.stages["vp/campaign"].calls, 1);
    }
}
