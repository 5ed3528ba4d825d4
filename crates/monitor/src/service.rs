//! The resident monitor service: shard layout, batched ingestion with
//! admission control, supervised recovery, live gauges, and
//! checkpoint/resume.
//!
//! ## Admission control and supervision
//!
//! [`MonitorService::ingest_sequenced`] is the service's one way in; every
//! sample carries its link's sequence number (a producer that probes in
//! order passes its round). Unknown ids and reserved sequences are
//! rejected, per-shard demand beyond
//! [`MonitorConfig::max_shard_batch`] is shed by a seeded hash at
//! single-threaded partition time (so shed decisions are bit-identical at
//! any thread count), and each link's sequence gate (the rules of
//! [`crate::LinkState::admit`], run over the link's own records) heals
//! small reorders, counts duplicates/stale replays, and abandons sequences
//! the window slid past — nothing disordered ever reaches the CUSUM state.
//! Worker panics are caught per shard: the shard restores from its last
//! good checkpoint (through the store attached via
//! [`MonitorService::set_store`]) and its items replay; a second panic
//! quarantines the shard until the next successful pass.
//! [`MonitorService::mode`] reports [`ServiceMode::Degraded`] while any of
//! this is recent — the other shards' verdicts keep flowing throughout.
//!
//! ## Shard layout and memory model
//!
//! Link states live in `shards` mutex-guarded slabs (link `id` → shard
//! `id % shards`, slot `id / shards`, the same striding as the verdict
//! index). A batch of samples is partitioned per shard in arrival order,
//! then each shard is processed independently — inline on the caller, or
//! by a work-claiming thread pool once the batch holds about 4k accepted
//! samples per worker — and its verdicts published to the index under one
//! write lock per shard per batch. Because the partition is stable and
//! shards share nothing, per-link sample order is preserved at any thread
//! count, and the resulting states are **bit-identical** whether one
//! thread or eight did the work.
//!
//! Publication writes only what moved. Every item of a pass rewrites its
//! slot's 32-byte hot record (`round`, `elevated`, `baseline_ms`,
//! `elevation_ms`), read straight from the link state; a catch-up pass
//! with more items than the shard has slots rewrites each slot once. The
//! cold record
//! (health, alarm and gap counters, evidence) is rewritten only for slots
//! the pass marked dirty: a delivered sample raised an upshift alarm,
//! returned a gap, or carried a new nonzero fingerprint, or the link's
//! health label differs from the one it last published (kept per slot).
//!
//! Steady-state memory is O(links), about 385 bytes per link, and nothing
//! retains an RTT series. Each slab keeps its links in two arrays: 64-byte
//! hot records, one cache line each, holding everything a quiet in-order
//! answered sample reads or writes (the gate's next sequence number and
//! parked count, the round counter, the last fingerprint, the detector's
//! baseline, upshift statistic and flags, the loss run and window
//! counters, the committed label), and 160-byte cold records holding what
//! only events touch (warm-up, elevated-period and gap state, alarm and
//! path-change evidence, the gate's counters and its 288-byte reorder
//! buffer, which exists only while samples are parked). The detector's
//! parameters are constants ([`ixp_chgpt::online`]), not copied per link. A
//! 1-byte published health label per link completes the slab; the index
//! holds a 32-byte hot and an 88-byte cold record; the reused batch
//! buffers — the service's per-shard partition lists and each slab's dirty
//! list — add 40 bytes per sample of the largest batch so far and 4 bytes
//! per dirty slot of the largest pass (one sample per link when each batch
//! is one round). Because the partition lists are shared, ingest calls
//! serialize; readers never wait for them.
//!
//! ## Checkpoint/resume
//!
//! [`MonitorService::checkpoint`] writes one fingerprint-bound blob per
//! shard through [`CheckpointStore::store_blob`]: 256 bytes per link (the
//! link state and the gate's counters) plus a trailer record per parked
//! sample. [`MonitorService::resume`] rebuilds every link state and
//! republishes verdicts. The fingerprint mixes the full monitor
//! configuration and link count, so a layout or config change makes old
//! blobs a miss (rebuild from scratch), never a corrupt resume. Continuing
//! the stream after resume is bit-identical to never having stopped, parked
//! samples included — tested at 1 and 3 ingest threads.

use crate::index::{LinkVerdict, VerdictIndex};
use crate::state::{
    GateCold, LinkCold, LinkHot, MonitorSample, MASK_SLACK_ROUNDS, MIN_GAP_ROUNDS, PARKED_LEN,
    WINDOW_ROUNDS,
};
use ixp_chgpt::online::{self, OnlineVerdict};
use ixp_obs::{FlightRecorder, NoopRecorder, RateMeter, Recorder, TraceEvent, TraceKind, NO_LINK};
use ixp_simnet::rng::mix;
use parking_lot::Mutex;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tslp_core::campaign::pool_try_map;
use tslp_core::{BlobStatus, CheckpointStore, HealthConfig, LinkHealth};

/// Full configuration of the resident monitor. Health thresholds are not
/// part of it: every link's windows are labelled by the batch ladder,
/// [`HealthConfig::label`] under [`HealthConfig::DEFAULT`], on the
/// 5-minute round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Number of state/index shards.
    pub shards: usize,
    /// Ingest worker threads (0 = all cores, 1 = sequential).
    pub threads: usize,
    /// Sequence reorder window for [`MonitorService::ingest_sequenced`]:
    /// samples up to this many sequence numbers ahead are buffered and
    /// healed into order (clamped to [`crate::state::REORDER_CAP`]).
    pub reorder_window: u64,
    /// Per-shard, per-batch admission bound (0 = unbounded): demand beyond
    /// it is shed deterministically before workers start.
    pub max_shard_batch: usize,
}

/// Seed for the deterministic load-shedding hash — shed decisions are a
/// pure function of (seed, link, seq, batch), never of thread timing.
const SHED_SEED: u64 = 0x5EED;

/// How many batches a shed/restart event keeps the service reporting
/// [`ServiceMode::Degraded`] after the pressure clears.
const DEGRADED_HOLD: u64 = 3;

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            shards: 16,
            threads: 1,
            reorder_window: 4,
            max_shard_batch: 0,
        }
    }
}

/// Coarse service health, driven by shard pressure and supervision events.
///
/// `Degraded` means at least one shard recently shed load, was restarted
/// after a panic, or is quarantined — the rest of the fleet keeps getting
/// fresh verdicts; only the affected shard's links may lag. The mode clears
/// itself three batches after the last event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceMode {
    /// Every shard admitted its full demand and no supervision fired.
    Healthy,
    /// Some shard shed load, restarted, or sits quarantined.
    Degraded,
}

/// What one [`MonitorService::ingest_sequenced`] batch did — the admission
/// and supervision accounting a collector uses to see its own data quality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Samples handed to shard workers (batch − rejected − shed).
    pub accepted: u64,
    /// Samples released into detectors (in-order + healed reorders).
    pub delivered: u64,
    /// Samples refused at the door: unknown link id or reserved sequence.
    pub rejected: u64,
    /// Samples shed by per-shard admission control before workers started.
    pub shed: u64,
    /// Duplicate sequence numbers detected by the per-link gates.
    pub duplicates: u64,
    /// Ancient sequence replays detected by the per-link gates.
    pub stale: u64,
    /// Samples delivered out of arrival order via the reorder buffers.
    pub reordered: u64,
    /// Sequence numbers given up on (window slid past them).
    pub dropped: u64,
    /// Shard restarts the supervisor performed during this batch.
    pub restarts: u64,
    /// Service mode after the batch.
    pub mode: ServiceMode,
}

/// Per-link sequence-gate counters, for dashboards and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Next sequence number the link's gate will deliver.
    pub next_seq: u64,
    /// Duplicate sequence numbers seen.
    pub duplicates: u64,
    /// Ancient sequence replays seen.
    pub stale: u64,
    /// Samples healed into order via the reorder buffer.
    pub reordered: u64,
    /// Sequence numbers given up on.
    pub dropped: u64,
    /// Samples currently parked in the reorder buffer.
    pub buffered: usize,
}

/// How one shard came back in [`MonitorService::resume_resilient`] or a
/// supervised restart. The discriminant is the recovery token a
/// `CheckpointRestore` trace event carries (see
/// [`ixp_obs::trace::recovery_name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardRecovery {
    /// Checkpoint blob decoded cleanly; the shard resumed bit-identically.
    Restored = 0,
    /// No blob on disk (or no store attached); the shard rebuilt from scratch.
    RebuiltMissing = 1,
    /// Blob was intact but from a foreign deployment; rebuilt from scratch.
    RebuiltStale = 2,
    /// Blob was damaged (bad CRC, torn frame) or intact but undecodable;
    /// quarantined to a `.corrupt` sidecar and the shard rebuilt from
    /// scratch.
    RebuiltCorrupt = 3,
}

/// Per-shard outcome of a resilient resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeReport {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardRecovery>,
}

impl ResumeReport {
    /// True when every shard resumed from its checkpoint.
    pub fn all_restored(&self) -> bool {
        self.shards.iter().all(|s| *s == ShardRecovery::Restored)
    }

    /// Number of shards that had to rebuild from scratch.
    pub fn rebuilt(&self) -> usize {
        self.shards.iter().filter(|s| **s != ShardRecovery::Restored).count()
    }
}

/// Static description of one monitored link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDesc {
    /// IXP the link belongs to (dense id; drives per-IXP aggregates).
    pub ixp: u32,
}

/// Fingerprint binding checkpoints to one monitor deployment: configuration
/// (shard layout, admission control), the detector's parameters, the
/// health thresholds and link count. The shedding seed, the detector's four
/// parameters and the mask slack are constants; they keep their places in
/// the mix so v4 checkpoints still resume. Thread count and the
/// Degraded-mode hold are deliberately excluded — the link state does not
/// depend on them. The magic word is versioned with the
/// checkpoint payload layout: v4 blobs store each gate as its five counters
/// and move parked samples into a per-shard trailer (v3 wrote eight slots,
/// mostly empty, per gate), so v3 deployments read as a miss, never a
/// mis-decode.
pub fn monitor_fingerprint(cfg: &MonitorConfig, n_links: usize) -> u64 {
    // The health thresholds are constants; they keep their place in the
    // mix so v4 checkpoints written under the same thresholds still resume.
    let health = HealthConfig::DEFAULT;
    mix(&[
        0x4D4F_4E49_544F_5234, // "MONITOR4"
        cfg.reorder_window,
        cfg.max_shard_batch as u64,
        SHED_SEED,
        online::KAPPA.to_bits(),
        online::H.to_bits(),
        online::WARMUP as u64,
        online::BASELINE_GAIN.to_bits(),
        cfg.shards as u64,
        MASK_SLACK_ROUNDS,
        WINDOW_ROUNDS,
        MIN_GAP_ROUNDS,
        health.max_scattered_loss.to_bits(),
        health.min_addr_consistency.to_bits(),
        health.silent_validity.to_bits(),
        health.silent_tail_fraction.to_bits(),
        n_links as u64,
    ])
}

/// One shard's mutable state, indexed by slot (`id / shards`): each link's
/// 64-byte hot record (detector, window counters and the gate's in-order
/// words) in one dense array and its cold record (event state, gate
/// counters and reorder buffer) in another, the health label each slot
/// last published, and the dirty list each pass publishes cold records
/// from. Kept together so one lock guards all four.
struct ShardSlab {
    hot: Vec<LinkHot>,
    cold: Vec<LinkCold>,
    /// [`LinkHot::health`] as of the slot's last published cold record.
    labels: Vec<LinkHealth>,
    /// Slots whose cold record the current pass must rewrite.
    /// Cleared, never freed, so a steady-state pass allocates nothing.
    dirty: Vec<u32>,
}

/// A shard's decoded (or fresh) hot and cold arrays.
type Records = (Vec<LinkHot>, Vec<LinkCold>);

impl ShardSlab {
    /// `slots` fresh links.
    fn fresh(slots: usize) -> ShardSlab {
        ShardSlab {
            hot: vec![LinkHot::new(); slots],
            cold: vec![LinkCold::new(); slots],
            labels: vec![LinkHealth::Clean; slots],
            dirty: Vec::new(),
        }
    }

    /// Number of link slots.
    fn slots(&self) -> usize {
        self.hot.len()
    }

    /// Take over decoded records, keeping the buffers. The caller
    /// republishes the whole shard, which resets the labels.
    fn replace(&mut self, (hot, cold): Records) {
        self.hot = hot;
        self.cold = cold;
    }
}

/// Accepted samples each ingest worker needs before another one starts;
/// a batch below it runs inline on the caller whatever
/// [`MonitorConfig::threads`] says. On a 2-CPU x86-64 host a scoped
/// thread start plus join measured 42–54 µs and a sequenced sample costs
/// 36–50 ns, so a worker that takes this many samples off the caller
/// saves 150–200 µs, three to four times its start. No sweep of the
/// value was run: the monitor bench's 1k-link round (inline) and 10k-link
/// round (two workers) would read the same for anything from about 1k to
/// 5k.
const SAMPLES_PER_WORKER: u64 = 4096;

/// Workers one batch of `accepted` samples runs on: the configured count
/// (0 = all cores), at most one per shard and at most one per
/// [`SAMPLES_PER_WORKER`] samples, and never fewer than one.
fn ingest_workers(threads: usize, accepted: u64, n_shards: usize) -> usize {
    let by_work = usize::try_from(accepted / SAMPLES_PER_WORKER).unwrap_or(usize::MAX);
    match by_work.min(n_shards) {
        0 | 1 => 1,
        cap => tslp_core::resolve_threads(threads).min(cap),
    }
}

/// One partitioned batch item: `(sequence number, slot, sample)`; the
/// shard is the list the item sits in.
type Item = (u64, u32, MonitorSample);

/// The id of the link at `slot` of `shard`.
fn link_id(slot: u32, shard: usize, n_shards: usize) -> u32 {
    (slot as usize * n_shards + shard) as u32
}

/// Per-shard supervision bookkeeping (all lock-free).
struct ShardMeta {
    /// Batch index of the last shed event (`u64::MAX` = never).
    last_shed_batch: AtomicU64,
    /// Batch index of the last supervised restart (`u64::MAX` = never).
    last_restart_batch: AtomicU64,
    /// Total supervised restarts of this shard.
    restarts: AtomicU64,
    /// True while the shard is quarantined: its last restart panicked
    /// again on replay. Cleared by the next successful pass.
    quarantined: AtomicBool,
}

impl ShardMeta {
    fn new() -> ShardMeta {
        ShardMeta {
            last_shed_batch: AtomicU64::new(u64::MAX),
            last_restart_batch: AtomicU64::new(u64::MAX),
            restarts: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
        }
    }
}

/// A chaos-hook instruction: panic inside `shard`'s worker during batch
/// `batch`, after `after_items` items have been processed.
struct ArmedPanic {
    shard: usize,
    batch: u64,
    after_items: usize,
}

/// Per-batch gate accounting folded by the shard workers (atomic because
/// workers run concurrently; sums are order-independent, so the totals are
/// deterministic).
#[derive(Default)]
struct BatchAcc {
    delivered: AtomicU64,
    duplicates: AtomicU64,
    stale: AtomicU64,
    reordered: AtomicU64,
    dropped: AtomicU64,
    restarts: AtomicU64,
}

/// Plain (non-atomic) gate totals returned by one shard's sequenced pass.
#[derive(Default, Clone, Copy)]
struct GateTotals {
    delivered: u64,
    duplicates: u64,
    stale: u64,
    reordered: u64,
    dropped: u64,
}

/// The resident monitoring service. See the module docs for the layout.
pub struct MonitorService {
    cfg: MonitorConfig,
    /// Per-link IXP ids (index = link id).
    ixp_of: Vec<u32>,
    n_ixps: usize,
    shards: Vec<Mutex<ShardSlab>>,
    /// Per-shard item lists of the batch being ingested, cleared (never
    /// freed) between batches. Held for the whole of an ingest call, so
    /// ingest calls serialize; readers never touch it.
    partition: Mutex<Vec<Vec<Item>>>,
    metas: Vec<ShardMeta>,
    index: VerdictIndex,
    ingest_meter: RateMeter,
    ingested: AtomicU64,
    /// High-water per-shard demand (pre-shedding) since the last gauge
    /// publication — overload is visible *before* shedding starts.
    shard_backlog_max: AtomicU64,
    /// Batches ingested — the supervision clock.
    batches: AtomicU64,
    /// Attached checkpoint store, used by the supervisor to restore a
    /// panicked shard from its last good blob. `None` = rebuild fresh.
    store: Mutex<Option<CheckpointStore>>,
    /// Armed chaos panics (test/fire-drill hook).
    chaos: Mutex<Vec<ArmedPanic>>,
    /// Fast path: skip the chaos lock entirely when nothing is armed.
    chaos_armed: AtomicBool,
    shed_total: AtomicU64,
    rejected_total: AtomicU64,
    seq_duplicates: AtomicU64,
    seq_stale: AtomicU64,
    seq_reordered: AtomicU64,
    seq_dropped: AtomicU64,
    /// Attached flight recorder (`None` = tracing off; the hot path checks
    /// `tracing` first so an untraced deployment pays one relaxed load per
    /// shard pass, nothing per sample).
    flight: Mutex<Option<Arc<FlightRecorder>>>,
    /// Fast flag mirroring `flight.is_some()`.
    tracing: AtomicBool,
    /// `(batch, mode)` transition log, recorded whether or not a flight
    /// recorder is attached (feeds the run manifest's mode history).
    mode_log: Mutex<Vec<(u64, ServiceMode)>>,
    /// Mirror of the last observed mode (true = Degraded), so transition
    /// detection costs one atomic compare per batch.
    mode_degraded: AtomicBool,
    /// Black-box bundles written so far (also names the next blob).
    trace_dumps: AtomicU64,
}

impl MonitorService {
    /// A fresh service monitoring `links`.
    pub fn new(cfg: MonitorConfig, links: &[LinkDesc]) -> MonitorService {
        let shards = cfg.shards.max(1);
        let n = links.len();
        let ixp_of: Vec<u32> = links.iter().map(|l| l.ixp).collect();
        let n_ixps = ixp_of.iter().copied().max().map_or(1, |m| m as usize + 1);
        let slabs = (0..shards)
            .map(|s| Mutex::new(ShardSlab::fresh(n / shards + usize::from(s < n % shards))))
            .collect();
        MonitorService {
            cfg,
            ixp_of,
            n_ixps,
            shards: slabs,
            partition: Mutex::new(vec![Vec::new(); shards]),
            metas: (0..shards).map(|_| ShardMeta::new()).collect(),
            index: VerdictIndex::new(n, shards, n_ixps),
            ingest_meter: RateMeter::new(),
            ingested: AtomicU64::new(0),
            shard_backlog_max: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            store: Mutex::new(None),
            chaos: Mutex::new(Vec::new()),
            chaos_armed: AtomicBool::new(false),
            shed_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            seq_duplicates: AtomicU64::new(0),
            seq_stale: AtomicU64::new(0),
            seq_reordered: AtomicU64::new(0),
            seq_dropped: AtomicU64::new(0),
            flight: Mutex::new(None),
            tracing: AtomicBool::new(false),
            mode_log: Mutex::new(Vec::new()),
            mode_degraded: AtomicBool::new(false),
            trace_dumps: AtomicU64::new(0),
        }
    }

    /// Attach a flight recorder: every admission verdict, reorder heal,
    /// health transition, mask decision, online changepoint, checkpoint
    /// event, and supervision step is traced into its ring, and incidents
    /// (worker panic, shard quarantine, Degraded entry) dump a black-box
    /// bundle through the attached checkpoint store. Without one, the trace
    /// paths cost one relaxed load per shard pass — detector state stays
    /// bit-identical either way.
    pub fn attach_flight_recorder(&self, fl: Arc<FlightRecorder>) {
        *self.flight.lock() = Some(fl);
        self.tracing.store(true, Ordering::Release);
    }

    /// Detach the flight recorder, returning it (with its rings intact, so
    /// a final dump is still possible). Batches already in flight may still
    /// trace; new batches run the uninstrumented path. Detector state is
    /// unaffected — tracing never alters behavior, only records it.
    pub fn detach_flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.tracing.store(false, Ordering::Release);
        self.flight.lock().take()
    }

    /// Service-mode transitions observed so far, as `(batch, mode)` pairs
    /// in batch order (empty until the first Healthy↔Degraded flip).
    pub fn mode_history(&self) -> Vec<(u64, ServiceMode)> {
        self.mode_log.lock().clone()
    }

    /// Black-box trace bundles dumped so far.
    pub fn trace_dumps(&self) -> u64 {
        self.trace_dumps.load(Ordering::Relaxed)
    }

    /// The flight recorder when tracing is live (one relaxed load on the
    /// common path).
    fn flight_if_live(&self) -> Option<Arc<FlightRecorder>> {
        if !self.tracing.load(Ordering::Acquire) {
            return None;
        }
        self.flight.lock().clone()
    }

    /// Write the flight recorder's current contents as a versioned black-box
    /// bundle through the attached store. Quietly a no-op when either the
    /// recorder or the store is missing — incident handling must never be
    /// able to fail the ingest path.
    fn dump_incident(&self, reason: &str) {
        let Some(fl) = self.flight_if_live() else { return };
        let store = self.store.lock();
        let Some(st) = store.as_ref() else { return };
        let n = self.trace_dumps.load(Ordering::Relaxed);
        let payload = fl.dump_jsonl(reason);
        if st.store_blob(&format!("trace-dump-{n:03}"), &payload).is_ok() {
            self.trace_dumps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Detect and record a service-mode transition after batch `batch`.
    /// Entering Degraded is an incident: the flight recorder (when present)
    /// dumps its black box.
    fn note_mode(&self, batch: u64) {
        let degraded = self.mode() == ServiceMode::Degraded;
        if self.mode_degraded.swap(degraded, Ordering::Relaxed) == degraded {
            return;
        }
        let mode = if degraded { ServiceMode::Degraded } else { ServiceMode::Healthy };
        self.mode_log.lock().push((batch, mode));
        if let Some(fl) = self.flight_if_live() {
            Recorder::trace(
                fl.as_ref(),
                TraceEvent::new(TraceKind::ModeChange, batch, 0, NO_LINK)
                    .a(u64::from(degraded)),
            );
        }
        if degraded {
            self.dump_incident("degraded-entry");
        }
    }

    /// Attach a checkpoint store for the supervisor: a panicked shard is
    /// restored from its last good blob here (and a corrupt blob is
    /// quarantined). Without a store, a panicked shard rebuilds fresh.
    pub fn set_store(&self, store: CheckpointStore) {
        *self.store.lock() = Some(store);
    }

    /// Batches ingested so far — the clock chaos hooks and the
    /// Degraded-mode hold are expressed in.
    pub fn batches_ingested(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Arm a chaos panic: the worker processing `shard` during batch
    /// `batch` (absolute index, see [`MonitorService::batches_ingested`])
    /// panics after `after_items` items. The supervisor must recover; this
    /// is the fire-drill hook the resilience gauntlet leans on.
    pub fn arm_panic(&self, shard: usize, batch: u64, after_items: usize) {
        self.chaos.lock().push(ArmedPanic { shard, batch, after_items });
        self.chaos_armed.store(true, Ordering::Release);
    }

    /// Consume the armed panic for `(shard, batch)`, if any. Removal
    /// happens *before* the panic fires so the supervisor's replay of the
    /// same items runs clean.
    fn take_armed(&self, shard: usize, batch: u64) -> Option<usize> {
        if !self.chaos_armed.load(Ordering::Acquire) {
            return None;
        }
        let mut chaos = self.chaos.lock();
        let at = chaos.iter().position(|a| a.shard == shard && a.batch == batch)?;
        let armed = chaos.swap_remove(at);
        if chaos.is_empty() {
            self.chaos_armed.store(false, Ordering::Release);
        }
        Some(armed.after_items)
    }

    /// The service configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Number of monitored links.
    pub fn len(&self) -> usize {
        self.ixp_of.len()
    }

    /// True when no links are monitored.
    pub fn is_empty(&self) -> bool {
        self.ixp_of.is_empty()
    }

    /// The concurrent verdict index (share with reader threads).
    pub fn index(&self) -> &VerdictIndex {
        &self.index
    }

    /// Current verdict for one link (convenience passthrough).
    pub fn verdict(&self, id: u32) -> LinkVerdict {
        self.index.verdict(id)
    }

    /// Total samples delivered to link detectors.
    pub fn samples_ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Ingest a batch of `(link id, sequence, sample)` triples. Per-link
    /// sequence numbers start at 0 and count up; a producer that probes in
    /// order passes its round. Admission control runs first, single
    /// threaded and deterministic: unknown ids and the reserved sequence
    /// `u64::MAX` are rejected; when a shard's demand exceeds
    /// [`MonitorConfig::max_shard_batch`], the excess is shed by seeded
    /// hash (reproducible at any thread count). Surviving samples then pass
    /// their link's gate ([`crate::LinkState::admit`]'s rules): in-order and
    /// healed-reorder samples reach the detector, duplicates/stale/abandoned
    /// sequences are counted.
    /// A worker panic is supervised: the shard restores from its last good
    /// checkpoint (or fresh) and the shard's items replay. Ingest calls
    /// serialize (see the module docs).
    pub fn ingest_sequenced(&self, batch: &[(u32, u64, MonitorSample)]) -> IngestReport {
        let n_shards = self.shards.len();
        let mut partition = self.partition.lock();
        let per_shard = &mut *partition;
        let batch_idx = self.batches.fetch_add(1, Ordering::Relaxed);
        let fl = self.flight_if_live();
        let mut rejected = 0u64;
        per_shard.iter_mut().for_each(Vec::clear);
        for &(id, seq, s) in batch {
            if (id as usize) >= self.ixp_of.len() || seq == u64::MAX {
                rejected += 1;
                if let Some(fl) = fl.as_deref() {
                    // a = the offending sequence; b = the batch it arrived in.
                    Recorder::trace(
                        fl,
                        TraceEvent::new(TraceKind::SampleRejected, seq, 0, id)
                            .a(seq)
                            .b(batch_idx),
                    );
                }
                continue;
            }
            // One division yields both halves of the link's address.
            let (shard, slot) = (id as usize % n_shards, id as usize / n_shards);
            per_shard[shard].push((seq, slot as u32, s));
        }
        // High-water *demand*, recorded before shedding (overload must be
        // visible even when admission control hides it from the workers).
        let demand = per_shard.iter().map(|v| v.len() as u64).max().unwrap_or(0);
        self.shard_backlog_max.fetch_max(demand, Ordering::Relaxed);

        let mut shed = 0u64;
        let cap = self.cfg.max_shard_batch;
        if cap > 0 {
            for (shard, items) in per_shard.iter_mut().enumerate() {
                if items.len() <= cap {
                    continue;
                }
                shed += (items.len() - cap) as u64;
                self.metas[shard].last_shed_batch.store(batch_idx, Ordering::Relaxed);
                // Keep the `cap` items with the smallest seeded priority;
                // the (priority, position) pair is unique, so the selection
                // is total regardless of hash collisions.
                let mut keyed: Vec<(u64, usize)> = items
                    .iter()
                    .enumerate()
                    .map(|(i, &(seq, slot, _))| {
                        let id = link_id(slot, shard, n_shards);
                        (mix(&[SHED_SEED, id as u64, seq, batch_idx]), i)
                    })
                    .collect();
                keyed.select_nth_unstable(cap - 1);
                let mut kept = vec![false; items.len()];
                for &(_, i) in &keyed[..cap] {
                    kept[i] = true;
                }
                // Compact in place, in arrival order.
                let mut at = 0;
                items.retain(|&(seq, slot, _)| {
                    let keep = kept[at];
                    at += 1;
                    if let (false, Some(fl)) = (keep, fl.as_deref()) {
                        let id = link_id(slot, shard, n_shards);
                        Recorder::trace(
                            fl,
                            TraceEvent::new(TraceKind::SampleShed, seq, shard as u32, id)
                                .a(seq)
                                .b(batch_idx),
                        );
                    }
                    keep
                });
            }
        }
        let accepted: u64 = per_shard.iter().map(|v| v.len() as u64).sum();

        let acc = BatchAcc::default();
        let flr = fl.as_deref();
        let passes = pool_try_map(
            ingest_workers(self.cfg.threads, accepted, n_shards),
            per_shard,
            || (),
            |_, shard, items| self.shard_supervised(shard, items, batch_idx, &acc, flr),
            &NoopRecorder,
            "ingest",
            |shard, _| format!("shard {shard}"),
        );
        // The supervisor catches a shard's panics itself; one that escapes
        // it is a bug in the service and stays fatal.
        for pass in passes {
            if let Err(f) = pass {
                panic!("ingest worker failed on {}: {}", f.key, f.message);
            }
        }

        let delivered = acc.delivered.load(Ordering::Relaxed);
        self.ingest_meter.mark(accepted);
        self.ingested.fetch_add(delivered, Ordering::Relaxed);
        self.shed_total.fetch_add(shed, Ordering::Relaxed);
        self.rejected_total.fetch_add(rejected, Ordering::Relaxed);
        let duplicates = acc.duplicates.load(Ordering::Relaxed);
        let stale = acc.stale.load(Ordering::Relaxed);
        let reordered = acc.reordered.load(Ordering::Relaxed);
        let dropped = acc.dropped.load(Ordering::Relaxed);
        self.seq_duplicates.fetch_add(duplicates, Ordering::Relaxed);
        self.seq_stale.fetch_add(stale, Ordering::Relaxed);
        self.seq_reordered.fetch_add(reordered, Ordering::Relaxed);
        self.seq_dropped.fetch_add(dropped, Ordering::Relaxed);
        self.note_mode(batch_idx);
        IngestReport {
            accepted,
            delivered,
            rejected,
            shed,
            duplicates,
            stale,
            reordered,
            dropped,
            restarts: acc.restarts.load(Ordering::Relaxed),
            mode: self.mode(),
        }
    }

    /// Run one shard's pass under the supervisor, folding its gate totals
    /// into the batch accumulator.
    fn shard_supervised(
        &self,
        shard: usize,
        items: &[Item],
        batch: u64,
        acc: &BatchAcc,
        fl: Option<&FlightRecorder>,
    ) {
        if items.is_empty() {
            return;
        }
        let totals = self.supervised(shard, batch, items.len(), acc, || {
            self.run_shard(shard, items, batch, fl)
        });
        if let Some(t) = totals {
            acc.delivered.fetch_add(t.delivered, Ordering::Relaxed);
            acc.duplicates.fetch_add(t.duplicates, Ordering::Relaxed);
            acc.stale.fetch_add(t.stale, Ordering::Relaxed);
            acc.reordered.fetch_add(t.reordered, Ordering::Relaxed);
            acc.dropped.fetch_add(t.dropped, Ordering::Relaxed);
        }
    }

    /// The supervision tree for one shard pass: catch a panic, restore the
    /// shard from its last good checkpoint (or fresh), replay the items.
    /// A second panic during replay quarantines the shard (restored once
    /// more so readers see the last good state, not a torn one); the next
    /// successful pass clears the quarantine. parking_lot locks release on
    /// unwind (they do not poison), so a panicked worker never wedges
    /// readers or the other shards.
    fn supervised<T>(
        &self,
        shard: usize,
        batch: u64,
        items: usize,
        acc: &BatchAcc,
        mut run: impl FnMut() -> T,
    ) -> Option<T> {
        if let Ok(v) = catch_unwind(AssertUnwindSafe(&mut run)) {
            self.metas[shard].quarantined.store(false, Ordering::Relaxed);
            return Some(v);
        }
        let meta = &self.metas[shard];
        let restarts = meta.restarts.fetch_add(1, Ordering::Relaxed) + 1;
        meta.last_restart_batch.store(batch, Ordering::Relaxed);
        acc.restarts.fetch_add(1, Ordering::Relaxed);
        let fl = self.flight_if_live();
        if let Some(fl) = fl.as_deref() {
            Recorder::trace(
                fl,
                TraceEvent::new(TraceKind::WorkerPanic, batch, shard as u32, NO_LINK).a(restarts),
            );
        }
        self.restore_shard(shard);
        if let Some(fl) = fl.as_deref() {
            Recorder::trace(fl, TraceEvent::new(TraceKind::ShardRestore, batch, shard as u32, NO_LINK));
            Recorder::trace(
                fl,
                TraceEvent::new(TraceKind::CheckpointReplay, batch, shard as u32, NO_LINK)
                    .a(items as u64),
            );
        }
        match catch_unwind(AssertUnwindSafe(&mut run)) {
            Ok(v) => {
                meta.quarantined.store(false, Ordering::Relaxed);
                self.dump_incident("worker-panic-recovered");
                Some(v)
            }
            Err(_) => {
                self.restore_shard(shard);
                meta.quarantined.store(true, Ordering::Relaxed);
                if let Some(fl) = fl.as_deref() {
                    Recorder::trace(
                        fl,
                        TraceEvent::new(TraceKind::ShardQuarantine, batch, shard as u32, NO_LINK),
                    );
                }
                self.dump_incident("shard-quarantine");
                None
            }
        }
    }

    fn run_shard(
        &self,
        shard: usize,
        items: &[Item],
        batch: u64,
        fl: Option<&FlightRecorder>,
    ) -> GateTotals {
        let boom = self.take_armed(shard, batch);
        let n_shards = self.shards.len();
        let mut totals = GateTotals::default();
        let cfg = &self.cfg;
        let mut slab = self.shards[shard].lock();
        let ShardSlab { hot, cold, labels, dirty } = &mut *slab;
        dirty.clear();
        // A slot's cold record is rewritten only when a delivered sample
        // moved its evidence (`LinkUpdate::evidence_moved`) or its health
        // label differs from the one last published. Checking the label
        // once per item, after every delivery it released, is enough: the
        // label is a function of the hot record alone. A quiet arrival
        // (`LinkHot::quiet_arrival`) that moved nothing on a Clean link
        // past the window's first rounds cannot leave Clean
        // (`LinkHot::stays_clean`), so its label is not recomputed.
        let mut mark = |h: &LinkHot, slot: usize, moved: bool, quiet: bool| {
            if quiet && !moved && h.stays_clean(labels[slot]) {
                debug_assert_eq!(h.health(), LinkHealth::Clean);
                return;
            }
            let health = h.health();
            if moved || health != labels[slot] {
                labels[slot] = health;
                dirty.push(slot as u32);
            }
        };
        // The item loop exists twice, selected once per shard batch:
        // `admit` is generic over the delivery closure, so each arm
        // monomorphizes with exactly the closure it needs. The untraced
        // arm is the pristine hot path — no recorder checks anywhere in
        // its loop body — which keeps an idle recorder slot free and
        // the uninstrumented service bit-identical. The traced arm pays
        // one register test per delivery (quiet samples on a stable
        // link trace nothing; the out-of-line calls are reserved for
        // alarms, health transitions, and non-clean admission deltas).
        // Either way an in-order sample on a quiet link reads and writes
        // its hot record alone: one cache line.
        match fl {
            None => {
                for (done, &(seq, slot, s)) in items.iter().enumerate() {
                    if boom == Some(done) {
                        panic!("armed chaos panic (shard {shard}, batch {batch})");
                    }
                    let slot = slot as usize;
                    let (h, c) = (&mut hot[slot], &mut cold[slot]);
                    let quiet = h.quiet_arrival(seq, &s);
                    let mut moved = false;
                    let d = h.admit(c, seq, s, cfg.reorder_window, &mut |h, c, smp| {
                        moved |= h.push(c, &smp).evidence_moved;
                    });
                    totals.delivered += u64::from(d.delivered);
                    totals.duplicates += u64::from(d.duplicates);
                    totals.stale += u64::from(d.stale);
                    totals.reordered += u64::from(d.reordered);
                    totals.dropped += d.dropped;
                    mark(h, slot, moved, quiet);
                }
            }
            Some(fl) => {
                for (done, &(seq, slot, s)) in items.iter().enumerate() {
                    if boom == Some(done) {
                        panic!("armed chaos panic (shard {shard}, batch {batch})");
                    }
                    // The link id is needed only when something is traced.
                    let id = || link_id(slot, shard, n_shards);
                    let slot = slot as usize;
                    let (h, c) = (&mut hot[slot], &mut cold[slot]);
                    let quiet = h.quiet_arrival(seq, &s);
                    let mut moved = false;
                    let mut deliver = |h: &mut LinkHot, c: &mut LinkCold, smp: MonitorSample| {
                        let up = h.push(c, &smp);
                        moved |= up.evidence_moved;
                        // One predictable single-byte test per delivery,
                        // untaken on quiet samples. The rare path reads
                        // what it emits from the two records; only the
                        // verdict and the label before the push come along.
                        if up.noteworthy {
                            let (verdict, before) = (up.verdict, up.health_before);
                            trace_update(fl, shard as u32, id(), verdict, before, h, c);
                        }
                    };
                    // One call site for `deliver`, so it inlines into the
                    // in-order path, where `admit` returns a constant
                    // delta and the anomaly test below folds away.
                    let d = h.admit(c, seq, s, cfg.reorder_window, &mut deliver);
                    if u64::from(d.duplicates | d.stale | d.reordered) | d.dropped != 0 {
                        trace_admit(fl, shard as u32, id(), seq, d);
                    }
                    totals.delivered += u64::from(d.delivered);
                    totals.duplicates += u64::from(d.duplicates);
                    totals.stale += u64::from(d.stale);
                    totals.reordered += u64::from(d.reordered);
                    totals.dropped += d.dropped;
                    mark(h, slot, moved, quiet);
                }
            }
        }
        // The index write lock is taken only once the pass's detector math
        // and health labels are done: under it each record is assembled
        // from fields already computed (the cold one from the label `mark`
        // stored) and stored, nothing more.
        let (hot, cold) = (&*hot, &*cold);
        let hot_of = |slot: u32| (slot, hot[slot as usize].hot_verdict(&cold[slot as usize]));
        let cold_of = dirty.iter().map(|&slot| {
            let slot_ix = slot as usize;
            (slot, hot[slot_ix].cold_verdict(&cold[slot_ix], labels[slot_ix]))
        });
        if items.len() > hot.len() {
            // A catch-up pass repeats slots: write each slot's hot record once.
            self.index.publish(shard, (0..hot.len() as u32).map(hot_of), cold_of, &self.ixp_of);
        } else {
            let hot_items = items.iter().map(|&(_, slot, _)| hot_of(slot));
            self.index.publish(shard, hot_items, cold_of, &self.ixp_of);
        }
        totals
    }

    /// Restore one shard to its last good checkpoint through the attached
    /// store (quarantining a corrupt blob), or to fresh state without one,
    /// and republish its verdicts so readers see the recovered state.
    fn restore_shard(&self, shard: usize) {
        let store = self.store.lock();
        let mut slab = self.shards[shard].lock();
        let slots = slab.slots();
        let (restored, recovery) = match store.as_ref() {
            Some(st) => recover_shard(st, shard, slots, &self.cfg),
            None => (None, ShardRecovery::RebuiltMissing),
        };
        match restored {
            Some(decoded) => slab.replace(decoded),
            None => *slab = ShardSlab::fresh(slots),
        }
        drop(store);
        // publish() maintains the elevated aggregates on transitions, so
        // overwriting the shard's verdicts keeps the counters exact — no
        // full rebuild (which would race concurrent publishes) needed.
        self.publish_all(shard, &mut slab);
        drop(slab);
        if let Some(fl) = self.flight_if_live() {
            Recorder::trace(
                fl.as_ref(),
                TraceEvent::new(
                    TraceKind::CheckpointRestore,
                    self.batches.load(Ordering::Relaxed),
                    shard as u32,
                    NO_LINK,
                )
                .a(recovery as u64),
            );
        }
    }

    /// Current service mode. Degraded while any shard is quarantined or
    /// shed/restarted within the last three batches; Healthy otherwise.
    pub fn mode(&self) -> ServiceMode {
        let now = self.batches.load(Ordering::Relaxed);
        for meta in &self.metas {
            if meta.quarantined.load(Ordering::Relaxed) {
                return ServiceMode::Degraded;
            }
            for stamp in [&meta.last_shed_batch, &meta.last_restart_batch] {
                let at = stamp.load(Ordering::Relaxed);
                if at != u64::MAX && now.saturating_sub(at) <= DEGRADED_HOLD {
                    return ServiceMode::Degraded;
                }
            }
        }
        ServiceMode::Healthy
    }

    /// Sequence-gate counters for one link.
    pub fn seq_stats(&self, id: u32) -> SeqStats {
        let n_shards = self.shards.len();
        let shard = id as usize % n_shards;
        let slot = id as usize / n_shards;
        let slab = self.shards[shard].lock();
        slab.cold[slot].gate.stats(&slab.hot[slot])
    }

    /// Total supervised shard restarts.
    pub fn shard_restarts(&self) -> u64 {
        self.metas.iter().map(|m| m.restarts.load(Ordering::Relaxed)).sum()
    }

    /// Shards currently quarantined (restart panicked again on replay).
    pub fn quarantined_shards(&self) -> usize {
        self.metas.iter().filter(|m| m.quarantined.load(Ordering::Relaxed)).count()
    }

    /// Publish live gauges: ingest rate, elevated counts (total and per
    /// IXP), shard pressure, and index read QPS. Rates are wall-clock and
    /// volatile; counts are deterministic.
    pub fn publish_gauges<R: Recorder>(&self, rec: &R) {
        if !rec.enabled() {
            return;
        }
        rec.gauge("monitor_links", self.len() as f64);
        rec.gauge("monitor_samples_ingested", self.samples_ingested() as f64);
        rec.gauge("monitor_ingest_samples_per_sec", self.ingest_meter.take_rate());
        rec.gauge("monitor_elevated_links", self.index.elevated_links() as f64);
        rec.gauge("monitor_index_read_qps", self.index.take_read_qps());
        rec.gauge("monitor_index_reads", self.index.reads_total() as f64);
        rec.gauge(
            "monitor_shard_backlog_max",
            self.shard_backlog_max.swap(0, Ordering::Relaxed) as f64,
        );
        rec.gauge(
            "monitor_mode_degraded",
            f64::from(self.mode() == ServiceMode::Degraded),
        );
        rec.gauge("monitor_shed_samples", self.shed_total.load(Ordering::Relaxed) as f64);
        rec.gauge(
            "monitor_rejected_samples",
            self.rejected_total.load(Ordering::Relaxed) as f64,
        );
        rec.gauge(
            "monitor_seq_duplicates",
            self.seq_duplicates.load(Ordering::Relaxed) as f64,
        );
        rec.gauge("monitor_seq_stale", self.seq_stale.load(Ordering::Relaxed) as f64);
        rec.gauge(
            "monitor_seq_reordered",
            self.seq_reordered.load(Ordering::Relaxed) as f64,
        );
        rec.gauge("monitor_seq_dropped", self.seq_dropped.load(Ordering::Relaxed) as f64);
        rec.gauge("monitor_shard_restarts", self.shard_restarts() as f64);
        rec.gauge("monitor_quarantined_shards", self.quarantined_shards() as f64);
        rec.gauge("monitor_trace_dumps", self.trace_dumps() as f64);
        if let Some(fl) = self.flight_if_live() {
            rec.gauge("monitor_trace_events_dropped", fl.dropped() as f64);
        }
        for ixp in 0..self.n_ixps {
            let n = self.index.elevated_at_ixp(ixp);
            if n > 0 {
                rec.gauge(&format!("monitor_elevated_ixp{ixp}"), n as f64);
            }
        }
    }

    /// Write the full shard state (link detectors + sequence gates) through
    /// `store`, one blob per shard. Open the store with
    /// [`monitor_fingerprint`] so layout changes invalidate old blobs. A
    /// failed write names the shard and the blob file instead of panicking
    /// opaquely.
    pub fn checkpoint(&self, store: &CheckpointStore) -> io::Result<()> {
        let fl = self.flight_if_live();
        for (i, shard) in self.shards.iter().enumerate() {
            let (payload, slots) = {
                let slab = shard.lock();
                (encode_shard_payload(&slab), slab.slots())
            };
            let name = shard_blob_name(i);
            store.store_blob(&name, &payload).map_err(|e| {
                let file = store
                    .blob_file(&name)
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|_| name.clone());
                io::Error::new(
                    e.kind(),
                    format!("monitor checkpoint failed for shard {i} ({file}): {e}"),
                )
            })?;
            if let Some(fl) = fl.as_deref() {
                Recorder::trace(
                    fl,
                    TraceEvent::new(
                        TraceKind::CheckpointWrite,
                        self.batches.load(Ordering::Relaxed),
                        i as u32,
                        NO_LINK,
                    )
                    .a(slots as u64),
                );
            }
        }
        Ok(())
    }

    /// Checkpoint through the attached store (see
    /// [`MonitorService::set_store`]). Returns `Ok(false)` when no store is
    /// attached.
    pub fn checkpoint_attached(&self) -> io::Result<bool> {
        let store = self.store.lock();
        match store.as_ref() {
            None => Ok(false),
            Some(st) => {
                // Same store→shard lock order as restore_shard, so a
                // concurrent supervised recovery cannot deadlock with us.
                self.checkpoint(st)?;
                Ok(true)
            }
        }
    }

    /// Rebuild a service from checkpointed shard blobs, strictly: returns
    /// `None` when any shard is missing, truncated, or from a different
    /// configuration — start fresh in that case. The restored index
    /// republishes every link's verdict, so readers see the pre-kill state
    /// immediately. For partial recovery (rebuild only the damaged shards)
    /// use [`MonitorService::resume_resilient`].
    pub fn resume(
        cfg: MonitorConfig,
        links: &[LinkDesc],
        store: &CheckpointStore,
    ) -> Option<MonitorService> {
        let svc = MonitorService::new(cfg, links);
        let n_shards = svc.shards.len();
        for shard in 0..n_shards {
            let payload = store.load_blob(&shard_blob_name(shard))?;
            let mut slab = svc.shards[shard].lock();
            let decoded = decode_shard_payload(&payload, slab.slots(), &cfg)?;
            svc.republish(shard, &mut slab, decoded);
        }
        svc.index.rebuild_aggregates(&svc.ixp_of);
        svc.sync_ingested_from_state();
        Some(svc)
    }

    /// Rebuild a service from checkpointed shard blobs, resiliently: a
    /// damaged blob is quarantined to a `.corrupt` sidecar and its shard
    /// alone rebuilds from scratch; missing or foreign blobs rebuild
    /// without quarantine; intact shards resume **bit-identically**. The
    /// store stays attached for supervised recovery and
    /// [`MonitorService::checkpoint_attached`]. Never fails, never panics —
    /// the report says what happened per shard.
    pub fn resume_resilient(
        cfg: MonitorConfig,
        links: &[LinkDesc],
        store: CheckpointStore,
    ) -> (MonitorService, ResumeReport) {
        let svc = MonitorService::new(cfg, links);
        let n_shards = svc.shards.len();
        let mut report = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let slots = svc.shards[shard].lock().slots();
            let (decoded, outcome) = recover_shard(&store, shard, slots, &cfg);
            report.push(outcome);
            let Some(decoded) = decoded else {
                continue; // fresh state is already in place
            };
            svc.republish(shard, &mut svc.shards[shard].lock(), decoded);
        }
        svc.index.rebuild_aggregates(&svc.ixp_of);
        svc.sync_ingested_from_state();
        svc.set_store(store);
        (svc, ResumeReport { shards: report })
    }

    /// Install decoded records into `shard`'s slab and publish every slot's
    /// verdict (resume paths).
    fn republish(&self, shard: usize, slab: &mut ShardSlab, decoded: Records) {
        slab.replace(decoded);
        self.publish_all(shard, slab);
    }

    /// Publish every slot's whole verdict from its link state and reset the
    /// published health labels to match (after a restore).
    fn publish_all(&self, shard: usize, slab: &mut ShardSlab) {
        for (label, h) in slab.labels.iter_mut().zip(&slab.hot) {
            *label = h.health();
        }
        let links = (0u32..).zip(slab.hot.iter().zip(&slab.cold));
        let cold = links.clone().zip(&slab.labels);
        self.index.publish(
            shard,
            links.map(|(slot, (h, c))| (slot, h.hot_verdict(c))),
            cold.map(|((slot, (h, c)), &label)| (slot, h.cold_verdict(c, label))),
            &self.ixp_of,
        );
    }

    /// Recompute the ingested-samples counter from restored link states.
    fn sync_ingested_from_state(&self) {
        let total: u64 = self
            .shards
            .iter()
            .map(|shard| shard.lock().hot.iter().map(|h| h.rounds).sum::<u64>())
            .sum();
        self.ingested.store(total, Ordering::Relaxed);
    }
}

/// Blob name for one shard's checkpoint.
fn shard_blob_name(shard: usize) -> String {
    format!("monitor-shard-{shard:03}")
}

/// Load and decode one shard's blob: the one recovery rule supervised
/// restarts and [`MonitorService::resume_resilient`] share. A damaged blob
/// (bad CRC, torn frame) and an intact one that does not decode (damage the
/// CRC missed, or a layout bug) are both quarantined to a `.corrupt`
/// sidecar; a missing or foreign blob stays where it is.
fn recover_shard(
    store: &CheckpointStore,
    shard: usize,
    slots: usize,
    cfg: &MonitorConfig,
) -> (Option<Records>, ShardRecovery) {
    let name = shard_blob_name(shard);
    match store.load_blob_checked(&name) {
        BlobStatus::Ok(payload) => {
            if let Some(decoded) = decode_shard_payload(&payload, slots, cfg) {
                return (Some(decoded), ShardRecovery::Restored);
            }
        }
        BlobStatus::Corrupt => {}
        BlobStatus::Missing => return (None, ShardRecovery::RebuiltMissing),
        BlobStatus::Stale => return (None, ShardRecovery::RebuiltStale),
    }
    let _ = store.quarantine_blob(&name);
    (None, ShardRecovery::RebuiltCorrupt)
}

/// Bytes one slot (link state + sequence-gate counters) occupies in a
/// shard blob: 27 + 5 words.
const SHARD_SLOT_LEN: usize = LinkHot::ENCODED_LEN + GateCold::ENCODED_LEN;

/// One shard's checkpoint payload: the slot count, one fixed-size record
/// per slot (link state + gate counters), then a trailer holding the count
/// of parked samples and one record per parked sample, ascending by slot
/// and then by sequence number. Parked samples are rare (a reorder in
/// flight), so an idle buffer costs no checkpoint bytes.
fn encode_shard_payload(slab: &ShardSlab) -> Vec<u8> {
    let parked: usize = slab.hot.iter().map(|h| usize::from(h.parked)).sum();
    let slots = slab.slots();
    let mut payload = Vec::with_capacity(16 + slots * SHARD_SLOT_LEN + parked * PARKED_LEN);
    payload.extend_from_slice(&(slots as u64).to_le_bytes());
    for (h, c) in slab.hot.iter().zip(&slab.cold) {
        h.encode_into(c, &mut payload);
        c.gate.encode_into(h.next_seq, &mut payload);
    }
    payload.extend_from_slice(&(parked as u64).to_le_bytes());
    let records = slab.hot.iter().zip(&slab.cold).enumerate();
    for (slot, (_, c)) in records.filter(|(_, (h, _))| h.parked > 0) {
        c.gate.encode_parked(slot as u64, &mut payload);
    }
    payload
}

/// Decode one shard's checkpoint payload (see [`encode_shard_payload`]).
/// `None` on any shape mismatch, on any word a narrowed hot-record field
/// cannot hold (see [`LinkHot::decode`]), and on any parked sample a live
/// gate could never hold (see [`LinkHot::restore_parked`]).
fn decode_shard_payload(
    payload: &[u8],
    expected_slots: usize,
    cfg: &MonitorConfig,
) -> Option<Records> {
    let word = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?))
    };
    let count = usize::try_from(word(0)?).ok()?;
    if count != expected_slots {
        return None;
    }
    let trailer = count.checked_mul(SHARD_SLOT_LEN)?.checked_add(8)?;
    let parked = usize::try_from(word(trailer)?).ok()?;
    let records = trailer + 8;
    if payload.len().checked_sub(records)? != parked.checked_mul(PARKED_LEN)? {
        return None;
    }
    let mut hot = Vec::with_capacity(count);
    let mut cold = Vec::with_capacity(count);
    for slot in payload[8..trailer].chunks_exact(SHARD_SLOT_LEN) {
        let (link, gate) = slot.split_at(LinkHot::ENCODED_LEN);
        let (mut h, mut c) = LinkHot::decode(link)?;
        (h.next_seq, c.gate) = GateCold::decode(gate)?;
        hot.push(h);
        cold.push(c);
    }
    let mut last_slot = 0;
    for i in 0..parked {
        let at = records + i * PARKED_LEN;
        let slot = usize::try_from(word(at)?).ok()?;
        if slot < last_slot {
            return None;
        }
        last_slot = slot;
        let rec = [word(at + 8)?, word(at + 16)?, word(at + 24)?, word(at + 32)?];
        let (h, c) = (hot.get_mut(slot)?, cold.get_mut(slot)?);
        h.restore_parked(&mut c.gate, rec, cfg.reorder_window)?;
    }
    Some((hot, cold))
}

/// Trace the exceptional admission outcomes of one gate call. Steady-state
/// in-order traffic leaves the whole delta zero, so a healthy stream costs
/// four branch tests and writes nothing.
#[cold]
#[inline(never)]
fn trace_admit(fl: &FlightRecorder, shard: u32, link: u32, seq: u64, d: crate::state::AdmitDelta) {
    if d.duplicates > 0 {
        Recorder::trace(
            fl,
            TraceEvent::new(TraceKind::SampleDuplicate, seq, shard, link)
                .a(seq)
                .b(u64::from(d.duplicates)),
        );
    }
    if d.stale > 0 {
        Recorder::trace(fl, TraceEvent::new(TraceKind::SampleStale, seq, shard, link).a(seq));
    }
    if d.reordered > 0 {
        Recorder::trace(
            fl,
            TraceEvent::new(TraceKind::ReorderHealed, seq, shard, link)
                .a(seq)
                .b(u64::from(d.reordered)),
        );
    }
    if d.dropped > 0 {
        Recorder::trace(
            fl,
            TraceEvent::new(TraceKind::SampleDropped, seq, shard, link)
                .a(seq)
                .b(d.dropped),
        );
    }
}

/// Trace what one delivered sample did to its link: online changepoints
/// (with the evidence the mask weighed), mask applications, and health-class
/// transitions. Quiet samples on a stable link trace nothing. Everything
/// but the verdict and the label committed before the push is read from
/// the link's records, which the push just left behind.
#[cold]
#[inline(never)]
fn trace_update(
    fl: &FlightRecorder,
    shard: u32,
    link: u32,
    verdict: OnlineVerdict,
    health_before: LinkHealth,
    hot: &LinkHot,
    cold: &LinkCold,
) {
    let round = hot.rounds - 1;
    match verdict {
        OnlineVerdict::UpshiftAlarm => {
            let ev = hot.verdict_evidence(cold);
            Recorder::trace(
                fl,
                TraceEvent::new(TraceKind::OnlineUpshift, round, shard, link)
                    .a(ev.path_change_round)
                    .v(ev.level_before_ms),
            );
            if let crate::index::MaskOutcome::Applied { rounds_since_change } = ev.mask {
                Recorder::trace(
                    fl,
                    TraceEvent::new(TraceKind::MaskApplied, round, shard, link)
                        .a(ev.path_change_round)
                        .b(rounds_since_change),
                );
            }
        }
        OnlineVerdict::DownshiftAlarm => {
            Recorder::trace(
                fl,
                TraceEvent::new(TraceKind::OnlineDownshift, round, shard, link).v(hot.baseline()),
            );
        }
        _ => {}
    }
    if hot.committed_health() != health_before {
        Recorder::trace(
            fl,
            TraceEvent::new(TraceKind::HealthChanged, round, shard, link)
                .a(health_before.code())
                .b(hot.committed_health().code()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::LinkState;
    use std::path::PathBuf;

    fn links(n: usize, ixps: u32) -> Vec<LinkDesc> {
        (0..n).map(|i| LinkDesc { ixp: i as u32 % ixps }).collect()
    }

    /// A deterministic per-link sample stream: most links quiet, every 10th
    /// link steps up partway through, every 13th round of link 7 lost.
    fn sample(link: u32, round: u64) -> MonitorSample {
        let h = (link as u64 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD134_2543_DE82_EF95);
        let noise = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
        let level = if link.is_multiple_of(10) && round >= 120 { 22.0 } else { 2.0 };
        let lost = link % 13 == 7 && round.is_multiple_of(13);
        MonitorSample {
            far_ms: if lost { f64::NAN } else { level + noise },
            path_fp: if lost { 0 } else { 0xFACE },
            far_addr_ok: true,
        }
    }

    /// Ingest rounds `rounds` of every link in order (sequence number =
    /// round), returning the last batch's report.
    fn drive(svc: &MonitorService, n: usize, rounds: std::ops::Range<u64>) -> IngestReport {
        rounds
            .map(|r| {
                let batch: Vec<(u32, u64, MonitorSample)> =
                    (0..n as u32).map(|id| (id, r, sample(id, r))).collect();
                svc.ingest_sequenced(&batch)
            })
            .last()
            .expect("drive ingests at least one round")
    }

    /// Every shard's checkpoint payload, parked samples included.
    fn state_digest(svc: &MonitorService) -> Vec<u8> {
        svc.shards.iter().flat_map(|shard| encode_shard_payload(&shard.lock())).collect()
    }

    #[test]
    fn thread_count_does_not_change_state() {
        let n = 120;
        let a = MonitorService::new(MonitorConfig { threads: 1, ..MonitorConfig::default() }, &links(n, 4));
        let b = MonitorService::new(MonitorConfig { threads: 4, ..MonitorConfig::default() }, &links(n, 4));
        drive(&a, n, 0..200);
        drive(&b, n, 0..200);
        assert_eq!(state_digest(&a), state_digest(&b));
        assert_eq!(a.index.elevated_links(), b.index.elevated_links());
        for id in 0..n as u32 {
            assert_eq!(a.verdict(id), b.verdict(id));
        }
        // Every 10th link stepped up and must be elevated.
        assert_eq!(a.index.elevated_links(), (n as u64).div_ceil(10));
    }

    /// Worker threads start only for batches big enough to pay for them,
    /// and a fanned-out batch ends where a sequential one does.
    #[test]
    fn small_batches_run_inline_and_large_ones_fan_out() {
        assert_eq!(ingest_workers(4, 1_000, 16), 1);
        assert_eq!(ingest_workers(4, 2 * SAMPLES_PER_WORKER - 1, 16), 1);
        assert_eq!(ingest_workers(4, 2 * SAMPLES_PER_WORKER, 16), 2);
        assert_eq!(ingest_workers(4, 100 * SAMPLES_PER_WORKER, 16), 4);
        assert_eq!(ingest_workers(4, 100 * SAMPLES_PER_WORKER, 3), 3);
        assert_eq!(ingest_workers(1, 100 * SAMPLES_PER_WORKER, 16), 1);
        assert_eq!(ingest_workers(0, 0, 16), 1);
        let n = 2_000;
        let a = MonitorService::new(MonitorConfig { threads: 1, ..MonitorConfig::default() }, &links(n, 4));
        let b = MonitorService::new(MonitorConfig { threads: 4, ..MonitorConfig::default() }, &links(n, 4));
        for svc in [&a, &b] {
            // One round (2,000 samples) runs inline; nine rounds in one
            // batch (18,000 samples) take four workers.
            drive(svc, n, 0..1);
            let large: Vec<(u32, u64, MonitorSample)> = (1..10u64)
                .flat_map(|r| (0..n as u32).map(move |id| (id, r, sample(id, r))))
                .collect();
            assert_eq!(ingest_workers(4, large.len() as u64, 16), 4);
            assert_eq!(svc.ingest_sequenced(&large).delivered, 9 * n as u64);
        }
        assert_eq!(state_digest(&a), state_digest(&b));
        for id in 0..n as u32 {
            assert_eq!(a.verdict(id), b.verdict(id));
        }
    }

    #[test]
    fn kill_resume_is_bit_identical() {
        let n = 90;
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for threads in [1usize, 3] {
            let cfg = MonitorConfig { threads, shards: 7, ..MonitorConfig::default() };
            let store =
                CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
            // Straight-through run.
            let straight = MonitorService::new(cfg, &links(n, 3));
            drive(&straight, n, 0..300);
            // Killed at round 137, resumed, finished.
            let first = MonitorService::new(cfg, &links(n, 3));
            drive(&first, n, 0..137);
            first.checkpoint(&store).unwrap();
            drop(first);
            let resumed = MonitorService::resume(cfg, &links(n, 3), &store)
                .expect("checkpoint must resume");
            assert_eq!(resumed.samples_ingested(), 137 * n as u64);
            drive(&resumed, n, 137..300);
            assert_eq!(state_digest(&straight), state_digest(&resumed), "threads={threads}");
            for id in 0..n as u32 {
                assert_eq!(straight.verdict(id), resumed.verdict(id), "threads={threads}");
            }
            assert_eq!(straight.index.elevated_links(), resumed.index.elevated_links());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn foreign_fingerprint_or_missing_shard_does_not_resume() {
        let n = 20;
        let cfg = MonitorConfig { shards: 3, ..MonitorConfig::default() };
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
        assert!(MonitorService::resume(cfg, &links(n, 2), &store).is_none(), "empty dir");
        let svc = MonitorService::new(cfg, &links(n, 2));
        drive(&svc, n, 0..10);
        svc.checkpoint(&store).unwrap();
        // Different config → different fingerprint → miss.
        let other = MonitorConfig { reorder_window: 5, ..cfg };
        let store2 = CheckpointStore::new(&dir, monitor_fingerprint(&other, n)).unwrap();
        assert!(MonitorService::resume(other, &links(n, 2), &store2).is_none());
        // Delete one shard blob → miss.
        std::fs::remove_file(dir.join("blob-monitor-shard-001.blob")).unwrap();
        assert!(MonitorService::resume(cfg, &links(n, 2), &store).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The default deployment's fingerprint is a literal: checkpoints
    /// written by an earlier build with the same configuration must keep
    /// resuming, so no refactor of the config may move this value.
    #[test]
    fn default_fingerprint_is_pinned() {
        assert_eq!(monitor_fingerprint(&MonitorConfig::default(), 1000), 11_087_406_640_477_573_411);
    }

    /// Digest of link states only (gate counters excluded), for comparing
    /// services whose gates saw different arrivals.
    fn links_digest(svc: &MonitorService) -> Vec<u8> {
        let mut out = Vec::new();
        for shard in &svc.shards {
            let slab = shard.lock();
            for (h, c) in slab.hot.iter().zip(&slab.cold) {
                h.encode_into(c, &mut out);
            }
        }
        out
    }

    /// In-order sequenced ingest is a plain per-link push loop: the gates
    /// deliver every sample, and the link states and verdicts equal those
    /// of bare `LinkState::push` calls over the same samples.
    #[test]
    fn sequenced_in_order_matches_bare_push_loop() {
        let n = 80;
        for threads in [1usize, 3] {
            let cfg = MonitorConfig { threads, ..MonitorConfig::default() };
            let svc = MonitorService::new(cfg, &links(n, 3));
            let report = drive(&svc, n, 0..200);
            let mut bare: Vec<LinkState> = (0..n).map(|_| LinkState::new()).collect();
            for r in 0..200 {
                for (id, st) in bare.iter_mut().enumerate() {
                    st.push(&sample(id as u32, r));
                }
            }
            let mut want = Vec::new();
            for shard in 0..cfg.shards {
                for st in bare.iter().skip(shard).step_by(cfg.shards) {
                    st.encode_into(&mut want);
                }
            }
            assert!(bare.iter().any(|st| st.alarms() > 0), "the stream must raise alarms");
            assert_eq!(links_digest(&svc), want, "threads={threads}");
            for (id, st) in bare.iter().enumerate() {
                let v = svc.verdict(id as u32);
                assert_eq!(
                    (v.round, v.alarms, v.masked_alarms, v.elevated),
                    (st.rounds(), st.alarms(), st.masked_alarms(), st.is_elevated()),
                    "threads={threads}: link {id}"
                );
            }
            assert_eq!(report.delivered, n as u64);
            assert_eq!(report.mode, ServiceMode::Healthy);
            assert_eq!(svc.samples_ingested(), 200 * n as u64);
        }
    }

    #[test]
    fn sequenced_reorder_storm_heals_and_is_thread_invariant() {
        let n = 60;
        // Swap adjacent rounds pairwise per link: 1,0,3,2,... well within
        // the window — every sample must be healed into order.
        let scrambled = |svc: &MonitorService| {
            for pair in 0..100u64 {
                for r in [pair * 2 + 1, pair * 2] {
                    let batch: Vec<(u32, u64, MonitorSample)> =
                        (0..n as u32).map(|id| (id, r, sample(id, r))).collect();
                    svc.ingest_sequenced(&batch);
                }
            }
        };
        let inorder = MonitorService::new(MonitorConfig::default(), &links(n, 3));
        drive(&inorder, n, 0..200);
        for threads in [1usize, 3] {
            let cfg = MonitorConfig { threads, ..MonitorConfig::default() };
            let svc = MonitorService::new(cfg, &links(n, 3));
            scrambled(&svc);
            assert_eq!(links_digest(&inorder), links_digest(&svc), "threads={threads}");
            let st = svc.seq_stats(0);
            assert_eq!(st.next_seq, 200);
            assert!(st.reordered > 0);
            assert_eq!(st.dropped, 0);
        }
    }

    /// Round `r`'s batch in a reorder storm: every link sends the rounds
    /// of each block of four in a link-specific order (in order, swapped
    /// pairs, or three-deep rotations), and every 9th link re-sends its
    /// previous arrival. All of it stays inside the default window, so the
    /// gates heal everything — but mid-block, most gates have samples
    /// parked.
    fn storm_batch(n: usize, r: u64) -> Vec<(u32, u64, MonitorSample)> {
        const ORDERS: [[u64; 4]; 4] = [[0, 1, 2, 3], [1, 0, 3, 2], [3, 1, 0, 2], [2, 3, 1, 0]];
        let seq = |id: u32, r: u64| (r / 4) * 4 + ORDERS[id as usize % 4][(r % 4) as usize];
        let mut batch = Vec::new();
        for id in 0..n as u32 {
            let q = seq(id, r);
            batch.push((id, q, sample(id, q)));
            if id % 9 == 4 && r > 0 {
                let p = seq(id, r - 1);
                batch.push((id, p, sample(id, p)));
            }
        }
        batch
    }

    /// Debug text of every verdict (compares NaN baselines as equal).
    fn verdict_stream(svc: &MonitorService, n: usize) -> Vec<String> {
        (0..n as u32).map(|id| format!("{:?}", svc.verdict(id))).collect()
    }

    fn all_seq_stats(svc: &MonitorService, n: usize) -> Vec<SeqStats> {
        (0..n as u32).map(|id| svc.seq_stats(id)).collect()
    }

    /// Ingest storm rounds `rounds`, returning each batch's report, verdict
    /// stream and gate counters.
    fn drive_storm(
        svc: &MonitorService,
        n: usize,
        rounds: std::ops::Range<u64>,
    ) -> Vec<(IngestReport, Vec<String>, Vec<SeqStats>)> {
        rounds
            .map(|r| {
                let report = svc.ingest_sequenced(&storm_batch(n, r));
                (report, verdict_stream(svc, n), all_seq_stats(svc, n))
            })
            .collect()
    }

    #[test]
    fn kill_resume_with_parked_samples_is_bit_identical() {
        let n = 70;
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-parked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Killed mid-block: round 141 is the second of a block of four.
        let (kill, end) = (142u64, 260u64);
        for threads in [1usize, 3] {
            let cfg = MonitorConfig { threads, shards: 6, ..MonitorConfig::default() };
            let straight = MonitorService::new(cfg, &links(n, 3));
            let whole = drive_storm(&straight, n, 0..end);

            let first = MonitorService::new(cfg, &links(n, 3));
            drive_storm(&first, n, 0..kill);
            let parked: usize = all_seq_stats(&first, n).iter().map(|s| s.buffered).sum();
            assert!(parked > n / 4, "threads={threads}: only {parked} samples parked");
            let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
            first.checkpoint(&store).unwrap();
            drop(first);

            let (resumed, report) = MonitorService::resume_resilient(
                cfg,
                &links(n, 3),
                CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap(),
            );
            assert!(report.all_restored(), "threads={threads}: {report:?}");
            let (_, verdicts, stats) = &whole[kill as usize - 1];
            assert_eq!(&verdict_stream(&resumed, n), verdicts, "threads={threads}");
            assert_eq!(&all_seq_stats(&resumed, n), stats, "threads={threads}");
            let rest = drive_storm(&resumed, n, kill..end);
            assert!(rest == whole[kill as usize..], "threads={threads}: streams diverge");
            assert_eq!(state_digest(&straight), state_digest(&resumed), "threads={threads}");
            let last = &whole[end as usize - 1].2;
            // The storm healed completely: nothing dropped or stale, and
            // every link outside the in-order quarter took reorders.
            for (id, s) in last.iter().enumerate() {
                assert_eq!((s.next_seq, s.dropped, s.stale), (end, 0, 0), "link {id}");
                assert_eq!(s.reordered > 0, id % 4 != 0, "link {id}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn impossible_parked_sample_reads_as_corrupt() {
        let n = 24;
        let cfg = MonitorConfig { shards: 2, ..MonitorConfig::default() };
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-bad-parked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = MonitorService::new(cfg, &links(n, 2));
        drive_storm(&first, n, 0..41);
        let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
        first.checkpoint(&store).unwrap();
        let name = shard_blob_name(0);
        let payload = store.load_blob(&name).unwrap();
        let slots = first.shards[0].lock().slots();
        let records = 8 + slots * SHARD_SLOT_LEN + 8;
        assert!(payload.len() > records, "shard 0 must have samples parked");
        let slot = u64::from_le_bytes(payload[records..records + 8].try_into().unwrap());
        let next_seq = first.shards[0].lock().hot[slot as usize].next_seq;
        // Rewrite the first parked record's sequence number to the gate's
        // next_seq — a sample a live gate would have delivered, not parked
        // — and store it with a valid CRC, so only the decoder can object.
        let mut bad = payload.clone();
        bad[records + 8..records + 16].copy_from_slice(&next_seq.to_le_bytes());
        store.store_blob(&name, &bad).unwrap();
        assert!(decode_shard_payload(&bad, slots, &cfg).is_none());
        let (svc, report) = MonitorService::resume_resilient(
            cfg,
            &links(n, 2),
            CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap(),
        );
        assert_eq!(report.shards, vec![ShardRecovery::RebuiltCorrupt, ShardRecovery::Restored]);
        // The rebuilt shard keeps ingesting without tripping the gate.
        drive_storm(&svc, n, 0..12);
        // A duplicated parked record is refused the same way.
        let mut dup = payload.clone();
        let count_at = records - 8;
        let parked = u64::from_le_bytes(payload[count_at..records].try_into().unwrap());
        dup[count_at..records].copy_from_slice(&(parked + 1).to_le_bytes());
        dup.splice(records..records, payload[records..records + PARKED_LEN].iter().copied());
        assert!(decode_shard_payload(&dup, slots, &cfg).is_none());
        assert!(decode_shard_payload(&payload, slots, &cfg).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint whose words a live link could never hold reads as
    /// corrupt, shard by shard, and never panics: a window counter above a
    /// day of rounds, an open loss run beyond `u32::MAX`, more parked
    /// samples for one link than the reorder buffer holds, and a last
    /// path-change or last-alarm round at or past the rounds ingested
    /// (the next alarm would subtract past zero).
    #[test]
    fn narrowed_fields_out_of_range_read_as_corrupt() {
        let n = 24;
        let cfg = MonitorConfig { shards: 2, ..MonitorConfig::default() };
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-narrow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = MonitorService::new(cfg, &links(n, 2));
        drive(&first, n, 0..40);
        let payload = encode_shard_payload(&first.shards[0].lock());
        let slots = first.shards[0].lock().slots();
        let (next_seq, rounds) = {
            let slab = first.shards[0].lock();
            (slab.hot[0].next_seq, slab.hot[0].rounds)
        };
        // Link word `w` of slot 0 set to `v`.
        let with_word = |w: usize, v: u64| {
            let mut bad = payload.clone();
            bad[8 + w * 8..16 + w * 8].copy_from_slice(&v.to_le_bytes());
            bad
        };
        // REORDER_CAP + 1 parked records for slot 0, the trailer count to match.
        let overfull = {
            let records = 8 + slots * SHARD_SLOT_LEN;
            let mut bad = payload[..records].to_vec();
            let extra = crate::state::REORDER_CAP as u64 + 1;
            bad.extend_from_slice(&extra.to_le_bytes());
            for q in next_seq + 1..=next_seq + extra {
                for w in [0, q, 2.5f64.to_bits(), 0xFACE, 3] {
                    bad.extend_from_slice(&u64::to_le_bytes(w));
                }
            }
            bad
        };
        let window = WINDOW_ROUNDS + 1;
        let cases = [
            ("w_rounds", with_word(16, window)),
            ("w_answered", with_word(17, window)),
            ("w_addr_bad", with_word(18, window)),
            ("w_gap_rounds", with_word(19, window)),
            ("w_path_changes", with_word(20, window)),
            ("cur_loss_run", with_word(21, u64::from(u32::MAX) + 1)),
            ("parked", overfull),
            ("last_change_round", with_word(11, rounds)),
            ("last_alarm_round", with_word(24, rounds)),
        ];
        assert!(decode_shard_payload(&payload, slots, &cfg).is_some());
        assert!(decode_shard_payload(&with_word(16, WINDOW_ROUNDS - 1), slots, &cfg).is_some());
        assert!(decode_shard_payload(&with_word(21, u64::from(u32::MAX)), slots, &cfg).is_some());
        for w in [11, 24] {
            assert!(decode_shard_payload(&with_word(w, rounds - 1), slots, &cfg).is_some());
            assert!(decode_shard_payload(&with_word(w, u64::MAX), slots, &cfg).is_some());
        }
        for (field, bad) in cases {
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
            first.checkpoint(&store).unwrap();
            store.store_blob(&shard_blob_name(0), &bad).unwrap();
            let (svc, report) = MonitorService::resume_resilient(
                cfg,
                &links(n, 2),
                CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap(),
            );
            assert_eq!(
                report.shards,
                vec![ShardRecovery::RebuiltCorrupt, ShardRecovery::Restored],
                "{field}"
            );
            drive(&svc, n, 0..3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicates_and_replays_never_reach_detectors() {
        let n = 40;
        let clean = MonitorService::new(MonitorConfig::default(), &links(n, 2));
        drive(&clean, n, 0..150);
        let noisy = MonitorService::new(MonitorConfig::default(), &links(n, 2));
        for r in 0..150u64 {
            let mut batch: Vec<(u32, u64, MonitorSample)> =
                (0..n as u32).map(|id| (id, r, sample(id, r))).collect();
            // Re-send the previous round for every link (duplicate), plus
            // an ancient replay every 10 rounds.
            if r > 0 {
                batch.extend(
                    (0..n as u32).map(|id| (id, r - 1, sample(id, r - 1))),
                );
            }
            if r.is_multiple_of(10) && r > 20 {
                batch.push((0, 1, sample(0, 1)));
            }
            noisy.ingest_sequenced(&batch);
        }
        assert_eq!(links_digest(&clean), links_digest(&noisy));
        let st = noisy.seq_stats(0);
        assert!(st.duplicates + st.stale > 140, "{st:?}");
    }

    #[test]
    fn shedding_is_deterministic_and_thread_invariant() {
        let n = 96;
        let mk = |threads| {
            MonitorConfig {
                threads,
                shards: 4,
                max_shard_batch: 10,
                ..MonitorConfig::default()
            }
        };
        let run = |threads| {
            let svc = MonitorService::new(mk(threads), &links(n, 3));
            let mut reports = Vec::new();
            for r in 0..40u64 {
                let batch: Vec<(u32, u64, MonitorSample)> =
                    (0..n as u32).map(|id| (id, r, sample(id, r))).collect();
                reports.push(svc.ingest_sequenced(&batch));
            }
            (links_digest(&svc), reports)
        };
        let (da, ra) = run(1);
        let (db, rb) = run(4);
        assert_eq!(da, db);
        assert_eq!(ra, rb);
        // 96 links over 4 shards = 24 demand per shard, capped at 10.
        assert_eq!(ra[0].shed, 4 * 14);
        assert_eq!(ra[0].accepted, 40);
        assert_eq!(ra[0].mode, ServiceMode::Degraded);
    }

    #[test]
    fn degraded_mode_clears_after_hold() {
        let n = 16;
        let cfg = MonitorConfig {
            shards: 2,
            max_shard_batch: 4,
            ..MonitorConfig::default()
        };
        let svc = MonitorService::new(cfg, &links(n, 2));
        drive(&svc, n, 0..1); // 8 per shard > 4: sheds
        assert_eq!(svc.mode(), ServiceMode::Degraded);
        // Small batches below the cap: pressure is gone, hold decays.
        for r in 1..6u64 {
            let batch: Vec<(u32, u64, MonitorSample)> =
                (0..4u32).map(|id| (id, r, sample(id, r))).collect();
            svc.ingest_sequenced(&batch);
        }
        assert_eq!(svc.mode(), ServiceMode::Healthy);
    }

    #[test]
    fn rejected_inputs_are_counted_not_fatal() {
        let n = 10;
        let svc = MonitorService::new(MonitorConfig::default(), &links(n, 2));
        let batch: Vec<(u32, u64, MonitorSample)> = vec![
            (0, 0, sample(0, 0)),
            (999, 0, sample(1, 0)),      // unknown link
            (1, u64::MAX, sample(1, 0)), // reserved sequence
        ];
        let report = svc.ingest_sequenced(&batch);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn armed_panic_recovers_from_checkpoint_and_replays() {
        let n = 60;
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for threads in [1usize, 3] {
            let cfg = MonitorConfig { threads, shards: 5, ..MonitorConfig::default() };
            let straight = MonitorService::new(cfg, &links(n, 3));
            drive(&straight, n, 0..120);

            let svc = MonitorService::new(cfg, &links(n, 3));
            let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
            svc.set_store(store);
            drive(&svc, n, 0..80);
            // Checkpoint right before the faulty batch: the replay restores
            // it and re-runs batch 80, so nothing diverges.
            assert!(svc.checkpoint_attached().unwrap());
            svc.arm_panic(2, svc.batches_ingested(), 3);
            let report = drive(&svc, n, 80..81);
            assert_eq!(report.restarts, 1, "threads={threads}");
            assert_eq!(report.mode, ServiceMode::Degraded);
            assert_eq!(svc.quarantined_shards(), 0);
            drive(&svc, n, 81..120);
            assert_eq!(state_digest(&straight), state_digest(&svc), "threads={threads}");
            for id in 0..n as u32 {
                assert_eq!(straight.verdict(id), svc.verdict(id), "threads={threads}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn double_panic_quarantines_until_next_good_pass() {
        let n = 30;
        let cfg = MonitorConfig { shards: 3, ..MonitorConfig::default() };
        let svc = MonitorService::new(cfg, &links(n, 2));
        drive(&svc, n, 0..10);
        // Two armed panics for the same (shard, batch): the replay hits the
        // second one and the shard quarantines.
        let b = svc.batches_ingested();
        svc.arm_panic(1, b, 2);
        svc.arm_panic(1, b, 4);
        let report = drive(&svc, n, 10..11);
        assert_eq!(report.restarts, 1);
        assert_eq!(svc.quarantined_shards(), 1);
        assert_eq!(svc.mode(), ServiceMode::Degraded);
        // Unaffected shards kept publishing: their links saw round 10.
        assert_eq!(svc.verdict(0).round, 11);
        // Next clean pass clears the quarantine.
        drive(&svc, n, 11..12);
        assert_eq!(svc.quarantined_shards(), 0);
    }

    /// A supervised restart follows the resume rule: a shard blob whose CRC
    /// holds but whose payload does not decode is quarantined to a
    /// `.corrupt` sidecar, not left in place for the next restart to trip
    /// over, and the shard rebuilds from scratch.
    #[test]
    fn supervised_restart_quarantines_an_undecodable_blob() {
        let n = 30;
        let cfg = MonitorConfig { shards: 3, ..MonitorConfig::default() };
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
        let svc = MonitorService::new(cfg, &links(n, 2));
        drive(&svc, n, 0..20);
        svc.checkpoint(&store).unwrap();
        // Store shard 1's payload back with one slot too many: a valid CRC
        // under the right fingerprint, so only the decoder can object.
        let name = shard_blob_name(1);
        let mut bad = store.load_blob(&name).unwrap();
        let slots = svc.shards[1].lock().slots();
        bad[..8].copy_from_slice(&(slots as u64 + 1).to_le_bytes());
        store.store_blob(&name, &bad).unwrap();
        assert!(decode_shard_payload(&bad, slots, &cfg).is_none());
        svc.set_store(store);
        svc.arm_panic(1, svc.batches_ingested(), 2);
        let report = drive(&svc, n, 20..21);
        assert_eq!(report.restarts, 1);
        assert_eq!(svc.quarantined_shards(), 0);
        assert!(dir.join("blob-monitor-shard-001.blob.corrupt").exists());
        assert!(!dir.join("blob-monitor-shard-001.blob").exists(), "undecodable blob must be moved aside");
        // Shard 1 rebuilt from scratch; the others kept going.
        assert_eq!(svc.verdict(1).round, 0, "shard 1 rebuilt from scratch");
        assert_eq!(svc.verdict(0).round, 21);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The trace's recovery tokens are `ShardRecovery`'s discriminants.
    #[test]
    fn recovery_tokens_name_their_outcome() {
        use ShardRecovery::*;
        for r in [Restored, RebuiltMissing, RebuiltStale, RebuiltCorrupt] {
            assert_eq!(ixp_obs::trace::recovery_name(r as u64), format!("{r:?}"));
        }
    }

    #[test]
    fn resume_resilient_quarantines_corrupt_shard_only() {
        let n = 45;
        let cfg = MonitorConfig { shards: 3, ..MonitorConfig::default() };
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
        let first = MonitorService::new(cfg, &links(n, 3));
        drive(&first, n, 0..90);
        first.checkpoint(&store).unwrap();
        // Flip the CRC byte of shard 1's blob.
        let blob = dir.join("blob-monitor-shard-001.blob");
        let mut bytes = std::fs::read(&blob).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&blob, &bytes).unwrap();
        // Strict resume refuses; resilient resume rebuilds shard 1 alone.
        assert!(MonitorService::resume(cfg, &links(n, 3), &store).is_none());
        let store2 = CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
        let (svc, report) = MonitorService::resume_resilient(cfg, &links(n, 3), store2);
        assert_eq!(
            report.shards,
            vec![
                ShardRecovery::Restored,
                ShardRecovery::RebuiltCorrupt,
                ShardRecovery::Restored
            ]
        );
        assert_eq!(report.rebuilt(), 1);
        assert!(dir.join("blob-monitor-shard-001.blob.corrupt").exists());
        assert!(!blob.exists(), "corrupt blob must be moved aside");
        for id in 0..n as u32 {
            if id % 3 == 1 {
                assert_eq!(svc.verdict(id).round, 0, "shard 1 rebuilt from scratch");
            } else {
                assert_eq!(svc.verdict(id), first.verdict(id), "unaffected link {id}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ingest loop's label skip is exact. Driven arrival by arrival
    /// through the mixed traffic (losses, gaps, address flips, path
    /// changes, window rollovers, late, replayed and withheld samples),
    /// every arrival the skip rule passes over already holds the label
    /// `LinkHot::health` computes, and the service, which skips the same
    /// arrivals, publishes the same labels after every round.
    #[test]
    fn skipped_labels_equal_health() {
        let n = 120;
        let cfg = MonitorConfig { threads: 1, shards: 5, ..MonitorConfig::default() };
        let svc = MonitorService::new(cfg, &links(n, 3));
        let mut refs = vec![(LinkHot::new(), LinkCold::new(), LinkHealth::Clean); n];
        let (mut skipped, mut young, mut seen) = (0u64, 0u64, [false; 6]);
        for g in 0..900 {
            let round = mixed_round(n, g);
            for &(id, seq, s) in &round {
                let (h, c, label) = &mut refs[id as usize];
                let quiet = h.quiet_arrival(seq, &s);
                let mut moved = false;
                h.admit(c, seq, s, cfg.reorder_window, &mut |h, c, smp| {
                    moved |= h.push(c, &smp).evidence_moved;
                });
                if quiet && !moved && h.stays_clean(*label) {
                    assert_eq!(h.health(), *label, "round {g}, link {id}");
                    skipped += 1;
                } else {
                    // A Clean link early in its window must recompute.
                    young += u64::from(quiet && !moved && *label == LinkHealth::Clean);
                    *label = h.health();
                }
                seen[*label as usize] = true;
            }
            svc.ingest_sequenced(&round);
            for (id, (.., label)) in refs.iter().enumerate() {
                assert_eq!(svc.verdict(id as u32).health, *label, "round {g}, link {id}");
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        assert!(skipped > 0 && young > 0, "{skipped} skipped, {young} young");
    }

    /// The whole verdict a link's state implies, built field by field — the
    /// reference the split publish path must reproduce.
    fn verdict_of(st: &LinkState) -> LinkVerdict {
        LinkVerdict {
            round: st.rounds(),
            elevated: st.is_elevated(),
            baseline_ms: st.baseline(),
            elevation_ms: st.elevation_estimate(),
            health: st.health(),
            alarms: st.alarms(),
            masked_alarms: st.masked_alarms(),
            gaps: st.gaps(),
            evidence: st.verdict_evidence(),
        }
    }

    /// What link `id` measures in global round `g` of the mixed traffic. Per
    /// link and day, from seeded hashes: a loss run of 0 to 280 rounds
    /// (Gappy and Silent windows) over 0–30% scattered loss, a +15 ms
    /// plateau, a detour onto a longer path with its own fingerprint (masked
    /// alarms), and a burst of answers from the wrong address; 5% of
    /// answered rounds carry fingerprint 0.
    fn mixed_sample(id: u32, g: u64) -> MonitorSample {
        let h = mix(&[0x5A, id as u64, g]);
        let t = g % 288;
        let span = |salt: u64, lens: &[u64]| {
            let d = mix(&[0xD1, id as u64, g / 288, salt]);
            let (len, start) = (lens[(d % lens.len() as u64) as usize], (d >> 16) % 288);
            (start..start + len).contains(&t)
        };
        let scatter = [0, 0, 2, 30][(mix(&[0xD1, id as u64, g / 288, 1]) % 4) as usize];
        if span(2, &[0, 0, 3, 10, 40, 150, 280]) || h % 100 < scatter {
            return MonitorSample::lost();
        }
        let detour = span(4, &[0, 0, 50, 200]);
        let level = 10.0 + if span(3, &[0, 0, 0, 60, 120]) { 15.0 } else { 0.0 };
        MonitorSample {
            far_ms: level + ((h >> 8) % 1000) as f64 / 1000.0 + if detour { 8.0 } else { 0.0 },
            path_fp: if (h >> 20).is_multiple_of(20) { 0 } else { 0xF00 + u64::from(detour) },
            far_addr_ok: !span(5, &[0, 0, 0, 20, 100]),
        }
    }

    /// Round `g`'s arrivals in the mixed traffic: 3% of samples arrive one
    /// round late, after their successor; 0.5% never arrive (the gate drops
    /// them once the window slides); 3% of rounds re-send the previous
    /// sequence number and 1% replay one 30 rounds old; every 17th link's
    /// sequence numbers jump by 1000 at round 400.
    fn mixed_round(n: usize, g: u64) -> Vec<(u32, u64, MonitorSample)> {
        let seq = |id: u32, g: u64| if id % 17 == 3 && g >= 400 { g + 1000 } else { g };
        let base_late = |id: u32, g: u64| mix(&[0x1A, id as u64, g]) % 100 < 3;
        let late = |id: u32, g: u64| base_late(id, g) && !base_late(id, g + 1);
        let withheld = |id: u32, g: u64| mix(&[0x3B, id as u64, g]).is_multiple_of(200);
        let mut out = Vec::new();
        for id in 0..n as u32 {
            let mut send = |g: u64| out.push((id, seq(id, g), mixed_sample(id, g)));
            if !late(id, g) && !withheld(id, g) {
                send(g);
            }
            if g > 0 && late(id, g - 1) && !withheld(id, g - 1) {
                send(g - 1);
            }
            match mix(&[0x2C, id as u64, g]) % 100 {
                0..3 if g > 0 => send(g - 1),
                3 if g > 30 => send(g - 30),
                _ => {}
            }
        }
        out
    }

    /// Every link's published verdict is the one its state implies, to the
    /// last bit of every field.
    fn assert_published(svc: &MonitorService, n: usize, when: &str) {
        let n_shards = svc.shards.len();
        for id in 0..n as u32 {
            let (shard, slot) = (id as usize % n_shards, id as usize / n_shards);
            let slab = svc.shards[shard].lock();
            let want = verdict_of(&LinkState::from_parts(slab.hot[slot], slab.cold[slot].clone()));
            assert_eq!(format!("{:?}", svc.verdict(id)), format!("{want:?}"), "{when}: link {id}");
        }
    }

    /// The split publish path — hot records for every item, cold records
    /// only for slots a pass marked dirty — leaves the index holding exactly
    /// the verdicts the link states imply, after every batch of traffic
    /// that exercises each dirty rule, at 1 and 3 threads, through a
    /// supervised restore and a resume.
    #[test]
    fn published_verdicts_match_link_states_every_batch() {
        let n = 300;
        let rounds = 960u64;
        // Two catch-up batches of 48 rounds (14,400 samples) fan out to
        // three workers; every other batch is one round and runs inline.
        let batches: Vec<std::ops::Range<u64>> = (0..rounds)
            .filter(|g| !(301..348).contains(g) && !(701..748).contains(g))
            .map(|g| if g == 300 || g == 700 { g..g + 48 } else { g..g + 1 })
            .collect();
        let dir: PathBuf =
            std::env::temp_dir().join(format!("monitor-publish-{}", std::process::id()));
        for threads in [1usize, 3] {
            let _ = std::fs::remove_dir_all(&dir);
            // 300 links over 7 shards: the slabs differ in length.
            let cfg = MonitorConfig { threads, shards: 7, ..MonitorConfig::default() };
            let store = || CheckpointStore::new(&dir, monitor_fingerprint(&cfg, n)).unwrap();
            let mut svc = MonitorService::new(cfg, &links(n, 3));
            svc.set_store(store());
            let mut health_seen = [false; 6];
            let mut sum = IngestReport {
                accepted: 0,
                delivered: 0,
                rejected: 0,
                shed: 0,
                duplicates: 0,
                stale: 0,
                reordered: 0,
                dropped: 0,
                restarts: 0,
                mode: ServiceMode::Healthy,
            };
            for range in &batches {
                let when = format!("threads={threads}, rounds {range:?}");
                if range.start == 500 {
                    assert!(svc.checkpoint_attached().unwrap());
                    svc.arm_panic(2, svc.batches_ingested(), 40);
                }
                // Eight rounds into the fourth day: young windows flip
                // labels often, so a stale published label would show.
                if range.start == 872 {
                    svc.checkpoint_attached().unwrap();
                    drop(svc);
                    svc = MonitorService::resume(cfg, &links(n, 3), &store())
                        .expect("checkpoint must resume");
                    svc.set_store(store());
                    assert_published(&svc, n, &format!("{when}, resumed"));
                }
                let batch: Vec<_> = range.clone().flat_map(|g| mixed_round(n, g)).collect();
                let r = svc.ingest_sequenced(&batch);
                assert_published(&svc, n, &when);
                for id in 0..n as u32 {
                    health_seen[svc.verdict(id).health as usize] = true;
                }
                sum.delivered += r.delivered;
                sum.duplicates += r.duplicates;
                sum.stale += r.stale;
                sum.reordered += r.reordered;
                sum.dropped += r.dropped;
                sum.restarts += r.restarts;
            }
            // The traffic exercised what it claims to.
            assert!(health_seen.iter().all(|&s| s), "threads={threads}: {health_seen:?}");
            assert_eq!(sum.restarts, 1, "threads={threads}");
            assert!(
                sum.duplicates > 0 && sum.stale > 0 && sum.reordered > 0 && sum.dropped > 1000,
                "threads={threads}: {sum:?}"
            );
            let (alarms, masked) = (0..n as u32)
                .map(|id| svc.verdict(id))
                .fold((0, 0), |(a, m), v| (a + v.alarms, m + v.masked_alarms));
            assert!(alarms > masked && masked > 0, "threads={threads}: {alarms} alarms, {masked} masked");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The v4 checkpoint bytes of a fixed drive are a literal: three days of
    /// the mixed traffic (loss, late and withheld samples, replays, path
    /// changes, sequence jumps) over 1k links, every shard's payload hashed
    /// in shard order. A change to the in-memory layout must leave this
    /// value where it is, or old checkpoints would resume into a different
    /// state.
    #[test]
    fn checkpoint_bytes_of_a_mixed_drive_are_pinned() {
        let n = 1_000;
        let svc = MonitorService::new(MonitorConfig::default(), &links(n, 8));
        for g in 0..3 * WINDOW_ROUNDS {
            svc.ingest_sequenced(&mixed_round(n, g));
        }
        let bytes = state_digest(&svc);
        let words: Vec<u64> =
            bytes.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect();
        assert_eq!((bytes.len(), mix(&words)), (258_656, 7_896_377_920_306_157_140));
    }

    #[test]
    fn queries_and_gauges_during_ingest() {
        use std::sync::atomic::AtomicBool;
        let n = 200;
        let svc = std::sync::Arc::new(MonitorService::new(
            MonitorConfig { threads: 2, ..MonitorConfig::default() },
            &links(n, 4),
        ));
        let stop = AtomicBool::new(false);
        // Bumped before and after every `ingest_sequenced` call, so it is
        // odd exactly while one runs. Every round feeds every link once,
        // so between calls all links publish the same round; a reader
        // sweep that begins and ends inside one call (same odd value on
        // both sides) and still sees two different rounds read the index
        // while that call was publishing into it. A 200-link round ingests
        // in microseconds, so the ingest side keeps driving rounds until
        // such a sweep happened, up to a cap that fails the test.
        let epoch = AtomicU64::new(0);
        let overlapped = AtomicU64::new(0);
        let mut rounds = 0u64;
        std::thread::scope(|sc| {
            let reader_svc = std::sync::Arc::clone(&svc);
            let (stop_ref, epoch_ref, overlapped_ref) = (&stop, &epoch, &overlapped);
            let reader = sc.spawn(move || {
                while !stop_ref.load(Ordering::Relaxed) {
                    let before = epoch_ref.load(Ordering::SeqCst);
                    let (mut lo, mut hi) = (u64::MAX, 0);
                    for id in (0..n as u32).step_by(7) {
                        let round = reader_svc.verdict(id).round;
                        (lo, hi) = (lo.min(round), hi.max(round));
                    }
                    if before % 2 == 1 && epoch_ref.load(Ordering::SeqCst) == before && lo != hi {
                        overlapped_ref.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            const MAX_ROUNDS: u64 = 20_000;
            while rounds < 150 || (overlapped.load(Ordering::Relaxed) == 0 && rounds < MAX_ROUNDS) {
                let batch: Vec<(u32, u64, MonitorSample)> =
                    (0..n as u32).map(|id| (id, rounds, sample(id, rounds))).collect();
                epoch.fetch_add(1, Ordering::SeqCst);
                svc.ingest_sequenced(&batch);
                epoch.fetch_add(1, Ordering::SeqCst);
                rounds += 1;
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().unwrap();
            assert!(
                overlapped.load(Ordering::Relaxed) > 0,
                "reader must have made progress during ingest ({rounds} rounds)"
            );
        });
        let reg = ixp_obs::MetricsRegistry::new();
        svc.publish_gauges(&reg);
        let sheet = reg.snapshot();
        assert_eq!(sheet.gauges["monitor_links"], n as f64);
        assert_eq!(sheet.gauges["monitor_samples_ingested"], (rounds * n as u64) as f64);
        assert!(sheet.gauges["monitor_elevated_links"] >= 1.0);
        assert!(sheet.gauges.contains_key("monitor_index_read_qps"));
        assert!(sheet.gauges["monitor_shard_backlog_max"] >= 1.0);
    }
}
