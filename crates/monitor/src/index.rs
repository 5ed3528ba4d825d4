//! The concurrent verdict index: sharded `RwLock` slabs of published
//! per-link verdicts, plus lock-free elevated-link aggregates.
//!
//! Read-path consistency story: a reader always sees a **complete** verdict
//! for any link, from the most recently *published* pass for that shard.
//! Each shard's slab keeps a verdict in two parts: a dense 32-byte hot
//! record (`round`, `elevated`, `baseline_ms`, `elevation_ms`), rewritten
//! for every sample a pass delivers, and a cold record (health, alarm and
//! gap counters, evidence), rewritten only when one of them moved. Both
//! parts live under the shard's one `RwLock` and a pass writes both under
//! one write-lock hold, so a reader never joins the hot part of one pass to
//! the cold part of another: [`VerdictIndex::verdict`] returns exactly the
//! verdict the link's state held when its shard last published. Readers of
//! different shards may observe different rounds — the index trades
//! cross-shard snapshot isolation for zero coordination between shards,
//! which is what lets ingestion proceed on shard A while a dashboard drains
//! shard B. The elevated-link aggregates are atomics maintained on
//! publication-time transitions of the hot records, so a counter read
//! never takes any lock.
//!
//! Layout: link `id` lives in shard `id % shards` at slot `id / shards`.
//! Striding (rather than chunking) spreads adjacent links — which are
//! usually probed in the same batch — across shards, so a batch's write
//! locks interleave instead of convoying on one shard.

use ixp_obs::RateMeter;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use tslp_core::LinkHealth;

/// What the causal path-change mask decided at the link's most recent
/// upshift alarm — kept alongside the verdict so a "why is / isn't this
/// elevated?" question can be answered without replaying the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskOutcome {
    /// No alarm has fired yet, or no path change was on record when it did:
    /// the mask never entered the decision.
    NotConsidered,
    /// The alarm was attributed to a path change `rounds_since_change`
    /// rounds earlier and suppressed from the congestion tally.
    Applied {
        /// Rounds between the path change and the alarm (within the slack).
        rounds_since_change: u64,
    },
    /// A path change was on record but fell outside the slack window, so
    /// the alarm stood as genuine congestion.
    Rejected {
        /// Rounds between the path change and the alarm (beyond the slack).
        rounds_since_change: u64,
    },
}

/// Provenance for a published [`LinkVerdict`]: where the detector last
/// shifted, what it shifted *from*, the path fingerprints straddling the
/// most recent route change, and what the mask did about it. `u64::MAX`
/// round fields mean "never"; fingerprint 0 means "unknown".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VerdictEvidence {
    /// Round of the most recent upshift alarm (`u64::MAX` = never).
    pub change_round: u64,
    /// Detector level estimate just before that shift, milliseconds.
    pub level_before_ms: f64,
    /// Path fingerprint before the most recent route change (0 = none).
    pub fp_before: u64,
    /// Current path fingerprint (0 = unknown).
    pub fp_after: u64,
    /// Round of the most recent route change (`u64::MAX` = never).
    pub path_change_round: u64,
    /// The mask decision at the most recent alarm.
    pub mask: MaskOutcome,
}

impl VerdictEvidence {
    /// Evidence for a link with no history.
    pub fn empty() -> VerdictEvidence {
        VerdictEvidence {
            change_round: u64::MAX,
            level_before_ms: 0.0,
            fp_before: 0,
            fp_after: 0,
            path_change_round: u64::MAX,
            mask: MaskOutcome::NotConsidered,
        }
    }
}

/// The published verdict for one monitored link — everything a reader
/// needs, no lock held while consuming it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkVerdict {
    /// Rounds ingested for this link when the verdict was published.
    pub round: u64,
    /// Is the link inside an elevated (congestion) period right now?
    pub elevated: bool,
    /// Detector baseline estimate, milliseconds.
    pub baseline_ms: f64,
    /// Estimated elevation magnitude, milliseconds (0 when quiet).
    pub elevation_ms: f64,
    /// Current measurement-health label.
    pub health: LinkHealth,
    /// Upshift alarms so far (masked included).
    pub alarms: u64,
    /// Upshift alarms attributed to path changes.
    pub masked_alarms: u64,
    /// Unanswered rounds so far.
    pub gaps: u64,
    /// Why the verdict says what it says.
    pub evidence: VerdictEvidence,
}

impl LinkVerdict {
    /// The verdict of a link nothing has been ingested for.
    pub fn empty() -> LinkVerdict {
        LinkVerdict {
            round: 0,
            elevated: false,
            baseline_ms: 0.0,
            elevation_ms: 0.0,
            health: LinkHealth::Clean,
            alarms: 0,
            masked_alarms: 0,
            gaps: 0,
            evidence: VerdictEvidence::empty(),
        }
    }
}

/// The part of a [`LinkVerdict`] that moves with every sample: 32 bytes,
/// rewritten for every item of a shard pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct HotVerdict {
    pub(crate) round: u64,
    pub(crate) elevated: bool,
    pub(crate) baseline_ms: f64,
    pub(crate) elevation_ms: f64,
}

impl HotVerdict {
    fn empty() -> HotVerdict {
        HotVerdict { round: 0, elevated: false, baseline_ms: 0.0, elevation_ms: 0.0 }
    }
}

/// The rest of a [`LinkVerdict`]: health, counters and evidence, which
/// move only on events (an alarm, a gap, a new fingerprint, a health
/// change), so a pass rewrites it only for the slots it marked dirty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ColdVerdict {
    pub(crate) health: LinkHealth,
    pub(crate) alarms: u64,
    pub(crate) masked_alarms: u64,
    pub(crate) gaps: u64,
    pub(crate) evidence: VerdictEvidence,
}

impl ColdVerdict {
    fn empty() -> ColdVerdict {
        ColdVerdict {
            health: LinkHealth::Clean,
            alarms: 0,
            masked_alarms: 0,
            gaps: 0,
            evidence: VerdictEvidence::empty(),
        }
    }
}

/// One shard's published verdicts, split by how often they move; slot `i`
/// of `hot` and of `cold` together are one [`LinkVerdict`].
struct Slab {
    hot: Vec<HotVerdict>,
    cold: Vec<ColdVerdict>,
}

/// Sharded concurrent verdict store. See the module docs for the layout
/// and consistency contract.
pub struct VerdictIndex {
    shards: Vec<RwLock<Slab>>,
    n_links: usize,
    /// Links currently elevated (maintained on publish transitions).
    elevated: AtomicU64,
    /// Elevated links per IXP (indexed by the service's IXP ids).
    elevated_per_ixp: Vec<AtomicU64>,
    /// Read-side throughput meter (one mark per verdict lookup).
    reads: ReadMeter,
}

/// The read meter on a 128-byte block of its own. Every lookup bumps it
/// from a reader's core, and the service embeds the index next to the
/// configuration its ingest worker reads for every sample: sharing a line
/// (or the adjacent-line prefetch pair) with it measured about 40 ns per
/// sample at 100k links with one reader thread on a 2-CPU x86-64 host.
#[repr(align(128))]
struct ReadMeter(RateMeter);

impl VerdictIndex {
    /// An index for `n_links` links across `shards` shards and `n_ixps`
    /// IXP aggregates, all verdicts empty.
    pub fn new(n_links: usize, shards: usize, n_ixps: usize) -> VerdictIndex {
        let shards = shards.max(1);
        let mut slabs = Vec::with_capacity(shards);
        for s in 0..shards {
            let slots = n_links / shards + usize::from(s < n_links % shards);
            slabs.push(RwLock::new(Slab {
                hot: vec![HotVerdict::empty(); slots],
                cold: vec![ColdVerdict::empty(); slots],
            }));
        }
        VerdictIndex {
            shards: slabs,
            n_links,
            elevated: AtomicU64::new(0),
            elevated_per_ixp: (0..n_ixps.max(1)).map(|_| AtomicU64::new(0)).collect(),
            reads: ReadMeter(RateMeter::new()),
        }
    }

    /// Number of links indexed.
    pub fn len(&self) -> usize {
        self.n_links
    }

    /// True when no links are indexed.
    pub fn is_empty(&self) -> bool {
        self.n_links == 0
    }

    /// Current verdict for link `id`; [`LinkVerdict::empty`] for an unknown
    /// id. Total (never panics): a dashboard poller with a stale link list
    /// gets an empty verdict, not a crash inside the read lock.
    pub fn verdict(&self, id: u32) -> LinkVerdict {
        self.reads.0.mark(1);
        let shard = id as usize % self.shards.len();
        let slot = id as usize / self.shards.len();
        let slab = self.shards[shard].read();
        match (slab.hot.get(slot), slab.cold.get(slot)) {
            (Some(h), Some(c)) => LinkVerdict {
                round: h.round,
                elevated: h.elevated,
                baseline_ms: h.baseline_ms,
                elevation_ms: h.elevation_ms,
                health: c.health,
                alarms: c.alarms,
                masked_alarms: c.masked_alarms,
                gaps: c.gaps,
                evidence: c.evidence,
            },
            _ => LinkVerdict::empty(),
        }
    }

    /// Links currently elevated (lock-free).
    pub fn elevated_links(&self) -> u64 {
        self.elevated.load(Ordering::Relaxed)
    }

    /// Links currently elevated at one IXP (lock-free); 0 for unknown ids.
    pub fn elevated_at_ixp(&self, ixp: usize) -> u64 {
        self.elevated_per_ixp.get(ixp).map_or(0, |a| a.load(Ordering::Relaxed))
    }

    /// Total verdict lookups served.
    pub fn reads_total(&self) -> u64 {
        self.reads.0.total()
    }

    /// Read throughput (lookups/s) since the last call, for live gauges.
    pub fn take_read_qps(&self) -> f64 {
        self.reads.0.take_rate()
    }

    /// Publish one shard pass: `hot` carries the per-sample part of every
    /// slot the pass touched, `cold` the rest of the verdict for the slots
    /// whose health, counters or evidence moved. Slot `i` of shard `shard`
    /// is link `i * shards + shard`; a slot may repeat, the last record
    /// wins. The write lock is taken once for both, so a reader never sees
    /// a hot part from one pass beside a cold part from another. `ixp_of`
    /// maps link id → IXP id for the aggregate maintenance.
    ///
    /// Never panics: out-of-range slots are skipped (debug-asserted), so a
    /// buggy or recovering producer cannot poison the write path. The locks
    /// are `parking_lot`, which does not poison on panic either way — a
    /// worker that dies mid-publish releases the lock on unwind and readers
    /// see the records written so far.
    pub(crate) fn publish(
        &self,
        shard: usize,
        hot: impl IntoIterator<Item = (u32, HotVerdict)>,
        cold: impl IntoIterator<Item = (u32, ColdVerdict)>,
        ixp_of: &[u32],
    ) {
        let n_shards = self.shards.len();
        let Some(lock) = self.shards.get(shard) else {
            debug_assert!(false, "verdict publish for unknown shard {shard}");
            return;
        };
        let mut slab = lock.write();
        for (slot, v) in hot {
            let Some(old) = slab.hot.get_mut(slot as usize) else {
                debug_assert!(false, "verdict publish for unknown slot {slot}");
                continue;
            };
            if old.elevated != v.elevated {
                let id = slot as usize * n_shards + shard;
                self.count_elevated(id, v.elevated, ixp_of);
            }
            *old = v;
        }
        for (slot, v) in cold {
            let Some(old) = slab.cold.get_mut(slot as usize) else {
                debug_assert!(false, "verdict publish for unknown slot {slot}");
                continue;
            };
            *old = v;
        }
    }

    /// Move link `id` into (`up`) or out of the elevated aggregates.
    fn count_elevated(&self, id: usize, up: bool, ixp_of: &[u32]) {
        let ixp = ixp_of.get(id).copied().unwrap_or(0) as usize;
        for a in std::iter::once(&self.elevated).chain(self.elevated_per_ixp.get(ixp)) {
            if up {
                a.fetch_add(1, Ordering::Relaxed);
            } else {
                a.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Rebuild the aggregates from the stored verdicts (used after resume,
    /// when verdicts are republished from restored link states).
    pub fn rebuild_aggregates(&self, ixp_of: &[u32]) {
        self.elevated.store(0, Ordering::Relaxed);
        for a in &self.elevated_per_ixp {
            a.store(0, Ordering::Relaxed);
        }
        for (s, slab) in self.shards.iter().enumerate() {
            let slab = slab.read();
            for (slot, v) in slab.hot.iter().enumerate() {
                if v.elevated {
                    self.count_elevated(slot * self.shards.len() + s, true, ixp_of);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(round: u64, elevated: bool) -> HotVerdict {
        HotVerdict { round, elevated, ..HotVerdict::empty() }
    }

    /// `(link id, record)` pairs as `(slot, record)` pairs.
    fn slots<V: Copy>(idx: &VerdictIndex, ups: &[(u32, V)]) -> Vec<(u32, V)> {
        let n = idx.shards.len() as u32;
        ups.iter().map(|&(id, v)| (id / n, v)).collect()
    }

    /// Publish hot records only: no cold part moved.
    fn publish_hot(idx: &VerdictIndex, shard: usize, ups: &[(u32, HotVerdict)], ixp_of: &[u32]) {
        idx.publish(shard, slots(idx, ups), std::iter::empty(), ixp_of);
    }

    #[test]
    fn hot_record_is_compact() {
        assert_eq!(size_of::<HotVerdict>(), 32);
    }

    #[test]
    fn layout_strides_links_across_shards() {
        let idx = VerdictIndex::new(10, 3, 1);
        assert_eq!(idx.shards.len(), 3);
        // 10 links over 3 shards: shard 0 gets ids 0,3,6,9 (4 slots).
        let ixp_of = vec![0u32; 10];
        publish_hot(&idx, 0, &[(9, hot(5, false))], &ixp_of);
        assert_eq!(idx.verdict(9).round, 5);
        assert_eq!(idx.verdict(0).round, 0);
    }

    #[test]
    fn elevated_aggregates_track_transitions() {
        let idx = VerdictIndex::new(8, 2, 3);
        let ixp_of = vec![0, 0, 1, 1, 2, 2, 2, 2];
        let alarmed = ColdVerdict { alarms: 1, ..ColdVerdict::empty() };
        idx.publish(
            0,
            slots(&idx, &[(0, hot(1, true)), (2, hot(1, true)), (4, hot(1, true))]),
            slots(&idx, &[(0, alarmed), (2, alarmed), (4, alarmed)]),
            &ixp_of,
        );
        assert_eq!(idx.elevated_links(), 3);
        assert_eq!(idx.elevated_at_ixp(0), 1);
        assert_eq!(idx.elevated_at_ixp(1), 1);
        assert_eq!(idx.elevated_at_ixp(2), 1);
        // Republishing elevated is not a transition.
        publish_hot(&idx, 0, &[(0, hot(2, true))], &ixp_of);
        assert_eq!(idx.elevated_links(), 3);
        // De-elevating is, in a hot-only publish too — which leaves the
        // cold part as it was.
        publish_hot(&idx, 0, &[(2, hot(3, false))], &ixp_of);
        assert_eq!(idx.elevated_links(), 2);
        assert_eq!(idx.elevated_at_ixp(1), 0);
        let v = idx.verdict(2);
        assert_eq!((v.round, v.elevated, v.alarms), (3, false, 1));
        idx.rebuild_aggregates(&ixp_of);
        assert_eq!(idx.elevated_links(), 2);
        assert_eq!(idx.elevated_at_ixp(0), 1);
    }

    #[test]
    fn out_of_range_reads_are_empty_not_fatal() {
        let idx = VerdictIndex::new(10, 3, 1);
        // id 10 maps to shard 1 slot 3, one past the slab end.
        assert_eq!(idx.verdict(10), LinkVerdict::empty());
        assert_eq!(idx.verdict(u32::MAX), LinkVerdict::empty());
    }

    #[test]
    fn reads_are_counted() {
        let idx = VerdictIndex::new(4, 2, 1);
        for i in 0..4 {
            let _ = idx.verdict(i);
        }
        assert_eq!(idx.reads_total(), 4);
        assert!(idx.take_read_qps() >= 0.0);
    }

    #[test]
    fn concurrent_readers_never_block_each_other() {
        use std::sync::Arc;
        let idx = Arc::new(VerdictIndex::new(64, 4, 1));
        let ixp_of = Arc::new(vec![0u32; 64]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..1000u32 {
                        // Hot and cold parts come from the same pass.
                        let v = idx.verdict((i + t) % 64);
                        assert_eq!(v.round, v.gaps, "torn verdict {v:?}");
                    }
                });
            }
            let idx2 = Arc::clone(&idx);
            let ixp = Arc::clone(&ixp_of);
            s.spawn(move || {
                for r in 0..100u64 {
                    for shard in 0..4usize {
                        let cold = ColdVerdict { gaps: r, ..ColdVerdict::empty() };
                        idx2.publish(
                            shard,
                            (0..16u32).map(|slot| (slot, hot(r, r % 2 == 0))),
                            (0..16u32).map(|slot| (slot, cold)),
                            &ixp,
                        );
                    }
                }
            });
        });
        assert!(idx.reads_total() >= 4000);
        // Final publish round r=99 (odd): nothing elevated.
        assert_eq!(idx.elevated_links(), 0);
    }
}
