//! `monitor_live`: the live pipeline. A 100k-link [`MonitorService`] takes a
//! simulated day of sequenced samples through `ingest_sequenced`, one call
//! per five-minute round on the caller thread, while one reader thread polls
//! `verdict` at pseudo-random link ids. No probing, no batch detection.

use crate::outcome::{set_setup_s, timed, with_peak_rss, work_dir, Outcome};
use crate::spans::{self, SpanLog};
use crate::stats::{median, NsHist, Timing};
use ixp_monitor::{
    monitor_fingerprint, IngestReport, LinkDesc, LinkVerdict, MonitorConfig, MonitorSample,
    MonitorService,
};
use ixp_simnet::rng::mix;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tslp_core::CheckpointStore;

/// Monitored links.
pub const LINKS: u32 = 100_000;
/// State and index shards.
pub const SHARDS: usize = 32;
/// Rounds in a simulated day at five minutes.
pub const ROUNDS: u64 = 288;
/// Links per IXP for the per-IXP aggregates.
const LINKS_PER_IXP: u32 = 500;
/// One link in this many carries the business-hours plateau (2%).
const PLATEAU_EVERY: u32 = 50;
/// Traced reader: time one read in this many, so the read pressure stays
/// close to the untraced reader's...
const READ_TIME_EVERY: u64 = 16;
/// ...and record one timed read in this many as a span.
const READ_SPAN_EVERY: u64 = 256;

const BASE_MS: f64 = 10.0;
const PLATEAU_MS: f64 = 14.0;
/// A path change moves the link onto a detour this much longer.
const DETOUR_MS: f64 = 20.0;

/// The seeded traffic mix, day after day. Rounds are numbered globally
/// (round `g` is sequence number `g` on every link, at time of day
/// `g % ROUNDS`).
///
/// Per (link, round), from one hash: 0.5% of probes go unanswered; 1% of
/// samples arrive one round late, after their successor (never two late in
/// a row and never across midnight, so the successor always arrives on time,
/// the gate heals the pair, and each day ends with empty reorder buffers);
/// 0.5% of rounds also replay the previous sequence number. Per link:
/// exactly 2% carry a +14 ms plateau from 09:00 to 17:00 every day, and
/// about 1% of the others move to a 20 ms longer path around midday and
/// back at midnight.
pub struct Traffic {
    seed: u64,
    plateau: Vec<bool>,
    change_round: Vec<Option<u64>>,
}

impl Traffic {
    /// The mix for `links` links under `seed`.
    pub fn new(seed: u64, links: u32) -> Traffic {
        let mut ranked: Vec<(u64, u32)> = (0..links)
            .map(|id| (mix(&[seed, id as u64, 0x9a7e]), id))
            .collect();
        let hot = (links / PLATEAU_EVERY) as usize;
        let mut plateau = vec![false; links as usize];
        if hot > 0 {
            ranked.select_nth_unstable(hot - 1);
            for &(_, id) in &ranked[..hot] {
                plateau[id as usize] = true;
            }
        }
        let change_round = (0..links)
            .map(|id| {
                let h = mix(&[seed, id as u64, 0xc4a9]);
                (!plateau[id as usize] && h.is_multiple_of(100))
                    .then(|| ROUNDS / 2 - 6 + (h >> 8) % 13)
            })
            .collect();
        Traffic {
            seed,
            plateau,
            change_round,
        }
    }

    /// Links in the mix.
    pub fn links(&self) -> u32 {
        self.plateau.len() as u32
    }

    /// Does link `id` carry the plateau?
    pub fn plateau(&self, id: u32) -> bool {
        self.plateau[id as usize]
    }

    /// The round of the day link `id` changes path, if it does.
    pub fn change_round(&self, id: u32) -> Option<u64> {
        self.change_round[id as usize]
    }

    fn h(&self, id: u32, g: u64) -> u64 {
        mix(&[self.seed, id as u64, g])
    }

    fn base_late(&self, id: u32, g: u64) -> bool {
        self.h(id, g) % 1000 < 10
    }

    /// Is sample `(id, g)` lost (the probe went unanswered)?
    pub fn lost(&self, id: u32, g: u64) -> bool {
        (self.h(id, g) >> 20).is_multiple_of(200)
    }

    /// Does sample `(id, g)` arrive in round `g + 1`, after its successor?
    pub fn late(&self, id: u32, g: u64) -> bool {
        g % ROUNDS != ROUNDS - 1 && self.base_late(id, g) && !self.base_late(id, g + 1)
    }

    /// Does round `g` replay link `id`'s previous sequence number?
    pub fn duplicate(&self, id: u32, g: u64) -> bool {
        g >= 1 && (10..15).contains(&(self.h(id, g) % 1000))
    }

    /// The sample link `id` measures in round `g`.
    pub fn sample(&self, id: u32, g: u64) -> MonitorSample {
        if self.lost(id, g) {
            return MonitorSample::lost();
        }
        let r = g % ROUNDS;
        let hour = r as f64 * 5.0 / 60.0;
        let jitter = ((self.h(id, g) >> 32) % 1000) as f64 / 1000.0;
        let plateau = if self.plateau(id) && (9.0..17.0).contains(&hour) {
            PLATEAU_MS
        } else {
            0.0
        };
        let moved = self.change_round(id).is_some_and(|c| r >= c);
        let detour = if moved { DETOUR_MS } else { 0.0 };
        MonitorSample::answered(
            BASE_MS + jitter + plateau + detour,
            if moved { 2 } else { 1 },
        )
    }

    /// Fill `out` with the batch that arrives in round `g`, in link order;
    /// each link's own sample comes before any late or replayed one.
    pub fn round(&self, g: u64, out: &mut Vec<(u32, u64, MonitorSample)>) {
        out.clear();
        for id in 0..self.links() {
            if !self.late(id, g) {
                out.push((id, g, self.sample(id, g)));
            }
            if g >= 1 && self.late(id, g - 1) {
                out.push((id, g - 1, self.sample(id, g - 1)));
            }
            if self.duplicate(id, g) {
                out.push((id, g - 1, self.sample(id, g - 1)));
            }
        }
    }
}

/// What a day of ingest did.
#[derive(Clone, Debug, Default)]
pub struct Day {
    /// Which day (0 = the first).
    pub index: u64,
    /// Time inside each round's ingest call.
    pub round_ingest: Vec<Duration>,
    /// Wall time of the whole day loop, sample generation included.
    pub wall: Duration,
    /// Samples offered.
    pub offered: u64,
    /// Summed admission counters.
    pub report: Totals,
    /// Most links elevated at once, read after each round.
    pub elevated_peak: u64,
    /// Verdict reads the reader made during the day.
    pub reads: u64,
    /// Peak resident set during the day's ingest, MiB.
    pub peak_rss_mb: f64,
}

impl Day {
    /// Time inside ingest, summed.
    pub fn ingest_s(&self) -> f64 {
        self.round_ingest.iter().map(Duration::as_secs_f64).sum()
    }

    /// Per-round ingest times in ms.
    pub fn round_ms(&self) -> Vec<f64> {
        self.round_ingest
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }
}

/// [`IngestReport`] counters summed over a day.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub delivered: u64,
    pub rejected: u64,
    pub shed: u64,
    pub duplicates: u64,
    pub stale: u64,
    pub reordered: u64,
    pub dropped: u64,
}

impl Totals {
    fn add(&mut self, r: &IngestReport) {
        self.delivered += r.delivered;
        self.rejected += r.rejected;
        self.shed += r.shed;
        self.duplicates += r.duplicates;
        self.stale += r.stale;
        self.reordered += r.reordered;
        self.dropped += r.dropped;
    }
}

/// Drive day `index`: for each of its rounds `generate` fills the batch,
/// then `ingest` takes it. Only `ingest` is timed; `after` runs untimed
/// once the round is in (for gauges).
pub fn run_rounds<T>(
    index: u64,
    rounds: u64,
    mut generate: impl FnMut(u64, &mut Vec<T>),
    mut ingest: impl FnMut(u64, &[T]) -> Option<IngestReport>,
    mut after: impl FnMut(u64),
) -> Day {
    let mut day = Day {
        index,
        ..Day::default()
    };
    let mut batch = Vec::new();
    let t_day = Instant::now();
    for g in index * rounds..(index + 1) * rounds {
        generate(g, &mut batch);
        let t0 = Instant::now();
        let report = ingest(g, &batch);
        day.round_ingest.push(t0.elapsed());
        day.offered += batch.len() as u64;
        if let Some(rep) = report {
            day.report.add(&rep);
        }
        after(g);
    }
    day.wall = t_day.elapsed();
    day
}

fn config() -> MonitorConfig {
    MonitorConfig {
        shards: SHARDS,
        threads: 1,
        ..MonitorConfig::default()
    }
}

fn descs(links: u32) -> Vec<LinkDesc> {
    (0..links)
        .map(|i| LinkDesc {
            ixp: i / LINKS_PER_IXP,
        })
        .collect()
}

/// Reader-thread results.
#[derive(Default)]
struct Reads {
    count: u64,
    hist: NsHist,
    log: Option<SpanLog>,
}

/// Poll `verdict` at pseudo-random ids until `stop`; with a `log` (the
/// traced run), time a sample of the calls.
fn read_loop(
    svc: &MonitorService,
    stop: &AtomicBool,
    seed: u64,
    mut log: Option<SpanLog>,
) -> Reads {
    let n = svc.len() as u64;
    let mut x = mix(&[seed, 0x2ead]) | 1;
    let mut out = Reads::default();
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = (x % n) as u32;
            match log.as_mut() {
                Some(log) if out.count % READ_TIME_EVERY == 0 => {
                    let t0 = Instant::now();
                    black_box(svc.verdict(black_box(id)));
                    let t1 = Instant::now();
                    out.hist.record((t1 - t0).as_nanos() as u64);
                    if out.count % (READ_TIME_EVERY * READ_SPAN_EVERY) == 0 {
                        log.push("index.verdict", id as u64, t0, t1);
                    }
                }
                _ => {
                    black_box(svc.verdict(black_box(id)));
                }
            }
            out.count += 1;
        }
    }
    out.log = log;
    out
}

/// Day `index` through the service with the reader polling beside it. With
/// an `epoch`, each round's ingest gets a span and sampled reads are timed.
fn live_day(
    svc: &MonitorService,
    traffic: &Traffic,
    index: u64,
    seed: u64,
    epoch: Option<Instant>,
) -> (Day, Reads, Vec<spans::Span>) {
    let stop = AtomicBool::new(false);
    let mut ingest_log = epoch.map(|e| SpanLog::new(e, 0));
    let ((mut day, mut reads), rss_mb) = with_peak_rss(|| {
        std::thread::scope(|sc| {
            let reader_log = epoch.map(|e| SpanLog::new(e, 1));
            let reader = sc.spawn(|| read_loop(svc, &stop, seed ^ index, reader_log));
            let mut elevated_peak = 0;
            let mut day = run_rounds(
                index,
                ROUNDS,
                |g, batch| traffic.round(g, batch),
                |g, batch| {
                    Some(match ingest_log.as_mut() {
                        Some(log) => log.span("monitor.ingest_sequenced", g, |_| {
                            svc.ingest_sequenced(batch)
                        }),
                        None => svc.ingest_sequenced(batch),
                    })
                },
                |_| elevated_peak = elevated_peak.max(svc.index().elevated_links()),
            );
            day.elevated_peak = elevated_peak;
            stop.store(true, Ordering::Relaxed);
            (day, reader.join().expect("reader thread panicked"))
        })
    });
    day.peak_rss_mb = rss_mb;
    day.reads = reads.count;
    let mut logs: Vec<SpanLog> = ingest_log.into_iter().collect();
    logs.extend(reads.log.take());
    (day, reads, spans::merge(logs))
}

/// Per link: (alarms, masked alarms) so far.
pub type Alarms = Vec<(u64, u64)>;

/// Correctness of a day against the traffic that made it: admission
/// accounting, gate state at midnight, and the day's alarms (`before` and
/// `after` are every link's alarm counts at the two midnights).
pub fn check_day(
    out: &mut Outcome,
    traffic: &Traffic,
    day: &Day,
    before: &[(u64, u64)],
    after: &[(u64, u64)],
    gates: &[(u64, usize)],
) {
    let n = traffic.links() as u64;
    let rounds = day.index * ROUNDS..(day.index + 1) * ROUNDS;
    let (mut late, mut dups) = (0u64, 0u64);
    for id in 0..traffic.links() {
        for g in rounds.clone() {
            late += u64::from(traffic.late(id, g));
            dups += u64::from(traffic.duplicate(id, g));
        }
    }
    let t = &day.report;
    let buffered: u64 = gates.iter().map(|&(_, b)| b as u64).sum();
    out.check(day.offered == n * ROUNDS + dups, || {
        format!(
            "offered {} != links x rounds + replays {}",
            day.offered,
            n * ROUNDS + dups
        )
    });
    out.check(
        day.offered == t.delivered + t.duplicates + t.stale + t.dropped + buffered + t.rejected + t.shed,
        || format!("offered {} != delivered {} + duplicates {} + stale {} + dropped {} + buffered {buffered} + rejected {} + shed {}", day.offered, t.delivered, t.duplicates, t.stale, t.dropped, t.rejected, t.shed),
    );
    out.check(t.delivered == n * ROUNDS, || {
        format!("delivered {} of {} samples", t.delivered, n * ROUNDS)
    });
    out.check(t.reordered == late, || {
        format!("healed {} reorders, {late} were sent late", t.reordered)
    });
    out.check(t.duplicates == dups, || {
        format!("absorbed {} duplicates, {dups} were replayed", t.duplicates)
    });
    out.check(
        t.shed == 0 && t.rejected == 0 && t.stale == 0 && t.dropped == 0,
        || {
            format!(
                "shed {} rejected {} stale {} dropped {}",
                t.shed, t.rejected, t.stale, t.dropped
            )
        },
    );
    out.check(
        gates.iter().all(|&(next, b)| next == rounds.end && b == 0),
        || {
            format!(
                "a sequence gate did not end day {} at {} with an empty buffer",
                day.index, rounds.end
            )
        },
    );
    let unmasked = |&(alarms, masked): &(u64, u64)| alarms.saturating_sub(masked);
    let (mut missed, mut false_alarms) = (0u32, 0u32);
    for (id, (b, a)) in before.iter().zip(after).enumerate() {
        let raised = unmasked(a).saturating_sub(unmasked(b));
        if traffic.plateau(id as u32) {
            missed += u32::from(raised == 0);
        } else {
            false_alarms += u32::from(raised > 0);
        }
    }
    out.check(
        before.len() == after.len() && after.len() == n as usize,
        || "verdict count differs from the link count".into(),
    );
    out.check(missed == 0, || {
        format!("day {}: {missed} plateau links raised no alarm", day.index)
    });
    out.check(false_alarms == 0, || {
        format!(
            "day {}: {false_alarms} links without a plateau raised an unmasked alarm",
            day.index
        )
    });
}

fn alarms_of(svc: &MonitorService) -> Alarms {
    (0..svc.len() as u32)
        .map(|id| svc.verdict(id))
        .map(|v| (v.alarms, v.masked_alarms))
        .collect()
}

fn gates_of(svc: &MonitorService) -> Vec<(u64, usize)> {
    (0..svc.len() as u32)
        .map(|id| svc.seq_stats(id))
        .map(|s| (s.next_seq, s.buffered))
        .collect()
}

/// A day plus its check; returns the day and the alarm counts at its
/// midnight.
fn checked_day(
    out: &mut Outcome,
    svc: &MonitorService,
    traffic: &Traffic,
    index: u64,
    seed: u64,
    before: &[(u64, u64)],
    epoch: Option<Instant>,
) -> (Day, Alarms, Reads, Vec<spans::Span>) {
    let (day, reads, spans) = live_day(svc, traffic, index, seed, epoch);
    let after = alarms_of(svc);
    check_day(out, traffic, &day, before, &after, &gates_of(svc));
    (day, after, reads, spans)
}

/// Do two verdicts agree in every field? (Debug text compares NaN
/// baselines as equal, which `PartialEq` would not.)
fn same_verdict(a: &LinkVerdict, b: &LinkVerdict) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Checkpoint `svc` and resume into a fresh service, each inside a span on
/// `log`, then compare each resumed verdict with `live(id)`. Returns the
/// checkpoint's size in bytes.
fn checkpoint_round_trip(
    out: &mut Outcome,
    log: &mut SpanLog,
    svc: &MonitorService,
    links: &[LinkDesc],
    live: impl Fn(u32) -> LinkVerdict,
    seed: u64,
) -> u64 {
    let dir = work_dir().join(format!("checkpoint-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = monitor_fingerprint(&config(), links.len());
    let store = CheckpointStore::new(&dir, fp).expect("checkpoint directory must be creatable");
    log.span("checkpoint.write", 0, |_| svc.checkpoint(&store))
        .expect("checkpoint write");
    let bytes = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let resumed = log.span("checkpoint.resume", 0, |_| {
        MonitorService::resume(config(), links, &store)
    });
    match resumed {
        None => out.check(false, || "resume from the day's checkpoint failed".into()),
        Some(r) => {
            let same = r.len() == links.len()
                && (0..links.len() as u32).all(|id| same_verdict(&r.verdict(id), &live(id)));
            out.check(same, || "resumed verdicts differ from the live ones".into());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// What the timed loop needs: the traffic mix and a fresh service.
fn build(seed: u64, links: &[LinkDesc]) -> (Traffic, MonitorService) {
    (
        Traffic::new(seed, LINKS),
        MonitorService::new(config(), links),
    )
}

/// The untraced run: one resident service, a warm-up day, then timed days
/// until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let links = descs(LINKS);
    let ((traffic, svc), first_setup_s) = timed(|| build(seed, &links));
    let (warm, mut before, _, _) =
        checked_day(out, &svc, &traffic, 0, seed, &alarms_of(&svc), None);
    out.line(format!(
        "warm-up day: {:.3} s inside ingest_sequenced",
        warm.ingest_s()
    ));
    let started = Instant::now();
    let (mut ingest_rates, mut link_rates) = (Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut index = 1;
    loop {
        let (day, after, _, _) = checked_day(out, &svc, &traffic, index, seed, &before, None);
        before = after;
        ingest_rates.push(day.offered as f64 / day.ingest_s());
        link_rates.push(day.report.delivered as f64 / day.wall.as_secs_f64());
        rss.push(day.peak_rss_mb);
        out.attempted += day.offered;
        out.failed += day.report.rejected + day.report.shed + day.report.dropped;
        out.line(format!(
            "day {index}: {:.3} s inside ingest_sequenced, {:.3} s wall, round ingest {}, {} reads",
            day.ingest_s(),
            day.wall.as_secs_f64(),
            Timing::of(&day.round_ms()).line("ms"),
            day.reads
        ));
        index += 1;
        if started.elapsed().as_secs_f64() >= seconds || !out.failures.is_empty() {
            break;
        }
    }
    let mut log = SpanLog::new(Instant::now(), 0);
    checkpoint_round_trip(out, &mut log, &svc, &links, |id| svc.verdict(id), seed);
    drop((traffic, svc));
    set_setup_s(out, first_setup_s, || build(seed, &links));
    out.set("links_per_s", median(&link_rates));
    out.set("ingest_samples_per_s", median(&ingest_rates));
    out.set("peak_rss_mb", median(&rss));
    out.fact("links", LINKS);
    out.fact("shards", SHARDS);
    out.fact("rounds_per_day", ROUNDS);
    out.fact("timed_days", index - 1);
    out.fact("ingest_threads", 1);
    out.fact("reader_threads", 1);
    out.fact(
        "warmup",
        "one day on the resident service before the timed days",
    );
}

/// The traced run on one resident service: a warm-up day, an untraced day
/// for the overhead baseline, a day with a span per round and sampled reads
/// timed, then checkpoint and resume.
pub fn run_traced(seed: u64, out: &mut Outcome) -> Vec<spans::Span> {
    let links = descs(LINKS);
    let (traffic, svc) = build(seed, &links);
    let (_, before, _, _) = checked_day(out, &svc, &traffic, 0, seed, &alarms_of(&svc), None);
    let (plain, before, _, _) = checked_day(out, &svc, &traffic, 1, seed, &before, None);
    let epoch = Instant::now();
    let (day, live, reads, mut spans) =
        checked_day(out, &svc, &traffic, 2, seed, &before, Some(epoch));
    let mut log = SpanLog::new(epoch, 2);
    let bytes = checkpoint_round_trip(out, &mut log, &svc, &links, |id| svc.verdict(id), seed);
    spans.extend(spans::merge(vec![log]));

    let t = &day.report;
    let by_name = spans::self_by_name(&spans);
    let seconds = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    let monitor_s = seconds("monitor.ingest_sequenced");
    let round_t = Timing::of(&day.round_ms());
    let read_t = reads.hist.timing();
    let raised = |f: fn(&(u64, u64)) -> u64| {
        live.iter()
            .zip(&before)
            .map(|(a, b)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    out.attempted = day.offered;
    out.failed = t.rejected + t.shed + t.dropped;
    out.set("monitor.self_s", monitor_s);
    out.set(
        "monitor.ns_per_sample",
        monitor_s * 1e9 / day.offered as f64,
    );
    out.set(
        "monitor.slow_path_frac",
        (t.reordered + t.duplicates) as f64 / day.offered as f64,
    );
    out.set("monitor.admit.delivered", t.delivered as f64);
    out.set("monitor.admit.reordered", t.reordered as f64);
    out.set("monitor.admit.duplicates", t.duplicates as f64);
    out.set("monitor.admit.dropped", t.dropped as f64);
    out.set("monitor.admit.shed", t.shed as f64);
    out.set("monitor.admit.rejected", t.rejected as f64);
    out.set("monitor.alarms", raised(|a| a.0));
    out.set("monitor.masked_alarms", raised(|a| a.1));
    out.set("round_ingest_p50_ms", round_t.p50);
    out.set(
        "round_ingest_p95_ms",
        crate::stats::percentile(&day.round_ms(), 95.0),
    );
    out.set("index.reads", reads.count as f64);
    out.set("index.read_self_ns", reads.hist.mean());
    out.set("index.elevated_links", day.elevated_peak as f64);
    out.set("index_read_p50_ns", read_t.p50);
    out.set("index_read_p99_ns", reads.hist.percentile(99.0));
    out.set("checkpoint.write_s", seconds("checkpoint.write"));
    out.set("checkpoint.bytes", bytes as f64);
    out.set("checkpoint.resume_s", seconds("checkpoint.resume"));
    let plain_rate = plain.offered as f64 / plain.ingest_s();
    let traced_rate = day.offered as f64 / day.ingest_s();
    out.set("obs.trace_overhead_frac", 1.0 - traced_rate / plain_rate);
    out.set("failed_frac", out.failed as f64 / day.offered as f64);
    out.line(format!("round ingest: {}", round_t.line("ms")));
    out.line(format!(
        "verdict reads during ingest: {}",
        read_t.line("ns")
    ));
    out.line(format!(
        "ingest {plain_rate:.0} samples/s untraced, {traced_rate:.0} traced; {} of {LINKS} links elevated at the peak",
        day.elevated_peak
    ));
    out.fact("links", LINKS);
    out.fact("shards", SHARDS);
    out.fact("rounds_per_day", ROUNDS);
    out.fact("ingest_threads", 1);
    out.fact("reader_threads", 1);
    out.fact(
        "warmup",
        "one day on the resident service, then an untraced baseline day, then the traced day",
    );
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated batches carry the stated mix, and every late or
    /// replayed sample lands where the gate can absorb it.
    #[test]
    fn traffic_hits_the_stated_fractions() {
        let n = 20_000u32;
        let tr = Traffic::new(7, n);
        let mut batch = Vec::new();
        let (mut lost, mut late, mut dups, mut offered) = (0u64, 0u64, 0u64, 0u64);
        let days = 2;
        for g in 0..days * ROUNDS {
            tr.round(g, &mut batch);
            offered += batch.len() as u64;
            let mut last: Option<(u32, u64)> = None;
            for &(id, seq, s) in &batch {
                // A late sample follows its on-time successor.
                if seq + 1 == g && last == Some((id, g)) && tr.late(id, seq) {
                    late += 1;
                }
                if seq == g && !s.far_ms.is_finite() {
                    lost += 1;
                }
                last = Some((id, seq));
            }
            dups += (0..n).filter(|&id| tr.duplicate(id, g)).count() as u64;
        }
        let samples = n as f64 * (days * ROUNDS) as f64;
        let frac = |x: u64| x as f64 / samples;
        assert_eq!(offered, n as u64 * days * ROUNDS + dups);
        assert!((0.004..0.006).contains(&frac(lost)), "lost {}", frac(lost));
        assert!(
            (0.0085..0.0115).contains(&frac(late)),
            "late {}",
            frac(late)
        );
        assert!(
            (0.004..0.006).contains(&frac(dups)),
            "duplicates {}",
            frac(dups)
        );
        let plateau = (0..n).filter(|&id| tr.plateau(id)).count();
        assert_eq!(plateau, (n / PLATEAU_EVERY) as usize);
        let moved = (0..n).filter(|&id| tr.change_round(id).is_some()).count() as f64 / n as f64;
        assert!((0.007..0.013).contains(&moved), "path changes {moved}");
        assert!((0..n).all(|id| !(tr.plateau(id) && tr.change_round(id).is_some())));
        // A late sample's successor is never late itself, and no sample is
        // late across midnight.
        for id in 0..n {
            for g in 0..days * ROUNDS {
                assert!(!(tr.late(id, g) && tr.late(id, g + 1)), "{id} {g}");
                assert!(!(tr.late(id, g) && g % ROUNDS == ROUNDS - 1), "{id} {g}");
            }
        }
    }

    #[test]
    fn same_seed_same_traffic() {
        let (a, b, c) = (
            Traffic::new(3, 1000),
            Traffic::new(3, 1000),
            Traffic::new(4, 1000),
        );
        let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
        a.round(100, &mut x);
        b.round(100, &mut y);
        c.round(100, &mut z);
        let key = |v: &[(u32, u64, MonitorSample)]| format!("{v:?}");
        assert_eq!(key(&x), key(&y));
        assert_ne!(key(&x), key(&z));
    }

    /// Generation cost stays out of the ingest timing: a generator that
    /// sleeps 5 ms per round leaves the timed ingest near zero.
    #[test]
    fn generation_is_not_timed() {
        let day = run_rounds(
            0,
            8,
            |_, batch: &mut Vec<u8>| {
                std::thread::sleep(Duration::from_millis(5));
                batch.clear();
                batch.push(1);
            },
            |_, _| None,
            |_| (),
        );
        assert_eq!(day.round_ingest.len(), 8);
        assert!(day.wall >= Duration::from_millis(40));
        assert!(
            day.ingest_s() < 0.004,
            "ingest timing picked up generation: {}",
            day.ingest_s()
        );
        assert_eq!(day.offered, 8);
    }

    /// Two days on a small resident service pass the check, and wrong
    /// counters or verdicts fail it.
    #[test]
    fn day_check_accepts_truth_and_rejects_wrong_outputs() {
        let n = 2_000u32;
        let links = descs(n);
        let tr = Traffic::new(11, n);
        let svc = MonitorService::new(config(), &links);
        let mut before = alarms_of(&svc);
        let mut last = None;
        for index in 0..2 {
            let day = run_rounds(
                index,
                ROUNDS,
                |g, b| tr.round(g, b),
                |_, b| Some(svc.ingest_sequenced(b)),
                |_| (),
            );
            let after = alarms_of(&svc);
            let mut ok = Outcome::default();
            check_day(&mut ok, &tr, &day, &before, &after, &gates_of(&svc));
            assert!(ok.failures.is_empty(), "day {index}: {:?}", ok.failures);
            assert!(
                after.iter().map(|a| a.1).sum::<u64>() > 0,
                "no path change was masked"
            );
            last = Some((day, before, after.clone()));
            before = after;
        }
        let (day, before, after) = last.unwrap();
        let gates = gates_of(&svc);
        let failures = |day: &Day, after: &[(u64, u64)]| {
            let mut o = Outcome::default();
            check_day(&mut o, &tr, day, &before, after, &gates);
            o.failures
        };
        let lost_one = Day {
            report: Totals {
                delivered: day.report.delivered - 1,
                ..day.report
            },
            ..day.clone()
        };
        assert!(failures(&lost_one, &after)
            .iter()
            .any(|f| f.contains("delivered")));
        let shed = Day {
            report: Totals {
                shed: 1,
                ..day.report
            },
            ..day.clone()
        };
        assert!(failures(&shed, &after).iter().any(|f| f.contains("shed 1")));

        let hot = (0..n).find(|&id| tr.plateau(id)).unwrap() as usize;
        let cold = (0..n).find(|&id| !tr.plateau(id)).unwrap() as usize;
        let mut silenced = after.clone();
        silenced[hot] = before[hot];
        assert!(failures(&day, &silenced)
            .iter()
            .any(|f| f.contains("raised no alarm")));
        let mut noisy = after.clone();
        noisy[cold].0 += 1;
        assert!(failures(&day, &noisy)
            .iter()
            .any(|f| f.contains("unmasked alarm")));
        let mut masked = after.clone();
        masked[cold].0 += 1;
        masked[cold].1 += 1;
        assert!(failures(&day, &masked).is_empty());
    }

    #[test]
    fn checkpoint_round_trip_matches_live_verdicts() {
        let n = 1_000u32;
        let links = descs(n);
        let tr = Traffic::new(5, n);
        let svc = MonitorService::new(config(), &links);
        run_rounds(
            0,
            40,
            |g, b| tr.round(g, b),
            |_, b| Some(svc.ingest_sequenced(b)),
            |_| (),
        );
        let mut out = Outcome::default();
        let mut log = SpanLog::new(Instant::now(), 0);
        let bytes =
            checkpoint_round_trip(&mut out, &mut log, &svc, &links, |id| svc.verdict(id), 999);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(bytes > 0);
        let tampered = |id: u32| {
            let mut v = svc.verdict(id);
            v.alarms += u64::from(id == 3);
            v
        };
        let mut bad = Outcome::default();
        checkpoint_round_trip(&mut bad, &mut log, &svc, &links, tampered, 998);
        assert!(!bad.failures.is_empty());
    }
}
