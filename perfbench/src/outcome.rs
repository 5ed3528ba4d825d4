//! What a workload run hands back, and the metric catalogue the result line
//! is checked against.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("links_per_s", "links/s"),
    ("ingest_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). Every traced run reports all of them; a
/// layer the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("topology.build_s", "s"),
    ("bdrmap.self_s", "s"),
    ("bdrmap.links", "count"),
    ("campaign.self_s", "s"),
    ("campaign.probe_rounds", "count"),
    ("campaign.ns_per_round", "ns"),
    ("campaign.screened_frac", "ratio"),
    ("campaign.worker_idle_frac", "ratio"),
    ("health.self_s", "s"),
    ("health.nonclean_links", "count"),
    ("detect.self_s", "s"),
    ("detect.ns_per_sample", "ns"),
    ("detect.flagged_links", "count"),
    ("detect.diurnal_links", "count"),
    ("study.rr_s", "s"),
    ("study.loss_s", "s"),
    ("study.rr_checks", "count"),
    ("study.loss_campaigns", "count"),
    ("monitor.self_s", "s"),
    ("monitor.ns_per_sample", "ns"),
    ("monitor.slow_path_frac", "ratio"),
    ("monitor.admit.delivered", "count"),
    ("monitor.admit.reordered", "count"),
    ("monitor.admit.duplicates", "count"),
    ("monitor.admit.dropped", "count"),
    ("monitor.admit.shed", "count"),
    ("monitor.admit.rejected", "count"),
    ("monitor.alarms", "count"),
    ("monitor.masked_alarms", "count"),
    ("round_ingest_p50_ms", "ms"),
    ("round_ingest_p95_ms", "ms"),
    ("index.reads", "count"),
    ("index.read_self_ns", "ns"),
    ("index.elevated_links", "count"),
    ("index_read_p50_ns", "ns"),
    ("index_read_p99_ns", "ns"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.resume_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Threads each workload may use in total (the host this was sized on has 2).
pub const THREADS: usize = 2;

/// Set-up runs at least this many times per run...
pub const SETUP_REPS: usize = 3;
/// ...and until this much time has gone into it; `setup_s` is the median.
pub const SETUP_MIN_S: f64 = 0.25;

/// Time one call of `build`.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = build();
    (out, t0.elapsed().as_secs_f64())
}

/// Run `f`; return its result and the peak resident set in MiB that the
/// process reached meanwhile (the watermark is reset first).
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    ixp_obs::reset_peak_rss();
    let out = f();
    (out, ixp_obs::peak_rss_mb().unwrap_or(f64::NAN))
}

/// Set the run's `setup_s`: the median over the build the run kept (`first`
/// seconds) and further builds, each freed at once, until there are at
/// least [`SETUP_REPS`] and [`SETUP_MIN_S`] has gone into them. Call it
/// after the timed loop, once the run's own state is freed, so that no heap
/// the extra builds leave behind is resident while peak RSS is measured.
pub fn set_setup_s<T>(out: &mut Outcome, first: f64, mut build: impl FnMut() -> T) {
    let mut times = vec![first];
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        let (built, dt) = timed(&mut build);
        drop(built);
        times.push(dt);
    }
    let t = crate::stats::Timing::of(&times);
    out.line(format!("set-up: first build {first:.6} s; {}", t.line("s")));
    out.set("setup_s", t.p50);
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items attempted (links, or offered samples).
    pub attempted: u64,
    /// Work items that failed (quarantined links; rejected, shed or
    /// dropped samples).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Input sizes and other regime facts, for the regime record.
    pub regime: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add a report line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Record a regime fact.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.regime.push((key, value.to_string()));
    }
}

/// Directory for files a run leaves behind (spans, checkpoints): under the
/// build directory, inside the checkout.
pub fn work_dir() -> std::path::PathBuf {
    let build = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::PathBuf::from(build).join("perfbench")
}
