//! The one bench gate: a budget table judged over [`Record`]s.
//!
//! [`BUDGETS`] holds every bound the gated benches answer to. A
//! [`Check::Ceiling`] fails when the fresh value reaches the bound; a
//! [`Check::Regression`] fails when the fresh value drops below
//! [`REGRESSION_FLOOR`] × the committed one, and is skipped when there is no
//! committed value to compare with. [`gate`] judges a fresh record against
//! the committed one and copies it over only when every bound passes, or
//! when `force` is set and every failure is on a forceable bound — so a
//! failing run never overwrites the recorded baseline.

use crate::record::Record;
use std::path::Path;

/// The gated benches, in the order `bench-gate` runs them by default.
pub const BENCHES: [&str; 7] =
    ["health", "detect", "obs", "campaign", "monitor", "resilience", "trace"];

/// A regression bound fails when `fresh < REGRESSION_FLOOR × committed`
/// (a drop of more than 10%).
pub const REGRESSION_FLOOR: f64 = 0.9;

/// What a bound compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// The fresh value must stay below this (fails at `value >= bound`).
    Ceiling(f64),
    /// The fresh value must not drop below [`REGRESSION_FLOOR`] × the
    /// committed value.
    Regression,
}

/// One budget line: `bench`'s metric `metric` under `check`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Bench name.
    pub bench: &'static str,
    /// Metric name within the bench's record.
    pub metric: &'static str,
    /// The comparison.
    pub check: Check,
    /// Whether `--force` may accept a failure of this bound.
    pub forceable: bool,
}

const fn bound(bench: &'static str, metric: &'static str, check: Check, forceable: bool) -> Bound {
    Bound { bench, metric, check, forceable }
}

/// Every gated bound. Overhead and memory ceilings that are contracts
/// (DESIGN.md §5.13, §5.14, §5.17) are hard; throughput regressions and the
/// two live-path overhead ceilings (§5.18, §5.19) are forceable.
pub const BUDGETS: [Bound; 10] = [
    // Classification + masking must cost <5% over the unmasked assessment.
    bound("health", "overhead_pct", Check::Ceiling(5.0), false),
    bound("health", "masked.links_per_sec", Check::Regression, true),
    bound("detect", "scratch_parallel.links_per_sec", Check::Regression, true),
    // A live MetricsRegistry must cost <3% over the plain campaign.
    bound("obs", "overhead_pct", Check::Ceiling(3.0), false),
    bound("obs", "plain.links_per_sec", Check::Regression, true),
    bound("campaign", "links_1000.links_per_sec", Check::Regression, true),
    // The resident monitor holds O(links) state: ~385 B per link, 45.8 MiB
    // steady at 100k links; the ceiling is headroom over that.
    bound("monitor", "links_100000.steady_rss_mb", Check::Ceiling(96.0), false),
    bound("monitor", "links_1000.ingest_samples_per_sec", Check::Regression, true),
    // Admission's share of sequenced ingest.
    bound("resilience", "overhead_pct", Check::Ceiling(3.0), true),
    // An attached flight recorder: the worse of the monitor and batch arms.
    bound("trace", "overhead_pct", Check::Ceiling(3.0), true),
];

/// How one bound came out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Outcome {
    /// Within the bound.
    Pass,
    /// A regression bound with no committed value to compare against.
    Skipped,
    /// Outside the bound.
    Fail,
    /// The fresh record lacks the metric or holds a non-finite value; no
    /// `--force` accepts that.
    Missing,
}

/// One bound judged.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Judgement {
    bound: Bound,
    value: Option<f64>,
    /// The committed value (regression bounds only).
    committed: Option<f64>,
    /// The interquartile range over passes the fresh record gives beside an
    /// overhead (`<name>_iqr_pct` for `<name>_pct`), shown, never judged.
    iqr: Option<f64>,
    outcome: Outcome,
}

impl Judgement {
    /// Whether this judgement blocks the record under `force`.
    pub(crate) fn blocks(&self, force: bool) -> bool {
        match self.outcome {
            Outcome::Pass | Outcome::Skipped => false,
            Outcome::Fail => !(force && self.bound.forceable),
            Outcome::Missing => true,
        }
    }

    /// The one line `bench-gate` prints for this bound.
    pub(crate) fn line(&self, force: bool) -> String {
        let b = &self.bound;
        let mut value = self.value.map_or("missing".to_string(), |v| v.to_string());
        if let Some(iqr) = self.iqr {
            value += &format!(", IQR {iqr}");
        }
        let kind = if b.forceable { "forceable" } else { "hard" };
        let test = match (b.check, self.committed) {
            (Check::Ceiling(c), _) => format!("ceiling < {c}"),
            (Check::Regression, Some(old)) => {
                format!("committed {old}, floor {:.3}", REGRESSION_FLOOR * old)
            }
            (Check::Regression, None) => "no committed value".to_string(),
        };
        let verdict = match self.outcome {
            Outcome::Fail if !self.blocks(force) => "FAIL (accepted: --force)",
            Outcome::Pass => "pass",
            Outcome::Skipped => "skipped",
            Outcome::Fail | Outcome::Missing => "FAIL",
        };
        format!("[bench-gate] {} {} = {value} ({test}, {kind}): {verdict}", b.bench, b.metric)
    }
}

/// Judge every bound of `bench` on `fresh`, against `committed` if any.
pub(crate) fn judge(bench: &str, fresh: &Record, committed: Option<&Record>) -> Vec<Judgement> {
    BUDGETS
        .iter()
        .filter(|b| b.bench == bench)
        .map(|&bound| {
            let value = fresh.value(bound.metric).filter(|v| v.is_finite());
            let committed = match bound.check {
                Check::Ceiling(_) => None,
                Check::Regression => committed.and_then(|c| c.value(bound.metric)),
            };
            let outcome = match (value, bound.check, committed) {
                (None, _, _) => Outcome::Missing,
                (Some(v), Check::Ceiling(c), _) if v >= c => Outcome::Fail,
                (Some(_), Check::Regression, None) => Outcome::Skipped,
                (Some(v), Check::Regression, Some(old)) if v < REGRESSION_FLOOR * old => {
                    Outcome::Fail
                }
                _ => Outcome::Pass,
            };
            let iqr = bound.metric.strip_suffix("_pct").and_then(|m| fresh.value(&format!("{m}_iqr_pct")));
            Judgement { bound, value, committed, iqr, outcome }
        })
        .collect()
}

/// Gate `bench`: judge the record at `fresh` against the one at
/// `committed`, print one line per bound, and copy `fresh` over
/// `committed` only if nothing blocks under `force`. Returns whether the
/// record was accepted; a failing gate leaves `committed` untouched.
pub fn gate(bench: &str, fresh: &Path, committed: &Path, force: bool) -> Result<bool, String> {
    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Record::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let new = read(fresh)?;
    if new.bench != bench {
        return Err(format!("{}: record is for bench `{}`", fresh.display(), new.bench));
    }
    let old = if committed.exists() { Some(read(committed)?) } else { None };
    let judgements = judge(bench, &new, old.as_ref());
    for j in &judgements {
        println!("{}", j.line(force));
    }
    let accepted = !judgements.iter().any(|j| j.blocks(force));
    if accepted {
        std::fs::copy(fresh, committed).map_err(|e| format!("{}: {e}", committed.display()))?;
        println!("[bench-gate] {bench}: {} updated", committed.display());
    } else {
        println!("[bench-gate] {bench}: FAILED, {} kept", committed.display());
    }
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed/fresh pair for `bench` where every bound passes: every
    /// ceiling metric reads 0 and every regression metric 100 in both.
    fn passing_pair(bench: &str) -> (Record, Record) {
        let mut rec = Record::new(bench);
        for b in BUDGETS.iter().filter(|b| b.bench == bench) {
            let v = if b.check == Check::Regression { 100.0 } else { 0.0 };
            rec.metric(b.metric, "", v);
        }
        (rec.clone(), rec)
    }

    /// `fresh` with `metric` set to `value`.
    fn with(mut fresh: Record, metric: &str, value: f64) -> Record {
        fresh.metrics.iter_mut().find(|m| m.name == metric).unwrap().value = value;
        fresh
    }

    fn accepted(bench: &str, fresh: &Record, committed: Option<&Record>, force: bool) -> bool {
        !judge(bench, fresh, committed).iter().any(|j| j.blocks(force))
    }

    #[test]
    fn table_covers_every_bench() {
        for bench in BENCHES {
            assert!(BUDGETS.iter().any(|b| b.bench == bench), "{bench} has no bound");
        }
        for b in BUDGETS {
            assert!(BENCHES.contains(&b.bench), "{} is not a gated bench", b.bench);
        }
    }

    #[test]
    fn committed_records_use_the_one_schema() {
        for bench in BENCHES {
            let path = crate::record::committed_path(bench);
            let text = std::fs::read_to_string(&path).unwrap();
            let rec =
                Record::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(rec.bench, bench);
            assert_eq!(rec.to_json(), text, "{} is not in the writer's layout", path.display());
            for j in judge(bench, &rec, None) {
                assert_ne!(
                    j.outcome,
                    Outcome::Missing,
                    "{} lacks {}",
                    path.display(),
                    j.bound.metric
                );
            }
        }
    }

    #[test]
    fn every_bound_passes_just_inside_and_fails_just_past() {
        for b in BUDGETS {
            let (committed, fresh) = passing_pair(b.bench);
            let (inside, past) = match b.check {
                Check::Ceiling(c) => (c - 0.001, c),
                Check::Regression => (90.001, 89.999),
            };
            let judged = |v: f64| {
                let fresh = with(fresh.clone(), b.metric, v);
                judge(b.bench, &fresh, Some(&committed))
                    .into_iter()
                    .find(|j| j.bound == b)
                    .unwrap()
                    .outcome
            };
            assert_eq!(judged(inside), Outcome::Pass, "{} {} at {inside}", b.bench, b.metric);
            assert_eq!(judged(past), Outcome::Fail, "{} {} at {past}", b.bench, b.metric);
            let fresh = with(fresh.clone(), b.metric, past);
            assert!(!accepted(b.bench, &fresh, Some(&committed), false));
        }
    }

    #[test]
    fn force_lifts_only_forceable_bounds() {
        for b in BUDGETS {
            let (committed, fresh) = passing_pair(b.bench);
            let past = match b.check {
                Check::Ceiling(c) => c,
                Check::Regression => 50.0,
            };
            let fresh = with(fresh, b.metric, past);
            assert!(!accepted(b.bench, &fresh, Some(&committed), false));
            assert_eq!(accepted(b.bench, &fresh, Some(&committed), true), b.forceable, "{b:?}");
        }
        let hard: Vec<_> = BUDGETS.iter().filter(|b| !b.forceable).map(|b| b.metric).collect();
        assert_eq!(
            hard,
            ["overhead_pct", "overhead_pct", "links_100000.steady_rss_mb"],
            "health and obs overhead and monitor RSS are the hard bounds"
        );
    }

    #[test]
    fn regression_is_skipped_without_a_committed_value() {
        let (_, fresh) = passing_pair("campaign");
        let fresh = with(fresh, "links_1000.links_per_sec", 1.0);
        let j = &judge("campaign", &fresh, None)[0];
        assert_eq!(j.outcome, Outcome::Skipped);
        assert!(accepted("campaign", &fresh, None, false));
    }

    #[test]
    fn a_missing_metric_blocks_even_under_force() {
        let mut fresh = Record::new("trace");
        fresh.metric("monitor.overhead_pct", "%", 0.5);
        let j = &judge("trace", &fresh, None)[0];
        assert_eq!(j.outcome, Outcome::Missing);
        assert!(j.blocks(true));
    }

    #[test]
    fn a_failing_gate_keeps_the_committed_record_and_a_passing_one_replaces_it() {
        let dir = std::env::temp_dir().join(format!("ixp-bench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (fresh_path, committed_path) =
            (dir.join("fresh.json"), dir.join("BENCH_resilience.json"));
        let (committed, fresh) = passing_pair("resilience");
        std::fs::write(&committed_path, committed.to_json()).unwrap();
        let before = std::fs::read(&committed_path).unwrap();

        let failing = with(fresh.clone(), "overhead_pct", 3.61);
        std::fs::write(&fresh_path, failing.to_json()).unwrap();
        assert!(!gate("resilience", &fresh_path, &committed_path, false).unwrap());
        assert_eq!(
            std::fs::read(&committed_path).unwrap(),
            before,
            "failing run rewrote the baseline"
        );

        let passing = with(fresh, "overhead_pct", 2.5);
        std::fs::write(&fresh_path, passing.to_json()).unwrap();
        assert!(gate("resilience", &fresh_path, &committed_path, false).unwrap());
        assert_eq!(std::fs::read(&committed_path).unwrap(), std::fs::read(&fresh_path).unwrap());

        assert!(
            gate("trace", &fresh_path, &committed_path, false).is_err(),
            "wrong bench accepted"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
