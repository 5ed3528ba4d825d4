//! `bench-gate ab <rev>`: alternating A/B pairs of the repository
//! benchmark between a base revision and the working tree.
//!
//! The base revision is exported with `git archive` into
//! `target/bench-ab/<commit>/tree` (the repository's git metadata is left
//! alone; a later run against the same commit reuses the export and its
//! build) and its `perfbench` is built into
//! `target/bench-ab/<commit>/target`; the working tree's `perfbench`
//! builds into `target/bench-ab/change`.
//! Each pair runs both binaries once per workload, in alternating order,
//! untraced, each from its own tree. Per workload and end-to-end metric of
//! `BENCHMARK.json` it prints the median change/parent ratio, how many
//! pairs the change won, and the parent's interquartile range — the
//! numbers a claimed gain has to beat. A metric whose parent IQR exceeds
//! its `bound` times the parent's median prints as unresolved: its spread
//! alone could cross the bound. `perfbench` and `BENCHMARK.json` are only
//! read, never edited.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What `bench-gate ab` was asked to run.
#[derive(Clone, Debug, PartialEq)]
pub struct AbArgs {
    /// The base revision (anything `git archive` accepts).
    pub rev: String,
    /// Alternating pairs per workload.
    pub pairs: usize,
    /// Workloads to run; empty means every workload in `BENCHMARK.json`.
    pub workloads: Vec<String>,
    /// `--seconds` per run; `None` means `BENCHMARK.json`'s `run_seconds`.
    pub seconds: Option<f64>,
    /// `--seed` per run.
    pub seed: u64,
}

/// Parse `<rev> [--pairs N] [--workload W]… [--seconds S] [--seed N]`.
pub fn parse_args(args: &[String]) -> Result<AbArgs, String> {
    let mut out = AbArgs { rev: String::new(), pairs: 6, workloads: Vec::new(), seconds: None, seed: 0 };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let bad = |flag: &str, e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match arg.as_str() {
            "--pairs" => out.pairs = value(arg)?.parse().map_err(|e| bad(arg, &e))?,
            "--workload" => out.workloads.push(value(arg)?),
            "--seconds" => out.seconds = Some(value(arg)?.parse().map_err(|e| bad(arg, &e))?),
            "--seed" => out.seed = value(arg)?.parse().map_err(|e| bad(arg, &e))?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            rev if out.rev.is_empty() => out.rev = rev.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if out.rev.is_empty() {
        return Err("usage: bench-gate ab <rev> [--pairs N] [--workload W]... [--seconds S] [--seed N]".into());
    }
    if out.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    Ok(out)
}

/// The parts of `BENCHMARK.json` the A/B reads.
#[derive(Deserialize)]
struct Benchmark {
    run_seconds: f64,
    workloads: Vec<Named>,
    end_to_end: Vec<EndToEnd>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    better: String,
    /// The relative change the benchmark allows before it calls a
    /// regression.
    bound: f64,
}

/// perfbench's last output line.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    metrics: BTreeMap<String, Reading>,
}

#[derive(Deserialize)]
struct Reading {
    value: f64,
}

/// One side of the A/B: a source tree and the target directory its
/// perfbench builds into.
struct Side {
    name: &'static str,
    tree: PathBuf,
    target: PathBuf,
}

impl Side {
    fn build(&self, cargo: &std::ffi::OsStr) -> Result<(), String> {
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"])
            .env("CARGO_TARGET_DIR", &self.target)
            .current_dir(&self.tree)
            .status()
            .map_err(|e| format!("could not start cargo: {e}"))?;
        status.success().then_some(()).ok_or(format!("building the {} perfbench failed: {status}", self.name))
    }

    /// One untraced run; the end-to-end readings, or an error when the run
    /// failed or its correctness checks did.
    fn run(&self, workload: &str, seconds: f64, seed: u64) -> Result<BTreeMap<String, f64>, String> {
        let out = Command::new(self.target.join("release/perfbench"))
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .current_dir(&self.tree)
            .output()
            .map_err(|e| format!("could not start the {} perfbench: {e}", self.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.starts_with("{\"correct\""))
            .ok_or(format!("{} {workload}: no result line ({})", self.name, out.status))?;
        let result: ResultLine = serde_json::from_str(line).map_err(|e| format!("{} {workload}: {e}", self.name))?;
        if !result.correct {
            return Err(format!("{} {workload}: a correctness check failed", self.name));
        }
        Ok(result.metrics.into_iter().map(|(k, r)| (k, r.value)).collect())
    }
}

/// One metric over the pairs of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median over pairs of change / parent.
    pub median_ratio: f64,
    /// Pairs in which the change read better.
    pub wins: usize,
    /// Median of the parent's readings.
    pub parent_median: f64,
    /// Median of the change's readings.
    pub change_median: f64,
    /// Interquartile range of the parent's readings.
    pub parent_iqr: f64,
}

impl Summary {
    /// Summarise paired readings (`parent[i]` and `change[i]` are one pair).
    pub fn of(parent: &[f64], change: &[f64], higher_is_better: bool) -> Summary {
        assert_eq!(parent.len(), change.len(), "readings come in pairs");
        let ratios: Vec<f64> = parent.iter().zip(change).map(|(p, c)| c / p).collect();
        let wins = parent.iter().zip(change).filter(|(p, c)| if higher_is_better { c > p } else { c < p }).count();
        let (q1, parent_median, q3) = quartiles(parent);
        Summary {
            median_ratio: quartiles(&ratios).1,
            wins,
            parent_median,
            change_median: quartiles(change).1,
            parent_iqr: q3 - q1,
        }
    }

    /// The change's median beats the parent's by more than the parent's IQR.
    fn clears_iqr(&self, higher_is_better: bool) -> bool {
        let gain = if higher_is_better {
            self.change_median - self.parent_median
        } else {
            self.parent_median - self.change_median
        };
        gain > self.parent_iqr
    }

    /// The parent's own runs spread wider than `bound` (its IQR over its
    /// median), so the pairs cannot tell a change within the bound from
    /// noise.
    fn unresolved(&self, bound: f64) -> bool {
        self.parent_iqr > bound * self.parent_median.abs()
    }
}

/// First quartile, median and third quartile, linearly interpolated.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return f64::NAN;
        }
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The commit `rev` names, in full.
fn resolve(root: &Path, rev: &str) -> Result<String, String> {
    let out = Command::new("git")
        .args(["rev-parse", "--verify", &format!("{rev}^{{commit}}")])
        .current_dir(root)
        .output()
        .map_err(|e| format!("could not start git: {e}"))?;
    let hash = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !hash.is_empty()).then_some(hash).ok_or(format!("`{rev}` names no commit"))
}

/// Export `commit` into `tree` with `git archive`, unless an earlier run
/// already did (its build is then reused too).
fn export(root: &Path, commit: &str, tree: &Path) -> Result<(), String> {
    let done = tree.join(".ab-exported");
    if done.is_file() {
        return Ok(());
    }
    if tree.exists() {
        std::fs::remove_dir_all(tree).map_err(|e| format!("clearing {}: {e}", tree.display()))?;
    }
    std::fs::create_dir_all(tree).map_err(|e| format!("creating {}: {e}", tree.display()))?;
    let tar = tree.with_extension("tar");
    let archived = Command::new("git")
        .args(["archive", "--format=tar", "-o"])
        .arg(&tar)
        .arg(commit)
        .current_dir(root)
        .status()
        .map_err(|e| format!("could not start git: {e}"))?;
    if !archived.success() {
        return Err(format!("git archive {commit} failed: {archived}"));
    }
    let unpacked = Command::new("tar")
        .arg("-xf")
        .arg(&tar)
        .arg("-C")
        .arg(tree)
        .status()
        .map_err(|e| format!("could not start tar: {e}"))?;
    let _ = std::fs::remove_file(&tar);
    if !unpacked.success() {
        return Err(format!("unpacking {commit} failed: {unpacked}"));
    }
    std::fs::write(&done, commit).map_err(|e| format!("writing {}: {e}", done.display()))
}

/// Run the A/B from the workspace at `root`; `Ok(false)` when a run failed.
pub fn run(root: &Path, args: &AbArgs) -> Result<bool, String> {
    let spec_text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let spec: Benchmark = serde_json::from_str(&spec_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads: Vec<String> = if args.workloads.is_empty() {
        spec.workloads.iter().map(|w| w.name.clone()).collect()
    } else {
        args.workloads.clone()
    };
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let dir = root.join("target/bench-ab");
    let commit = resolve(root, &args.rev)?;
    let base = dir.join(&commit[..12.min(commit.len())]);
    let parent = Side { name: "parent", tree: base.join("tree"), target: base.join("target") };
    let change = Side { name: "change", tree: root.to_path_buf(), target: dir.join("change") };
    export(root, &commit, &parent.tree)?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    for side in [&parent, &change] {
        println!("[ab] building the {} perfbench ({})", side.name, side.tree.display());
        side.build(&cargo)?;
    }

    let mut ok = true;
    for workload in &workloads {
        let mut readings: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..args.pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut got = [None, None];
            for k in order {
                let side = [&parent, &change][k];
                match side.run(workload, seconds, args.seed) {
                    Ok(m) => got[k] = Some(m),
                    Err(e) => {
                        eprintln!("[ab] {e}");
                        ok = false;
                    }
                }
            }
            let [Some(p), Some(c)] = got else { continue };
            let show = |m: &BTreeMap<String, f64>| {
                spec.end_to_end.iter().filter_map(|e| Some(format!("{} {:.4}", e.name, m.get(&e.name)?))).collect::<Vec<_>>().join(", ")
            };
            println!("[ab] {workload} pair {}/{}: parent {}; change {}", pair + 1, args.pairs, show(&p), show(&c));
            readings[0].push(p);
            readings[1].push(c);
        }
        for e in &spec.end_to_end {
            let column = |side: &[BTreeMap<String, f64>]| side.iter().map(|m| m.get(&e.name).copied()).collect::<Option<Vec<f64>>>();
            let (Some(p), Some(c)) = (column(&readings[0]), column(&readings[1])) else { continue };
            if p.is_empty() {
                continue;
            }
            let higher = e.better == "higher";
            let s = Summary::of(&p, &c, higher);
            println!(
                "[ab] {workload} {}: change/parent ×{:.3} (median of {} pairs), change better in {}/{}, parent median {:.4} IQR {:.4}, change median {:.4}{}",
                e.name,
                s.median_ratio,
                p.len(),
                s.wins,
                p.len(),
                s.parent_median,
                s.parent_iqr,
                s.change_median,
                if s.unresolved(e.bound) {
                    format!(", unresolved: the parent's IQR exceeds {} of its median", e.bound)
                } else if s.clears_iqr(higher) {
                    ", gain exceeds the parent's IQR".to_string()
                } else {
                    String::new()
                },
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse_args(&strings(&["HEAD~1"])).unwrap();
        assert_eq!(a, AbArgs { rev: "HEAD~1".into(), pairs: 6, workloads: vec![], seconds: None, seed: 0 });
        let a = parse_args(&strings(&["main", "--pairs", "8", "--workload", "monitor_live", "--seconds", "5"]))
            .unwrap();
        assert_eq!((a.pairs, a.workloads, a.seconds), (8, vec!["monitor_live".to_string()], Some(5.0)));
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&strings(&["main", "--pairs"])).is_err());
        assert!(parse_args(&strings(&["main", "--pairs", "0"])).is_err());
        assert!(parse_args(&strings(&["main", "--bogus"])).is_err());
        assert!(parse_args(&strings(&["main", "other"])).is_err());
    }

    #[test]
    fn summary_counts_wins_by_direction() {
        let parent = [10.0, 12.0, 11.0, 13.0];
        let change = [12.0, 11.0, 13.0, 15.0];
        let up = Summary::of(&parent, &change, true);
        assert_eq!(up.wins, 3);
        assert_eq!(up.parent_median, 11.5);
        assert_eq!(up.change_median, 12.5);
        assert_eq!(up.parent_iqr, 12.25 - 10.75);
        assert!((up.median_ratio - (15.0 / 13.0 + 13.0 / 11.0) / 2.0).abs() < 1e-12);
        assert!(!up.clears_iqr(true), "a 1.0 gain does not clear a 1.5 IQR");
        assert_eq!(Summary::of(&parent, &change, false).wins, 1);
        let clear = Summary::of(&parent, &[20.0, 21.0, 22.0, 23.0], true);
        assert!(clear.clears_iqr(true) && !clear.clears_iqr(false));
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        // `monitor_live` `setup_s` in ms: the parent alone spans 3.2–8.1.
        let parent = [3.2, 4.4, 8.1, 5.0, 3.6, 7.0];
        let s = Summary::of(&parent, &[7.0, 8.7, 4.1, 4.4, 8.0, 5.2], false);
        assert!(s.parent_iqr / s.parent_median > 0.25);
        assert!(s.unresolved(0.25));
        assert!(!s.unresolved(0.8), "a bound wider than the spread resolves");
        // A steady parent resolves at the same bound.
        let steady = Summary::of(&[10.0, 10.2, 9.9, 10.1], &[10.5, 10.4, 10.6, 10.3], false);
        assert!(!steady.unresolved(0.25));
    }

    #[test]
    fn result_lines_parse() {
        let line = r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"links_per_s": {"value": 19.5, "unit": "links/s"}}}"#;
        let r: ResultLine = serde_json::from_str(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics["links_per_s"].value, 19.5);
    }
}
