//! The one record schema every gated bench writes.
//!
//! A [`Record`] is `{bench, host_parallelism, regime, metrics}`: `regime`
//! holds the counts the numbers were taken under (links, rounds, threads,
//! reader threads, …) and `metrics` the measured values, each a
//! `{name, unit, value}`. A metric's name is unique within its record and
//! carries its point (`links_1000.ingest_samples_per_sec`,
//! `scratch_parallel.links_per_sec`), so a reader looks a value up by name
//! rather than by position in the file.
//!
//! A bench writes its fresh record to `target/bench-records/<bench>.json`
//! ([`fresh_path`]) and never touches the committed `BENCH_<bench>.json`
//! ([`committed_path`]); only the `bench-gate` binary replaces that, and
//! only when the fresh record passes its budget (see [`crate::gate`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One measured value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// `<point>.<quantity>`, or a bare quantity for a bench with one point.
    pub name: String,
    /// Unit of `value` (`links/s`, `%`, `MiB`, `ns`, …).
    pub unit: String,
    /// The value, rounded to three decimals.
    pub value: f64,
}

/// One bench run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The bench's name: `cargo bench -p ixp-bench --bench <bench>`.
    pub bench: String,
    /// `std::thread::available_parallelism` on the measuring host.
    pub host_parallelism: usize,
    /// The counts the run was taken under (`threads: 0` means one worker
    /// per available CPU).
    pub regime: BTreeMap<String, u64>,
    /// Measured values, names unique.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// An empty record for `bench` on this host.
    pub fn new(bench: &str) -> Record {
        Record {
            bench: bench.to_string(),
            host_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            regime: BTreeMap::new(),
            metrics: Vec::new(),
        }
    }

    /// Record one regime count.
    pub fn regime(&mut self, key: &str, value: u64) -> &mut Record {
        self.regime.insert(key.to_string(), value);
        self
    }

    /// Append a metric. Panics on a duplicate name.
    pub fn metric(&mut self, name: impl Into<String>, unit: &str, value: f64) -> &mut Record {
        let name = name.into();
        assert!(self.value(&name).is_none(), "duplicate metric `{name}` in bench `{}`", self.bench);
        let value = (value * 1e3).round() / 1e3;
        self.metrics.push(Metric { name, unit: unit.to_string(), value });
        self
    }

    /// The value of metric `name`, if the record holds it.
    pub(crate) fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Pretty JSON, one metric per line.
    pub(crate) fn to_json(&self) -> String {
        let metrics: Vec<String> =
            self.metrics.iter().map(|m| format!("    {}", json(m))).collect();
        format!(
            "{{\n  \"bench\": {},\n  \"host_parallelism\": {},\n  \"regime\": {},\n  \"metrics\": [\n{}\n  ]\n}}\n",
            json(&self.bench),
            self.host_parallelism,
            json(&self.regime),
            metrics.join(",\n"),
        )
    }

    /// Parse a record, rejecting duplicate metric names.
    pub(crate) fn from_json(text: &str) -> Result<Record, String> {
        let rec: Record = serde_json::from_str(text).map_err(|e| e.to_string())?;
        for (i, m) in rec.metrics.iter().enumerate() {
            if rec.metrics[..i].iter().any(|p| p.name == m.name) {
                return Err(format!("duplicate metric `{}`", m.name));
            }
        }
        Ok(rec)
    }

    /// Write this record to [`fresh_path`], reporting where it went.
    pub fn write_fresh(&self) {
        let out = fresh_path(&self.bench);
        let written = std::fs::create_dir_all(out.parent().expect("records dir"))
            .and_then(|()| std::fs::write(&out, self.to_json()));
        match written {
            Ok(()) => eprintln!("[{}] record written to {}", self.bench, out.display()),
            Err(e) => eprintln!("[{}] could not write {}: {e}", self.bench, out.display()),
        }
    }
}

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("record fields encode")
}

/// The workspace root (where the committed records live): the nearest
/// directory at or above the current one that holds `crates/bench`.
/// Resolved at run time, so binaries built in one checkout and run from a
/// copy of it read and write the copy's records. `cargo bench` runs a bench
/// from `crates/bench`; `bench-gate` runs from anywhere inside the tree.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("the current directory is readable");
    workspace_root_from(&cwd)
        .unwrap_or_else(|| panic!("{} is not inside the workspace (no crates/bench above it)", cwd.display()))
}

/// [`workspace_root`] as seen from `dir`.
fn workspace_root_from(dir: &Path) -> Option<PathBuf> {
    dir.ancestors().find(|d| d.join("crates/bench/Cargo.toml").is_file()).map(Path::to_path_buf)
}

/// Where `cargo bench --bench <bench>` writes its fresh record.
pub fn fresh_path(bench: &str) -> PathBuf {
    workspace_root().join("target/bench-records").join(format!("{bench}.json"))
}

/// The committed baseline record for `bench`.
pub fn committed_path(bench: &str) -> PathBuf {
    workspace_root().join(format!("BENCH_{bench}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut rec = Record::new("monitor");
        rec.regime("threads", 0).regime("rounds_per_link", 288);
        rec.metric("links_1000.ingest_samples_per_sec", "samples/s", 1_502_642.912_34);
        rec.metric("links_100000.steady_rss_mb", "MiB", 63.5);
        let back = Record::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.value("links_1000.ingest_samples_per_sec"), Some(1_502_642.912));
        assert_eq!(back.value("links_10000.steady_rss_mb"), None);
    }

    #[test]
    fn workspace_root_follows_the_directory_it_is_resolved_from() {
        let copy = std::env::temp_dir().join(format!("ixp-bench-root-{}", std::process::id()));
        let bench = copy.join("crates/bench");
        std::fs::create_dir_all(bench.join("src")).unwrap();
        std::fs::write(bench.join("Cargo.toml"), "").unwrap();
        assert_eq!(workspace_root_from(&bench.join("src")), Some(copy.clone()));
        assert_eq!(workspace_root_from(&copy), Some(copy.clone()));
        assert_eq!(workspace_root_from(&std::env::temp_dir()), None);
        std::fs::remove_dir_all(&copy).unwrap();
        // This test runs from `crates/bench`, inside this checkout.
        let here = std::env::current_dir().unwrap();
        assert_eq!(workspace_root(), workspace_root_from(&here).unwrap());
        assert!(here.starts_with(workspace_root()));
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_names_are_refused() {
        Record::new("obs").metric("overhead_pct", "%", 1.0).metric("overhead_pct", "%", 2.0);
    }

    #[test]
    fn parsing_refuses_duplicate_metric_names() {
        let mut rec = Record::new("obs");
        rec.metric("overhead_pct", "%", 1.0);
        rec.metrics.push(rec.metrics[0].clone());
        assert!(Record::from_json(&rec.to_json()).unwrap_err().contains("duplicate"));
    }
}
