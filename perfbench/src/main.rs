//! The repository's benchmark: three workloads over the two pipelines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_case_studies|continent_day|monitor_live> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the workload runs as a
//! user would run it, passes repeat until `--seconds` have gone by, and the
//! end-to-end metrics come out. With `--trace 1` the workload is rebuilt
//! from public layer calls with a span around each, and the per-layer
//! metrics come out; the spans go to `<build dir>/perfbench/`. Either way
//! the outputs are checked against ground truth, and the last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! A failed check prints `"correct": false` and exits with code 1.

mod chain;
mod continent;
mod monitor;
mod outcome;
mod paper;
mod pool;
mod spans;
mod stats;

use outcome::{Outcome, END_TO_END, PER_LAYER, THREADS};
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_case_studies", "continent_day", "monitor_live"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Identity of the code measured: the git commit when there is one, and a
/// hash of the workspace sources either way (a checkout may not be a git
/// repository).
fn source_id() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.toml".into());
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    // Only a repository rooted here: git would otherwise search the parent
    // directories, outside the checkout.
    let git = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    match git {
        Some(c) => format!("git:{c} tree:{h:016x}"),
        None => format!("tree:{h:016x}"),
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The result line. Metric values print with every digit Rust keeps.
fn result_line(correct: bool, out: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut out = Outcome::default();
    let spans = match (args.workload, args.trace) {
        ("paper_case_studies", false) => {
            paper::run(args.seed, args.seconds, &mut out);
            Vec::new()
        }
        ("paper_case_studies", true) => paper::run_traced(args.seed, &mut out),
        ("continent_day", false) => {
            continent::run(args.seed, args.seconds, &mut out);
            Vec::new()
        }
        ("continent_day", true) => continent::run_traced(args.seed, &mut out),
        ("monitor_live", false) => {
            monitor::run(args.seed, args.seconds, &mut out);
            Vec::new()
        }
        ("monitor_live", true) => monitor::run_traced(args.seed, &mut out),
        (w, _) => unreachable!("parse admits only known workloads, got {w}"),
    };

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in catalogue {
        match out.metrics.get(name) {
            // A layer this workload never calls did no work.
            None if args.trace => out.set(name, 0.0),
            None => out.failures.push(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => out.failures.push(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    if args.trace {
        let path = outcome::work_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans::write_jsonl(&path, &spans) {
            Ok(()) => out.line(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => out.line(format!("could not write spans to {}: {e}", path.display())),
        }
        for (layer, s) in spans::self_by_layer(&spans) {
            out.line(format!("self time {layer}: {s:.4} s"));
        }
    }

    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut regime = vec![
        ("workload", json_str(args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("host_nproc", host.to_string()),
        ("thread_budget", THREADS.to_string()),
        ("code", json_str(&source_id())),
    ];
    regime.extend(out.regime.iter().map(|(k, v)| (*k, json_str(v))));
    regime.push(("run_s", format!("{:.3}", started.elapsed().as_secs_f64())));
    let regime: Vec<String> = regime
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();

    println!(
        "# {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for l in &out.lines {
        println!("  {l}");
    }
    for (name, unit) in catalogue {
        println!(
            "  {name} = {} {unit}",
            out.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{{\"regime\": {{{}}}}}", regime.join(", "));
    let correct = out.failures.is_empty();
    println!("{}", result_line(correct, &out, catalogue));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload monitor_live --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "monitor_live",
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload monitor_live --trace 2")).is_err());
        assert!(parse(&argv("--workload monitor_live --seconds 0")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("--workload continent_day --seed")).is_err());
    }

    /// `BENCHMARK.json` names exactly these workloads and metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').unwrap() + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        out.set("setup_s", 0.25);
        let line = result_line(true, &out, &END_TO_END[..1]);
        assert_eq!(line, "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
    }
}
