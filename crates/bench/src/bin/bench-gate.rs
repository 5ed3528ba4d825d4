//! Run the gated benches and judge each fresh record against its committed
//! baseline (see `ixp_bench::gate` for the budget table).
//!
//! ```text
//! cargo run --release -p ixp-bench --bin bench-gate -- [--force] [bench…]
//! ```
//!
//! With no bench names it runs all seven (health, detect, obs, campaign,
//! monitor, resilience, trace). For each it runs
//! `cargo bench -p ixp-bench --bench <bench>`, prints one line per bound,
//! and copies `target/bench-records/<bench>.json` over `BENCH_<bench>.json`
//! only when every bound passes — or, under `--force`, when every failing
//! bound is forceable. Exits non-zero if any bench failed its gate.

use ixp_bench::gate::{gate, BENCHES};
use ixp_bench::record::{committed_path, fresh_path, workspace_root};
use std::ffi::OsStr;
use std::process::{Command, ExitCode};

/// Run one bench and gate its fresh record; `Ok(false)` is a failed gate.
fn run(cargo: &OsStr, bench: &str, force: bool) -> Result<bool, String> {
    let fresh = fresh_path(bench);
    // A bench that dies before writing must not be judged on a stale record.
    let _ = std::fs::remove_file(&fresh);
    let status = Command::new(cargo)
        .args(["bench", "-p", "ixp-bench", "--bench", bench])
        .current_dir(workspace_root())
        .status()
        .map_err(|e| format!("could not start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench exited with {status}"));
    }
    gate(bench, &fresh, &committed_path(bench), force)
}

fn main() -> ExitCode {
    let mut force = false;
    let mut benches = Vec::new();
    for arg in std::env::args().skip(1) {
        match BENCHES.iter().find(|&&b| b == arg) {
            Some(&bench) => benches.push(bench),
            None if arg == "--force" => force = true,
            None => {
                eprintln!("bench-gate: unknown argument `{arg}` (benches: {})", BENCHES.join(", "));
                return ExitCode::from(2);
            }
        }
    }
    if benches.is_empty() {
        benches = BENCHES.to_vec();
    }

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut failed = Vec::new();
    for &bench in &benches {
        println!("[bench-gate] ==> {bench}");
        let passed = run(&cargo, bench, force).unwrap_or_else(|e| {
            eprintln!("[bench-gate] {bench}: {e}");
            false
        });
        if !passed {
            failed.push(bench);
        }
    }
    if failed.is_empty() {
        println!("[bench-gate] all {} records accepted", benches.len());
        ExitCode::SUCCESS
    } else {
        println!("[bench-gate] failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
