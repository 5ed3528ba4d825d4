//! The full study: all six vantage points, bdrmap snapshots, the TSLP
//! campaign, threshold sensitivity, and the headline numbers — regenerating
//! Table 1, Table 2, and §6.1 of the paper.
//!
//! ```sh
//! cargo run --release --example full_campaign            # quick: ~6-month TSLP window
//! cargo run --release --example full_campaign -- --full  # the paper's 13-month window
//! cargo run --release --example full_campaign -- --json report.json
//! cargo run --release --example full_campaign -- --checkpoint-dir ckpt/
//! cargo run --release --example full_campaign -- --metrics-out run.json
//! ```
//!
//! The quick mode probes the same links with the same machinery over a
//! shorter window (22/02/2016 – 31/08/2016); bdrmap snapshots still run at
//! the paper's dates. Expect a few minutes in quick mode (the Liquid
//! Telecom VP alone carries ~10,000 links), longer with `--full`.
//!
//! With `--checkpoint-dir`, every finished link's series is persisted as it
//! completes; re-running the same command after a crash or a Ctrl-C replays
//! the finished links from disk and produces a report bit-identical to an
//! uninterrupted run. Checkpoints are keyed to the campaign window, probing
//! config, and per-VP substrate, so a `--full` run never replays quick-mode
//! files.
//!
//! With `--metrics-out`, the campaign runs instrumented: per-stage timings,
//! per-link probe ledgers, RTT histograms, and pipeline counters are
//! collected into a versioned [`RunManifest`] JSON snapshot at the given
//! path, a Prometheus text exposition next to it (`<path>.prom`), and a
//! stage profile on stdout. Telemetry only observes — the report is
//! bit-identical with or without it.

use african_ixp_congestion::obs::{
    prometheus_text, stage_profile, MetricsRegistry, NoopRecorder, RunManifest,
};
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::simnet::rng::mix;
use african_ixp_congestion::study::prelude::*;
use african_ixp_congestion::topology::paper_vps;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let experiments_path = args
        .iter()
        .position(|a| a == "--experiments")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let checkpoint_dir = args
        .iter()
        .position(|a| a == "--checkpoint-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let specs = paper_vps();
    if let Some(d) = &checkpoint_dir {
        println!("checkpointing per-link series under {} (re-run to resume)", d.display());
    }
    let cfg = VpStudyConfig {
        window: if full { None } else { Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 8, 31))) },
        keep_series: false,
        checkpoint_dir,
        ..Default::default()
    };

    println!(
        "running {} vantage points in parallel ({} TSLP window)...",
        specs.len(),
        if full { "full 13-month" } else { "quick 6-month" }
    );
    let t0 = Instant::now();
    let registry = metrics_out.as_ref().map(|_| MetricsRegistry::new());
    let studies = match &registry {
        Some(reg) => run_all_vps(&specs, &cfg, reg),
        None => run_all_vps(&specs, &cfg, &NoopRecorder),
    };
    let wall = t0.elapsed().as_secs_f64();
    println!("campaign finished in {wall:.1}s of wall time\n");

    if let (Some(path), Some(reg)) = (&metrics_out, &registry) {
        let sheet = reg.snapshot();
        // The manifest's config fingerprint covers everything that shapes
        // the measured series: the seed and the campaign window actually run
        // (quick default or --full per-spec windows).
        let fp = mix(&[
            cfg.seed,
            cfg.window.map(|(s, _)| s.0).unwrap_or(0),
            cfg.window.map(|(_, e)| e.0).unwrap_or(0),
            full as u64,
        ]);
        let threads = african_ixp_congestion::tslp::resolve_threads(cfg.threads);
        let manifest = RunManifest::new(fp, cfg.seed, threads, wall, sheet.clone());
        std::fs::write(path, manifest.to_json()).expect("write metrics snapshot");
        let prom_path = format!("{path}.prom");
        std::fs::write(&prom_path, prometheus_text(&sheet)).expect("write Prometheus exposition");
        println!("stage profile:");
        print!("{}", stage_profile(&sheet));
        // The streaming campaign's memory envelope: the high-water mark of
        // in-flight series windows and the process peak RSS (VmHWM) over
        // the campaign, both folded into the registry as gauges.
        if let Some(w) = sheet.gauges.get("campaign_active_windows") {
            println!("peak in-flight series windows: {w:.0}");
        }
        if let Some(mb) = sheet.gauges.get("campaign_peak_rss_mb") {
            println!("campaign peak RSS: {mb:.1} MiB");
        }
        println!("wrote {path} and {prom_path}\n");
    }

    for s in &studies {
        println!(
            "{}: {} discovered links probed, {} screened out as quiet, {} congested; {:.1}M probe rounds",
            s.spec.name,
            s.outcomes.len(),
            s.screened,
            s.congested_links().len(),
            s.probe_rounds as f64 / 1e6
        );
    }
    println!();

    let report = StudyReport::build(&studies);
    print!("{}", report.render(&studies));

    println!("\ncongested links at the 10 ms operating point:");
    for s in &studies {
        for o in s.congested_links() {
            println!(
                "  {} {} → {} ({}): A_w {:.1} ms, Δt_UD {}, {}",
                s.spec.name,
                o.near,
                o.far,
                o.far_name,
                o.assessment.stats.a_w_ms,
                o.assessment.stats.dt_ud,
                match o.assessment.sustained {
                    Some(true) => "sustained",
                    Some(false) => "transient",
                    None => "-",
                }
            );
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        println!("\nwrote {path}");
    }
    if let Some(path) = experiments_path {
        std::fs::write(&path, report.to_experiments_md()).expect("write experiments markdown");
        println!("wrote {path}");
    }
}
