//! The batch pipeline's per-link chain, rebuilt from public layer calls with
//! a span around each: `measure_link_in` → `classify_link` →
//! `assess_at_thresholds_masked_with`. Both batch workloads trace through
//! it; the paper workload adds the RR and loss follow-ups after it.

use crate::outcome::Outcome;
use crate::spans::{self, Span, SpanLog};
use ixp_chgpt::DetectorScratch;
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::net::{Network, ProbeCtx};
use ixp_simnet::node::NodeId;
use ixp_study::THRESHOLDS_MS;
use tslp_core::campaign::CampaignConfig;
use tslp_core::detect::{assess_at_thresholds_masked_with, AssessConfig, Assessment};
use tslp_core::health::{classify_link, HealthReport, LinkHealth};
use tslp_core::series::LinkSeries;

/// One link through measurement, health classification and the threshold
/// sweep.
pub struct Assessed {
    /// The measured series (dropped by callers once the verdict is out).
    pub series: LinkSeries,
    /// Did the screening pass short-circuit the link?
    pub screened: bool,
    /// The health mask.
    pub mask: HealthReport,
    /// Assessment at each of [`THRESHOLDS_MS`].
    pub sweep: Vec<(f64, Assessment)>,
}

impl Assessed {
    /// The assessment at `threshold_ms`.
    pub fn at(&self, threshold_ms: f64) -> &Assessment {
        &self
            .sweep
            .iter()
            .find(|(t, _)| *t == threshold_ms)
            .expect("threshold swept")
            .1
    }
}

/// Worker state for the traced chain.
pub struct Worker {
    /// The worker's spans.
    pub log: SpanLog,
    /// Reused probe context (rebased per target by the campaign layer).
    pub ctx: ProbeCtx,
    /// Reused detector scratch.
    pub scratch: DetectorScratch,
    /// What the worker's links added up to.
    pub counts: LinkCounts,
}

impl Worker {
    /// A worker recording into lane `lane`.
    pub fn new(epoch: std::time::Instant, lane: usize) -> Worker {
        Worker {
            log: SpanLog::new(epoch, lane as u32),
            ctx: ProbeCtx::default(),
            scratch: DetectorScratch::new(),
            counts: LinkCounts::default(),
        }
    }
}

/// Run the chain for one link inside the worker's open span.
#[allow(clippy::too_many_arguments)]
pub fn assess_traced(
    w: &mut Worker,
    id: u64,
    net: &Network,
    vp: NodeId,
    target: &TslpTarget,
    campaign: &CampaignConfig,
    assess: &AssessConfig,
) -> Assessed {
    let ctx = &mut w.ctx;
    let (series, screened) = w.log.span("campaign.measure_link_in", id, |_| {
        tslp_core::campaign::measure_link_in(net, ctx, vp, target, campaign)
    });
    let mask = w.log.span("health.classify_link", id, |_| {
        classify_link(&series, &assess.health)
    });
    let scratch = &mut w.scratch;
    let sweep = w
        .log
        .span("detect.assess_at_thresholds_masked_with", id, |_| {
            assess_at_thresholds_masked_with(&series, assess, &THRESHOLDS_MS, &mask, scratch)
        });
    let a = Assessed {
        series,
        screened,
        mask,
        sweep,
    };
    w.counts.add(&a);
    a
}

/// Counts the batch layers report beside their self times.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkCounts {
    /// Links through the chain.
    pub links: u64,
    /// Series samples (rounds) measured and assessed.
    pub samples: u64,
    /// Links the screening pass short-circuited.
    pub screened: u64,
    /// Links whose health class is not clean.
    pub nonclean: u64,
    /// Links flagged at 10 ms.
    pub flagged: u64,
    /// Links diurnal at 10 ms.
    pub diurnal: u64,
}

impl LinkCounts {
    /// Count one assessed link.
    fn add(&mut self, a: &Assessed) {
        self.links += 1;
        self.samples += a.series.len() as u64;
        self.screened += u64::from(a.screened);
        self.nonclean += u64::from(a.mask.overall != LinkHealth::Clean);
        self.flagged += u64::from(a.at(10.0).flagged);
        self.diurnal += u64::from(a.at(10.0).diurnal);
    }
}

/// Totals over the worker pools of a traced batch pass.
#[derive(Debug, Default)]
pub struct PoolTotals {
    /// Link counts over all workers.
    pub counts: LinkCounts,
    /// Summed time workers spent inside per-link spans.
    pub busy_s: f64,
    /// Summed wall time of the pools.
    pub wall_s: f64,
}

impl PoolTotals {
    /// Fold in one finished pool that ran `wall_s`; its span logs go to
    /// `logs`.
    pub fn add(&mut self, workers: Vec<Worker>, wall_s: f64, logs: &mut Vec<SpanLog>) {
        self.wall_s += wall_s;
        for w in workers {
            self.busy_s += w.log.busy_ns() as f64 / 1e9;
            let c = &mut self.counts;
            c.links += w.counts.links;
            c.samples += w.counts.samples;
            c.screened += w.counts.screened;
            c.nonclean += w.counts.nonclean;
            c.flagged += w.counts.flagged;
            c.diurnal += w.counts.diurnal;
            logs.push(w.log);
        }
    }
}

/// Fill the campaign, health and detect layer metrics from the spans and
/// pool totals of a traced batch pass on `workers` threads.
pub fn set_batch_layers(out: &mut Outcome, spans: &[Span], t: &PoolTotals, workers: usize) {
    let c = &t.counts;
    let layer = spans::self_by_layer(spans);
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    // A probe round sends one near and one far probe: two per series sample.
    let probe_rounds = c.samples * 2;
    out.set("campaign.self_s", get("campaign"));
    out.set("campaign.probe_rounds", probe_rounds as f64);
    out.set(
        "campaign.ns_per_round",
        get("campaign") * 1e9 / probe_rounds.max(1) as f64,
    );
    out.set(
        "campaign.screened_frac",
        c.screened as f64 / c.links.max(1) as f64,
    );
    out.set(
        "campaign.worker_idle_frac",
        1.0 - t.busy_s / (workers as f64 * t.wall_s),
    );
    out.set("health.self_s", get("health"));
    out.set("health.nonclean_links", c.nonclean as f64);
    out.set("detect.self_s", get("detect"));
    out.set(
        "detect.ns_per_sample",
        get("detect") * 1e9 / c.samples.max(1) as f64,
    );
    out.set("detect.flagged_links", c.flagged as f64);
    out.set("detect.diurnal_links", c.diurnal as f64);
}
