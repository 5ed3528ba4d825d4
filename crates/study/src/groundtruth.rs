//! Ground-truth validation — the reproduction's stand-in for §5.2's and
//! §6.2's operator interviews.
//!
//! The paper could only "validate and corroborate the obtained results as
//! well as the suggested causes" by talking to the IXP operators. Here the
//! scenarios carry machine-readable truth, so validation is a confusion
//! matrix: which links did the pipeline call congested vs what they really
//! are, and how close are the measured waveform characteristics (`A_w`,
//! `Δt_UD`) to the scripted ones.

use crate::vpstudy::VpStudy;
use ixp_topology::TruthKind;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Verdict-vs-truth accounting over a study's links.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Confusion {
    /// Truly congestion-scripted links called congested.
    pub true_positives: usize,
    /// Healthy/noisy links called congested.
    pub false_positives: usize,
    /// Congestion-scripted links missed.
    pub false_negatives: usize,
    /// Everything else.
    pub true_negatives: usize,
    /// Noisy links correctly flagged-but-not-diurnal (the Table 1
    /// population behaving as designed).
    pub noisy_flagged_not_diurnal: usize,
    /// Links whose truth was unknown to the validator.
    pub unknown: usize,
}

impl Confusion {
    /// Precision of the congested verdict.
    pub fn precision(&self) -> f64 {
        let den = self.true_positives + self.false_positives;
        if den == 0 {
            1.0
        } else {
            self.true_positives as f64 / den as f64
        }
    }

    /// Recall of the congested verdict.
    pub fn recall(&self) -> f64 {
        let den = self.true_positives + self.false_negatives;
        if den == 0 {
            1.0
        } else {
            self.true_positives as f64 / den as f64
        }
    }
}

/// Does ground truth say this link should be *called congested* by TSLP?
///
/// Queueing case studies and generic congested links: yes. The KNET slow-
/// ICMP case: the paper *also* labels it congested from the measurements
/// (the technique cannot tell the difference — that is the point of §6.2.1),
/// so it counts as a true positive for the *detector*, although the
/// underlying cause is slow ICMP generation, not queueing.
pub fn truth_expects_congested(kind: &TruthKind) -> bool {
    match kind {
        TruthKind::CaseStudy { .. } | TruthKind::GenericCongested { .. } => true,
        TruthKind::Healthy | TruthKind::Noisy { .. } | TruthKind::Transit => false,
    }
}

/// Score a study's congested verdicts against ground truth.
pub fn confusion(study: &VpStudy) -> Confusion {
    let mut c = Confusion::default();
    for o in &study.outcomes {
        let Some(kind) = &o.truth else {
            c.unknown += 1;
            continue;
        };
        let expected = truth_expects_congested(kind);
        let called = o.congested();
        match (expected, called) {
            (true, true) => c.true_positives += 1,
            (true, false) => c.false_negatives += 1,
            (false, true) => c.false_positives += 1,
            (false, false) => c.true_negatives += 1,
        }
        if matches!(kind, TruthKind::Noisy { .. }) {
            let flagged10 = o.sweep.iter().any(|&(t, f, _)| t == 10.0 && f);
            if flagged10 && !o.assessment.diurnal {
                c.noisy_flagged_not_diurnal += 1;
            }
        }
    }
    c
}

/// Paper-vs-measured comparison for one case-study link.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaseComparison {
    /// Scenario name.
    pub scenario: String,
    /// The paper's reported `A_w` (ms).
    pub paper_a_w_ms: f64,
    /// Measured `A_w` (ms).
    pub measured_a_w_ms: f64,
    /// The paper's reported `Δt_UD` (seconds).
    pub paper_dt_ud_s: f64,
    /// Measured `Δt_UD` (seconds).
    pub measured_dt_ud_s: f64,
    /// Paper label: sustained?
    pub paper_sustained: bool,
    /// Measured label.
    pub measured_sustained: Option<bool>,
    /// Detected as congested at the 10 ms operating point?
    pub detected: bool,
}

/// Paper-reported waveform values per scenario (§6.2).
fn paper_values(scenario: &str) -> Option<(f64, f64, bool)> {
    match scenario {
        // (A_w ms, Δt_UD seconds, sustained)
        "GIXA-GHANATEL" => Some((27.9, 20.0 * 3600.0, true)),
        "GIXA-KNET" => Some((17.5, 2.0 * 3600.0 + 14.0 * 60.0, true)),
        "QCELL-NETPAGE" => Some((10.7, 6.0 * 3600.0 + 22.0 * 60.0, false)),
        _ => None,
    }
}

/// Compare each detected case-study link against the paper's numbers.
pub fn case_comparisons(studies: &[VpStudy]) -> Vec<CaseComparison> {
    let mut out = Vec::new();
    for s in studies {
        for o in &s.outcomes {
            let Some(TruthKind::CaseStudy { scenario }) = &o.truth else { continue };
            let Some((aw, dt, sustained)) = paper_values(scenario) else { continue };
            out.push(CaseComparison {
                scenario: scenario.to_string(),
                paper_a_w_ms: aw,
                measured_a_w_ms: o.assessment.stats.a_w_ms,
                paper_dt_ud_s: dt,
                measured_dt_ud_s: o.assessment.stats.dt_ud.as_secs_f64(),
                paper_sustained: sustained,
                measured_sustained: o.assessment.sustained,
                detected: o.congested(),
            });
        }
    }
    out
}

/// Render the interview-replacement report.
pub fn render_validation(studies: &[VpStudy]) -> String {
    let mut out = String::from("Ground-truth validation (stand-in for the paper's operator interviews)\n");
    for s in studies {
        let c = confusion(s);
        let _ = writeln!(
            out,
            "{}: precision {:.2} recall {:.2} (tp={} fp={} fn={} tn={}, noisy flagged-not-diurnal={})",
            s.spec.name,
            c.precision(),
            c.recall(),
            c.true_positives,
            c.false_positives,
            c.false_negatives,
            c.true_negatives,
            c.noisy_flagged_not_diurnal,
        );
    }
    for cc in case_comparisons(studies) {
        let _ = writeln!(
            out,
            "{}: A_w paper {:.1} ms vs measured {:.1} ms; Δt_UD paper {:.1} h vs measured {:.1} h; sustained paper {} vs measured {:?}; detected {}",
            cc.scenario,
            cc.paper_a_w_ms,
            cc.measured_a_w_ms,
            cc.paper_dt_ud_s / 3600.0,
            cc.measured_dt_ud_s / 3600.0,
            cc.paper_sustained,
            cc.measured_sustained,
            cc.detected,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpstudy::{run_vp_study, VpStudyConfig};
    use ixp_simnet::prelude::SimTime;
    use ixp_topology::paper_vps;

    #[test]
    fn confusion_on_vp4() {
        let spec = &paper_vps()[3];
        let cfg = VpStudyConfig {
            window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 5, 20))),
            with_loss: false,
            keep_series: false,
            ..Default::default()
        };
        let s = run_vp_study(spec, &cfg);
        let c = confusion(&s);
        assert!(c.true_positives >= 1, "{c:?}"); // NETPAGE
        assert_eq!(c.false_positives, 0, "{c:?}");
        assert!(c.precision() >= 0.99);
        let cases = case_comparisons(&[s]);
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].scenario, "QCELL-NETPAGE");
        assert!(cases[0].detected);
    }

    #[test]
    fn paper_values_table() {
        assert!(paper_values("GIXA-GHANATEL").unwrap().2);
        assert!(!paper_values("QCELL-NETPAGE").unwrap().2);
        assert!(paper_values("NOPE").is_none());
        let (aw, dt, _) = paper_values("GIXA-KNET").unwrap();
        assert!((aw - 17.5).abs() < 1e-9);
        assert!((dt - 8040.0).abs() < 1e-9);
    }

    #[test]
    fn truth_expectations() {
        assert!(truth_expects_congested(&TruthKind::CaseStudy { scenario: "GIXA-KNET" }));
        assert!(!truth_expects_congested(&TruthKind::Noisy { scale_ms: 20.0 }));
        assert!(!truth_expects_congested(&TruthKind::Transit));
    }
}
