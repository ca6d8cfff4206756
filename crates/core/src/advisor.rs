//! Actionable recommendations from an error breakdown — the "what should
//! the modeler do next" step the paper's framework (Fig. 7, §X-XI) implies
//! but leaves to the reader.
//!
//! Each taxonomy class has a distinct remedy: approximation errors call
//! for tuning, system errors for system logs, OoD errors for broader data
//! collection, and aleatory errors for *stopping* — no model improvement
//! can remove them. The advisor ranks the classes by attributed share and
//! emits the matching guidance, so a site can run the pipeline and get a
//! prioritized work list instead of a pie chart.

use crate::taxonomy::TaxonomyReport;
use serde::Serialize;

/// One prioritized recommendation.
#[derive(Debug, Clone, PartialEq, Serialize)]
// audit:allow(dead-public-api) -- element type of the public recommend's return, which the quickstart example calls
pub struct Recommendation {
    /// Which taxonomy class this addresses.
    pub class: &'static str,
    /// Share of the baseline error attributed to the class (0..1).
    pub share: f64,
    /// What to do about it.
    pub action: String,
}

/// Threshold below which a class is not worth acting on.
const ACTIONABLE_SHARE: f64 = 0.05;

/// Derive a prioritized action list from a pipeline report.
pub fn recommend(report: &TaxonomyReport) -> Vec<Recommendation> {
    let b = &report.breakdown;
    let mut recs = Vec::new();

    recs.push(Recommendation {
        class: "application modeling",
        share: b.app_share,
        action: if b.app_fixed_share >= b.app_share * 0.8 {
            format!(
                "hyperparameter tuning already recovered {:.0} % of the estimated {:.0} % — \
                 further model/architecture work has little headroom",
                b.app_fixed_share * 100.0,
                b.app_share * 100.0
            )
        } else {
            format!(
                "tune the model: the duplicate bound says {:.0} % of error is fixable but \
                 tuning has only recovered {:.0} % (best grid point: {} trees, depth {})",
                b.app_share * 100.0,
                b.app_fixed_share * 100.0,
                report.tuned_params.n_trees,
                report.tuned_params.max_depth
            )
        },
    });

    recs.push(Recommendation {
        class: "global system modeling",
        share: b.system_share,
        action: match (b.system_fixed_share, b.system_share > ACTIONABLE_SHARE) {
            (Some(fixed), true) if fixed >= b.system_share * 0.7 => format!(
                "system logs already recover most of the {:.0} % system share — more \
                 telemetry (topology, networking) is unlikely to help further",
                b.system_share * 100.0
            ),
            (_, true) => format!(
                "collect I/O subsystem logs (LMT-class telemetry): the start-time golden \
                 model shows {:.0} % of error is pure system state",
                b.system_share * 100.0
            ),
            (_, false) => "system state is a minor factor on this machine".to_owned(),
        },
    });

    recs.push(Recommendation {
        class: "generalization (OoD)",
        share: b.ood_share,
        action: if b.ood_share > ACTIONABLE_SHARE {
            format!(
                "collect more samples of rare/novel applications: {:.1} % of jobs carry \
                 {:.0} % of error at {:.1}x amplification; retrain on a broader window \
                 and gate predictions on EU > {:.3}",
                report.ood.ood_fraction * 100.0,
                b.ood_share * 100.0,
                report.ood.error_amplification,
                report.ood.eu_threshold
            )
        } else {
            format!(
                "OoD share is small ({:.1} %); still gate production predictions on the \
                 EU threshold {:.3} to catch novel applications",
                b.ood_share * 100.0,
                report.ood.eu_threshold
            )
        },
    });

    let noise_action = match &report.noise {
        Some(n) => format!(
            "stop here: ±{:.1} % (68 %) / ±{:.1} % (95 %) of throughput variance is \
             contention + inherent noise — publish these bands to users instead of \
             chasing model accuracy below the {:.1} % floor",
            n.pct_68, n.pct_95, n.median_abs_pct
        ),
        None => "no concurrent duplicates measured — schedule periodic batched \
                 benchmark runs (IOR-style) to measure the noise floor"
            .to_owned(),
    };
    recs.push(Recommendation {
        class: "contention + inherent noise",
        share: b.noise_share,
        action: noise_action,
    });

    // Most impactful first.
    recs.sort_by(|a, b| b.share.partial_cmp(&a.share).expect("finite shares"));
    recs
}

/// Render recommendations as a numbered list.
pub fn render_recommendations(recs: &[Recommendation]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (i, r) in recs.iter().enumerate() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write into a String is infallible"
        )]
        let _ = writeln!(s, "{}. [{:>4.1} %] {}: {}", i + 1, r.share * 100.0, r.class, r.action);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::Taxonomy;
    use iotax_sim::{Platform, SimConfig};

    #[test]
    fn recommendations_cover_all_classes_and_are_sorted() {
        let sim = Platform::new(SimConfig::theta().with_jobs(2_500).with_seed(71)).generate();
        let report = Taxonomy::quick().run(&sim);
        let recs = recommend(&report);
        assert_eq!(recs.len(), 4);
        assert!(recs.windows(2).all(|w| w[0].share >= w[1].share));
        let classes: Vec<&str> = recs.iter().map(|r| r.class).collect();
        assert!(classes.contains(&"contention + inherent noise"));
        assert!(classes.contains(&"application modeling"));
        let text = render_recommendations(&recs);
        assert!(text.contains("1. ["));
        assert!(text.lines().count() == 4);
    }

    #[test]
    fn noise_dominated_system_says_stop() {
        let sim = Platform::new(SimConfig::theta().with_jobs(2_500).with_seed(72)).generate();
        let report = Taxonomy::quick().run(&sim);
        let recs = recommend(&report);
        let noise = recs.iter().find(|r| r.class == "contention + inherent noise").expect("class");
        assert!(noise.action.contains("stop here") || noise.action.contains("benchmark"));
    }
}
