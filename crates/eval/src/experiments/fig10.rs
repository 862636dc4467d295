//! Figure 10 — *Convergence of the Inference Model*: the maximum parameter
//! change ("maximum variance of parameters") per EM iteration on the full
//! Deployment-1 answer set.
//!
//! Expected shape: rapid decay; the paper converges below 0.005 within
//! 12–23 iterations.
//!
//! The curve is SQUAREM-accelerated: `run_em` iterates the plain map
//! through the SqS3 loop, so each point is one E-step — a plain step or
//! the stabilising step after an extrapolation jump — and the series is
//! not monotone (the step after a jump can move the parameters more than
//! the plain step before it). Convergence is still read off a plain-step
//! residual.

use crowd_core::model::{run_em, EmConfig};

use crate::experiments::{DatasetBundle, ExperimentEnv, ExperimentOutput};
use crate::render::{FigureResult, Series};

/// Runs EM on the full Deployment-1 log and returns the per-iteration
/// maximum parameter delta.
#[must_use]
pub fn convergence_history(bundle: &DatasetBundle) -> Vec<f64> {
    let config = EmConfig {
        // Run past the paper's threshold to show the tail of the curve.
        tolerance: 1e-4,
        max_iterations: 80,
        ..EmConfig::default()
    };
    let (_, report) = run_em(&bundle.dataset().tasks, &bundle.deployment1, &config);
    report.max_delta_history
}

fn figure_for(name: &str, bundle: &DatasetBundle) -> FigureResult {
    let history = convergence_history(bundle);
    let x: Vec<f64> = (1..=history.len()).map(|i| i as f64).collect();
    FigureResult {
        id: format!("Figure 10 ({name})"),
        title: "Convergence of the Inference Model".to_owned(),
        x_label: "iteration".to_owned(),
        y_label: "maximum variance of parameters".to_owned(),
        series: vec![Series::new("max parameter delta", x, history)],
        notes: "Expected shape: rapid decay below the 0.005 threshold within \
                a few tens of iterations."
            .to_owned(),
    }
}

/// Runs the experiment for both datasets.
#[must_use]
pub fn run(env: &ExperimentEnv) -> Vec<ExperimentOutput> {
    env.bundles()
        .into_iter()
        .map(|(name, bundle)| ExperimentOutput::Figure(figure_for(name, bundle)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;

    #[test]
    fn deltas_end_below_threshold() {
        let env = ExperimentEnv::new(ExperimentConfig::smoke());
        let history = convergence_history(&env.beijing);
        assert!(!history.is_empty());
        let last = *history.last().unwrap();
        assert!(
            last < 0.005 || history.len() == 80,
            "no convergence progress: {history:?}"
        );
    }

    #[test]
    fn overall_trend_is_decreasing() {
        let env = ExperimentEnv::new(ExperimentConfig::smoke());
        let history = convergence_history(&env.china);
        if history.len() >= 4 {
            let head = history[..2].iter().sum::<f64>();
            let tail = history[history.len() - 2..].iter().sum::<f64>();
            assert!(tail < head, "head {head} vs tail {tail}");
        }
    }

    #[test]
    fn two_figures_emitted() {
        let env = ExperimentEnv::new(ExperimentConfig::smoke());
        assert_eq!(run(&env).len(), 2);
    }
}
