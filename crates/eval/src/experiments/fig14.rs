//! Figure 14 — *Scalability of the Task Assignment Algorithm*: ACCOPT
//! wall-time (a) varying the number of tasks with 100 available workers and
//! (b) varying the number of workers with 10 000 tasks.
//!
//! Expected shape: roughly linear growth in both dimensions over the
//! measured range. Both inner-loop variants (lazy heap and paper-literal
//! matrix scan) are measured — the ablation of DESIGN.md §6.7.

use crowd_core::{
    AccOptAssigner, AnswerLog, AssignContext, Assigner, DistanceFunctionSet, Distances,
    GainSemantics, InitStrategy, InnerLoop, ModelParams, ReservationSet, TaskSet, Worker, WorkerId,
    WorkerPool,
};
use crowd_geo::Point;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::experiments::{millis, time_it, ExperimentEnv, ExperimentOutput};
use crate::render::{FigureResult, Series};

/// Task-count sweep of sub-figure (a), at 100 workers.
pub const TASK_SWEEP: [usize; 5] = [2_000, 4_000, 6_000, 8_000, 10_000];

/// Worker-count sweep of sub-figure (b), at 10 000 tasks.
pub const WORKER_SWEEP: [usize; 5] = [20, 40, 60, 80, 100];

/// A self-contained assignment scenario of the requested size.
#[derive(Debug)]
pub struct Scenario {
    tasks: TaskSet,
    workers: WorkerPool,
    log: AnswerLog,
    params: ModelParams,
    fset: DistanceFunctionSet,
    distances: Distances,
    reserved: ReservationSet,
}

impl Scenario {
    /// Random tasks and workers in a unit box, no history (cold start —
    /// the paper's scalability setting).
    #[must_use]
    pub fn build(n_tasks: usize, n_workers: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|i| {
                    crowd_core::synthetic_task(
                        format!("t{i}"),
                        Point::new(rng.random::<f64>(), rng.random::<f64>()),
                        10,
                    )
                })
                .collect(),
        );
        let workers = WorkerPool::from_workers(
            (0..n_workers)
                .map(|i| {
                    Worker::at(
                        format!("w{i}"),
                        Point::new(rng.random::<f64>(), rng.random::<f64>()),
                    )
                })
                .collect(),
        )
        .expect("generated workers have locations");
        let log = AnswerLog::new(tasks.len(), workers.len());
        let fset = DistanceFunctionSet::paper_default();
        let params = ModelParams::init(
            &tasks,
            workers.len(),
            fset.len(),
            InitStrategy::Uniform,
            &log,
        );
        let distances = Distances::from_tasks(&tasks);
        Self {
            tasks,
            workers,
            log,
            params,
            fset,
            distances,
            reserved: ReservationSet::new(),
        }
    }

    fn ctx(&self) -> AssignContext<'_> {
        AssignContext {
            tasks: &self.tasks,
            workers: &self.workers,
            log: &self.log,
            params: &self.params,
            fset: &self.fset,
            alpha: 0.5,
            distances: &self.distances,
            reserved: &self.reserved,
        }
    }

    /// Times one full `assign` call (h = 2 as in the paper's deployments).
    #[must_use]
    pub fn time_assign_ms(&self, inner: InnerLoop) -> f64 {
        let mut assigner = AccOptAssigner {
            gain: GainSemantics::Marginal,
            inner,
            ..AccOptAssigner::default()
        };
        let batch: Vec<WorkerId> = self.workers.ids().collect();
        let (assignment, elapsed) = time_it(|| assigner.assign(&self.ctx(), &batch, 2));
        assert_eq!(assignment.total(), 2 * self.workers.len());
        millis(elapsed)
    }
}

/// Runs both sweeps, emitting one figure per sub-plot.
#[must_use]
pub fn run(env: &ExperimentEnv) -> Vec<ExperimentOutput> {
    let divisor = env.config.scale_divisor.max(1);
    let seed = env.config.seed ^ 0x14;

    // (a) varying tasks, fixed workers.
    let fixed_workers = (100 / divisor).max(4);
    let task_counts: Vec<usize> = TASK_SWEEP.iter().map(|&n| (n / divisor).max(20)).collect();
    let mut heap_a = Vec::new();
    let mut scan_a = Vec::new();
    for &n in &task_counts {
        let scenario = Scenario::build(n, fixed_workers, seed);
        heap_a.push(scenario.time_assign_ms(InnerLoop::LazyHeap));
        scan_a.push(scenario.time_assign_ms(InnerLoop::Scan));
    }
    let xa: Vec<f64> = task_counts.iter().map(|&n| n as f64).collect();

    // (b) varying workers, fixed tasks.
    let fixed_tasks = (10_000 / divisor).max(20);
    let worker_counts: Vec<usize> = WORKER_SWEEP.iter().map(|&n| (n / divisor).max(2)).collect();
    let mut heap_b = Vec::new();
    let mut scan_b = Vec::new();
    for &n in &worker_counts {
        let scenario = Scenario::build(fixed_tasks, n, seed ^ 0x1);
        heap_b.push(scenario.time_assign_ms(InnerLoop::LazyHeap));
        scan_b.push(scenario.time_assign_ms(InnerLoop::Scan));
    }
    let xb: Vec<f64> = worker_counts.iter().map(|&n| n as f64).collect();

    vec![
        ExperimentOutput::Figure(FigureResult {
            id: "Figure 14a".to_owned(),
            title: format!("Assignment scalability — varying tasks ({fixed_workers} workers, h=2)"),
            x_label: "number of tasks".to_owned(),
            y_label: "time (ms)".to_owned(),
            series: vec![
                Series::new("AccOpt (lazy heap)", xa.clone(), heap_a),
                Series::new("AccOpt (matrix scan)", xa, scan_a),
            ],
            notes: "Expected shape: roughly linear in the task count. At these \
                    shapes the matrix scan outpaces the lazy heap: seeding \
                    |W|x|T| heap entries dominates its saved scan work."
                .to_owned(),
        }),
        ExperimentOutput::Figure(FigureResult {
            id: "Figure 14b".to_owned(),
            title: format!("Assignment scalability — varying workers ({fixed_tasks} tasks, h=2)"),
            x_label: "number of workers".to_owned(),
            y_label: "time (ms)".to_owned(),
            series: vec![
                Series::new("AccOpt (lazy heap)", xb.clone(), heap_b),
                Series::new("AccOpt (matrix scan)", xb, scan_b),
            ],
            notes: "Expected shape: roughly linear in the worker count over \
                    this range (both inner-loop variants)."
                .to_owned(),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;

    #[test]
    fn scenario_sizes_are_exact() {
        let s = Scenario::build(30, 4, 1);
        assert_eq!(s.tasks.len(), 30);
        assert_eq!(s.workers.len(), 4);
        assert!(s.log.is_empty());
    }

    #[test]
    fn both_inner_loops_produce_times() {
        let s = Scenario::build(40, 4, 2);
        assert!(s.time_assign_ms(InnerLoop::LazyHeap) > 0.0);
        assert!(s.time_assign_ms(InnerLoop::Scan) > 0.0);
    }

    #[test]
    fn run_emits_two_figures_with_two_series_each() {
        let env = ExperimentEnv::new(ExperimentConfig::smoke());
        let outputs = run(&env);
        assert_eq!(outputs.len(), 2);
        for out in outputs {
            let ExperimentOutput::Figure(fig) = out else {
                panic!("figure expected")
            };
            assert_eq!(fig.series.len(), 2);
            assert!(fig.series.iter().all(|s| s.y.iter().all(|&t| t > 0.0)));
        }
    }
}
