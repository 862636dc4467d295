//! Figure 14 bench — ACCOPT assignment wall-time, plus the two ablations
//! of DESIGN.md §6: lazy-heap vs matrix-scan inner loop, and marginal vs
//! paper-literal total-set gain semantics.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::{
    synthetic_task, AccOptAssigner, AnswerLog, AssignContext, Assigner, DistanceFunctionSet,
    Distances, GainSemantics, InitStrategy, InnerLoop, ModelParams, ReservationSet, TaskSet,
    Worker, WorkerId, WorkerPool,
};
use crowd_geo::Point;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Scenario {
    tasks: TaskSet,
    workers: WorkerPool,
    log: AnswerLog,
    params: ModelParams,
    fset: DistanceFunctionSet,
    distances: Distances,
    reserved: ReservationSet,
}

impl Scenario {
    fn build(n_tasks: usize, n_workers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(99);
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|i| {
                    synthetic_task(
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
        .unwrap();
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
}

fn bench_inner_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("accopt_inner_loop_fig14");
    group.sample_size(10);
    for (n_tasks, n_workers) in [(500usize, 25usize), (1000, 25), (2000, 25), (1000, 50)] {
        let scenario = Scenario::build(n_tasks, n_workers);
        let batch: Vec<WorkerId> = scenario.workers.ids().collect();
        for (label, inner) in [("heap", InnerLoop::LazyHeap), ("scan", InnerLoop::Scan)] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{n_tasks}t_{n_workers}w")),
                &scenario,
                |b, s| {
                    b.iter(|| {
                        let mut assigner = AccOptAssigner {
                            gain: GainSemantics::Marginal,
                            inner,
                            ..AccOptAssigner::default()
                        };
                        black_box(assigner.assign(&s.ctx(), black_box(&batch), 2))
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_gain_semantics(c: &mut Criterion) {
    let scenario = Scenario::build(1000, 25);
    let batch: Vec<WorkerId> = scenario.workers.ids().collect();
    let mut group = c.benchmark_group("accopt_gain_semantics_ablation");
    group.sample_size(10);
    for (label, gain) in [
        ("marginal", GainSemantics::Marginal),
        ("total_set", GainSemantics::TotalSet),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut assigner = AccOptAssigner {
                    gain,
                    inner: InnerLoop::LazyHeap,
                    ..AccOptAssigner::default()
                };
                black_box(assigner.assign(&scenario.ctx(), black_box(&batch), 2))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inner_loop, bench_gain_semantics);
criterion_main!(benches);
