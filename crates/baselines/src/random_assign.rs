//! The RANDOM assignment baseline.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crowd_core::{AssignContext, Assigner, Assignment, TaskId, WorkerId};

/// Assigns each requesting worker `h` uniformly random tasks they have not
/// answered yet.
///
/// Deterministic under a fixed seed (required for reproducible experiment
/// sweeps). No quality, no distance, no history beyond the "already
/// answered" constraint — the paper's weakest baseline.
#[derive(Debug)]
pub struct RandomAssigner {
    rng: StdRng,
}

impl RandomAssigner {
    /// Creates the assigner with a deterministic seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Assigner for RandomAssigner {
    fn assign(&mut self, ctx: &AssignContext<'_>, workers: &[WorkerId], h: usize) -> Assignment {
        let mut per_worker = Vec::with_capacity(workers.len());
        for &w in workers {
            let mut eligible: Vec<TaskId> = ctx
                .tasks
                .ids()
                .filter(|&t| !ctx.log.has_answered(w, t) && !ctx.reserved.contains(w, t))
                .collect();
            // Partial Fisher–Yates: draw h tasks without replacement.
            let take = h.min(eligible.len());
            for i in 0..take {
                let j = self.rng.random_range(i..eligible.len());
                eligible.swap(i, j);
            }
            eligible.truncate(take);
            per_worker.push((w, eligible));
        }
        Assignment::new(per_worker)
    }

    fn name(&self) -> &'static str {
        "Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::{
        synthetic_task, Answer, AnswerLog, DistanceFunctionSet, Distances, InitStrategy, LabelBits,
        ModelParams, ReservationSet, TaskSet, Worker, WorkerPool,
    };
    use crowd_geo::Point;

    struct World {
        tasks: TaskSet,
        workers: WorkerPool,
        log: AnswerLog,
        params: ModelParams,
        fset: DistanceFunctionSet,
        distances: Distances,
        reserved: ReservationSet,
    }

    fn world(n_tasks: usize, n_workers: usize) -> World {
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|i| synthetic_task(format!("t{i}"), Point::new(i as f64, 0.0), 3))
                .collect(),
        );
        let workers = WorkerPool::from_workers(
            (0..n_workers)
                .map(|i| Worker::at(format!("w{i}"), Point::new(i as f64, 1.0)))
                .collect(),
        )
        .unwrap();
        let log = AnswerLog::new(tasks.len(), workers.len());
        let params = ModelParams::init(&tasks, workers.len(), 3, InitStrategy::Uniform, &log);
        let distances = Distances::from_tasks(&tasks);
        World {
            tasks,
            workers,
            log,
            params,
            fset: DistanceFunctionSet::paper_default(),
            distances,
            reserved: ReservationSet::new(),
        }
    }

    impl World {
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

    #[test]
    fn assigns_h_distinct_unanswered_tasks() {
        let world = world(10, 2);
        let mut assigner = RandomAssigner::seeded(7);
        let a = assigner.assign(&world.ctx(), &[WorkerId(0), WorkerId(1)], 3);
        assert_eq!(a.total(), 6);
        for (_, ts) in a.per_worker() {
            let mut seen = ts.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), ts.len(), "duplicates in {ts:?}");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let world = world(20, 3);
        let workers: Vec<WorkerId> = world.workers.ids().collect();
        let a = RandomAssigner::seeded(42).assign(&world.ctx(), &workers, 2);
        let b = RandomAssigner::seeded(42).assign(&world.ctx(), &workers, 2);
        assert_eq!(a, b);
        let c = RandomAssigner::seeded(43).assign(&world.ctx(), &workers, 2);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn respects_answered_history() {
        let mut world = world(3, 1);
        for t in 0..2u32 {
            world
                .log
                .push(
                    &world.tasks,
                    Answer {
                        worker: WorkerId(0),
                        task: crowd_core::TaskId(t),
                        bits: LabelBits::from_slice(&[true, false, true]),
                        distance: 0.1,
                    },
                )
                .unwrap();
        }
        let mut assigner = RandomAssigner::seeded(1);
        let a = assigner.assign(&world.ctx(), &[WorkerId(0)], 5);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[crowd_core::TaskId(2)]);
    }

    #[test]
    fn respects_reservations() {
        let mut world = world(3, 1);
        world.reserved.reserve(WorkerId(0), crowd_core::TaskId(0));
        world.reserved.reserve(WorkerId(0), crowd_core::TaskId(1));
        let mut assigner = RandomAssigner::seeded(9);
        let a = assigner.assign(&world.ctx(), &[WorkerId(0)], 5);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[crowd_core::TaskId(2)]);
    }

    #[test]
    fn empty_batch_is_empty() {
        let world = world(5, 1);
        let mut assigner = RandomAssigner::seeded(1);
        assert!(assigner.assign(&world.ctx(), &[], 2).is_empty());
        assert_eq!(assigner.name(), "Random");
    }
}
