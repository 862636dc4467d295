//! The SF (spatial-first) assignment baseline.

use crowd_geo::KdTree;

use crowd_core::{AssignContext, Assigner, Assignment, TaskId, WorkerId};

/// Assigns each requesting worker their `h` *closest* tasks not yet
/// answered by them.
///
/// This is the paper's SF baseline: it "optimized the distance between
/// workers and tasks… assigning the closest undone task(s)". It embodies
/// the spatial-crowdsourcing mindset (minimise travel) that the paper argues
/// is the wrong objective for labelling quality — nearby tasks are not
/// always the most informative ones, and workers cluster spatially, so some
/// tasks drown in answers while others starve (Table II).
///
/// Distances honour multi-location workers: a task's effective distance is
/// the minimum over the worker's locations (same semantics as the inference
/// model). Queries run on a k-d tree over task locations.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpatialFirst;

impl SpatialFirst {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Assigner for SpatialFirst {
    fn assign(&mut self, ctx: &AssignContext<'_>, workers: &[WorkerId], h: usize) -> Assignment {
        let mut per_worker = Vec::with_capacity(workers.len());
        if ctx.tasks.is_empty() || h == 0 {
            return Assignment::new(workers.iter().map(|&w| (w, Vec::new())).collect());
        }
        let tree = KdTree::build(&ctx.tasks.locations());
        for &w in workers {
            let worker = ctx.workers.worker(w);
            let filter = |id: u32| {
                !ctx.log.has_answered(w, TaskId(id)) && !ctx.reserved.contains(w, TaskId(id))
            };
            let chosen: Vec<TaskId> = if worker.locations.len() == 1 {
                tree.k_nearest(worker.locations[0], h, filter)
                    .into_iter()
                    .map(|n| TaskId(n.id))
                    .collect()
            } else {
                // Multi-location: merge per-location k-NN by minimum
                // distance, then take the h best.
                let mut best: Vec<(f64, u32)> = Vec::new();
                for &loc in &worker.locations {
                    for n in tree.k_nearest(loc, h, filter) {
                        match best.iter_mut().find(|(_, id)| *id == n.id) {
                            Some(entry) => entry.0 = entry.0.min(n.distance),
                            None => best.push((n.distance, n.id)),
                        }
                    }
                }
                best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                best.into_iter().take(h).map(|(_, id)| TaskId(id)).collect()
            };
            per_worker.push((w, chosen));
        }
        Assignment::new(per_worker)
    }

    fn name(&self) -> &'static str {
        "SF"
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

    fn line_world(workers: Vec<Worker>) -> World {
        // Tasks at x = 0, 1, 2, 3, 4 on a line.
        let tasks = TaskSet::new(
            (0..5)
                .map(|i| synthetic_task(format!("t{i}"), Point::new(i as f64, 0.0), 2))
                .collect(),
        );
        let workers = WorkerPool::from_workers(workers).unwrap();
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

    #[test]
    fn picks_nearest_tasks() {
        let world = line_world(vec![Worker::at("w", Point::new(0.1, 0.0))]);
        let mut sf = SpatialFirst::new();
        let a = sf.assign(&world.ctx(), &[WorkerId(0)], 2);
        assert_eq!(
            a.tasks_for(WorkerId(0)).unwrap(),
            &[TaskId(0), TaskId(1)],
            "closest two tasks on the line"
        );
    }

    #[test]
    fn skips_answered_tasks() {
        let mut world = line_world(vec![Worker::at("w", Point::new(0.0, 0.0))]);
        world
            .log
            .push(
                &world.tasks,
                Answer {
                    worker: WorkerId(0),
                    task: TaskId(0),
                    bits: LabelBits::from_slice(&[true, false]),
                    distance: 0.0,
                },
            )
            .unwrap();
        let mut sf = SpatialFirst::new();
        let a = sf.assign(&world.ctx(), &[WorkerId(0)], 2);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[TaskId(1), TaskId(2)]);
    }

    #[test]
    fn skips_reserved_tasks() {
        let mut world = line_world(vec![Worker::at("w", Point::new(0.0, 0.0))]);
        world.reserved.reserve(WorkerId(0), TaskId(0));
        let mut sf = SpatialFirst::new();
        let a = sf.assign(&world.ctx(), &[WorkerId(0)], 2);
        assert_eq!(
            a.tasks_for(WorkerId(0)).unwrap(),
            &[TaskId(1), TaskId(2)],
            "in-flight pair skipped like an answered one"
        );
    }

    #[test]
    fn multi_location_worker_uses_min_distance() {
        // Locations near both ends of the line: the two nearest tasks are
        // the extremes, not consecutive ones.
        let world = line_world(vec![Worker::with_locations(
            "commuter",
            vec![Point::new(0.0, 0.1), Point::new(4.0, 0.1)],
        )]);
        let mut sf = SpatialFirst::new();
        let a = sf.assign(&world.ctx(), &[WorkerId(0)], 2);
        let mut got = a.tasks_for(WorkerId(0)).unwrap().to_vec();
        got.sort();
        assert_eq!(got, vec![TaskId(0), TaskId(4)]);
    }

    #[test]
    fn two_workers_may_share_a_task() {
        let world = line_world(vec![
            Worker::at("a", Point::new(2.0, 0.1)),
            Worker::at("b", Point::new(2.0, -0.1)),
        ]);
        let mut sf = SpatialFirst::new();
        let a = sf.assign(&world.ctx(), &[WorkerId(0), WorkerId(1)], 1);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[TaskId(2)]);
        assert_eq!(a.tasks_for(WorkerId(1)).unwrap(), &[TaskId(2)]);
    }

    #[test]
    fn partial_hit_when_few_tasks_remain() {
        let mut world = line_world(vec![Worker::at("w", Point::new(0.0, 0.0))]);
        for t in 0..4u32 {
            world
                .log
                .push(
                    &world.tasks,
                    Answer {
                        worker: WorkerId(0),
                        task: TaskId(t),
                        bits: LabelBits::from_slice(&[true, false]),
                        distance: 0.1,
                    },
                )
                .unwrap();
        }
        let mut sf = SpatialFirst::new();
        let a = sf.assign(&world.ctx(), &[WorkerId(0)], 3);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[TaskId(4)]);
        assert_eq!(sf.name(), "SF");
    }
}
