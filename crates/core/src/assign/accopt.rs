//! ACCOPT: the greedy accuracy-optimal task assigner (Algorithm 1).
//!
//! Finding the assignment maximising the expected accuracy improvement is
//! NP-hard (Lemma 3, reduction from the n-th order knapsack problem), so the
//! paper greedily picks the (worker, task) pair with the largest expected
//! improvement until every requesting worker holds `h` tasks.
//!
//! Two inner loops are provided with identical outputs:
//! * [`InnerLoop::Scan`] — the paper-literal matrix re-scan per pick;
//! * [`InnerLoop::LazyHeap`] — a lazy-deletion max-heap that avoids the
//!   `O(|W|·|T|)` scan per iteration (default; matches the paper's stated
//!   complexity `O(|W|·|T|·|L| + h·|W|²·|L|)` up to log factors).

use crate::accuracy::{task_gain, task_pz1, AccuracyEstimator, GainSemantics, LabelAccuracy};
use crate::assign::heap::{Candidate, LazyMaxHeap};
use crate::assign::{AssignContext, Assigner, Assignment};
use crate::{DistanceFunctionSet, TaskId, WorkerId};
use std::collections::HashMap;

/// One worker's cached distance-function values: `fvals[ti * n_funcs + j]
/// = f_λj(d(w, t_ti))`, with a per-task validity flag.
#[derive(Debug, Clone, Default)]
struct MemoRow {
    fvals: Vec<f64>,
    computed: Vec<bool>,
}

/// Cross-round memo of distance-function values per (worker, task) pair.
///
/// Worker and task locations are immutable once registered (there is no
/// mutation API on [`WorkerPool`](crate::WorkerPool) / `TaskSet`), so
/// `f_λj(d(w, t))` never changes and ACCOPT can evaluate each candidate
/// pair's `exp` calls once across *all* assignment rounds instead of once
/// per score. The memo clears itself whenever the task count or the
/// function set changes (task-set replacement invalidates the distances).
///
/// Memory is bounded: rows are dropped (not persisted past the round)
/// once the cached `f64` count would exceed `MAX_CACHED_F64S` (~16 MB).
#[derive(Debug, Clone, Default)]
pub struct FvalMemo {
    rows: HashMap<usize, MemoRow>,
    n_tasks: usize,
    n_funcs: usize,
    lambdas: Vec<f64>,
}

impl FvalMemo {
    /// Cap on cached values across all workers (~16 MB of `f64`s).
    const MAX_CACHED_F64S: usize = 2_000_000;

    /// Validates the memo against the current round's shape, clearing any
    /// stale state from a previous task set or function set.
    fn begin_round(&mut self, n_tasks: usize, fset: &DistanceFunctionSet) {
        let lambdas: Vec<f64> = fset.functions().iter().map(|f| f.lambda).collect();
        if self.n_tasks != n_tasks || self.n_funcs != fset.len() || self.lambdas != lambdas {
            self.rows.clear();
            self.n_tasks = n_tasks;
            self.n_funcs = fset.len();
            self.lambdas = lambdas;
        }
    }

    /// Removes and returns `worker`'s row (a fresh zeroed one if absent),
    /// handing the caller exclusive ownership for the scoring phase.
    fn take_row(&mut self, worker: usize) -> MemoRow {
        self.rows.remove(&worker).unwrap_or_else(|| MemoRow {
            fvals: vec![0.0; self.n_tasks * self.n_funcs],
            computed: vec![false; self.n_tasks],
        })
    }

    /// Returns a row after the round, keeping it for reuse while the
    /// total cache stays under [`FvalMemo::MAX_CACHED_F64S`].
    fn put_row(&mut self, worker: usize, row: MemoRow) {
        if (self.rows.len() + 1) * self.n_tasks * self.n_funcs <= Self::MAX_CACHED_F64S {
            self.rows.insert(worker, row);
        }
    }
}

/// Inner-loop strategy for the greedy pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum InnerLoop {
    /// Re-scan the full gain matrix for every pick (paper-literal).
    Scan,
    /// Lazy-deletion max-heap (default).
    #[default]
    LazyHeap,
}

/// The ACCOPT greedy assigner.
#[derive(Debug, Clone)]
pub struct AccOptAssigner {
    /// Greedy objective variant (DESIGN.md §6.2).
    pub gain: GainSemantics,
    /// Max-extraction strategy.
    pub inner: InnerLoop,
    /// Pseudo-count λ shrinking each `P(z_{t,k})` toward 0.5 in the gain
    /// computation: `P' = (n·P + 0.5·λ) / (n + λ)` with `n = |W(t)|`.
    ///
    /// EM point estimates are overconfident on tasks with one or two
    /// answers (two agreeing answers already push `P(z)` past 0.9); taking
    /// them at face value makes every such task's expected improvement
    /// negative, so the greedy starves most tasks and fixates on a few
    /// conflicted ones — the opposite of the even coverage Table II
    /// reports. The shrinkage models the estimation uncertainty and decays
    /// as real answers accumulate. `0.0` reproduces the paper-literal
    /// formulas (kept as an ablation, DESIGN.md §6.9).
    pub z_shrinkage: f64,
    /// Cross-round distance-function memo (see [`FvalMemo`]). Purely a
    /// cache: a warm memo produces bit-identical assignments to a fresh
    /// one. Public so struct-update syntax (`..Default::default()`) works
    /// from other crates.
    pub memo: FvalMemo,
}

impl Default for AccOptAssigner {
    fn default() -> Self {
        Self {
            gain: GainSemantics::default(),
            inner: InnerLoop::default(),
            z_shrinkage: 1.0,
            memo: FvalMemo::default(),
        }
    }
}

impl AccOptAssigner {
    /// Default configuration: marginal gains, lazy heap, one pseudo-answer
    /// of shrinkage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Paper-literal configuration: total-set gains, matrix scan, no
    /// shrinkage.
    #[must_use]
    pub fn paper_literal() -> Self {
        Self {
            gain: GainSemantics::TotalSet,
            inner: InnerLoop::Scan,
            z_shrinkage: 0.0,
            ..Self::default()
        }
    }
}

/// Mutable per-task state during one assignment round.
struct TaskState {
    /// `|W(t)|`: answers existing before this round.
    n_prior: usize,
    /// Workers assigned this round (`|Ŵ(t)|`).
    n_added: usize,
    /// Prior beliefs `P(z_{t,k} = 1)` (fixed during the round).
    pz1s: Vec<f64>,
    /// Current expected-accuracy tracks per label, reflecting `Ŵ(t)`.
    pairs: Vec<LabelAccuracy>,
}

impl TaskState {
    fn gain_for(&self, p: f64, semantics: GainSemantics) -> f64 {
        task_gain(
            &self.pairs,
            &self.pz1s,
            p,
            self.n_prior + self.n_added,
            semantics,
        )
    }

    fn apply(&mut self, p: f64) {
        let n = self.n_prior + self.n_added;
        for pair in &mut self.pairs {
            *pair = pair.step(p, n);
        }
        self.n_added += 1;
    }
}

/// Scores the requesting workers: fills `p` (accuracies) and `eligible`
/// for `workers[ci]` at flat index `ci * nt + ti`, evaluating each pair's
/// distance functions into that worker's memo row on first sight.
fn score_workers(
    ctx: &AssignContext<'_>,
    estimator: &AccuracyEstimator<'_>,
    workers: &[WorkerId],
    rows: &mut [MemoRow],
    p: &mut [f64],
    eligible: &mut [bool],
) {
    let nt = ctx.tasks.len();
    let nf = ctx.fset.len();
    for (ci, &w) in workers.iter().enumerate() {
        let worker = ctx.workers.worker(w);
        let row = &mut rows[ci];
        for (ti, task) in ctx.tasks.iter().enumerate() {
            let idx = ci * nt + ti;
            if ctx.log.has_answered(w, task.id) || ctx.reserved.contains(w, task.id) {
                eligible[idx] = false;
            } else {
                let fvals = &mut row.fvals[ti * nf..(ti + 1) * nf];
                if !row.computed[ti] {
                    let d = ctx.distances.between(worker, task);
                    for (slot, f) in fvals.iter_mut().zip(ctx.fset.functions()) {
                        *slot = f.eval(d);
                    }
                    row.computed[ti] = true;
                }
                p[idx] = estimator.answer_accuracy_from_values(w, task, fvals);
            }
        }
    }
}

impl Assigner for AccOptAssigner {
    fn assign(&mut self, ctx: &AssignContext<'_>, workers: &[WorkerId], h: usize) -> Assignment {
        let nw = workers.len();
        let nt = ctx.tasks.len();
        if nw == 0 || nt == 0 || h == 0 {
            return Assignment::new(workers.iter().map(|&w| (w, Vec::new())).collect());
        }

        let estimator = AccuracyEstimator::new(ctx.params, ctx.fset, ctx.log, ctx.alpha);

        // Per-task mutable state.
        let shrinkage = self.z_shrinkage.max(0.0);
        let mut states: Vec<TaskState> = ctx
            .tasks
            .iter()
            .map(|task| {
                let n_prior = ctx.log.n_answers_on(task.id);
                let mut pz1s = task_pz1(ctx.tasks, ctx.params, task);
                if shrinkage > 0.0 {
                    let n = n_prior as f64;
                    for p in &mut pz1s {
                        *p = (n * *p + 0.5 * shrinkage) / (n + shrinkage);
                    }
                }
                let pairs = pz1s.iter().map(|&p| LabelAccuracy::from_prior(p)).collect();
                TaskState {
                    n_prior,
                    n_added: 0,
                    pz1s,
                    pairs,
                }
            })
            .collect();

        // Candidate accuracies p(w, t) and eligibility, flat [w * nt + t].
        // Each pair's distance-function values come from the cross-round
        // memo (computed on first sight, reused afterwards).
        let mut p = vec![0.0f64; nw * nt];
        let mut eligible = vec![true; nw * nt];
        self.memo.begin_round(nt, ctx.fset);
        let mut taken: Vec<MemoRow> = workers
            .iter()
            .map(|w| self.memo.take_row(w.index()))
            .collect();
        score_workers(ctx, &estimator, workers, &mut taken, &mut p, &mut eligible);
        for (&w, row) in workers.iter().zip(taken) {
            self.memo.put_row(w.index(), row);
        }

        let mut assigned: Vec<Vec<TaskId>> = vec![Vec::with_capacity(h); nw];
        let mut remaining: Vec<usize> = vec![h; nw];
        let semantics = self.gain;

        match self.inner {
            InnerLoop::Scan => {
                // ∆Acc matrix, updated in place.
                let mut gains = vec![f64::NEG_INFINITY; nw * nt];
                for wi in 0..nw {
                    for (ti, state) in states.iter().enumerate() {
                        let idx = wi * nt + ti;
                        if eligible[idx] {
                            gains[idx] = state.gain_for(p[idx], semantics);
                        }
                    }
                }
                loop {
                    // Deterministic arg-max: gain, then smaller (wi, ti).
                    let mut best: Option<(usize, usize, f64)> = None;
                    for (wi, &rem) in remaining.iter().enumerate() {
                        if rem == 0 {
                            continue;
                        }
                        for ti in 0..nt {
                            let idx = wi * nt + ti;
                            if !eligible[idx] {
                                continue;
                            }
                            let g = gains[idx];
                            if best.is_none_or(|(_, _, bg)| g > bg) {
                                best = Some((wi, ti, g));
                            }
                        }
                    }
                    let Some((wi, ti, _)) = best else { break };
                    let idx = wi * nt + ti;
                    assigned[wi].push(TaskId::from_index(ti));
                    remaining[wi] -= 1;
                    eligible[idx] = false;
                    states[ti].apply(p[idx]);
                    // Refresh the updated task's column (Algorithm 1,
                    // lines 16–19).
                    for (owi, &rem) in remaining.iter().enumerate() {
                        let oidx = owi * nt + ti;
                        if rem > 0 && eligible[oidx] {
                            gains[oidx] = states[ti].gain_for(p[oidx], semantics);
                        }
                    }
                }
            }
            InnerLoop::LazyHeap => {
                let mut epochs = vec![0u32; nt];
                let mut heap = LazyMaxHeap::with_capacity(nw * nt);
                for wi in 0..nw {
                    for (ti, state) in states.iter().enumerate() {
                        let idx = wi * nt + ti;
                        if eligible[idx] {
                            heap.push(Candidate {
                                gain: state.gain_for(p[idx], semantics),
                                worker: wi as u32,
                                task: ti as u32,
                                epoch: 0,
                            });
                        }
                    }
                }
                while let Some(c) = heap.pop_live(&epochs, |c| {
                    let wi = c.worker as usize;
                    let ti = c.task as usize;
                    remaining[wi] > 0 && eligible[wi * nt + ti]
                }) {
                    let wi = c.worker as usize;
                    let ti = c.task as usize;
                    let idx = wi * nt + ti;
                    assigned[wi].push(TaskId::from_index(ti));
                    remaining[wi] -= 1;
                    eligible[idx] = false;
                    states[ti].apply(p[idx]);
                    epochs[ti] += 1;
                    // Re-enqueue live candidates for the updated task.
                    for (owi, &rem) in remaining.iter().enumerate() {
                        let oidx = owi * nt + ti;
                        if rem > 0 && eligible[oidx] {
                            heap.push(Candidate {
                                gain: states[ti].gain_for(p[oidx], semantics),
                                worker: owi as u32,
                                task: ti as u32,
                                epoch: epochs[ti],
                            });
                        }
                    }
                }
            }
        }

        Assignment::new(
            workers
                .iter()
                .zip(assigned)
                .map(|(&w, ts)| (w, ts))
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "AccOpt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::synthetic_task;
    use crate::{
        Answer, AnswerLog, DistanceFunctionSet, Distances, InitStrategy, LabelBits, ModelParams,
        ReservationSet, TaskSet, Worker, WorkerPool,
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

    fn world(n_tasks: usize, n_workers: usize) -> World {
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|i| {
                    synthetic_task(
                        format!("t{i}"),
                        Point::new((i % 7) as f64, (i / 7) as f64),
                        4,
                    )
                })
                .collect(),
        );
        let workers = WorkerPool::from_workers(
            (0..n_workers)
                .map(|i| Worker::at(format!("w{i}"), Point::new(i as f64 * 0.5, 1.0)))
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

    fn push_answer(world: &mut World, w: u32, t: u32, bits: &[bool]) {
        let worker = world.workers.worker(WorkerId(w)).clone();
        let task = world.tasks.task(TaskId(t));
        let d = world.distances.between(&worker, task);
        world
            .log
            .push(
                &world.tasks,
                Answer {
                    worker: WorkerId(w),
                    task: TaskId(t),
                    bits: LabelBits::from_slice(bits),
                    distance: d,
                },
            )
            .unwrap();
    }

    #[test]
    fn each_worker_gets_h_distinct_tasks() {
        let world = world(10, 3);
        let mut assigner = AccOptAssigner::new();
        let workers: Vec<WorkerId> = world.workers.ids().collect();
        let a = assigner.assign(&world.ctx(), &workers, 2);
        assert_eq!(a.total(), 6);
        for (w, ts) in a.per_worker() {
            assert_eq!(ts.len(), 2, "worker {w}");
            assert_ne!(ts[0], ts[1]);
        }
    }

    #[test]
    fn already_answered_tasks_are_never_reassigned() {
        let mut world = world(3, 1);
        push_answer(&mut world, 0, 0, &[true; 4]);
        push_answer(&mut world, 0, 1, &[true; 4]);
        let mut assigner = AccOptAssigner::new();
        let a = assigner.assign(&world.ctx(), &[WorkerId(0)], 2);
        // Only task 2 is eligible; worker gets a partial HIT.
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[TaskId(2)]);
    }

    #[test]
    fn reserved_pairs_are_never_reassigned() {
        let mut world = world(3, 1);
        world.reserved.reserve(WorkerId(0), TaskId(0));
        world.reserved.reserve(WorkerId(0), TaskId(2));
        let mut assigner = AccOptAssigner::new();
        let a = assigner.assign(&world.ctx(), &[WorkerId(0)], 2);
        // Only task 1 is free; the in-flight pairs are skipped like
        // answered ones.
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap(), &[TaskId(1)]);
    }

    #[test]
    fn scan_and_heap_agree() {
        for (nt, nw, h) in [(8, 3, 2), (12, 5, 3), (5, 5, 1)] {
            let mut world = world(nt, nw);
            // Introduce history so gains are heterogeneous.
            push_answer(&mut world, 0, 0, &[true, true, false, false]);
            push_answer(&mut world, 1, 0, &[true, false, false, true]);
            push_answer(&mut world, 1, 1, &[false, false, true, true]);
            let workers: Vec<WorkerId> = world.workers.ids().collect();
            let mut scan = AccOptAssigner {
                gain: GainSemantics::Marginal,
                inner: InnerLoop::Scan,
                ..AccOptAssigner::default()
            };
            let mut heap = AccOptAssigner {
                gain: GainSemantics::Marginal,
                inner: InnerLoop::LazyHeap,
                ..AccOptAssigner::default()
            };
            let a = scan.assign(&world.ctx(), &workers, h);
            let b = heap.assign(&world.ctx(), &workers, h);
            assert_eq!(a, b, "nt={nt} nw={nw} h={h}");
        }
    }

    #[test]
    fn prefers_conflicted_tasks() {
        // Task 0 has two perfectly conflicting answers (maximal
        // uncertainty); task 1 has two agreeing answers. With equal numbers
        // of prior answers, a new worker should go to the conflicted task.
        let mut world = world(2, 4);
        push_answer(&mut world, 0, 0, &[true, true, true, true]);
        push_answer(&mut world, 1, 0, &[false, false, false, false]);
        push_answer(&mut world, 0, 1, &[true, true, true, true]);
        push_answer(&mut world, 1, 1, &[true, true, true, true]);
        // Reflect the answers in P(z): conflicted task stays at 0.5,
        // agreed task is confident.
        let base1 = world.tasks.label_offset(TaskId(1));
        for k in 0..4 {
            world.params.set_z_slot(base1 + k, 0.95);
        }
        let mut assigner = AccOptAssigner::new();
        let a = assigner.assign(&world.ctx(), &[WorkerId(2)], 1);
        assert_eq!(a.tasks_for(WorkerId(2)).unwrap(), &[TaskId(0)]);
    }

    #[test]
    fn empty_inputs_produce_empty_assignment() {
        let world = world(4, 2);
        let mut assigner = AccOptAssigner::new();
        assert!(assigner.assign(&world.ctx(), &[], 2).is_empty());
        let a = assigner.assign(&world.ctx(), &[WorkerId(0)], 0);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap().len(), 0);
    }

    #[test]
    fn marginal_gains_spread_workers_across_tasks() {
        // With plentiful identical tasks and several workers, marginal
        // semantics should not pile every worker onto a single task.
        let world = world(6, 3);
        let workers: Vec<WorkerId> = world.workers.ids().collect();
        let mut assigner = AccOptAssigner {
            gain: GainSemantics::Marginal,
            inner: InnerLoop::LazyHeap,
            ..AccOptAssigner::default()
        };
        let a = assigner.assign(&world.ctx(), &workers, 2);
        let mut per_task = std::collections::HashMap::new();
        for (_, t) in a.pairs() {
            *per_task.entry(t).or_insert(0usize) += 1;
        }
        let max_pile = per_task.values().copied().max().unwrap();
        assert!(max_pile <= 3, "assignments too concentrated: {per_task:?}");
    }

    #[test]
    fn paper_literal_configuration_runs() {
        let world = world(5, 2);
        let workers: Vec<WorkerId> = world.workers.ids().collect();
        let mut assigner = AccOptAssigner::paper_literal();
        let a = assigner.assign(&world.ctx(), &workers, 2);
        assert_eq!(a.total(), 4);
        assert_eq!(assigner.name(), "AccOpt");
    }
}
