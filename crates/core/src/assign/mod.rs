//! Online task assignment (Section IV of the paper).
//!
//! When a batch `W` of workers requests tasks, an [`Assigner`] produces an
//! [`Assignment`] of `h` tasks per worker. The paper's ACCOPT greedy
//! (Algorithm 1) lives in [`accopt`]; the `crowd-baselines` crate implements
//! the RANDOM and SF (spatial-first) comparison assigners against the same
//! trait.

pub mod accopt;
mod heap;

pub use accopt::{AccOptAssigner, FvalMemo, InnerLoop};
pub use heap::LazyMaxHeap;

use crate::{
    AnswerLog, DistanceFunctionSet, Distances, ModelParams, ReservationSet, TaskId, TaskSet,
    WorkerId, WorkerPool,
};

/// Everything an assigner may consult: the current model state and the
/// campaign's answer history. Borrowed immutably — assignment never mutates
/// the model.
#[derive(Debug, Clone, Copy)]
pub struct AssignContext<'a> {
    /// The task set `T`.
    pub tasks: &'a TaskSet,
    /// All registered workers.
    pub workers: &'a WorkerPool,
    /// Answers collected so far.
    pub log: &'a AnswerLog,
    /// Current parameter estimates.
    pub params: &'a ModelParams,
    /// The distance-function set `F`.
    pub fset: &'a DistanceFunctionSet,
    /// Equation 8's mixing weight α.
    pub alpha: f64,
    /// Worker-task distance model.
    pub distances: &'a Distances,
    /// Issued-but-unanswered pairs. Assigners must skip these exactly like
    /// answered pairs: the budget for them is already spent and their
    /// answers are in flight (possibly queued behind a fire-and-forget
    /// ingestion path), so re-issuing would double-charge and the second
    /// answer would be rejected as a duplicate.
    pub reserved: &'a ReservationSet,
}

/// The tasks handed to each requesting worker: `A(W) = {A(w) | w ∈ W}`.
///
/// Entries align with the worker slice passed to [`Assigner::assign`]. A
/// worker may receive fewer than `h` tasks only when they have already
/// answered every other task.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Assignment {
    per_worker: Vec<(WorkerId, Vec<TaskId>)>,
}

impl Assignment {
    /// Builds an assignment from per-worker task lists.
    #[must_use]
    pub fn new(per_worker: Vec<(WorkerId, Vec<TaskId>)>) -> Self {
        Self { per_worker }
    }

    /// Per-worker view in request order.
    #[must_use]
    pub fn per_worker(&self) -> &[(WorkerId, Vec<TaskId>)] {
        &self.per_worker
    }

    /// The tasks assigned to `worker`, if it was in the request batch.
    #[must_use]
    pub fn tasks_for(&self, worker: WorkerId) -> Option<&[TaskId]> {
        self.per_worker
            .iter()
            .find(|(w, _)| *w == worker)
            .map(|(_, ts)| ts.as_slice())
    }

    /// Total number of (worker, task) pairs — the budget consumed.
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_worker.iter().map(|(_, ts)| ts.len()).sum()
    }

    /// `true` when nothing was assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Iterates over all (worker, task) pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (WorkerId, TaskId)> + '_ {
        self.per_worker
            .iter()
            .flat_map(|(w, ts)| ts.iter().map(move |&t| (*w, t)))
    }

    /// Truncates the assignment to at most `budget` pairs, dropping from the
    /// end (later workers lose tasks first). Used when the campaign budget
    /// cannot cover the full batch.
    pub fn truncate(&mut self, budget: usize) {
        let mut remaining = budget;
        for (_, ts) in &mut self.per_worker {
            let take = ts.len().min(remaining);
            ts.truncate(take);
            remaining -= take;
        }
    }
}

/// A task assignment strategy.
pub trait Assigner {
    /// Assigns up to `h` tasks to each worker in `workers`.
    ///
    /// Implementations must never assign a task its worker has already
    /// answered *or currently has reserved* (`ctx.reserved` — issued
    /// earlier, answer still in flight), and never assign the same task
    /// twice to one worker within the batch.
    fn assign(&mut self, ctx: &AssignContext<'_>, workers: &[WorkerId], h: usize) -> Assignment;

    /// Human-readable strategy name (used in experiment reports).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_accessors() {
        let a = Assignment::new(vec![
            (WorkerId(0), vec![TaskId(1), TaskId(2)]),
            (WorkerId(1), vec![TaskId(0)]),
        ]);
        assert_eq!(a.total(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.tasks_for(WorkerId(1)), Some(&[TaskId(0)][..]));
        assert_eq!(a.tasks_for(WorkerId(9)), None);
        let pairs: Vec<_> = a.pairs().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[2], (WorkerId(1), TaskId(0)));
    }

    #[test]
    fn truncate_respects_budget() {
        let mut a = Assignment::new(vec![
            (WorkerId(0), vec![TaskId(1), TaskId(2)]),
            (WorkerId(1), vec![TaskId(0), TaskId(3)]),
        ]);
        a.truncate(3);
        assert_eq!(a.total(), 3);
        assert_eq!(a.tasks_for(WorkerId(0)).unwrap().len(), 2);
        assert_eq!(a.tasks_for(WorkerId(1)).unwrap().len(), 1);
        a.truncate(0);
        assert!(a.is_empty());
    }
}
