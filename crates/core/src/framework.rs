//! The POI-Labelling Framework (Figure 1 of the paper): the inference model
//! and the task assigner working alternately under a budget.
//!
//! Campaign loop:
//! 1. a batch of workers requests tasks → [`Framework::request`] consults a
//!    pluggable [`Assigner`] and charges the budget;
//! 2. answers come back → [`Framework::submit`] logs them and lets the
//!    online model absorb them (incremental EM, delayed full EM);
//! 3. at any point [`Framework::inference`] hardens the current `P(z)` into
//!    label decisions.

use crate::assign::{AssignContext, Assigner, Assignment};
use crate::model::{
    EmConfig, InferenceResult, ModelParams, OnlineModel, PeerStats, UpdatePolicy, WorkerStatDelta,
};
use crate::obs::RecorderHandle;
use crate::{
    AnswerLog, CoreError, Distances, LabelBits, ReservationSet, Result, TaskId, TaskSet, Worker,
    WorkerId, WorkerPool,
};

/// Campaign-level configuration.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FrameworkConfig {
    /// Inference model configuration.
    pub em: EmConfig,
    /// Delayed full-EM policy.
    pub policy: UpdatePolicy,
    /// Total number of task assignments the campaign may issue (the paper's
    /// budget `B`).
    pub budget: usize,
    /// Tasks per HIT — how many tasks each requesting worker receives.
    pub h: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        Self {
            em: EmConfig::default(),
            policy: UpdatePolicy::default(),
            budget: 1000,
            h: 2,
        }
    }
}

/// The assembled POI-labelling system.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Framework {
    tasks: TaskSet,
    workers: WorkerPool,
    distances: Distances,
    log: AnswerLog,
    model: OnlineModel,
    config: FrameworkConfig,
    budget_used: usize,
    /// Pairs issued by [`Framework::request`] whose answers have not been
    /// applied yet. Not part of the deterministic model state and not
    /// persisted by snapshots (a restore deliberately re-opens in-flight
    /// pairs — their clients died with the process that issued them).
    #[cfg_attr(feature = "serde", serde(skip, default))]
    reserved: ReservationSet,
    /// Optional timing sink for assignment rounds. Process-local, never
    /// persisted (see [`RecorderHandle`]).
    #[cfg_attr(feature = "serde", serde(skip, default))]
    recorder: RecorderHandle,
}

impl Framework {
    /// Builds a framework over `tasks` with an initial worker pool (which
    /// may be empty — workers can register later).
    #[must_use]
    pub fn new(tasks: TaskSet, workers: WorkerPool, config: FrameworkConfig) -> Self {
        let distances = Distances::from_tasks(&tasks);
        Self::with_distances(tasks, workers, config, distances)
    }

    /// Builds a framework with an explicit distance normaliser instead of
    /// the task set's own diameter. A service that shards one campaign
    /// across several frameworks passes the *global* normaliser here so
    /// every shard measures `d(w, t)` on the same scale as the unsharded
    /// system.
    #[must_use]
    pub fn with_distances(
        tasks: TaskSet,
        workers: WorkerPool,
        config: FrameworkConfig,
        distances: Distances,
    ) -> Self {
        let log = AnswerLog::new(tasks.len(), workers.len());
        let model = OnlineModel::new(&tasks, &log, config.em.clone(), config.policy);
        Self {
            tasks,
            workers,
            distances,
            log,
            model,
            config,
            budget_used: 0,
            reserved: ReservationSet::new(),
            recorder: RecorderHandle::none(),
        }
    }

    /// Attaches (or clears) the timing sink notified after every
    /// assignment round and model rebuild. The handle is shared with the
    /// inference model, so one call instruments both hot paths.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.model.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Registers a newly arrived worker.
    ///
    /// # Errors
    /// Fails if the worker carries no location.
    pub fn register_worker(&mut self, worker: Worker) -> Result<WorkerId> {
        let id = self.workers.register(worker)?;
        self.log.ensure_workers(self.workers.len());
        Ok(id)
    }

    /// Remaining assignment budget. Saturates at zero: a budget lowered
    /// after construction (or a shard rebalance shrinking a slice below
    /// what is already spent) reads as exhausted, not as an underflow.
    #[must_use]
    pub fn budget_remaining(&self) -> usize {
        self.config.budget.saturating_sub(self.budget_used)
    }

    /// Budget consumed so far (number of issued assignments).
    #[must_use]
    pub fn budget_used(&self) -> usize {
        self.budget_used
    }

    /// Charges up to `n` budget units without issuing assignments, returning
    /// how many were actually charged (clamped to the remaining budget).
    ///
    /// This is a service-layer hook: snapshot restore re-applies budget that
    /// the snapshotted campaign had charged for assignments whose answers
    /// never arrived, and shard rebalancing moves spent budget between
    /// slices. Campaign code should let [`Framework::request`] do the
    /// charging.
    pub fn charge(&mut self, n: usize) -> usize {
        let charged = n.min(self.budget_remaining());
        self.budget_used += charged;
        charged
    }

    /// Replaces the total budget. Lowering it below `budget_used` is legal
    /// and simply reads as exhausted (see [`Framework::budget_remaining`]).
    pub fn set_budget(&mut self, budget: usize) {
        self.config.budget = budget;
    }

    /// Handles a batch of workers requesting tasks: consults `assigner`,
    /// truncates to the remaining budget and charges it.
    ///
    /// Every issued pair is **reserved** until its answer is applied: a
    /// follow-up request for the same worker skips in-flight pairs instead
    /// of re-issuing them, so a requester does not have to wait for its
    /// own answers to land before asking for more work.
    ///
    /// # Errors
    /// * [`CoreError::BudgetExhausted`] when no budget remains;
    /// * [`CoreError::UnknownWorker`] for unregistered ids.
    pub fn request(
        &mut self,
        assigner: &mut dyn Assigner,
        worker_ids: &[WorkerId],
    ) -> Result<Assignment> {
        if self.budget_remaining() == 0 {
            return Err(CoreError::BudgetExhausted);
        }
        for &w in worker_ids {
            if self.workers.get(w).is_none() {
                return Err(CoreError::UnknownWorker(w));
            }
        }
        let ctx = AssignContext {
            tasks: &self.tasks,
            workers: &self.workers,
            log: &self.log,
            params: self.model.params(),
            fset: &self.model.config().fset,
            alpha: self.model.config().alpha,
            distances: &self.distances,
            reserved: &self.reserved,
        };
        let started = self.recorder.is_enabled().then(std::time::Instant::now);
        let mut assignment = assigner.assign(&ctx, worker_ids, self.config.h);
        if let Some(t0) = started {
            self.recorder.assignment(t0.elapsed(), assignment.total());
        }
        assignment.truncate(self.budget_remaining());
        self.budget_used += assignment.total();
        for (w, t) in assignment.pairs() {
            debug_assert!(
                !self.reserved.contains(w, t),
                "assigner issued a reserved pair ({w:?}, {t:?})"
            );
            self.reserved.reserve(w, t);
        }
        Ok(assignment)
    }

    /// Accepts a worker's answer to a task: validates, logs, and updates the
    /// model online. Returns `true` when the submission triggered a delayed
    /// full EM.
    ///
    /// # Errors
    /// Propagates validation failures from [`AnswerLog::submit`].
    pub fn submit(&mut self, worker: WorkerId, task: TaskId, bits: LabelBits) -> Result<bool> {
        self.log.submit(
            &self.tasks,
            &self.workers,
            &self.distances,
            worker,
            task,
            bits,
        )?;
        self.reserved.release(worker, task);
        let answer = *self.log.answers().last().expect("just pushed");
        Ok(self.model.on_submit(&self.tasks, &self.log, &answer))
    }

    /// Forces a full-sweep batch EM over everything collected so far —
    /// end-of-campaign hardening that bypasses the dirty-set policy.
    pub fn force_full_em(&mut self) {
        self.model.full_sweep(&self.tasks, &self.log);
    }

    /// Appends an answer to the log **without updating the model** —
    /// the snapshot bulk-load path. The answer is validated exactly like
    /// [`Framework::submit`] (duplicates, unknown ids, arity), but no
    /// incremental EM runs and no rebuild can trigger.
    ///
    /// After bulk-loading, the model is out of sync with the log; the
    /// caller **must** call [`Framework::restore_checkpoint`] before any
    /// [`Framework::submit`], or the per-answer caches will misalign.
    ///
    /// # Errors
    /// Propagates validation failures from [`AnswerLog::submit`].
    pub fn load_answer(&mut self, worker: WorkerId, task: TaskId, bits: LabelBits) -> Result<()> {
        self.log.submit(
            &self.tasks,
            &self.workers,
            &self.distances,
            worker,
            task,
            bits,
        )?;
        self.reserved.release(worker, task);
        Ok(())
    }

    /// Restores the model to the deterministic post-full-sweep state
    /// implied by `params` over the current answer log, with `peers` as
    /// the folded peer-statistic table at that point (see
    /// [`OnlineModel::restore_checkpoint`]). Pairs with
    /// [`Framework::load_answer`]: bulk-load the log prefix, then restore
    /// the checkpoint, then resume normal [`Framework::submit`] traffic.
    ///
    /// Returns `false` (model untouched) when `params` does not match this
    /// framework's task/worker/function shapes.
    pub fn restore_checkpoint(&mut self, params: ModelParams, peers: PeerStats) -> bool {
        self.model
            .restore_checkpoint(&self.tasks, &self.log, params, peers)
    }

    /// Installs a persisted pruned-prefix baseline on the model (snapshot
    /// restore of a pruned shard; see [`OnlineModel::restore_frozen`]).
    /// Must run before [`Framework::restore_checkpoint`]. Returns `false`
    /// on a function-count mismatch.
    pub fn restore_frozen(&mut self, baseline: crate::model::SufficientStats) -> bool {
        self.model.restore_frozen(baseline)
    }

    /// Seeds the answer log's pruned prefix from persisted `(worker, task)`
    /// pairs (snapshot restore of a pruned shard; see
    /// [`AnswerLog::restore_pruned`]). Returns `false` if the log already
    /// holds answers or the pairs are invalid.
    pub fn restore_pruned(&mut self, pairs: &[(WorkerId, TaskId)]) -> bool {
        self.log.restore_pruned(pairs)
    }

    /// This framework's own worker-side sufficient statistics, packaged
    /// for a gossip exchange, stamped with the current answer count as the
    /// version. Sufficient when publishes only ever follow new answers;
    /// a caller that may republish after [`Framework::force_full_em`]
    /// (which rebuilds the statistics without growing the log) should
    /// stamp its own strictly-increasing publish counter via
    /// [`OnlineModel::worker_stat_delta`] instead, as `crowd_serve` does.
    #[must_use]
    pub fn worker_stat_delta(&self, source: u64) -> WorkerStatDelta {
        self.model
            .worker_stat_delta(source, self.log.stream_len() as u64)
    }

    /// Truncates the in-memory answer prefix after a full-sweep boundary:
    /// freezes the model's sufficient statistics as the pruned-prefix
    /// baseline ([`OnlineModel::prune_frozen`]) and drains the retained
    /// answers from the log ([`AnswerLog::prune_retained`]), returning the
    /// drained payloads in stream order for the caller to spill to disk.
    ///
    /// Returns `None` (state untouched) unless called at an exact
    /// full-sweep boundary — right after [`Framework::force_full_em`] (or a
    /// full-sweep rebuild) with no submissions since.
    pub fn prune_checkpointed(&mut self) -> Option<Vec<crate::Answer>> {
        if !self.model.prune_frozen(&self.log) {
            return None;
        }
        Some(self.log.prune_retained())
    }

    /// Folds a peer framework's published worker statistics into the
    /// inference model (see [`OnlineModel::fold_peer_stats`]). Returns
    /// `true` when the delta was new for its source.
    pub fn fold_peer_stats(&mut self, delta: &WorkerStatDelta) -> bool {
        self.model.fold_peer_stats(&self.tasks, delta)
    }

    /// Folds a whole gossip round of peer deltas in one pass (see
    /// [`OnlineModel::fold_peer_stats_batch`]). Returns, per input delta,
    /// whether it was absorbed.
    pub fn fold_peer_stats_batch(&mut self, deltas: &[WorkerStatDelta]) -> Vec<bool> {
        self.model.fold_peer_stats_batch(&self.tasks, deltas)
    }

    /// The gossiped peer statistics folded in so far.
    #[must_use]
    pub fn peer_stats(&self) -> &PeerStats {
        self.model.peer_stats()
    }

    /// Current hardened inference for all tasks.
    #[must_use]
    pub fn inference(&self) -> InferenceResult {
        InferenceResult::from_params(&self.tasks, self.model.params())
    }

    /// The task set.
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The registered workers.
    #[must_use]
    pub fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    /// All collected answers.
    #[must_use]
    pub fn log(&self) -> &AnswerLog {
        &self.log
    }

    /// Current parameter estimates.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        self.model.params()
    }

    /// The online model (for diagnostics).
    #[must_use]
    pub fn model(&self) -> &OnlineModel {
        &self.model
    }

    /// The distance model.
    #[must_use]
    pub fn distances(&self) -> &Distances {
        &self.distances
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// The issued-but-unanswered pairs currently in flight.
    #[must_use]
    pub fn reservations(&self) -> &ReservationSet {
        &self.reserved
    }

    /// Drops every in-flight reservation — the operator escape hatch for
    /// clients that requested tasks and vanished. The budget those pairs
    /// consumed stays spent.
    pub fn clear_reservations(&mut self) {
        self.reserved.clear();
    }

    /// Inserts issued-but-unanswered pairs without charging budget.
    ///
    /// This is a service-layer hook like [`Framework::charge`]: a shard
    /// handoff moves in-flight reservations to the task's new owner so the
    /// pair is still refused a re-issue there, and snapshot restore could
    /// re-seed in-flight state the same way. Pairs already reserved are
    /// ignored. Campaign code should let [`Framework::request`] reserve.
    pub fn adopt_reservations<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (WorkerId, TaskId)>,
    {
        for (worker, task) in pairs {
            self.reserved.reserve(worker, task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::AccOptAssigner;
    use crate::task::synthetic_task;
    use crowd_geo::Point;

    fn build(budget: usize, h: usize) -> Framework {
        let tasks = TaskSet::new(
            (0..6)
                .map(|i| synthetic_task(format!("t{i}"), Point::new(i as f64, 0.0), 3))
                .collect(),
        );
        let workers = WorkerPool::from_workers(vec![
            Worker::at("a", Point::new(0.0, 0.5)),
            Worker::at("b", Point::new(5.0, 0.5)),
        ])
        .unwrap();
        Framework::new(
            tasks,
            workers,
            FrameworkConfig {
                budget,
                h,
                ..FrameworkConfig::default()
            },
        )
    }

    #[test]
    fn request_charges_budget_and_respects_h() {
        let mut fw = build(10, 2);
        let mut assigner = AccOptAssigner::new();
        let a = fw
            .request(&mut assigner, &[WorkerId(0), WorkerId(1)])
            .unwrap();
        assert_eq!(a.total(), 4);
        assert_eq!(fw.budget_used(), 4);
        assert_eq!(fw.budget_remaining(), 6);
    }

    #[test]
    fn request_truncates_to_remaining_budget() {
        let mut fw = build(3, 2);
        let mut assigner = AccOptAssigner::new();
        let a = fw
            .request(&mut assigner, &[WorkerId(0), WorkerId(1)])
            .unwrap();
        assert_eq!(a.total(), 3);
        assert_eq!(fw.budget_remaining(), 0);
        // Next request fails.
        let err = fw.request(&mut assigner, &[WorkerId(0)]).unwrap_err();
        assert_eq!(err, CoreError::BudgetExhausted);
    }

    #[test]
    fn submit_flows_into_inference() {
        let mut fw = build(100, 2);
        fw.submit(
            WorkerId(0),
            TaskId(0),
            LabelBits::from_slice(&[true, true, false]),
        )
        .unwrap();
        fw.submit(
            WorkerId(1),
            TaskId(0),
            LabelBits::from_slice(&[true, true, false]),
        )
        .unwrap();
        let inf = fw.inference();
        assert!(inf.decision(TaskId(0)).get(0));
        assert!(!inf.decision(TaskId(0)).get(2));
        assert_eq!(fw.log().len(), 2);
    }

    #[test]
    fn unknown_worker_in_request_is_rejected() {
        let mut fw = build(10, 1);
        let mut assigner = AccOptAssigner::new();
        let err = fw.request(&mut assigner, &[WorkerId(99)]).unwrap_err();
        assert_eq!(err, CoreError::UnknownWorker(WorkerId(99)));
        // Budget untouched on failure.
        assert_eq!(fw.budget_used(), 0);
    }

    #[test]
    fn register_worker_grows_everything() {
        let mut fw = build(10, 1);
        let id = fw
            .register_worker(Worker::at("newcomer", Point::new(2.0, 2.0)))
            .unwrap();
        assert_eq!(id, WorkerId(2));
        // The newcomer can submit immediately.
        fw.submit(id, TaskId(1), LabelBits::from_slice(&[true, false, true]))
            .unwrap();
        assert_eq!(fw.log().n_answers_by(id), 1);
    }

    #[test]
    fn force_full_em_updates_report() {
        let mut fw = build(10, 1);
        fw.submit(
            WorkerId(0),
            TaskId(0),
            LabelBits::from_slice(&[true, true, true]),
        )
        .unwrap();
        fw.force_full_em();
        assert!(fw.model().last_report().is_some());
    }

    #[test]
    fn budget_lowered_below_used_reads_exhausted_not_underflow() {
        let mut fw = build(10, 2);
        let mut assigner = AccOptAssigner::new();
        let a = fw
            .request(&mut assigner, &[WorkerId(0), WorkerId(1)])
            .unwrap();
        assert_eq!(a.total(), 4);
        fw.set_budget(2); // below the 4 already spent
        assert_eq!(fw.budget_remaining(), 0);
        assert_eq!(
            fw.request(&mut assigner, &[WorkerId(0)]).unwrap_err(),
            CoreError::BudgetExhausted
        );
    }

    #[test]
    fn charge_clamps_to_remaining_budget() {
        let mut fw = build(5, 2);
        assert_eq!(fw.charge(3), 3);
        assert_eq!(fw.budget_used(), 3);
        assert_eq!(fw.charge(10), 2);
        assert_eq!(fw.budget_remaining(), 0);
        assert_eq!(fw.charge(1), 0);
    }

    #[test]
    fn bulk_load_plus_checkpoint_matches_live_submit_stream() {
        // Submit a stream live, harden (a full-sweep checkpoint), then
        // rebuild a second framework by bulk-loading the same log and
        // restoring the checkpoint parameters: both must be bit-identical
        // and stay in lockstep on further submits.
        let mut live = build(100, 2);
        let stream = [
            (0u32, 0u32, [true, true, false]),
            (1, 0, [true, false, false]),
            (0, 1, [false, true, true]),
            (1, 2, [true, true, true]),
        ];
        for &(w, t, bits) in &stream {
            live.submit(WorkerId(w), TaskId(t), LabelBits::from_slice(&bits))
                .unwrap();
        }
        live.force_full_em();

        let mut restored = build(100, 2);
        for &(w, t, bits) in &stream {
            restored
                .load_answer(WorkerId(w), TaskId(t), LabelBits::from_slice(&bits))
                .unwrap();
        }
        assert!(restored.restore_checkpoint(live.params().clone(), live.peer_stats().clone()));
        assert_eq!(restored.params(), live.params());
        assert_eq!(restored.inference(), live.inference());

        let extra = (1u32, 1u32, [false, false, true]);
        live.submit(
            WorkerId(extra.0),
            TaskId(extra.1),
            LabelBits::from_slice(&extra.2),
        )
        .unwrap();
        restored
            .submit(
                WorkerId(extra.0),
                TaskId(extra.1),
                LabelBits::from_slice(&extra.2),
            )
            .unwrap();
        assert_eq!(restored.params(), live.params());

        // Bulk-load still validates: a duplicate is rejected.
        assert!(restored
            .load_answer(WorkerId(0), TaskId(0), LabelBits::from_slice(&[true; 3]))
            .is_err());
    }

    #[test]
    fn issued_pairs_are_reserved_until_answered() {
        let mut fw = build(100, 2);
        let mut assigner = AccOptAssigner::new();
        let a = fw.request(&mut assigner, &[WorkerId(0)]).unwrap();
        assert_eq!(a.total(), 2);
        assert_eq!(fw.reservations().len(), 2);
        for (w, t) in a.pairs() {
            assert!(fw.reservations().contains(w, t));
        }
        let pairs: Vec<_> = a.pairs().collect();
        fw.submit(pairs[0].0, pairs[0].1, LabelBits::from_slice(&[true; 3]))
            .unwrap();
        assert_eq!(fw.reservations().len(), 1);
        assert!(!fw.reservations().contains(pairs[0].0, pairs[0].1));
        assert!(fw.reservations().contains(pairs[1].0, pairs[1].1));
    }

    #[test]
    fn pending_pair_never_reissued_before_answer_applied() {
        // The re-issue race: request, do NOT answer, request again. The
        // second request must skip the in-flight pairs instead of
        // double-charging the budget for them.
        let mut fw = build(100, 2);
        let mut assigner = AccOptAssigner::new();
        let first = fw.request(&mut assigner, &[WorkerId(0)]).unwrap();
        let second = fw.request(&mut assigner, &[WorkerId(0)]).unwrap();
        let first_pairs: std::collections::HashSet<_> = first.pairs().collect();
        for pair in second.pairs() {
            assert!(
                !first_pairs.contains(&pair),
                "pair {pair:?} re-issued while its answer was in flight"
            );
        }
        // Answers release the reservations; the pairs become submittable
        // (once) but never assignable again (they are now answered).
        for (w, t) in first.pairs().chain(second.pairs()) {
            fw.submit(w, t, LabelBits::from_slice(&[true, false, true]))
                .unwrap();
        }
        assert!(fw.reservations().is_empty());
    }

    #[test]
    fn bulk_load_releases_reservations_too() {
        let mut fw = build(100, 2);
        let mut assigner = AccOptAssigner::new();
        let a = fw.request(&mut assigner, &[WorkerId(1)]).unwrap();
        let (w, t) = a.pairs().next().unwrap();
        fw.load_answer(w, t, LabelBits::from_slice(&[true; 3]))
            .unwrap();
        assert!(!fw.reservations().contains(w, t));
    }

    #[test]
    fn clear_reservations_reopens_pairs_without_refunding() {
        let mut fw = build(100, 2);
        let mut assigner = AccOptAssigner::new();
        let a = fw.request(&mut assigner, &[WorkerId(0)]).unwrap();
        let used = fw.budget_used();
        assert_eq!(used, a.total());
        fw.clear_reservations();
        assert!(fw.reservations().is_empty());
        assert_eq!(fw.budget_used(), used, "clearing never refunds budget");
        // The same pairs may now be issued again.
        let again = fw.request(&mut assigner, &[WorkerId(0)]).unwrap();
        assert_eq!(again.total(), 2);
    }

    #[test]
    fn prune_checkpointed_drains_log_and_keeps_serving() {
        let mut pruned = build(100, 2);
        let mut reference = build(100, 2);
        let stream = [
            (0u32, 0u32, [true, true, false]),
            (1, 0, [true, false, false]),
            (0, 1, [false, true, true]),
            (1, 2, [true, true, true]),
        ];
        for &(w, t, bits) in &stream {
            pruned
                .submit(WorkerId(w), TaskId(t), LabelBits::from_slice(&bits))
                .unwrap();
            reference
                .submit(WorkerId(w), TaskId(t), LabelBits::from_slice(&bits))
                .unwrap();
        }

        // Not at a full-sweep boundary yet: pruning is refused.
        assert!(pruned.prune_checkpointed().is_none());

        pruned.force_full_em();
        reference.force_full_em();
        let drained = pruned.prune_checkpointed().unwrap();
        assert_eq!(drained.len(), stream.len());
        assert_eq!(pruned.log().len(), 0);
        assert_eq!(pruned.log().stream_len(), stream.len());
        assert_eq!(pruned.params(), reference.params());

        // Duplicates of pruned pairs are still rejected; fresh submissions
        // keep flowing and the counts stay stream-wide.
        assert!(pruned
            .submit(WorkerId(0), TaskId(0), LabelBits::from_slice(&[true; 3]))
            .is_err());
        pruned
            .submit(WorkerId(1), TaskId(1), LabelBits::from_slice(&[false; 3]))
            .unwrap();
        reference
            .submit(WorkerId(1), TaskId(1), LabelBits::from_slice(&[false; 3]))
            .unwrap();
        assert_eq!(pruned.params(), reference.params());
        assert_eq!(pruned.log().stream_len(), stream.len() + 1);
        assert_eq!(pruned.log().n_answers_by(WorkerId(1)), 3);
    }

    #[test]
    fn duplicate_submission_rejected_and_state_unchanged() {
        let mut fw = build(10, 1);
        let bits = LabelBits::from_slice(&[true, false, false]);
        fw.submit(WorkerId(0), TaskId(0), bits).unwrap();
        let before = fw.log().len();
        assert!(fw.submit(WorkerId(0), TaskId(0), bits).is_err());
        assert_eq!(fw.log().len(), before);
    }
}
