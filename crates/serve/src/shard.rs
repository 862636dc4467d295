//! Geographic sharding: mapping tasks to shards through `crowd_geo`'s grid
//! and wrapping each shard's private [`Framework`].
//!
//! A shard is the unit of concurrency: it owns a `Framework` over the tasks
//! of its grid cells, a proportional slice of the campaign budget, and its
//! own ACCOPT assigner. Shards never share mutable state, so the service
//! can stripe one lock per shard and let submissions to different regions
//! proceed in parallel.

use crowd_core::{
    AccOptAssigner, Assignment, CoreError, Distances, Framework, FrameworkConfig, LabelBits,
    ModelParams, PeerStats, TaskId, TaskSet, Worker, WorkerId, WorkerPool, WorkerStatDelta,
};
use crowd_geo::{GridIndex, Point};

/// One recorded out-of-stream model event: something that mutated this
/// shard's model *besides* an answer, applied when the answer log held
/// `position` answers.
///
/// Shard state is a deterministic function of its *event stream* — answers
/// interleaved with these events — so persisting both (see
/// [`ShardSnapshot`](crate::ShardSnapshot)) lets a restore replay the
/// exact sequence and land on bit-identical model state even though fold
/// payloads were produced by racy cross-shard timing and hardening sweeps
/// by explicit operator calls.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GossipEvent {
    /// The shard's answer count when the event was applied.
    pub position: usize,
    /// What happened.
    pub kind: GossipEventKind,
}

/// The kinds of recorded out-of-stream model events.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GossipEventKind {
    /// A peer's published worker-statistic delta was folded in.
    Fold(WorkerStatDelta),
    /// A fold whose payload was dropped by pruning: only the two-integer
    /// identity survives. Pruning converts pre-checkpoint [`Fold`]s to
    /// refs — except each source's *latest*, which keeps its payload so
    /// the checkpoint peer table can still be rebuilt (the table holds one
    /// cumulative delta per source; superseded payloads contribute
    /// nothing). Refs are never replayed: they always sit before the
    /// checkpoint, whose parameters already contain their effect.
    ///
    /// [`Fold`]: GossipEventKind::Fold
    FoldRef {
        /// The folded delta's source shard.
        source: u64,
        /// The folded delta's version stamp.
        version: u64,
    },
    /// An unconditional hardening full sweep ran
    /// ([`LabellingService::force_full_em`](crate::LabellingService::force_full_em)).
    FullSweep,
    /// A worker arrived mid-campaign and was registered into this shard's
    /// pool ([`crate::ServiceHandle::register_worker`]). Recorded per shard
    /// at the shard's own stream position, so replay re-registers the
    /// worker exactly where the pool grew — full sweeps before this event
    /// size their parameters by the smaller pool, ones after by the larger.
    Register {
        /// The worker's display name.
        name: String,
        /// Registered location, x coordinate.
        x: f64,
        /// Registered location, y coordinate.
        y: f64,
    },
}

/// The shard's model state captured right after its most recent
/// **full-sweep** EM rebuild — the compaction point of snapshot format v3.
///
/// Immediately after a full sweep, the whole mutable model state is a pure
/// function of `(params, answer-log prefix, peer table)` (see
/// [`crowd_core::OnlineModel::restore_checkpoint`]), and the peer table is
/// itself implied by the fold events recorded so far. So this small record
/// — a position, an event index and one parameter set — is everything a v3
/// snapshot needs to let restore *harden from parameters*: bulk-load the
/// first `position` answers, re-seed `params`, recompute the sufficient
/// statistics with one deterministic E-pass, and replay only the event
/// stream recorded after (`events_applied`, `position`).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ModelCheckpoint {
    /// The shard's answer count when the full sweep ran.
    pub position: usize,
    /// How many recorded out-of-stream events preceded the sweep — replay
    /// from the checkpoint skips exactly `gossip_events[..events_applied]`
    /// (their effects are already inside `params`).
    pub events_applied: usize,
    /// The parameters the sweep produced: converged, or where it stopped
    /// when it hit `EmConfig::max_iterations` first. Restore does not
    /// care which — it replays from these exact values either way.
    pub params: ModelParams,
}

/// Deterministic geographic task → shard partition.
///
/// Tasks are bucketed by a uniform [`GridIndex`] over their locations
/// (roughly four cells per shard), and cells are dealt to shards
/// greedily — each cell goes to the currently least-loaded shard — so the
/// partition is balanced even when POIs cluster heavily. The same map
/// routes workers: a worker's home shard is the shard owning the grid cell
/// of their first registered location.
#[derive(Debug, Clone)]
pub struct ShardMap {
    n_shards: usize,
    version: u64,
    shard_of_task: Vec<u32>,
    shard_of_cell: Vec<u32>,
    grid: GridIndex,
}

impl ShardMap {
    /// Partitions `tasks` into at most `n_shards` shards (clamped to the
    /// task count and to at least one). The built map is **version 1**;
    /// every [`ShardMap::reassign_cell`] publishes a successor with the
    /// version bumped, so routing epochs are totally ordered.
    ///
    /// # Panics
    /// Panics if `tasks` is empty (there is nothing to serve).
    #[must_use]
    pub fn build(tasks: &TaskSet, n_shards: usize) -> Self {
        assert!(!tasks.is_empty(), "cannot shard an empty task set");
        let n_shards = n_shards.clamp(1, tasks.len());
        let locations: Vec<Point> = tasks.iter().map(|t| t.location).collect();
        // Aim for ~4 cells per shard so the greedy deal can balance.
        let target_per_cell = (locations.len() / (n_shards * 4)).max(1);
        let grid = GridIndex::build(&locations, target_per_cell);

        let mut load = vec![0usize; n_shards];
        let mut shard_of_cell = vec![0u32; grid.n_cells()];
        let mut shard_of_task = vec![0u32; tasks.len()];
        for (cell, cell_shard) in shard_of_cell.iter_mut().enumerate() {
            let members = grid.cell_members(cell);
            // Least-loaded shard takes the whole cell; ties go to the
            // lowest id, keeping the partition deterministic.
            let shard = (0..n_shards).min_by_key(|&s| (load[s], s)).expect(">=1");
            *cell_shard = shard as u32;
            load[shard] += members.len();
            for &task in members {
                shard_of_task[task as usize] = shard as u32;
            }
        }
        Self {
            n_shards,
            version: 1,
            shard_of_task,
            shard_of_cell,
            grid,
        }
    }

    /// Rebuilds a map from a persisted cell → shard assignment (snapshot
    /// format v4). The grid is a deterministic function of the task
    /// locations and shard count, so the cell vector is all a snapshot
    /// needs to persist.
    ///
    /// # Errors
    /// Returns a message when `cells` does not match the grid the task set
    /// implies, or names a shard out of range.
    pub fn with_cells(
        tasks: &TaskSet,
        n_shards: usize,
        cells: &[u32],
        version: u64,
    ) -> Result<Self, String> {
        let mut map = Self::build(tasks, n_shards);
        if cells.len() != map.shard_of_cell.len() {
            return Err(format!(
                "cell assignment has {} cells, the task grid has {}",
                cells.len(),
                map.shard_of_cell.len()
            ));
        }
        if let Some(&bad) = cells.iter().find(|&&s| s as usize >= map.n_shards) {
            return Err(format!(
                "cell assigned to shard {bad}, only {} shards exist",
                map.n_shards
            ));
        }
        if version == 0 {
            return Err("map version 0 is reserved (versions start at 1)".into());
        }
        map.shard_of_cell.copy_from_slice(cells);
        for cell in 0..map.shard_of_cell.len() {
            let shard = map.shard_of_cell[cell];
            for &task in map.grid.cell_members(cell) {
                map.shard_of_task[task as usize] = shard;
            }
        }
        map.version = version;
        Ok(map)
    }

    /// Publishes a successor map with grid cell `cell` owned by shard `to`
    /// and the version bumped by one. Both a hot-cell *split* (moving a
    /// cell off an overloaded shard) and a cold-cell *merge* (consolidating
    /// a quiet cell onto the shard owning its neighbours) are this one
    /// reassignment — the shard count never changes, only cell ownership.
    ///
    /// # Errors
    /// Returns a message when `cell` or `to` is out of range, or `to`
    /// already owns the cell (nothing would move).
    pub fn reassign_cell(&self, cell: usize, to: usize) -> Result<Self, String> {
        if cell >= self.shard_of_cell.len() {
            return Err(format!(
                "cell {cell} out of range ({} cells)",
                self.shard_of_cell.len()
            ));
        }
        if to >= self.n_shards {
            return Err(format!(
                "shard {to} out of range ({} shards)",
                self.n_shards
            ));
        }
        if self.shard_of_cell[cell] as usize == to {
            return Err(format!("cell {cell} is already owned by shard {to}"));
        }
        let mut next = self.clone();
        next.shard_of_cell[cell] = to as u32;
        for &task in next.grid.cell_members(cell) {
            next.shard_of_task[task as usize] = to as u32;
        }
        next.version += 1;
        Ok(next)
    }

    /// Number of shards (after clamping).
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The map's version: 1 for a freshly built map, bumped by every
    /// [`ShardMap::reassign_cell`]. In-flight commands are stamped with the
    /// version they were routed under, so the drain side can detect a task
    /// that moved while the command sat in the queue.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of grid cells (the unit of split/merge handoff).
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.shard_of_cell.len()
    }

    /// The cell → shard assignment, indexed by cell id (persisted by v4
    /// snapshots; the grid itself is implied by the task locations).
    #[must_use]
    pub fn cells(&self) -> &[u32] {
        &self.shard_of_cell
    }

    /// The shard owning grid cell `cell`.
    ///
    /// # Panics
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn shard_of_cell(&self, cell: usize) -> usize {
        self.shard_of_cell[cell] as usize
    }

    /// Global ids of the tasks inside grid cell `cell`, in id order.
    ///
    /// # Panics
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn cell_tasks(&self, cell: usize) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self
            .grid
            .cell_members(cell)
            .iter()
            .map(|&t| TaskId(t))
            .collect();
        ids.sort_by_key(|t| t.index());
        ids
    }

    /// Number of tasks in the global space.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.shard_of_task.len()
    }

    /// The shard owning `task`.
    ///
    /// # Panics
    /// Panics if the task id is out of range.
    #[must_use]
    pub fn shard_of_task(&self, task: TaskId) -> usize {
        self.shard_of_task[task.index()] as usize
    }

    /// Checked variant of [`ShardMap::shard_of_task`].
    #[must_use]
    pub fn shard_of_task_checked(&self, task: TaskId) -> Option<usize> {
        self.shard_of_task.get(task.index()).map(|&s| s as usize)
    }

    /// The shard owning the geographic region around `p` (locations outside
    /// the task extent clamp to the border region).
    #[must_use]
    pub fn shard_for_point(&self, p: Point) -> usize {
        self.shard_of_cell[self.grid.cell_of(p)] as usize
    }

    /// Global ids of the tasks owned by `shard`, in id order.
    #[must_use]
    pub fn tasks_of(&self, shard: usize) -> Vec<TaskId> {
        self.shard_of_task
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s as usize == shard)
            .map(|(i, _)| TaskId::from_index(i))
            .collect()
    }

    /// Splits `budget` proportionally to each shard's task count. Slices
    /// sum exactly to `budget`; remainders go to the shards with the
    /// largest fractional share (ties to the lower id).
    #[must_use]
    pub fn budget_slices(&self, budget: usize) -> Vec<usize> {
        let total_tasks = self.shard_of_task.len();
        let counts: Vec<usize> = (0..self.n_shards)
            .map(|s| {
                self.shard_of_task
                    .iter()
                    .filter(|&&x| x as usize == s)
                    .count()
            })
            .collect();
        let mut slices: Vec<usize> = counts.iter().map(|&c| budget * c / total_tasks).collect();
        let assigned: usize = slices.iter().sum();
        // Largest-remainder rounding for the leftover units.
        let mut order: Vec<usize> = (0..self.n_shards).collect();
        order.sort_by_key(|&s| {
            // Remainder of budget·c/total, negated for descending order.
            let rem = (budget * counts[s]) % total_tasks;
            (std::cmp::Reverse(rem), s)
        });
        for i in 0..(budget - assigned) {
            slices[order[i % self.n_shards]] += 1;
        }
        slices
    }
}

/// One shard of a campaign: a private [`Framework`] over the shard's tasks
/// plus its assigner, with id remapping between the global task space and
/// the shard-local dense ids.
#[derive(Debug, Clone)]
pub struct Shard {
    id: usize,
    framework: Framework,
    assigner: AccOptAssigner,
    /// Local dense id → global id, in local id order.
    to_global: Vec<TaskId>,
    /// Global id → local dense id (u32::MAX for tasks of other shards).
    local_of: Vec<u32>,
    /// Every out-of-stream model event applied to this shard (peer folds,
    /// hardening sweeps), in order with the answer-log position each was
    /// applied at.
    gossip_events: Vec<GossipEvent>,
    /// Deltas published so far — the version stamp, strictly increasing
    /// per publish so a re-publish after a hardening sweep (same answer
    /// count, different statistics) is never mistaken for a re-delivery.
    publishes: u64,
    /// The latest full-sweep checkpoint (v3 snapshots persist it so
    /// restore can harden from parameters instead of replaying the log).
    checkpoint: Option<ModelCheckpoint>,
    /// Global arrival sequence numbers, parallel to the resident answer
    /// log. `None` until the first handoff touches the campaign: while the
    /// map is static, the canonical interleaving of independent per-shard
    /// streams is the *virtual* assignment `seq = position · n_shards +
    /// shard_id`, so nothing needs storing. A handoff splices two shards'
    /// streams together, after which arrival order across shards is no
    /// longer reconstructible from positions — from then on every accepted
    /// answer records the sequence number the service allocated for it.
    seqs: Option<Vec<u64>>,
}

impl Shard {
    /// Builds shard `id` owning `task_ids` (global ids into `tasks`), with
    /// its own budget slice in `config.budget`. `distances` must be the
    /// campaign-global normaliser so `d(w, t)` matches the unsharded
    /// system.
    #[must_use]
    pub fn new(
        id: usize,
        tasks: &TaskSet,
        task_ids: Vec<TaskId>,
        workers: WorkerPool,
        config: FrameworkConfig,
        distances: Distances,
    ) -> Self {
        let local_tasks = TaskSet::new(task_ids.iter().map(|&t| tasks.task(t).clone()).collect());
        let mut local_of = vec![u32::MAX; tasks.len()];
        for (local, &global) in task_ids.iter().enumerate() {
            local_of[global.index()] = local as u32;
        }
        Self {
            id,
            framework: Framework::with_distances(local_tasks, workers, config, distances),
            assigner: AccOptAssigner::new(),
            to_global: task_ids,
            local_of,
            gossip_events: Vec::new(),
            publishes: 0,
            checkpoint: None,
            seqs: None,
        }
    }

    /// This shard's id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of tasks owned.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.to_global.len()
    }

    /// The local dense id for a global task id, if this shard owns it.
    #[must_use]
    pub fn local_of(&self, global: TaskId) -> Option<TaskId> {
        match self.local_of.get(global.index()) {
            Some(&local) if local != u32::MAX => Some(TaskId(local)),
            _ => None,
        }
    }

    /// The global id for a shard-local task id.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[must_use]
    pub fn global_of(&self, local: TaskId) -> TaskId {
        self.to_global[local.index()]
    }

    /// Accepts an answer addressed with a *global* task id. Returns whether
    /// the submission triggered a delayed full EM.
    ///
    /// # Errors
    /// [`CoreError::UnknownTask`] if this shard does not own the task;
    /// otherwise whatever [`Framework::submit`] reports.
    pub fn submit_global(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
    ) -> Result<bool, CoreError> {
        let local = self.local_of(task).ok_or(CoreError::UnknownTask(task))?;
        let triggered = self.framework.submit(worker, local, bits)?;
        // A delayed rebuild that ran as (or fell back to) a full sweep is a
        // compaction point: capture the parameters it produced.
        if triggered
            && self
                .framework
                .model()
                .last_report()
                .is_some_and(|r| r.full_sweep)
        {
            self.record_checkpoint();
        }
        Ok(triggered)
    }

    /// Appends an answer (global task id) to the shard's log **without**
    /// updating the model — the v3 snapshot bulk-load path. The restore
    /// code must re-seed the model from a checkpoint before any
    /// [`Shard::submit_global`] (see [`Framework::load_answer`]).
    ///
    /// # Errors
    /// [`CoreError::UnknownTask`] if this shard does not own the task;
    /// otherwise whatever validation [`Framework::load_answer`] reports.
    pub fn load_global(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        bits: LabelBits,
    ) -> Result<(), CoreError> {
        let local = self.local_of(task).ok_or(CoreError::UnknownTask(task))?;
        self.framework.load_answer(worker, local, bits)
    }

    /// Restores the shard's model to the post-full-sweep state implied by
    /// `checkpoint.params` over the currently loaded answer log, with
    /// `peers` as the folded peer table at the checkpoint, and adopts
    /// `checkpoint` as the shard's compaction point. Returns `false`
    /// (shard untouched) on a shape mismatch.
    pub(crate) fn restore_checkpoint(
        &mut self,
        checkpoint: ModelCheckpoint,
        peers: PeerStats,
    ) -> bool {
        if !self
            .framework
            .restore_checkpoint(checkpoint.params.clone(), peers)
        {
            return false;
        }
        self.checkpoint = Some(checkpoint);
        true
    }

    /// Splices recorded events back in verbatim (v3 restore: events before
    /// the checkpoint are adopted, not replayed — their effects live in the
    /// checkpoint parameters).
    pub(crate) fn adopt_events(&mut self, events: Vec<GossipEvent>) {
        self.gossip_events = events;
    }

    /// Captures the current model state as the latest full-sweep
    /// checkpoint. Callers must only invoke this right after a full sweep.
    fn record_checkpoint(&mut self) {
        self.checkpoint = Some(ModelCheckpoint {
            position: self.framework.log().stream_len(),
            events_applied: self.gossip_events.len(),
            params: self.framework.params().clone(),
        });
    }

    /// The latest full-sweep checkpoint, if any rebuild has full-swept yet.
    #[must_use]
    pub fn checkpoint(&self) -> Option<&ModelCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Answers currently resident in this shard's memory (the retained
    /// suffix of its stream).
    #[must_use]
    pub fn resident_answers(&self) -> usize {
        self.framework.log().len()
    }

    /// Answers truncated from the front of this shard's stream by
    /// [`Shard::prune_to_checkpoint`] (0 until a prune).
    #[must_use]
    pub fn pruned_answers(&self) -> usize {
        self.framework.log().pruned()
    }

    /// Drops the pre-checkpoint tier from memory: truncates the answer
    /// prefix the latest checkpoint covers (payloads returned in stream
    /// order, with global task ids, for the caller to spill) and strips
    /// pre-checkpoint fold payloads down to `(source, version)` refs —
    /// keeping each source's latest fold full so the checkpoint peer table
    /// remains rebuildable.
    ///
    /// Only legal when the checkpoint is *current*: it must sit at the
    /// exact end of the answer stream and the event stream (the state
    /// right after [`Shard::harden`], or a delayed full sweep, with
    /// nothing applied since). Returns `None` (shard untouched) otherwise.
    pub fn prune_to_checkpoint(&mut self) -> Option<Vec<(WorkerId, TaskId, LabelBits)>> {
        let current = self.checkpoint.as_ref().is_some_and(|cp| {
            cp.position == self.framework.log().stream_len()
                && cp.events_applied == self.gossip_events.len()
        });
        if !current {
            return None;
        }
        let drained = self.framework.prune_checkpointed()?;
        // A current checkpoint sits at the end of the stream, so the prune
        // drops the *whole* resident log — the recorded sequence numbers go
        // with their answers (the spill tier archives payloads, not seqs;
        // a pruned shard can no longer be a handoff source).
        if let Some(seqs) = &mut self.seqs {
            seqs.clear();
        }
        // Last fold index per source: those keep their payloads.
        let mut latest: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (i, event) in self.gossip_events.iter().enumerate() {
            if let GossipEventKind::Fold(delta) = &event.kind {
                latest.insert(delta.source, i);
            }
        }
        for (i, event) in self.gossip_events.iter_mut().enumerate() {
            let GossipEventKind::Fold(delta) = &event.kind else {
                continue;
            };
            if latest.get(&delta.source) != Some(&i) {
                event.kind = GossipEventKind::FoldRef {
                    source: delta.source,
                    version: delta.version,
                };
            }
        }
        Some(
            drained
                .into_iter()
                .map(|a| (a.worker, self.global_of(a.task), a.bits))
                .collect(),
        )
    }

    /// Seeds the pruned answer prefix from persisted `(worker, global
    /// task)` pairs — the snapshot-restore counterpart of
    /// [`Shard::prune_to_checkpoint`]. Returns `false` when a task is not
    /// owned by this shard or the log rejects the pairs.
    /// The pruned prefix as `(worker, global task)` pairs, in the log's
    /// deterministic (packed, sorted) order — what a snapshot persists so
    /// a restored shard keeps exact duplicate detection and counts.
    pub fn pruned_pairs_global(&self) -> impl Iterator<Item = (WorkerId, TaskId)> + '_ {
        self.framework
            .log()
            .pruned_pairs()
            .map(|(worker, task)| (worker, self.global_of(task)))
    }

    pub(crate) fn restore_pruned_global(&mut self, pairs: &[(WorkerId, TaskId)]) -> bool {
        let mut local = Vec::with_capacity(pairs.len());
        for &(w, t) in pairs {
            let Some(l) = self.local_of(t) else {
                return false;
            };
            local.push((w, l));
        }
        self.framework.restore_pruned(&local)
    }

    /// Assigns up to `h` of this shard's tasks to each requesting worker,
    /// charging the shard's budget slice. Task ids in the returned
    /// assignment are *global*.
    ///
    /// # Errors
    /// Propagates [`Framework::request`] failures
    /// ([`CoreError::BudgetExhausted`], [`CoreError::UnknownWorker`]).
    pub fn request(&mut self, workers: &[WorkerId]) -> Result<Assignment, CoreError> {
        let assignment = self.framework.request(&mut self.assigner, workers)?;
        Ok(Assignment::new(
            assignment
                .per_worker()
                .iter()
                .map(|(w, ts)| (*w, ts.iter().map(|&t| self.global_of(t)).collect()))
                .collect(),
        ))
    }

    /// This shard's worker-side statistics, packaged for the gossip
    /// exchange with the shard id as source and a strictly increasing
    /// publish counter as the version (so a delta published after a
    /// hardening sweep at an unchanged answer count still supersedes the
    /// pre-sweep one).
    pub fn publish_delta(&mut self) -> WorkerStatDelta {
        self.publishes += 1;
        self.framework
            .model()
            .worker_stat_delta(self.id as u64, self.publishes)
    }

    /// Deltas published so far (persisted by snapshots so a restored
    /// shard's next publish continues the version sequence).
    #[must_use]
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Restores the publish counter (snapshot restore only).
    pub(crate) fn set_publishes(&mut self, publishes: u64) {
        self.publishes = publishes;
    }

    /// Folds a peer shard's published delta into the inference model,
    /// recording the fold position so replay/restore can reproduce the
    /// exact event stream. Stale or re-delivered deltas are a no-op
    /// returning `false` (and are not recorded).
    pub fn fold_peer(&mut self, delta: &WorkerStatDelta) -> bool {
        self.fold_peers(std::slice::from_ref(delta)) == 1
    }

    /// Folds a whole gossip round of peer deltas in one batched pass
    /// (each covered worker's pooled parameters are refreshed once, not
    /// once per delta), recording one positioned event per absorbed delta
    /// in input order — the same events sequential [`Shard::fold_peer`]
    /// calls would record, and replaying them one by one reproduces the
    /// batched state bit for bit. Returns how many deltas were absorbed.
    pub fn fold_peers(&mut self, deltas: &[WorkerStatDelta]) -> usize {
        let position = self.framework.log().stream_len();
        let absorbed = self.framework.fold_peer_stats_batch(deltas);
        let mut folded = 0;
        for (delta, &ok) in deltas.iter().zip(&absorbed) {
            if ok {
                self.gossip_events.push(GossipEvent {
                    position,
                    kind: GossipEventKind::Fold(delta.clone()),
                });
                folded += 1;
            }
        }
        folded
    }

    /// Runs the unconditional hardening full sweep
    /// ([`crowd_core::Framework::force_full_em`]) *and records it* in the
    /// event stream, so a snapshot taken afterwards restores bit-identically.
    /// The service's `force_full_em` uses this; mutating the framework
    /// directly through [`Shard::framework_mut`] bypasses the recording.
    pub fn harden(&mut self) {
        let position = self.framework.log().stream_len();
        self.framework.force_full_em();
        self.gossip_events.push(GossipEvent {
            position,
            kind: GossipEventKind::FullSweep,
        });
        // A hardening sweep is a full sweep: it is a compaction point, and
        // its own event sits *before* the checkpoint (events_applied
        // includes it — the sweep's effect is inside the parameters).
        self.record_checkpoint();
    }

    /// Registers a newly arrived worker into this shard's pool *and
    /// records it* as a positioned event, so snapshot replay re-registers
    /// the worker at the exact stream position the pool grew. The service
    /// registers every arrival into **all** shards in shard-id order, so
    /// the dense worker ids agree across the pool.
    ///
    /// # Errors
    /// Propagates [`Framework::register_worker`] failures (a worker with
    /// no location).
    pub fn register_worker(&mut self, worker: Worker) -> Result<WorkerId, CoreError> {
        let name = worker.name.clone();
        let location = worker.locations.first().copied();
        let position = self.framework.log().stream_len();
        // A location-less worker is rejected here, before the event is
        // recorded, with the pool's canonical error.
        let id = self.framework.register_worker(worker)?;
        let location = location.expect("registered workers carry a location");
        self.gossip_events.push(GossipEvent {
            position,
            kind: GossipEventKind::Register {
                name,
                x: location.x,
                y: location.y,
            },
        });
        Ok(id)
    }

    /// Global arrival sequence numbers for the resident answers, if the
    /// campaign has been through a handoff (see the field doc on why a
    /// static map needs none).
    #[must_use]
    pub fn seqs(&self) -> Option<&[u64]> {
        self.seqs.as_deref()
    }

    /// Switches this shard to explicit sequence tracking, stamping every
    /// resident answer with its virtual sequence number under a static
    /// `n_shards`-wide map. Idempotent.
    pub(crate) fn materialize_seqs(&mut self, n_shards: usize) {
        if self.seqs.is_some() {
            return;
        }
        let pruned = self.framework.log().pruned() as u64;
        let n = n_shards as u64;
        let id = self.id as u64;
        self.seqs = Some(
            (0..self.framework.log().len() as u64)
                .map(|i| (pruned + i) * n + id)
                .collect(),
        );
    }

    /// Records the sequence number of an answer just accepted. A no-op
    /// until [`Shard::materialize_seqs`]; afterwards the service calls this
    /// under the shard lock right after every successful
    /// [`Shard::submit_global`].
    pub(crate) fn push_seq(&mut self, seq: u64) {
        if let Some(seqs) = &mut self.seqs {
            seqs.push(seq);
            debug_assert_eq!(seqs.len(), self.framework.log().len());
        }
    }

    /// Adopts persisted sequence numbers (v4 snapshot restore). Returns
    /// `false` when the vector does not cover the resident log exactly.
    pub(crate) fn adopt_seqs(&mut self, seqs: Vec<u64>) -> bool {
        if seqs.len() != self.framework.log().len() {
            return false;
        }
        self.seqs = Some(seqs);
        true
    }

    /// The in-flight reservations with task ids mapped to the global
    /// space, in deterministic (worker, task) order.
    #[must_use]
    pub fn reservations_global(&self) -> Vec<(WorkerId, TaskId)> {
        let mut pairs: Vec<(WorkerId, TaskId)> = self
            .framework
            .reservations()
            .iter()
            .map(|(w, t)| (w, self.global_of(t)))
            .collect();
        pairs.sort_unstable_by_key(|&(w, t)| (w.0, t.0));
        pairs
    }

    /// Adopts in-flight reservations addressed with global task ids (shard
    /// handoff: the pairs a task's old owner had issued stay refused a
    /// re-issue here). Pairs for tasks this shard does not own are skipped
    /// — the handoff partitions one reservation set across two owners.
    pub(crate) fn adopt_reservations_global(&mut self, pairs: &[(WorkerId, TaskId)]) {
        let local: Vec<(WorkerId, TaskId)> = pairs
            .iter()
            .filter_map(|&(w, t)| self.local_of(t).map(|l| (w, l)))
            .collect();
        self.framework.adopt_reservations(local);
    }

    /// Every out-of-stream event applied to this shard, in order.
    #[must_use]
    pub fn gossip_events(&self) -> &[GossipEvent] {
        &self.gossip_events
    }

    /// The underlying framework (read-only).
    #[must_use]
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// Mutable access to the underlying framework — used by snapshot
    /// restore to re-charge budget. Model mutations made directly through
    /// this (rather than [`Shard::submit_global`] / [`Shard::fold_peer`] /
    /// [`Shard::harden`]) are *not* recorded in the event stream and will
    /// not survive a snapshot → restore round-trip.
    pub fn framework_mut(&mut self) -> &mut Framework {
        &mut self.framework
    }

    /// The shard's answers in arrival order, with task ids mapped back to
    /// the global space: `(worker, global task, bits)`.
    pub fn answers_global(&self) -> impl Iterator<Item = (WorkerId, TaskId, LabelBits)> + '_ {
        self.framework
            .log()
            .answers()
            .iter()
            .map(|a| (a.worker, self.global_of(a.task), a.bits))
    }

    /// Writes this shard's hardened label decisions into `out`, indexed by
    /// global task id. Slots of other shards are left untouched.
    pub fn decisions_into(&self, out: &mut [LabelBits]) {
        let inference = self.framework.inference();
        for local in 0..self.n_tasks() {
            let local_id = TaskId::from_index(local);
            out[self.global_of(local_id).index()] = inference.decision(local_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::synthetic_task;

    fn lattice_tasks(n: usize) -> TaskSet {
        // A 2-D lattice wide enough for several grid cells.
        let side = (n as f64).sqrt().ceil() as usize;
        TaskSet::new(
            (0..n)
                .map(|i| {
                    let x = (i % side) as f64;
                    let y = (i / side) as f64;
                    synthetic_task(format!("t{i}"), Point::new(x, y), 3)
                })
                .collect(),
        )
    }

    fn pool() -> WorkerPool {
        WorkerPool::from_workers(vec![
            Worker::at("a", Point::new(0.0, 0.0)),
            Worker::at("b", Point::new(5.0, 5.0)),
        ])
        .unwrap()
    }

    use crowd_core::Worker;

    #[test]
    fn partition_is_total_and_balanced() {
        let tasks = lattice_tasks(64);
        for n_shards in [1, 2, 4, 8] {
            let map = ShardMap::build(&tasks, n_shards);
            assert_eq!(map.n_shards(), n_shards);
            let mut counts = vec![0usize; n_shards];
            for t in tasks.ids() {
                counts[map.shard_of_task(t)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 64);
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                hi - lo <= 64 / n_shards,
                "imbalanced {counts:?} at {n_shards} shards"
            );
            // tasks_of agrees with shard_of_task.
            for (s, &count) in counts.iter().enumerate() {
                assert_eq!(map.tasks_of(s).len(), count);
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let tasks = lattice_tasks(50);
        let a = ShardMap::build(&tasks, 4);
        let b = ShardMap::build(&tasks, 4);
        assert_eq!(a.shard_of_task, b.shard_of_task);
    }

    #[test]
    fn shard_count_clamps_to_task_count() {
        let tasks = lattice_tasks(3);
        let map = ShardMap::build(&tasks, 16);
        assert!(map.n_shards() <= 3);
        assert!(map.n_shards() >= 1);
    }

    #[test]
    fn worker_routing_hits_owning_shard_for_task_locations() {
        let tasks = lattice_tasks(36);
        let map = ShardMap::build(&tasks, 3);
        for t in tasks.ids() {
            let p = tasks.task(t).location;
            assert_eq!(map.shard_for_point(p), map.shard_of_task(t), "task {t}");
        }
        // Far-away points still route somewhere valid.
        assert!(map.shard_for_point(Point::new(-1e6, 1e6)) < 3);
    }

    #[test]
    fn budget_slices_sum_exactly_and_track_share() {
        let tasks = lattice_tasks(60);
        let map = ShardMap::build(&tasks, 4);
        for budget in [0, 1, 7, 100, 999] {
            let slices = map.budget_slices(budget);
            assert_eq!(slices.iter().sum::<usize>(), budget, "budget {budget}");
        }
        let slices = map.budget_slices(600);
        for (s, &slice) in slices.iter().enumerate() {
            let share = map.tasks_of(s).len() as f64 / 60.0;
            let expected = 600.0 * share;
            assert!(
                (slice as f64 - expected).abs() <= 1.0,
                "slice {s}: {slice} vs {expected}"
            );
        }
    }

    #[test]
    fn shard_remaps_ids_both_ways() {
        let tasks = lattice_tasks(16);
        let map = ShardMap::build(&tasks, 2);
        let owned = map.tasks_of(1);
        let distances = Distances::from_tasks(&tasks);
        let shard = Shard::new(
            1,
            &tasks,
            owned.clone(),
            pool(),
            FrameworkConfig {
                budget: 10,
                h: 2,
                ..FrameworkConfig::default()
            },
            distances,
        );
        assert_eq!(shard.n_tasks(), owned.len());
        for (local, &global) in owned.iter().enumerate() {
            assert_eq!(shard.local_of(global), Some(TaskId::from_index(local)));
            assert_eq!(shard.global_of(TaskId::from_index(local)), global);
        }
        // A task of the other shard is not owned.
        let foreign = map.tasks_of(0)[0];
        assert_eq!(shard.local_of(foreign), None);
    }

    #[test]
    fn submit_and_request_speak_global_ids() {
        let tasks = lattice_tasks(16);
        let map = ShardMap::build(&tasks, 2);
        let owned = map.tasks_of(0);
        let distances = Distances::from_tasks(&tasks);
        let mut shard = Shard::new(
            0,
            &tasks,
            owned.clone(),
            pool(),
            FrameworkConfig {
                budget: 4,
                h: 2,
                ..FrameworkConfig::default()
            },
            distances,
        );
        let assignment = shard.request(&[WorkerId(0)]).unwrap();
        assert_eq!(assignment.total(), 2);
        for (_, t) in assignment.pairs() {
            assert!(owned.contains(&t), "assignment must use global ids");
        }
        let (w, t) = assignment.pairs().next().unwrap();
        let full = shard
            .submit_global(w, t, LabelBits::from_slice(&[true, false, true]))
            .unwrap();
        assert!(!full);
        assert_eq!(shard.framework().log().len(), 1);
        let (log_worker, log_task, _) = shard.answers_global().next().unwrap();
        assert_eq!((log_worker, log_task), (w, t));

        // Foreign task rejected.
        let foreign = map.tasks_of(1)[0];
        assert_eq!(
            shard
                .submit_global(WorkerId(0), foreign, LabelBits::from_slice(&[true; 3]))
                .unwrap_err(),
            CoreError::UnknownTask(foreign)
        );
    }

    #[test]
    fn fold_peer_records_events_and_ignores_stale_deltas() {
        let tasks = lattice_tasks(16);
        let map = ShardMap::build(&tasks, 2);
        let distances = Distances::from_tasks(&tasks);
        let mut a = Shard::new(
            0,
            &tasks,
            map.tasks_of(0),
            pool(),
            FrameworkConfig::default(),
            distances,
        );
        let mut b = Shard::new(
            1,
            &tasks,
            map.tasks_of(1),
            pool(),
            FrameworkConfig::default(),
            distances,
        );
        let own_task = b.global_of(crowd_core::TaskId(0));
        b.submit_global(WorkerId(0), own_task, LabelBits::from_slice(&[true; 3]))
            .unwrap();
        let published = b.publish_delta();
        assert_eq!(published.source, 1);
        assert_eq!(published.version, 1);
        assert_eq!(b.publishes(), 1);
        // Versions count publishes, not answers: a re-publish with no new
        // answers (e.g. after a hardening sweep rebuilt the statistics)
        // still supersedes the previous delta.
        assert_eq!(b.publish_delta().version, 2);

        assert!(a.fold_peer(&published));
        assert_eq!(a.gossip_events().len(), 1);
        assert_eq!(a.gossip_events()[0].position, 0);
        assert_eq!(
            a.gossip_events()[0].kind,
            GossipEventKind::Fold(published.clone())
        );
        // Re-delivery is a no-op and is not recorded.
        assert!(!a.fold_peer(&published));
        assert_eq!(a.gossip_events().len(), 1);
        // The pooled quality is visible on shard a's framework.
        assert_eq!(a.framework().peer_stats().version_of(1), Some(1));

        // A hardening sweep is recorded as a positioned event too.
        a.harden();
        assert_eq!(a.gossip_events().len(), 2);
        assert_eq!(a.gossip_events()[1].kind, GossipEventKind::FullSweep);
    }

    #[test]
    fn decisions_land_in_global_slots() {
        let tasks = lattice_tasks(9);
        let map = ShardMap::build(&tasks, 2);
        let distances = Distances::from_tasks(&tasks);
        let mut out = vec![LabelBits::zeros(3); tasks.len()];
        for s in 0..map.n_shards() {
            let shard = Shard::new(
                s,
                &tasks,
                map.tasks_of(s),
                pool(),
                FrameworkConfig::default(),
                distances,
            );
            shard.decisions_into(&mut out);
        }
        // Every slot written with the right arity.
        assert!(out.iter().all(|b| b.len() == 3));
    }
}
