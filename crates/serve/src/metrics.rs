//! Lock-free per-shard service metrics.
//!
//! Every counter is a relaxed atomic updated by the drain threads while
//! they hold the owning shard's lock (so the numbers are exact, not
//! sampled); reading never takes a lock. The `budget_remaining` mirror is
//! what request routing consults to skip exhausted shards without touching
//! their locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters for one shard.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    submits: AtomicU64,
    requests: AtomicU64,
    assigned: AtomicU64,
    em_rebuilds: AtomicU64,
    rejected: AtomicU64,
    budget_remaining: AtomicU64,
    /// The shard's full budget slice — the ceiling for every
    /// [`ShardMetrics::budget_remaining`] read. Set at construction and
    /// refreshed (via [`ShardMetrics::set_budget_slice`]) when a handoff
    /// or demand-driven rebalance moves budget between shards. The mirror
    /// is only advisory (request routing ranks shards by it), so a
    /// corrupted or stale value must never be able to advertise *more*
    /// than the slice and attract all traffic to one shard.
    budget_slice: AtomicU64,
    gossip_rounds: AtomicU64,
    gossip_folds: AtomicU64,
    /// Submit count at the last completed gossip round; the lag metric is
    /// `submits - last_gossip_at`.
    last_gossip_at: AtomicU64,
    /// Mirror of the shard's recorded out-of-stream event count (peer
    /// folds + hardening sweeps). This list grows with campaign length —
    /// one entry per absorbed fold per shard — which is exactly the growth
    /// snapshot format v3 bounds on disk (each published delta is stored
    /// once in a top-level table; events are small references) and the
    /// `snapshot_delta` / `compact` workflow keeps out of the hot
    /// serialisation path. Operators watch this alongside
    /// [`ServiceMetrics::snapshot_bytes`] to see compaction working.
    events_len: AtomicU64,
    /// Deepest the shard's ingestion queue has been since the last
    /// [`ShardMetrics::take_queue_hwm`] (updated from the enqueue path) —
    /// the burst gauge the time-averaged `queue_depth` cannot show.
    /// Reading a [`ShardMetrics::snapshot`] does *not* reset it: a JSON
    /// `/metrics` poll, a Prometheus scrape and the obs sampler can race
    /// freely and each still sees the full window. Only the explicit
    /// taker starts a new window.
    queue_hwm: AtomicU64,
    /// Answers currently held in RAM by this shard's answer log (the
    /// post-checkpoint suffix under a pruning retention policy, the whole
    /// campaign otherwise). Exposed as `crowd_shard_resident_answers`.
    resident_answers: AtomicU64,
    /// Answers truncated from the in-memory prefix by checkpoint pruning
    /// (spilled to the on-disk tier when one is configured). Exposed as
    /// `crowd_shard_pruned_answers`; `resident + pruned` is the full
    /// stream length.
    pruned_answers: AtomicU64,
}

impl ShardMetrics {
    /// Fresh counters with the shard's full budget slice remaining.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        let m = Self::default();
        m.budget_remaining.store(budget as u64, Ordering::Relaxed);
        m.budget_slice.store(budget as u64, Ordering::Relaxed);
        m
    }

    /// Records an accepted answer and whether it triggered a delayed full
    /// EM rebuild.
    pub fn record_submit(&self, triggered_full_em: bool) {
        self.submits.fetch_add(1, Ordering::Relaxed);
        if triggered_full_em {
            self.em_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a served task request and the number of pairs it issued.
    pub fn record_request(&self, assigned: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.assigned.fetch_add(assigned as u64, Ordering::Relaxed);
    }

    /// Records a rejected command (validation failure, foreign task, …).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed gossip round (one publish + fold cycle) and how
    /// many peer deltas it actually absorbed. Resets the lag baseline.
    pub fn record_gossip_round(&self, folded: usize) {
        self.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        self.gossip_folds
            .fetch_add(folded as u64, Ordering::Relaxed);
        self.last_gossip_at
            .store(self.submits.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Seeds the gossip counters from a replayed event stream (snapshot
    /// restore): `rounds` fold-applying rounds and `folds` absorbed
    /// deltas, with the lag baseline at `last_position` submits — so a
    /// freshly restored service does not report a spurious full-history
    /// gossip lag. Publish-only rounds are not persisted, so the restored
    /// round count is a lower bound on the original's.
    pub fn seed_gossip(&self, rounds: u64, folds: u64, last_position: u64) {
        self.gossip_rounds.store(rounds, Ordering::Relaxed);
        self.gossip_folds.store(folds, Ordering::Relaxed);
        self.last_gossip_at.store(last_position, Ordering::Relaxed);
    }

    /// Seeds the submit-side counters for answers that were bulk-loaded
    /// rather than replayed (v3 restore-from-parameters): `submits`
    /// answers before the checkpoint and the `em_rebuilds` the original
    /// deterministically triggered over that prefix.
    pub fn seed_submits(&self, submits: u64, em_rebuilds: u64) {
        self.submits.store(submits, Ordering::Relaxed);
        self.em_rebuilds.store(em_rebuilds, Ordering::Relaxed);
    }

    /// Refreshes the recorded-event-count mirror (see the field docs on
    /// why operators watch this).
    pub fn set_events_len(&self, len: u64) {
        self.events_len.store(len, Ordering::Relaxed);
    }

    /// The recorded-event-count mirror, without the snapshot side
    /// effects (the self-sampler polls this; a full
    /// [`ShardMetrics::snapshot`] would reset the high-water mark).
    #[must_use]
    pub fn events_len(&self) -> u64 {
        self.events_len.load(Ordering::Relaxed)
    }

    /// Folds an observed ingestion-queue depth into the high-water mark
    /// (called from the enqueue path, after the command lands).
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_hwm.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Takes the queue high-water mark and starts a new window. This is
    /// the **only** reset path: exposition and the sampler read the mark
    /// through [`ShardMetrics::snapshot`] without consuming it, so
    /// concurrent readers cannot clobber each other's window.
    pub fn take_queue_hwm(&self) -> u64 {
        self.queue_hwm.swap(0, Ordering::Relaxed)
    }

    /// Refreshes the resident/pruned answer-count gauges (updated under
    /// the shard lock after every applied answer and after each prune).
    pub fn set_answer_tiers(&self, resident: usize, pruned: usize) {
        self.resident_answers
            .store(resident as u64, Ordering::Relaxed);
        self.pruned_answers.store(pruned as u64, Ordering::Relaxed);
    }

    /// Refreshes the lock-free budget mirror after a charge. Values above
    /// the shard's slice are clamped on read, never believed.
    pub fn set_budget_remaining(&self, remaining: usize) {
        self.budget_remaining
            .store(remaining as u64, Ordering::Relaxed);
    }

    /// Refreshes the budget-slice ceiling after a handoff or rebalance
    /// moves budget between shards (always followed by a
    /// [`ShardMetrics::set_budget_remaining`] call with the authoritative
    /// remaining value).
    pub fn set_budget_slice(&self, slice: usize) {
        self.budget_slice.store(slice as u64, Ordering::Relaxed);
    }

    /// (worker, task) pairs issued by this shard so far — the raw demand
    /// signal the budget rebalancer weighs shards by.
    #[must_use]
    pub fn assigned(&self) -> u64 {
        self.assigned.load(Ordering::Relaxed)
    }

    /// The mirrored remaining budget (may lag the authoritative value by
    /// one in-flight request), clamped to the shard's budget slice.
    ///
    /// The clamp is load-bearing: request routing sends roaming workers to
    /// the shard advertising the most remaining budget, so a corrupted
    /// mirror (or a `u64` that does not fit this platform's `usize`) must
    /// saturate at the true slice rather than at `usize::MAX` — the latter
    /// would permanently advertise the broken shard as the fattest one and
    /// attract all traffic to it.
    #[must_use]
    pub fn budget_remaining(&self) -> usize {
        let slice = self.budget_slice.load(Ordering::Relaxed);
        let raw = self.budget_remaining.load(Ordering::Relaxed).min(slice);
        // `slice` was stored from a `usize`, so after the clamp the
        // conversion cannot fail; saturate anyway rather than panic.
        usize::try_from(raw).unwrap_or(usize::MAX)
    }

    /// Snapshots the counters. The shard's ingestion queue belongs to the
    /// service, not to these counters, so the caller supplies its current
    /// `queue_depth` and this method records it alongside. Reading a
    /// snapshot has **no side effects** — in particular the queue
    /// high-water mark is *not* reset (it used to be, which let a JSON
    /// poll, a Prometheus scrape and the obs sampler silently steal each
    /// other's burst window); call [`ShardMetrics::take_queue_hwm`] to
    /// close a window explicitly.
    #[must_use]
    pub fn snapshot(&self, shard: usize, queue_depth: usize) -> ShardMetricsSnapshot {
        let submits = self.submits.load(Ordering::Relaxed);
        ShardMetricsSnapshot {
            queue_hwm: self.queue_hwm.load(Ordering::Relaxed),
            shard,
            submits,
            requests: self.requests.load(Ordering::Relaxed),
            assigned: self.assigned.load(Ordering::Relaxed),
            em_rebuilds: self.em_rebuilds.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            budget_slice: self.budget_slice.load(Ordering::Relaxed),
            budget_remaining: self.budget_remaining.load(Ordering::Relaxed),
            gossip_rounds: self.gossip_rounds.load(Ordering::Relaxed),
            gossip_folds: self.gossip_folds.load(Ordering::Relaxed),
            gossip_lag: submits.saturating_sub(self.last_gossip_at.load(Ordering::Relaxed)),
            events_len: self.events_len.load(Ordering::Relaxed),
            queue_depth,
            resident_answers: self.resident_answers.load(Ordering::Relaxed),
            pruned_answers: self.pruned_answers.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMetricsSnapshot {
    /// Shard id.
    pub shard: usize,
    /// Answers accepted.
    pub submits: u64,
    /// Task requests served.
    pub requests: u64,
    /// (worker, task) pairs issued.
    pub assigned: u64,
    /// Delayed full-EM rebuilds triggered.
    pub em_rebuilds: u64,
    /// Commands rejected.
    pub rejected: u64,
    /// The shard's budget slice (moves under handoff and rebalance).
    pub budget_slice: u64,
    /// Mirrored remaining budget.
    pub budget_remaining: u64,
    /// Completed gossip rounds (publish + fold cycles).
    pub gossip_rounds: u64,
    /// Peer deltas actually absorbed across all gossip rounds.
    pub gossip_folds: u64,
    /// Answers applied since the last completed gossip round — how stale
    /// this shard's view of its peers' worker statistics is, in submits.
    pub gossip_lag: u64,
    /// Recorded out-of-stream model events (peer folds + hardening
    /// sweeps) held by this shard. Grows roughly as
    /// `submits / gossip_every × (n_shards − 1)` plus one per hardening
    /// sweep; snapshot format v3 keeps the *serialised* cost of this list
    /// small (events are `(source, version)` references into a deduplicated
    /// delta table), and the `snapshot_delta` / `compact` workflow bounds
    /// what each incremental snapshot re-ships.
    pub events_len: u64,
    /// Commands waiting in this shard's ingestion queue at snapshot time.
    pub queue_depth: usize,
    /// Deepest the queue has been in the current high-water window
    /// (snapshots never reset it; only
    /// [`ShardMetrics::take_queue_hwm`] closes a window).
    pub queue_hwm: u64,
    /// Answers currently resident in RAM on this shard (the
    /// post-checkpoint suffix when checkpoint pruning is on).
    pub resident_answers: u64,
    /// Answers truncated from the in-memory prefix by checkpoint pruning;
    /// `resident_answers + pruned_answers` is the full stream length.
    pub pruned_answers: u64,
}

/// A point-in-time view of the whole service.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardMetricsSnapshot>,
    /// Commands currently waiting in the ingestion queue.
    pub queue_depth: usize,
    /// Commands accepted into the queue since startup.
    pub enqueued: u64,
    /// Commands fully applied since startup.
    pub processed: u64,
    /// Byte length of the most recent snapshot document rendered through
    /// [`LabellingService::snapshot_json`](crate::LabellingService::snapshot_json)
    /// (0 until one is taken). Together with the per-shard
    /// [`ShardMetricsSnapshot::events_len`] this lets operators watch the
    /// v3 delta-deduplicated format and the `compact()` workflow keep
    /// persisted state bounded.
    pub snapshot_bytes: u64,
    /// Commands whose routed shard no longer owned their task when they
    /// drained (a split/merge republished the map while they were in
    /// flight) and that were re-resolved against the newer map version.
    /// A steadily-rising value under a static map indicates a bug.
    pub rerouted: u64,
    /// Version of the shard map commands are currently routed under
    /// (starts at 1; each split/merge/handoff publishes version + 1).
    pub map_version: u64,
    /// Wall-clock time since the service started.
    pub uptime: Duration,
}

impl ServiceMetrics {
    /// Total accepted answers across shards.
    #[must_use]
    pub fn total_submits(&self) -> u64 {
        self.shards.iter().map(|s| s.submits).sum()
    }

    /// Total issued (worker, task) pairs across shards.
    #[must_use]
    pub fn total_assigned(&self) -> u64 {
        self.shards.iter().map(|s| s.assigned).sum()
    }

    /// Mean accepted answers per second of uptime.
    #[must_use]
    pub fn submits_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                self.total_submits() as f64 / secs
            }
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ShardMetrics::with_budget(10);
        m.record_submit(false);
        m.record_submit(true);
        m.record_request(4);
        m.record_rejected();
        m.set_budget_remaining(6);
        m.record_gossip_round(3);
        m.set_events_len(4);
        m.note_queue_depth(7);
        m.note_queue_depth(3); // below the mark: no effect
        let s = m.snapshot(3, 2);
        assert_eq!(s.shard, 3);
        assert_eq!(s.submits, 2);
        assert_eq!(s.em_rebuilds, 1);
        assert_eq!(s.requests, 1);
        assert_eq!(s.assigned, 4);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.budget_remaining, 6);
        assert_eq!(s.gossip_rounds, 1);
        assert_eq!(s.gossip_folds, 3);
        assert_eq!(s.gossip_lag, 0, "round just completed");
        assert_eq!(s.events_len, 4);
        assert_eq!(m.events_len(), 4);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_hwm, 7);
        assert_eq!(m.budget_remaining(), 6);
        // Lag grows with submits applied after the round.
        m.record_submit(false);
        let s2 = m.snapshot(3, 0);
        assert_eq!(s2.gossip_lag, 1);
        // Snapshots are side-effect free: the high-water mark survives
        // repeated read-outs until explicitly taken.
        assert_eq!(s2.queue_hwm, 7);
        assert_eq!(m.take_queue_hwm(), 7);
        assert_eq!(m.snapshot(3, 0).queue_hwm, 0);
    }

    #[test]
    fn two_readers_both_see_the_full_hwm_window() {
        // Regression: snapshot() used to swap the high-water mark to 0,
        // so a JSON /metrics poll racing a Prometheus scrape (and the obs
        // sampler thread) each saw only part of the burst window. Both
        // readers must now observe the same mark; only the explicit taker
        // starts a new window.
        let m = ShardMetrics::with_budget(10);
        m.note_queue_depth(9);
        let json_reader = m.snapshot(0, 0);
        let prom_reader = m.snapshot(0, 0);
        assert_eq!(json_reader.queue_hwm, 9);
        assert_eq!(
            prom_reader.queue_hwm, 9,
            "second reader must not find a clobbered mark"
        );
        // A deeper burst keeps folding into the same window.
        m.note_queue_depth(11);
        assert_eq!(m.snapshot(0, 0).queue_hwm, 11);
        // The taker closes the window exactly once.
        assert_eq!(m.take_queue_hwm(), 11);
        assert_eq!(m.take_queue_hwm(), 0);
        assert_eq!(m.snapshot(0, 0).queue_hwm, 0);
    }

    #[test]
    fn answer_tier_gauges_track_resident_and_pruned() {
        let m = ShardMetrics::with_budget(10);
        let s = m.snapshot(0, 0);
        assert_eq!((s.resident_answers, s.pruned_answers), (0, 0));
        m.set_answer_tiers(120, 0);
        let s = m.snapshot(0, 0);
        assert_eq!((s.resident_answers, s.pruned_answers), (120, 0));
        m.set_answer_tiers(20, 100);
        let s = m.snapshot(0, 0);
        assert_eq!((s.resident_answers, s.pruned_answers), (20, 100));
    }

    #[test]
    fn budget_mirror_clamps_to_the_slice() {
        let m = ShardMetrics::with_budget(10);
        assert_eq!(m.budget_remaining(), 10);
        // A corrupted mirror can never advertise more than the slice.
        m.set_budget_remaining(usize::MAX);
        assert_eq!(m.budget_remaining(), 10);
        m.set_budget_remaining(3);
        assert_eq!(m.budget_remaining(), 3);
        m.set_budget_remaining(0);
        assert_eq!(m.budget_remaining(), 0);
    }

    #[test]
    fn service_rollups() {
        let a = ShardMetrics::with_budget(5);
        a.record_submit(false);
        a.record_request(2);
        let b = ShardMetrics::with_budget(5);
        b.record_submit(false);
        b.record_submit(false);
        let metrics = ServiceMetrics {
            shards: vec![a.snapshot(0, 0), b.snapshot(1, 0)],
            queue_depth: 0,
            enqueued: 5,
            processed: 5,
            snapshot_bytes: 0,
            rerouted: 0,
            map_version: 1,
            uptime: Duration::from_secs(2),
        };
        assert_eq!(metrics.total_submits(), 3);
        assert_eq!(metrics.total_assigned(), 2);
        assert!((metrics.submits_per_sec() - 1.5).abs() < 1e-12);
    }
}
