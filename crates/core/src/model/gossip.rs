//! Cross-instance pooling of worker-side sufficient statistics.
//!
//! A sharded deployment runs one [`OnlineModel`](crate::OnlineModel) per
//! geographic region, so each instance estimates worker quality (`P(i_w)`,
//! `P(d_w)`) from only the answers *it* saw — but worker reliability is a
//! global property of the worker, not of a region. This module provides the
//! merge algebra that lets instances exchange their worker-side
//! accumulators and estimate quality from the pooled totals:
//!
//! * [`WorkerStatDelta`] — one instance's *cumulative* worker-side
//!   accumulators (`Σ P(i=1|r)`, answer-bit counts, `Σ P(d_w=j|r)`),
//!   stamped with a `source` id and a `version` that is strictly
//!   increasing per source (a per-instance publish counter; any scheme
//!   works as long as no two distinct payloads share a stamp);
//! * [`PeerStats`] — the fold target: at most one delta per source, newest
//!   version wins. Because deltas are cumulative and versions monotone,
//!   absorbing is a *join* in a lattice: **commutative**, **associative**
//!   and **idempotent** under re-delivery — the exchange layer may
//!   duplicate, reorder or redeliver deltas freely without corrupting the
//!   pooled estimate (`crates/core/tests/stat_merge.rs` property-tests all
//!   three laws and the fold-then-EM ≡ pooled-EM equivalence).
//!
//! The pooled M-step itself lives in
//! [`SufficientStats::apply_worker_pooled`](crate::model::SufficientStats::apply_worker_pooled):
//! own accumulators plus the [`PeerStats`] aggregate, divided by the pooled
//! bit count. Aggregates are recomputed from the per-source table in
//! ascending source order, so two tables holding the same set of deltas
//! produce bit-identical aggregates regardless of delivery order.

/// One instance's cumulative worker-side sufficient statistics, as
/// published to its peers.
///
/// All vectors are indexed by worker; `dw_sum` is worker-major with
/// `n_funcs` entries per worker. The payload is *cumulative* (totals since
/// the instance started), not an increment — which is what makes
/// re-delivery harmless: a peer that already folded version `v` simply
/// ignores anything with a version `≤ v` from the same source.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WorkerStatDelta {
    /// Who published this delta (shard / instance id). An instance must
    /// never fold its own source back in — that would double-count.
    pub source: u64,
    /// Strictly increasing per source — instances stamp a publish
    /// counter, so no two distinct payloads ever share a version (an
    /// instance's statistics can change without new answers, e.g. after a
    /// hardening sweep rebuilds them under new parameters). A
    /// higher version always carries a newer snapshot of the source's
    /// cumulative statistics.
    pub version: u64,
    /// Size of the distance-function set `|F|`.
    pub n_funcs: usize,
    /// `Σ P(i_w = 1 | r)` per worker.
    pub i_sum: Vec<f64>,
    /// Number of answer bits per worker (the M-step denominator).
    pub worker_bits: Vec<u32>,
    /// `Σ P(d_w = f_λj | r)` per worker × function, worker-major.
    pub dw_sum: Vec<f64>,
}

impl WorkerStatDelta {
    /// Number of workers the delta covers.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.worker_bits.len()
    }

    /// `true` when the delta carries no answer bits at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.worker_bits.iter().all(|&b| b == 0)
    }

    /// Internal shape consistency (vector lengths agree with `n_funcs`).
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        self.n_funcs > 0
            && self.i_sum.len() == self.worker_bits.len()
            && self.dw_sum.len() == self.worker_bits.len() * self.n_funcs
    }
}

/// The fold target of the gossip exchange: the newest
/// [`WorkerStatDelta`] per source, plus the aggregate the M-step reads.
///
/// Absorbing is a lattice join — per source, the higher version wins and
/// equal-or-lower versions are no-ops — so any interleaving of
/// [`PeerStats::absorb`] / [`PeerStats::merge`] calls that delivers the
/// same set of deltas yields the same table and (because the aggregate is
/// recomputed in ascending source order) bit-identical aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PeerStats {
    /// Newest delta per source, kept sorted by source id.
    sources: Vec<WorkerStatDelta>,
    /// Aggregate `Σ_sources i_sum`, per worker.
    agg_i: Vec<f64>,
    /// Aggregate bit counts, per worker (u64: sums of u32 counts).
    agg_bits: Vec<u64>,
    /// Aggregate `Σ_sources dw_sum`, per worker × function.
    agg_dw: Vec<f64>,
    /// `|F|` of the absorbed deltas (0 until the first absorb).
    n_funcs: usize,
}

impl PeerStats {
    /// An empty table (absorbs deltas of any `n_funcs`; the first absorb
    /// pins the arity).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared empty table for callers that need "no peers" semantics.
    #[must_use]
    pub fn empty_ref() -> &'static Self {
        static EMPTY: PeerStats = PeerStats {
            sources: Vec::new(),
            agg_i: Vec::new(),
            agg_bits: Vec::new(),
            agg_dw: Vec::new(),
            n_funcs: 0,
        };
        &EMPTY
    }

    /// `true` when no delta has been absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Number of distinct sources held.
    #[must_use]
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of workers the aggregate covers.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.agg_bits.len()
    }

    /// The newest absorbed version for `source`, if any.
    #[must_use]
    pub fn version_of(&self, source: u64) -> Option<u64> {
        self.sources
            .binary_search_by_key(&source, |d| d.source)
            .ok()
            .map(|i| self.sources[i].version)
    }

    /// The held deltas in ascending source order (snapshot/diagnostics).
    #[must_use]
    pub fn sources(&self) -> &[WorkerStatDelta] {
        &self.sources
    }

    /// Folds one delta in. Returns `true` when the table changed: the
    /// delta is well-formed, arity-compatible, and strictly newer than
    /// whatever this table already holds for its source. Re-delivering an
    /// already-absorbed (or older) delta is a no-op returning `false`.
    pub fn absorb(&mut self, delta: &WorkerStatDelta) -> bool {
        if self.join(delta) {
            self.rebuild_aggregate();
            true
        } else {
            false
        }
    }

    /// [`PeerStats::absorb`] for a whole gossip round: joins every delta
    /// into the table, then rebuilds the aggregate once (it is recomputed
    /// from the final table in source order either way, so the result is
    /// bit-identical to absorbing one by one). Returns, per input delta,
    /// whether it changed the table.
    pub fn absorb_batch(&mut self, deltas: &[WorkerStatDelta]) -> Vec<bool> {
        let absorbed: Vec<bool> = deltas.iter().map(|d| self.join(d)).collect();
        if absorbed.contains(&true) {
            self.rebuild_aggregate();
        }
        absorbed
    }

    /// Joins another table in (absorbs every held delta). Returns `true`
    /// when anything changed.
    pub fn merge(&mut self, other: &Self) -> bool {
        self.absorb_batch(&other.sources).contains(&true)
    }

    /// The table-only half of the join (no aggregate rebuild).
    fn join(&mut self, delta: &WorkerStatDelta) -> bool {
        if !delta.is_well_formed() || (self.n_funcs != 0 && delta.n_funcs != self.n_funcs) {
            // A malformed or arity-incompatible delta can only come from a
            // mis-wired exchange; dropping it keeps the join total and the
            // table consistent.
            return false;
        }
        match self
            .sources
            .binary_search_by_key(&delta.source, |d| d.source)
        {
            Ok(i) => {
                if self.sources[i].version >= delta.version {
                    return false;
                }
                self.sources[i] = delta.clone();
            }
            Err(i) => self.sources.insert(i, delta.clone()),
        }
        self.n_funcs = delta.n_funcs;
        true
    }

    /// Aggregate `Σ P(i=1|r)` for worker `w` across all sources.
    #[must_use]
    pub fn i_sum(&self, w: usize) -> f64 {
        self.agg_i.get(w).copied().unwrap_or(0.0)
    }

    /// Aggregate answer-bit count for worker `w` across all sources.
    #[must_use]
    pub fn bits(&self, w: usize) -> u64 {
        self.agg_bits.get(w).copied().unwrap_or(0)
    }

    /// Aggregate `Σ P(d_w=j|r)` row for worker `w` (empty when the table
    /// does not cover `w` — treat as zeros).
    #[must_use]
    pub fn dw_sum(&self, w: usize) -> &[f64] {
        let base = w * self.n_funcs;
        self.agg_dw.get(base..base + self.n_funcs).unwrap_or(&[])
    }

    /// Recomputes the aggregate in ascending source order so that equal
    /// tables always produce bit-identical aggregates.
    fn rebuild_aggregate(&mut self) {
        let n_workers = self
            .sources
            .iter()
            .map(WorkerStatDelta::n_workers)
            .max()
            .unwrap_or(0);
        self.agg_i.clear();
        self.agg_i.resize(n_workers, 0.0);
        self.agg_bits.clear();
        self.agg_bits.resize(n_workers, 0);
        self.agg_dw.clear();
        self.agg_dw.resize(n_workers * self.n_funcs, 0.0);
        for delta in &self.sources {
            for w in 0..delta.n_workers() {
                self.agg_i[w] += delta.i_sum[w];
                self.agg_bits[w] += u64::from(delta.worker_bits[w]);
                let src = w * self.n_funcs;
                let dst = w * self.n_funcs;
                for j in 0..self.n_funcs {
                    self.agg_dw[dst + j] += delta.dw_sum[src + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(source: u64, version: u64, seed: f64) -> WorkerStatDelta {
        WorkerStatDelta {
            source,
            version,
            n_funcs: 2,
            i_sum: vec![seed, seed * 2.0],
            worker_bits: vec![3, 5],
            dw_sum: vec![seed, 1.0 - seed, seed * 0.5, 1.0],
        }
    }

    #[test]
    fn absorb_replaces_only_newer_versions() {
        let mut peers = PeerStats::new();
        assert!(peers.absorb(&delta(7, 1, 0.25)));
        assert!(!peers.absorb(&delta(7, 1, 0.25)), "re-delivery is a no-op");
        assert!(!peers.absorb(&delta(7, 0, 0.75)), "stale versions ignored");
        assert!(peers.absorb(&delta(7, 2, 0.75)));
        assert_eq!(peers.version_of(7), Some(2));
        assert_eq!(peers.n_sources(), 1);
        assert!((peers.i_sum(0) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn aggregate_sums_across_sources() {
        let mut peers = PeerStats::new();
        peers.absorb(&delta(0, 1, 0.25));
        peers.absorb(&delta(1, 4, 0.5));
        assert_eq!(peers.n_workers(), 2);
        assert!((peers.i_sum(0) - 0.75).abs() < 1e-15);
        assert_eq!(peers.bits(1), 10);
        assert_eq!(peers.dw_sum(0), &[0.75, 1.25]);
        // Out of range reads as zero contribution.
        assert_eq!(peers.bits(9), 0);
        assert!(peers.dw_sum(9).is_empty());
    }

    #[test]
    fn merge_is_a_join() {
        let mut a = PeerStats::new();
        a.absorb(&delta(0, 1, 0.25));
        a.absorb(&delta(1, 1, 0.5));
        let mut b = PeerStats::new();
        b.absorb(&delta(1, 3, 0.75));
        b.absorb(&delta(2, 1, 0.1));
        let mut ab = a.clone();
        assert!(ab.merge(&b));
        let mut ba = b.clone();
        assert!(ba.merge(&a));
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.version_of(1), Some(3));
        let mut again = ab.clone();
        assert!(!again.merge(&b), "merging absorbed state changes nothing");
        assert_eq!(again, ab);
    }

    #[test]
    fn malformed_and_mismatched_deltas_are_rejected() {
        let mut peers = PeerStats::new();
        peers.absorb(&delta(0, 1, 0.5));
        let reference = peers.clone();
        let mut bad = delta(1, 1, 0.5);
        bad.n_funcs = 3; // dw_sum no longer matches
        assert!(!bad.is_well_formed());
        assert!(!peers.absorb(&bad));
        let mut short = delta(1, 1, 0.5);
        short.i_sum.pop();
        assert!(!short.is_well_formed());
        assert!(!peers.absorb(&short));
        // An arity-incompatible but internally consistent delta is also
        // dropped rather than corrupting the aggregate layout.
        let mut other_arity = delta(1, 1, 0.5);
        other_arity.n_funcs = 4;
        other_arity.dw_sum = vec![0.1; 8];
        assert!(other_arity.is_well_formed());
        assert!(!peers.absorb(&other_arity));
        assert_eq!(peers, reference);
    }

    #[test]
    fn empty_ref_reads_as_all_zero() {
        let empty = PeerStats::empty_ref();
        assert!(empty.is_empty());
        assert_eq!(empty.bits(0), 0);
        assert_eq!(empty.i_sum(3), 0.0);
        assert!(empty.dw_sum(0).is_empty());
    }
}
