//! Batch EM parameter estimation (Section III-C of the paper) and the
//! sufficient statistics shared with the incremental variant.
//!
//! Two implementations of the same plain EM map live here:
//!
//! * [`run_em`] / [`run_em_from`] / [`run_em_geometry`] /
//!   [`run_em_geometry_pooled`] — the production path: per-answer terms
//!   come from an [`AnswerGeometry`] cache built once at submit time, and
//!   the per-bit posterior uses the prepared factorised form
//!   ([`factored_prepared`]) with all dot products hoisted to answer
//!   level. Bit-identical to the naive path (the hoisted expressions are
//!   the same arithmetic), just without the recomputation.
//! * [`run_em_naive`] / [`run_em_from_naive`] — the straightforward
//!   per-bit [`factored`] sweep, kept as the reference implementation, the
//!   equivalence-test oracle and the benchmark baseline.
//!
//! # Accelerated iteration
//!
//! Both iterate their map through one loop, `squarem`: SQUAREM's
//! SqS3 extrapolation (Varadhan & Roland 2008) of the worker qualities and
//! distance mixtures, with a log-likelihood guard that falls back to plain
//! steps. The online estimator's full, pooled and frozen-baseline rebuilds
//! use the same loop, so every path converges in the same number of
//! E-steps for the same map (dirty-set rebuilds iterate their partial map
//! plain). [`em_step`] exposes one plain step for tests that reason about
//! the map itself.

use crate::model::geometry::AnswerGeometry;
use crate::model::gossip::{PeerStats, WorkerStatDelta};
use crate::model::posterior::{
    factored, factored_prepared, AnswerTerms, Posterior, PosteriorInputs,
};
use crate::model::{InitStrategy, ModelParams};
use crate::prob;
use crate::{AnswerLog, DistanceFunctionSet, TaskId, TaskSet, WorkerId};

/// Configuration of the EM estimator.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EmConfig {
    /// Weight α of the worker's distance-aware quality versus the POI
    /// influence in Equation 8. The paper sets `α = 0.5`.
    pub alpha: f64,
    /// Convergence threshold on the maximum parameter change between
    /// iterations. The paper's experiments use `0.005` (Figure 10).
    pub tolerance: f64,
    /// Hard cap on EM iterations.
    pub max_iterations: usize,
    /// How `P(z)` is seeded.
    pub init: InitStrategy,
    /// The distance-function set `F`.
    pub fset: DistanceFunctionSet,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            tolerance: 0.005,
            max_iterations: 100,
            init: InitStrategy::default(),
            fset: DistanceFunctionSet::paper_default(),
        }
    }
}

/// Diagnostics of one EM run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EmReport {
    /// Number of iterations performed: E-steps, each a plain step of the
    /// EM map (the stabilising steps of `squarem` included).
    pub iterations: usize,
    /// Whether a plain step's residual reached the tolerance before
    /// `max_iterations`.
    pub converged: bool,
    /// Whether every E-step swept the whole answer log. `false` marks a
    /// dirty-set run (see [`UpdatePolicy`](crate::UpdatePolicy)) that only
    /// re-swept answers touching dirty tasks/workers.
    pub full_sweep: bool,
    /// Answers visited per E-step iteration: the log size for full sweeps,
    /// the dirty-set size for dirty runs.
    pub answers_swept: usize,
    /// Maximum absolute parameter change `‖F(x) − x‖∞` of each E-step —
    /// the series plotted in Figure 10 ("maximum variance of parameters").
    /// Not monotone under SQUAREM: the step after a jump can move further
    /// than the plain step before it.
    pub max_delta_history: Vec<f64>,
    /// Data log-likelihood `Σ ln P(r)` computed during each E-step — over
    /// the swept answers only on dirty runs.
    pub log_likelihood_history: Vec<f64>,
}

/// Per-parameter accumulators for the M-step (Equation 14).
///
/// The M-step sets every parameter to the mean of the corresponding marginal
/// posterior over the answers that touch it:
///
/// * `P(z_{t,k})` — mean over the `|W(t)|` answers on label `(t, k)`;
/// * `P(i_w)`, `P(d_w)` — mean over the `Σ_{t∈T(w)} |L_t|` answer bits by `w`;
/// * `P(d_t)` — mean over the `|W(t)|·|L_t|` answer bits on `t`.
///
/// (The paper's printed denominator for `P(d_t)` is a worker-side copy;
/// see DESIGN.md §6.1 for why the task-side denominator is the correct one.)
///
/// The incremental EM (Section III-D) reuses these accumulators: a new
/// answer's posterior is *added* and only the affected parameters recomputed.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SufficientStats {
    n_funcs: usize,
    /// Σ `P(z=1|r)` per flat label slot.
    z_sum: Vec<f64>,
    /// Number of answers per task (`|W(t)|`).
    task_answers: Vec<u32>,
    /// Σ `P(i=1|r)` per worker.
    i_sum: Vec<f64>,
    /// Number of answer bits per worker (`Σ_{t∈T(w)} |L_t|`).
    worker_bits: Vec<u32>,
    /// Σ `P(dw=j|r)` per worker × function.
    dw_sum: Vec<f64>,
    /// Σ `P(dt=j|r)` per task × function.
    dt_sum: Vec<f64>,
}

impl SufficientStats {
    /// Zeroed accumulators for the given shapes.
    #[must_use]
    pub fn new(tasks: &TaskSet, n_workers: usize, n_funcs: usize) -> Self {
        Self {
            n_funcs,
            z_sum: vec![0.0; tasks.total_labels()],
            task_answers: vec![0; tasks.len()],
            i_sum: vec![0.0; n_workers],
            worker_bits: vec![0; n_workers],
            dw_sum: vec![0.0; n_workers * n_funcs],
            dt_sum: vec![0.0; tasks.len() * n_funcs],
        }
    }

    /// Resets all accumulators to zero.
    pub fn clear(&mut self) {
        self.z_sum.fill(0.0);
        self.task_answers.fill(0);
        self.i_sum.fill(0.0);
        self.worker_bits.fill(0);
        self.dw_sum.fill(0.0);
        self.dt_sum.fill(0.0);
    }

    /// Grows the worker-side accumulators for newly registered workers.
    pub fn ensure_workers(&mut self, n_workers: usize) {
        if n_workers * self.n_funcs > self.dw_sum.len() {
            self.i_sum.resize(n_workers, 0.0);
            self.worker_bits.resize(n_workers, 0);
            self.dw_sum.resize(n_workers * self.n_funcs, 0.0);
        }
    }

    /// Marks one answer (all of its label bits will follow via
    /// [`SufficientStats::add_label_bit`]).
    pub fn add_answer(&mut self, task: TaskId, worker: WorkerId, n_labels: usize) {
        self.task_answers[task.index()] += 1;
        self.worker_bits[worker.index()] += n_labels as u32;
    }

    /// Accumulates the posterior of one answer bit.
    pub fn add_label_bit(
        &mut self,
        slot: usize,
        task: TaskId,
        worker: WorkerId,
        posterior: &Posterior,
    ) {
        self.z_sum[slot] += posterior.z1;
        self.i_sum[worker.index()] += posterior.i1;
        let wb = worker.index() * self.n_funcs;
        let tb = task.index() * self.n_funcs;
        for j in 0..self.n_funcs {
            self.dw_sum[wb + j] += posterior.dw[j];
            self.dt_sum[tb + j] += posterior.dt[j];
        }
    }

    /// Removes one answer's previously accumulated posterior contribution
    /// (all of its label bits at once), leaving the answer *counts*
    /// untouched — the answer is still in the log, only its posterior is
    /// about to be recomputed.
    ///
    /// `z1[k]` must be the total `P(z=1|r)` that was added to slot
    /// `base + k`; `i1`, `dw` and `dt` the per-answer sums over bits. The
    /// dirty-set EM uses this to re-sweep an answer in place: subtract the
    /// cached contribution, recompute under current parameters, re-add.
    #[allow(clippy::too_many_arguments)]
    pub fn sub_answer_contrib(
        &mut self,
        base: usize,
        task: TaskId,
        worker: WorkerId,
        z1: &[f64],
        i1: f64,
        dw: &[f64],
        dt: &[f64],
    ) {
        for (k, &z) in z1.iter().enumerate() {
            self.z_sum[base + k] -= z;
        }
        self.i_sum[worker.index()] -= i1;
        let wb = worker.index() * self.n_funcs;
        let tb = task.index() * self.n_funcs;
        for j in 0..self.n_funcs {
            self.dw_sum[wb + j] -= dw[j];
            self.dt_sum[tb + j] -= dt[j];
        }
    }

    /// Writes the task-side parameters of `t` (its `P(z)` row and `P(d_t)`
    /// mixture) from the accumulators. No-op when the task has no answers.
    pub fn apply_task(&self, params: &mut ModelParams, tasks: &TaskSet, t: TaskId) {
        let n_answers = self.task_answers[t.index()];
        if n_answers == 0 {
            return;
        }
        let base = tasks.label_offset(t);
        let n_labels = tasks.n_labels(t);
        for k in 0..n_labels {
            params.set_z_slot(base + k, self.z_sum[base + k] / f64::from(n_answers));
        }
        let denom = f64::from(n_answers) * n_labels as f64;
        if denom > 0.0 {
            let tb = t.index() * self.n_funcs;
            let dst = params.dt_mut(t);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = self.dt_sum[tb + j] / denom;
            }
            prob::normalize_simplex(dst);
        }
    }

    /// Writes the worker-side parameters of `w` (`P(i_w)` and the `P(d_w)`
    /// mixture). No-op when the worker has no answers.
    pub fn apply_worker(&self, params: &mut ModelParams, w: WorkerId) {
        self.apply_worker_pooled(params, w, PeerStats::empty_ref());
    }

    /// The pooled worker M-step: `P(i_w)` and `P(d_w)` from this
    /// framework's own accumulators *plus* the peer aggregate, divided by
    /// the pooled bit count. With an empty peer table this is bit-identical
    /// to [`SufficientStats::apply_worker`] (the peer terms add exact
    /// zeros); with gossip data it is exactly the M-step a single
    /// framework holding the union of the answers would perform, modulo
    /// floating-point summation order. No-op when nobody (local or peer)
    /// has bits for the worker.
    pub fn apply_worker_pooled(&self, params: &mut ModelParams, w: WorkerId, peers: &PeerStats) {
        let own_bits = self.worker_bits.get(w.index()).copied().unwrap_or(0);
        let bits = u64::from(own_bits) + peers.bits(w.index());
        if bits == 0 {
            return;
        }
        #[allow(clippy::cast_precision_loss)] // bit counts stay far below 2^53
        let denom = bits as f64;
        let own_i = self.i_sum.get(w.index()).copied().unwrap_or(0.0);
        params.set_inherent(w, (own_i + peers.i_sum(w.index())) / denom);
        let wb = w.index() * self.n_funcs;
        let peer_dw = peers.dw_sum(w.index());
        let dst = params.dw_mut(w);
        for (j, d) in dst.iter_mut().enumerate() {
            let own = self.dw_sum.get(wb + j).copied().unwrap_or(0.0);
            *d = (own + peer_dw.get(j).copied().unwrap_or(0.0)) / denom;
        }
        prob::normalize_simplex(dst);
    }

    /// Full M-step: writes every parameter with a non-zero denominator.
    pub fn apply_all(&self, params: &mut ModelParams, tasks: &TaskSet) {
        self.apply_all_pooled(params, tasks, PeerStats::empty_ref());
    }

    /// Full M-step with the worker side pooled against `peers` — covers
    /// every worker either side knows about (a worker with only remote
    /// answers still gets a pooled quality estimate, which the assigner
    /// reads).
    pub fn apply_all_pooled(&self, params: &mut ModelParams, tasks: &TaskSet, peers: &PeerStats) {
        for t in tasks.ids() {
            self.apply_task(params, tasks, t);
        }
        for w in 0..self.i_sum.len().max(peers.n_workers()) {
            self.apply_worker_pooled(params, WorkerId::from_index(w), peers);
        }
    }

    /// Extracts the worker-side accumulators as a publishable
    /// [`WorkerStatDelta`] stamped `(source, version)`. The caller is
    /// responsible for version monotonicity (instances stamp their answer
    /// count, which only grows).
    #[must_use]
    pub fn worker_delta(&self, source: u64, version: u64) -> WorkerStatDelta {
        WorkerStatDelta {
            source,
            version,
            n_funcs: self.n_funcs,
            i_sum: self.i_sum.clone(),
            worker_bits: self.worker_bits.clone(),
            dw_sum: self.dw_sum.clone(),
        }
    }

    /// `|W(t)|` as accumulated.
    #[must_use]
    pub fn task_answer_count(&self, t: TaskId) -> u32 {
        self.task_answers[t.index()]
    }

    /// Number of distance functions the accumulators are shaped for.
    #[must_use]
    pub fn n_funcs(&self) -> usize {
        self.n_funcs
    }

    /// Σ `P(z=1|r)` per flat label slot.
    #[must_use]
    pub fn z_sum(&self) -> &[f64] {
        &self.z_sum
    }

    /// Answers per task.
    #[must_use]
    pub fn task_answers(&self) -> &[u32] {
        &self.task_answers
    }

    /// Σ `P(i=1|r)` per worker.
    #[must_use]
    pub fn i_sum(&self) -> &[f64] {
        &self.i_sum
    }

    /// Answer bits per worker.
    #[must_use]
    pub fn worker_bits(&self) -> &[u32] {
        &self.worker_bits
    }

    /// Σ `P(dw=j|r)` per worker × function.
    #[must_use]
    pub fn dw_sum(&self) -> &[f64] {
        &self.dw_sum
    }

    /// Σ `P(dt=j|r)` per task × function.
    #[must_use]
    pub fn dt_sum(&self) -> &[f64] {
        &self.dt_sum
    }

    /// Rebuilds accumulators from persisted parts (a pruned shard's frozen
    /// baseline coming out of a snapshot). Returns `None` when the shapes
    /// are inconsistent with each other.
    #[must_use]
    #[allow(clippy::similar_names)]
    pub fn from_parts(
        n_funcs: usize,
        z_sum: Vec<f64>,
        task_answers: Vec<u32>,
        i_sum: Vec<f64>,
        worker_bits: Vec<u32>,
        dw_sum: Vec<f64>,
        dt_sum: Vec<f64>,
    ) -> Option<Self> {
        if n_funcs == 0
            || worker_bits.len() != i_sum.len()
            || dw_sum.len() != i_sum.len() * n_funcs
            || dt_sum.len() != task_answers.len() * n_funcs
        {
            return None;
        }
        Some(Self {
            n_funcs,
            z_sum,
            task_answers,
            i_sum,
            worker_bits,
            dw_sum,
            dt_sum,
        })
    }
}

/// Precomputed per-answer distance-function values: `fvals(i)[j] =
/// f_λj(d_i)` for answer stream position `i`.
///
/// EM evaluates these for every answer in every iteration; hoisting the
/// `exp` calls out of the loop is the single biggest win in the hot path.
#[derive(Debug, Clone)]
pub struct FvalTable {
    n_funcs: usize,
    values: Vec<f64>,
}

impl FvalTable {
    /// Builds the table for every answer currently in `log`.
    #[must_use]
    pub fn build(log: &AnswerLog, fset: &DistanceFunctionSet) -> Self {
        let n_funcs = fset.len();
        let mut values = Vec::with_capacity(log.len() * n_funcs);
        for answer in log.answers() {
            for f in fset.functions() {
                values.push(f.eval(answer.distance));
            }
        }
        Self { n_funcs, values }
    }

    /// Function values for answer stream position `i`.
    #[must_use]
    pub fn fvals(&self, i: usize) -> &[f64] {
        &self.values[i * self.n_funcs..(i + 1) * self.n_funcs]
    }

    /// Number of answers covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.n_funcs).unwrap_or(0)
    }

    /// `true` when no answers are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

fn empty_report(log: &AnswerLog) -> EmReport {
    EmReport {
        iterations: 0,
        converged: false,
        full_sweep: true,
        answers_swept: log.len(),
        max_delta_history: Vec::new(),
        log_likelihood_history: Vec::new(),
    }
}

/// Runs batch EM to convergence (or `max_iterations`) on the fast
/// (geometry-cached) path.
///
/// Returns the estimated parameters and per-iteration diagnostics. With an
/// empty answer log the parameters stay at their initialisation and the
/// report shows zero iterations.
#[must_use]
pub fn run_em(tasks: &TaskSet, log: &AnswerLog, config: &EmConfig) -> (ModelParams, EmReport) {
    let n_workers = log.n_workers();
    let mut params = ModelParams::init(tasks, n_workers, config.fset.len(), config.init, log);
    let report = run_em_from(tasks, log, config, &mut params);
    (params, report)
}

/// Runs batch EM starting from (and updating) existing parameters, building
/// the answer-geometry cache on the fly.
///
/// Used by the delayed full-EM policy of the incremental estimator, which
/// warm-starts from the online parameters. Callers that already maintain an
/// [`AnswerGeometry`] should use [`run_em_geometry`] and skip the rebuild.
pub fn run_em_from(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
    params: &mut ModelParams,
) -> EmReport {
    if log.is_empty() {
        let mut report = empty_report(log);
        report.converged = true;
        return report;
    }
    let geometry = AnswerGeometry::build(tasks, log, &config.fset);
    run_em_geometry(tasks, log, &geometry, config, params)
}

/// Runs batch EM from existing parameters using a prebuilt answer-geometry
/// cache — the hot path shared with [`OnlineModel`](crate::OnlineModel).
///
/// Produces bit-identical results to [`run_em_from_naive`]: the per-answer
/// terms are the same arithmetic, hoisted out of the per-bit loop, and
/// both run through the same `squarem` loop.
///
/// # Panics
/// Panics if `geometry` does not cover exactly the answers of `log`.
pub fn run_em_geometry(
    tasks: &TaskSet,
    log: &AnswerLog,
    geometry: &AnswerGeometry,
    config: &EmConfig,
    params: &mut ModelParams,
) -> EmReport {
    run_em_geometry_pooled(
        tasks,
        log,
        geometry,
        config,
        params,
        PeerStats::empty_ref(),
        None,
    )
}

/// [`run_em_geometry`] with the worker M-step pooled against `peers` —
/// the rebuild path of a gossiping instance — and, optionally, seeded
/// from a frozen baseline. With an empty peer table and no baseline the
/// two are bit-identical.
///
/// With `baseline = Some(b)` each E-step starts from a *clone* of `b`
/// instead of zeroed accumulators, so answers whose payloads were pruned
/// from `log` still contribute their checkpointed posteriors to every
/// M-step. This is the full-sweep path of a pruned shard: the baseline is
/// the sufficient statistics captured at the pruning checkpoint (whose
/// posteriors were computed under the checkpoint parameters), and only the
/// retained suffix is re-swept under current parameters — the same
/// approximation class as a dirty-set run.
///
/// # Panics
/// Panics if `geometry` does not cover exactly the answers of `log`, or if
/// a provided `baseline` was accumulated for a different function count.
pub fn run_em_geometry_pooled(
    tasks: &TaskSet,
    log: &AnswerLog,
    geometry: &AnswerGeometry,
    config: &EmConfig,
    params: &mut ModelParams,
    peers: &PeerStats,
    baseline: Option<&SufficientStats>,
) -> EmReport {
    let mut step = CachedStep::new(tasks, log, geometry, config, peers, baseline);
    if log.is_empty() {
        let mut report = empty_report(log);
        report.converged = true;
        return report;
    }
    params.ensure_workers(step.n_workers);
    EmReport {
        answers_swept: log.len(),
        ..squarem(config, params, |p| step.run(p))
    }
}

/// One plain E+M step `x ← F(x)` on the geometry-cached path, with the
/// worker M-step pooled against `peers`: the map every EM run iterates
/// (and `squarem` extrapolates). Returns the data log-likelihood
/// `Σ ln P(r)` under the parameters the step started from.
///
/// # Panics
/// Panics if `geometry` does not cover exactly the answers of `log`.
pub fn em_step(
    tasks: &TaskSet,
    log: &AnswerLog,
    geometry: &AnswerGeometry,
    config: &EmConfig,
    params: &mut ModelParams,
    peers: &PeerStats,
) -> f64 {
    let mut step = CachedStep::new(tasks, log, geometry, config, peers, None);
    params.ensure_workers(step.n_workers);
    step.run(params)
}

/// The plain EM map on the geometry-cached path, with its accumulators
/// allocated once and reused across iterations.
struct CachedStep<'a> {
    tasks: &'a TaskSet,
    log: &'a AnswerLog,
    geometry: &'a AnswerGeometry,
    config: &'a EmConfig,
    peers: &'a PeerStats,
    baseline: Option<&'a SufficientStats>,
    n_workers: usize,
    stats: SufficientStats,
    scratch: Posterior,
    terms: AnswerTerms,
}

impl<'a> CachedStep<'a> {
    fn new(
        tasks: &'a TaskSet,
        log: &'a AnswerLog,
        geometry: &'a AnswerGeometry,
        config: &'a EmConfig,
        peers: &'a PeerStats,
        baseline: Option<&'a SufficientStats>,
    ) -> Self {
        assert_eq!(
            geometry.len(),
            log.len(),
            "geometry cache out of sync with the answer log"
        );
        if let Some(b) = baseline {
            assert_eq!(
                b.n_funcs,
                config.fset.len(),
                "frozen baseline shaped for a different function set"
            );
        }
        let n_workers = log.n_workers().max(peers.n_workers());
        let n_funcs = config.fset.len();
        Self {
            tasks,
            log,
            geometry,
            config,
            peers,
            baseline,
            n_workers,
            stats: SufficientStats::new(tasks, n_workers, n_funcs),
            scratch: Posterior::zeros(n_funcs),
            terms: AnswerTerms::zeros(n_funcs),
        }
    }

    fn run(&mut self, params: &mut ModelParams) -> f64 {
        match self.baseline {
            Some(b) => {
                self.stats.clone_from(b);
                self.stats.ensure_workers(self.n_workers);
            }
            None => self.stats.clear(),
        }
        let log_likelihood = estep_full(
            self.log,
            self.geometry,
            self.config,
            params,
            &mut self.stats,
            &mut self.terms,
            &mut self.scratch,
        );
        // M-step (worker side pooled with whatever the peers contributed).
        self.stats.apply_all_pooled(params, self.tasks, self.peers);
        debug_assert!(params.check_invariants());
        log_likelihood
    }
}

/// One full E-step over every answer bit on the geometry-cached path,
/// accumulating into `stats` (which the caller has cleared). Returns the
/// data log-likelihood `Σ ln P(r)`.
fn estep_full(
    log: &AnswerLog,
    geometry: &AnswerGeometry,
    config: &EmConfig,
    params: &ModelParams,
    stats: &mut SufficientStats,
    terms: &mut AnswerTerms,
    scratch: &mut Posterior,
) -> f64 {
    let mut log_likelihood = 0.0;
    for (i, answer) in log.answers().iter().enumerate() {
        let base = geometry.base(i);
        stats.add_answer(answer.task, answer.worker, answer.bits.len());
        let pdw = params.dw(answer.worker);
        let pdt = params.dt(answer.task);
        terms.prepare(pdw, pdt, geometry.fvals(i), config.alpha);
        let pi1 = params.inherent(answer.worker);
        for (k, r) in answer.bits.iter().enumerate() {
            factored_prepared(terms, pdw, pdt, params.z_slot(base + k), pi1, r, scratch);
            log_likelihood += scratch.likelihood.max(prob::EPS).ln();
            stats.add_label_bit(base + k, answer.task, answer.worker, scratch);
        }
    }
    log_likelihood
}

/// Iterates the plain EM map `step` (`x ← F(x)`, returning the
/// log-likelihood of the `x` it started from) to convergence or
/// `config.max_iterations`, accelerated by SQUAREM's SqS3 scheme
/// (Varadhan & Roland 2008).
///
/// Each cycle takes two plain steps `x0 → x1 → x2`, sets
/// `r = x1 − x0`, `v = x2 − 2·x1 + x0` and the step length
/// `α = −‖r‖/‖v‖` over the extrapolated parameters, jumps to
/// `x0 − 2αr + α²v` (see [`ModelParams::squarem_extrapolate`]) and takes
/// one plain stabilising step from there. When the extrapolated point's
/// log-likelihood is non-finite or below that of `x1` — the last plain
/// iterate whose log-likelihood is known — the jump is discarded and a
/// plain step from `x2` is taken instead. `α ≥ −1` is at most the plain
/// double step, so no jump is taken then.
///
/// Only `P(i_w)`, `P(d_w)` and `P(d_t)` are extrapolated; `P(z)` takes
/// the plain double step (see [`ModelParams::squarem_extrapolate`]). A
/// jump that would leave the open domain — any extrapolated
/// probability or mixture weight outside `(0, 1)` — is
/// backtracked towards the plain double step, `α ← (α − 1)/2`, until it
/// stays inside (SQUAREM's rule for infeasible points). Projecting such a
/// jump onto the boundary instead parks weights and qualities at `EPS` or
/// `1 − EPS`, where EM's multiplicative updates barely move them again;
/// on sparse sharded campaigns that cost about a point of accuracy.
///
/// Accounting: every call of `step` is one iteration against
/// `max_iterations` and pushes one entry onto each history (its residual
/// `‖F(x) − x‖∞` and log-likelihood). Convergence is only declared on a
/// plain-step residual at or below `config.tolerance`, so `converged`
/// keeps the meaning it has for un-accelerated EM. A jump is only tried
/// when at least two iterations remain, so a rejected jump can always
/// fall back. The returned report has `full_sweep` set and
/// `answers_swept = 0`; the caller fills those in.
pub(crate) fn squarem<F>(config: &EmConfig, params: &mut ModelParams, mut step: F) -> EmReport
where
    F: FnMut(&mut ModelParams) -> f64,
{
    let mut report = EmReport {
        iterations: 0,
        converged: false,
        full_sweep: true,
        answers_swept: 0,
        max_delta_history: Vec::new(),
        log_likelihood_history: Vec::new(),
    };
    let mut previous = params.clone();
    // One recorded plain step; returns its log-likelihood and residual.
    let mut take = |params: &mut ModelParams, report: &mut EmReport| {
        previous.clone_from(params);
        let log_likelihood = step(params);
        let delta = params.max_abs_diff(&previous);
        report.iterations += 1;
        report.max_delta_history.push(delta);
        report.log_likelihood_history.push(log_likelihood);
        (log_likelihood, delta)
    };
    let remaining = |report: &EmReport| config.max_iterations.saturating_sub(report.iterations);
    let (mut x0, mut x1, mut x2) = (params.clone(), params.clone(), params.clone());
    report.converged = loop {
        if remaining(&report) == 0 {
            break false;
        }
        x0.clone_from(params);
        if take(params, &mut report).1 <= config.tolerance {
            break true;
        }
        if remaining(&report) == 0 {
            break false;
        }
        x1.clone_from(params);
        let (ll1, delta) = take(params, &mut report);
        if delta <= config.tolerance {
            break true;
        }
        if remaining(&report) < 2 {
            continue;
        }
        let Some(alpha) = jump_length(&x0, &x1, params) else {
            continue;
        };
        x2.clone_from(params);
        params.squarem_extrapolate(&x0, &x1, &x2, alpha);
        let (ll, mut delta) = take(params, &mut report);
        if !ll.is_finite() || ll < ll1 {
            params.clone_from(&x2);
            delta = take(params, &mut report).1;
        }
        if delta <= config.tolerance {
            break true;
        }
    };
    report
}

/// Most halvings of `α + 1` before a jump that keeps leaving the domain
/// is given up for the plain double step.
const MAX_BACKTRACKS: usize = 30;

/// The SqS3 step length `α = −‖r‖/‖v‖` for the iterates `x0 → x1 → x2`,
/// backtracked towards `−1` until the jump stays inside the domain, or
/// `None` when no jump beyond the plain double step is possible.
fn jump_length(x0: &ModelParams, x1: &ModelParams, x2: &ModelParams) -> Option<f64> {
    let (r2, v2) = ModelParams::squarem_norms(x0, x1, x2);
    let mut alpha = -(r2 / v2).sqrt();
    if alpha.is_nan() {
        return None;
    }
    for _ in 0..MAX_BACKTRACKS {
        if alpha >= -1.0 {
            return None;
        }
        if ModelParams::squarem_jump_in_domain(x0, x1, x2, alpha) {
            return Some(alpha);
        }
        alpha = (alpha - 1.0) / 2.0;
    }
    None
}

/// Runs batch EM on the straightforward per-bit path — the reference
/// implementation the optimized path is property-tested against, and the
/// baseline the `em` bench compares to.
#[must_use]
pub fn run_em_naive(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
) -> (ModelParams, EmReport) {
    let n_workers = log.n_workers();
    let mut params = ModelParams::init(tasks, n_workers, config.fset.len(), config.init, log);
    let report = run_em_from_naive(tasks, log, config, &mut params);
    (params, report)
}

/// Runs the reference batch EM starting from (and updating) existing
/// parameters: per-iteration [`FvalTable`] lookups, per-bit [`factored`]
/// calls, no hoisting, through the same `squarem` loop as the cached
/// path. Kept as the oracle for the cached path.
pub fn run_em_from_naive(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
    params: &mut ModelParams,
) -> EmReport {
    let mut report = empty_report(log);
    if log.is_empty() {
        report.converged = true;
        return report;
    }
    params.ensure_workers(log.n_workers());

    let fvals = FvalTable::build(log, &config.fset);
    let mut stats = SufficientStats::new(tasks, log.n_workers(), config.fset.len());
    let mut scratch = Posterior::zeros(config.fset.len());
    let step = |params: &mut ModelParams| {
        stats.clear();
        let mut log_likelihood = 0.0;

        // E-step over every answer bit.
        for (i, answer) in log.answers().iter().enumerate() {
            let base = tasks.label_offset(answer.task);
            stats.add_answer(answer.task, answer.worker, answer.bits.len());
            for (k, r) in answer.bits.iter().enumerate() {
                let inputs = PosteriorInputs {
                    pz1: params.z_slot(base + k),
                    pi1: params.inherent(answer.worker),
                    pdw: params.dw(answer.worker),
                    pdt: params.dt(answer.task),
                    fvals: fvals.fvals(i),
                    alpha: config.alpha,
                    r,
                };
                factored(&inputs, &mut scratch);
                log_likelihood += scratch.likelihood.max(prob::EPS).ln();
                stats.add_label_bit(base + k, answer.task, answer.worker, &scratch);
            }
        }

        // M-step.
        stats.apply_all(params, tasks);
        debug_assert!(params.check_invariants());
        log_likelihood
    };
    EmReport {
        answers_swept: log.len(),
        ..squarem(config, params, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::synthetic_task;
    use crate::{Answer, LabelBits};
    use crowd_geo::Point;

    /// Two tasks, three workers: w0 and w1 agree (and answer truthfully),
    /// w2 contradicts them everywhere.
    fn conflict_world() -> (TaskSet, AnswerLog) {
        let tasks = TaskSet::new(vec![
            synthetic_task("a", Point::new(0.0, 0.0), 4),
            synthetic_task("b", Point::new(1.0, 0.0), 4),
        ]);
        let truth_a = LabelBits::from_slice(&[true, true, false, false]);
        let truth_b = LabelBits::from_slice(&[true, false, true, false]);
        let flip = |b: &LabelBits| LabelBits::from_slice(&b.iter().map(|x| !x).collect::<Vec<_>>());
        let mut log = AnswerLog::new(tasks.len(), 3);
        for (w, dist) in [(0u32, 0.05), (1u32, 0.1)] {
            log.push(
                &tasks,
                Answer {
                    worker: WorkerId(w),
                    task: TaskId(0),
                    bits: truth_a,
                    distance: dist,
                },
            )
            .unwrap();
            log.push(
                &tasks,
                Answer {
                    worker: WorkerId(w),
                    task: TaskId(1),
                    bits: truth_b,
                    distance: dist,
                },
            )
            .unwrap();
        }
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(2),
                task: TaskId(0),
                bits: flip(&truth_a),
                distance: 0.05,
            },
        )
        .unwrap();
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(2),
                task: TaskId(1),
                bits: flip(&truth_b),
                distance: 0.05,
            },
        )
        .unwrap();
        (tasks, log)
    }

    #[test]
    fn em_converges_and_reports_history() {
        let (tasks, log) = conflict_world();
        let config = EmConfig::default();
        let (params, report) = run_em(&tasks, &log, &config);
        assert!(report.converged, "history {:?}", report.max_delta_history);
        assert_eq!(report.iterations, report.max_delta_history.len());
        assert!(params.check_invariants());
        // Deltas shrink overall (allow local wiggles, require final below
        // tolerance).
        assert!(*report.max_delta_history.last().unwrap() <= config.tolerance);
    }

    #[test]
    fn em_separates_majority_from_dissenter() {
        let (tasks, log) = conflict_world();
        let (params, _) = run_em(&tasks, &log, &EmConfig::default());
        let q_majority = params
            .inherent(WorkerId(0))
            .min(params.inherent(WorkerId(1)));
        let q_dissenter = params.inherent(WorkerId(2));
        assert!(
            q_majority > q_dissenter,
            "majority {q_majority} vs dissenter {q_dissenter}"
        );
        // Inferred labels follow the majority.
        let base = tasks.label_offset(TaskId(0));
        assert!(params.z_slot(base) > 0.5);
        assert!(params.z_slot(base + 2) < 0.5);
    }

    #[test]
    fn em_log_likelihood_is_non_decreasing_in_practice() {
        // Eq. 14's averaging M-step is the paper's heuristic; on this
        // well-behaved instance the likelihood should still improve from
        // first to last iteration.
        let (tasks, log) = conflict_world();
        let (_, report) = run_em(&tasks, &log, &EmConfig::default());
        let first = report.log_likelihood_history.first().unwrap();
        let last = report.log_likelihood_history.last().unwrap();
        assert!(last >= first, "{first} -> {last}");
    }

    #[test]
    fn empty_log_returns_initial_params() {
        let tasks = TaskSet::new(vec![synthetic_task("a", Point::ORIGIN, 3)]);
        let log = AnswerLog::new(tasks.len(), 2);
        let (params, report) = run_em(&tasks, &log, &EmConfig::default());
        assert_eq!(report.iterations, 0);
        assert!(report.converged);
        assert!(params.z().iter().all(|&z| z == 0.5));
    }

    #[test]
    fn max_iterations_respected() {
        let (tasks, log) = conflict_world();
        let config = EmConfig {
            tolerance: 0.0, // unreachable
            max_iterations: 3,
            ..EmConfig::default()
        };
        let (_, report) = run_em(&tasks, &log, &config);
        assert_eq!(report.iterations, 3);
        assert!(!report.converged);
    }

    /// A linear contraction `z ← z + (target − z)/2` on every slot: plain
    /// iteration needs ~30 steps to reach 1e-9; one SqS3 jump lands on the
    /// fixed point.
    /// A linear map halving each worker quality's distance to `target`;
    /// returns minus the squared distance it started from.
    fn contraction(target: f64) -> impl FnMut(&mut ModelParams) -> f64 {
        move |p: &mut ModelParams| {
            let mut sq = 0.0;
            for w in 0..p.n_workers() {
                let w = WorkerId::from_index(w);
                let q = p.inherent(w);
                sq += (q - target) * (q - target);
                p.set_inherent(w, q + (target - q) / 2.0);
            }
            -sq
        }
    }

    #[test]
    fn squarem_jumps_to_the_fixed_point_of_a_linear_map() {
        let (tasks, log) = conflict_world();
        let config = EmConfig {
            tolerance: 1e-9,
            ..EmConfig::default()
        };
        let mut params = ModelParams::init(&tasks, 3, 3, InitStrategy::Uniform, &log);
        let report = squarem(&config, &mut params, contraction(0.9));
        assert!(report.converged);
        assert!(report.iterations < 12, "{} E-steps", report.iterations);
        assert_eq!(report.iterations, report.max_delta_history.len());
        assert!(params
            .inherent_all()
            .iter()
            .all(|&q| (q - 0.9).abs() < 1e-9));
    }

    #[test]
    fn squarem_backtracks_jumps_that_leave_the_domain() {
        // One quality moving 0.5 → 0.6 → 0.75: α = −‖r‖/‖v‖ = −2 would
        // jump to 1.1, outside the domain; one halving towards −1 gives
        // α = −1.5 and a jump to 0.9125.
        let (tasks, log) = conflict_world();
        let x0 = ModelParams::init(&tasks, 3, 3, InitStrategy::Uniform, &log);
        let (mut x1, mut x2) = (x0.clone(), x0.clone());
        let w = WorkerId(0);
        let mut start = x0.clone();
        start.set_inherent(w, 0.5);
        x1.set_inherent(w, 0.6);
        x2.set_inherent(w, 0.75);
        let alpha = jump_length(&start, &x1, &x2).expect("a jump");
        assert!((alpha + 1.5).abs() < 1e-9, "α = {alpha}");
        let mut jumped = x2.clone();
        jumped.squarem_extrapolate(&start, &x1, &x2, alpha);
        assert!((jumped.inherent(w) - 0.9125).abs() < 1e-12);
        assert_eq!(jumped.inherent(WorkerId(1)), x2.inherent(WorkerId(1)));
    }

    #[test]
    fn squarem_falls_back_when_the_likelihood_drops() {
        // A step whose log-likelihood falls on every call makes every jump
        // look bad: each is discarded for a plain step from x2, so the run
        // is the plain iteration plus one wasted E-step per cycle.
        let (tasks, log) = conflict_world();
        let config = EmConfig {
            tolerance: 1e-9,
            ..EmConfig::default()
        };
        let mut params = ModelParams::init(&tasks, 3, 3, InitStrategy::Uniform, &log);
        let mut inner = contraction(0.9);
        let mut calls = 0.0;
        let report = squarem(&config, &mut params, |p| {
            calls += 1.0;
            inner(p);
            -calls
        });
        assert!(report.converged);
        assert!(report.iterations > 30, "{} E-steps", report.iterations);
        assert_eq!(report.log_likelihood_history.len(), report.iterations);
        assert!(params
            .inherent_all()
            .iter()
            .all(|&q| (q - 0.9).abs() < 1e-9));
    }

    #[test]
    fn cached_path_is_bit_identical_to_naive() {
        let (tasks, log) = conflict_world();
        let config = EmConfig::default();
        let (fast, fast_report) = run_em(&tasks, &log, &config);
        let (naive, naive_report) = run_em_naive(&tasks, &log, &config);
        assert_eq!(fast, naive, "hoisting must not change a single bit");
        assert_eq!(fast_report, naive_report);
        assert!(fast_report.full_sweep);
        assert_eq!(fast_report.answers_swept, log.len());
    }

    #[test]
    fn sub_answer_contrib_round_trips() {
        let (tasks, log) = conflict_world();
        let config = EmConfig::default();
        let params = ModelParams::init(&tasks, log.n_workers(), 3, InitStrategy::Uniform, &log);
        let mut stats = SufficientStats::new(&tasks, log.n_workers(), 3);
        let mut scratch = Posterior::zeros(3);
        let fvals = FvalTable::build(&log, &config.fset);
        // Accumulate everything, remembering answer 0's contribution.
        let mut z1 = Vec::new();
        let mut i1 = 0.0;
        let mut dw = vec![0.0; 3];
        let mut dt = vec![0.0; 3];
        for (i, answer) in log.answers().iter().enumerate() {
            let base = tasks.label_offset(answer.task);
            stats.add_answer(answer.task, answer.worker, answer.bits.len());
            for (k, r) in answer.bits.iter().enumerate() {
                let inputs = PosteriorInputs {
                    pz1: params.z_slot(base + k),
                    pi1: params.inherent(answer.worker),
                    pdw: params.dw(answer.worker),
                    pdt: params.dt(answer.task),
                    fvals: fvals.fvals(i),
                    alpha: config.alpha,
                    r,
                };
                factored(&inputs, &mut scratch);
                stats.add_label_bit(base + k, answer.task, answer.worker, &scratch);
                if i == 0 {
                    z1.push(scratch.z1);
                    i1 += scratch.i1;
                    for j in 0..3 {
                        dw[j] += scratch.dw[j];
                        dt[j] += scratch.dt[j];
                    }
                }
            }
        }
        // Subtracting answer 0 then re-adding it restores the sums.
        let reference = stats.clone();
        let a0 = log.answers()[0];
        let base = tasks.label_offset(a0.task);
        stats.sub_answer_contrib(base, a0.task, a0.worker, &z1, i1, &dw, &dt);
        assert_ne!(stats, reference);
        for (k, &z) in z1.iter().enumerate() {
            stats.z_sum[base + k] += z;
        }
        stats.i_sum[a0.worker.index()] += i1;
        for j in 0..3 {
            stats.dw_sum[a0.worker.index() * 3 + j] += dw[j];
            stats.dt_sum[a0.task.index() * 3 + j] += dt[j];
        }
        for (a, b) in stats.z_sum.iter().zip(&reference.z_sum) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in stats.dw_sum.iter().zip(&reference.dw_sum) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fval_table_matches_direct_evaluation() {
        let (_, log) = conflict_world();
        let fset = DistanceFunctionSet::paper_default();
        let table = FvalTable::build(&log, &fset);
        assert_eq!(table.len(), log.len());
        for (i, answer) in log.answers().iter().enumerate() {
            assert_eq!(table.fvals(i), fset.values(answer.distance).as_slice());
        }
    }

    #[test]
    fn uniform_and_vote_share_init_agree_on_decisions() {
        let (tasks, log) = conflict_world();
        let mut config = EmConfig::default();
        let (p1, _) = run_em(&tasks, &log, &config);
        config.init = InitStrategy::Uniform;
        let (p2, _) = run_em(&tasks, &log, &config);
        for slot in 0..tasks.total_labels() {
            assert_eq!(
                p1.z_slot(slot) >= 0.5,
                p2.z_slot(slot) >= 0.5,
                "slot {slot}: {} vs {}",
                p1.z_slot(slot),
                p2.z_slot(slot)
            );
        }
    }
}
