//! Equivalence of the optimized inference hot path with the naive
//! reference path.
//!
//! The optimized path is the answer-geometry cache + prepared posterior
//! terms ([`run_em`]) and, online, the dirty-set estimator with its
//! exact-equivalence escape hatch (`UpdatePolicy::exact`: every delayed
//! rebuild is a full sweep). Both must reproduce the naive per-bit
//! implementation within `1e-12` on arbitrary logs — in fact bit for bit,
//! since the hoisted expressions are the same arithmetic iterated by the
//! same SQUAREM loop.
//!
//! The SQUAREM loop itself is checked against a plain EM loop: both, run to a
//! tight tolerance, must reach the same fixed point of the EM map.

use crowd_core::model::{
    em_step, factored, run_em, run_em_from_naive, run_em_naive, AnswerGeometry, EmConfig, EmReport,
    InitStrategy, ModelParams, OnlineModel, PeerStats, Posterior, PosteriorInputs, SufficientStats,
    UpdatePolicy,
};
use crowd_core::{
    synthetic_task, Answer, AnswerLog, LabelBits, TaskId, TaskSet, Worker, WorkerId, WorkerPool,
};
use crowd_geo::Point;
use proptest::prelude::*;

fn build_world(
    n_tasks: usize,
    n_workers: usize,
    n_labels: usize,
    answers: &[(u32, u32, u16, f64)],
) -> (TaskSet, AnswerLog, Vec<Answer>) {
    let tasks = TaskSet::new(
        (0..n_tasks)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 5) as f64, (i / 5) as f64),
                    n_labels,
                )
            })
            .collect(),
    );
    let _workers = WorkerPool::from_workers(
        (0..n_workers)
            .map(|i| Worker::at(format!("w{i}"), Point::new(i as f64 * 0.7, 2.0)))
            .collect(),
    )
    .expect("workers have locations");
    let mut log = AnswerLog::new(tasks.len(), n_workers);
    let mut stream = Vec::new();
    for &(w, t, bit_seed, dist) in answers {
        let w = w % n_workers as u32;
        let t = t % n_tasks as u32;
        if log.has_answered(WorkerId(w), TaskId(t)) {
            continue;
        }
        let bits = LabelBits::from_slice(
            &(0..n_labels)
                .map(|k| (bit_seed >> (k % 16)) & 1 == 1)
                .collect::<Vec<_>>(),
        );
        let answer = Answer {
            worker: WorkerId(w),
            task: TaskId(t),
            bits,
            distance: dist,
        };
        log.push(&tasks, answer).expect("valid answer");
        stream.push(answer);
    }
    (tasks, log, stream)
}

/// A line-for-line replica of the pre-optimization online estimator,
/// built from the public naive primitives: per-bit [`factored`] absorption
/// and a warm-started [`run_em_from_naive`] rebuild with a stats rebuild
/// under the final parameters.
struct NaiveMirror {
    config: EmConfig,
    every: usize,
    params: ModelParams,
    stats: SufficientStats,
    scratch: Posterior,
    absorbed: usize,
}

impl NaiveMirror {
    fn new(tasks: &TaskSet, log: &AnswerLog, config: EmConfig, every: usize) -> Self {
        let n_funcs = config.fset.len();
        Self {
            every,
            params: ModelParams::init(tasks, log.n_workers(), n_funcs, config.init, log),
            stats: SufficientStats::new(tasks, log.n_workers(), n_funcs),
            scratch: Posterior::zeros(n_funcs),
            config,
            absorbed: 0,
        }
    }

    fn accumulate(&mut self, tasks: &TaskSet, answer: &Answer) {
        let fvals = self.config.fset.values(answer.distance);
        let base = tasks.label_offset(answer.task);
        self.stats
            .add_answer(answer.task, answer.worker, answer.bits.len());
        for (k, r) in answer.bits.iter().enumerate() {
            let inputs = PosteriorInputs {
                pz1: self.params.z_slot(base + k),
                pi1: self.params.inherent(answer.worker),
                pdw: self.params.dw(answer.worker),
                pdt: self.params.dt(answer.task),
                fvals: &fvals,
                alpha: self.config.alpha,
                r,
            };
            factored(&inputs, &mut self.scratch);
            self.stats
                .add_label_bit(base + k, answer.task, answer.worker, &self.scratch);
        }
    }

    fn on_submit(&mut self, tasks: &TaskSet, log: &AnswerLog, answer: &Answer) {
        self.params.ensure_workers(answer.worker.index() + 1);
        self.stats.ensure_workers(answer.worker.index() + 1);
        self.accumulate(tasks, answer);
        self.stats.apply_task(&mut self.params, tasks, answer.task);
        self.stats.apply_worker(&mut self.params, answer.worker);
        self.absorbed += 1;
        if self.absorbed >= self.every {
            self.params.ensure_workers(log.n_workers());
            run_em_from_naive(tasks, log, &self.config, &mut self.params);
            // Rebuild the statistics under the final parameters, exactly
            // like the estimator does after a full sweep.
            self.stats.ensure_workers(log.n_workers());
            self.stats.clear();
            for a in log.answers().to_vec() {
                self.accumulate(tasks, &a);
            }
            self.absorbed = 0;
        }
    }
}

/// Asserts two EM runs are the same run: identical parameters and
/// identical per-iteration residual and log-likelihood series, bit for bit.
fn assert_same_run(a: &ModelParams, ra: &EmReport, b: &ModelParams, rb: &EmReport) {
    assert_eq!(a, b, "parameters diverged");
    assert_eq!(ra.iterations, rb.iterations);
    assert_eq!(ra.converged, rb.converged);
    assert_eq!(ra.answers_swept, rb.answers_swept);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&ra.log_likelihood_history),
        bits(&rb.log_likelihood_history),
        "log-likelihood series diverged"
    );
    assert_eq!(
        bits(&ra.max_delta_history),
        bits(&rb.max_delta_history),
        "residual series diverged"
    );
}

/// Test-support plain EM: iterates the un-accelerated map [`em_step`]
/// from `params` until the residual `‖F(x) − x‖∞` reaches
/// `config.tolerance` (returning `true`) or `config.max_iterations` steps
/// have run (returning `false`).
fn plain_em_from(
    tasks: &TaskSet,
    log: &AnswerLog,
    config: &EmConfig,
    mut params: ModelParams,
) -> (ModelParams, bool) {
    let geometry = AnswerGeometry::build(tasks, log, &config.fset);
    let mut previous = params.clone();
    for _ in 0..config.max_iterations {
        previous.clone_from(&params);
        em_step(
            tasks,
            log,
            &geometry,
            config,
            &mut params,
            &PeerStats::new(),
        );
        if params.max_abs_diff(&previous) <= config.tolerance {
            return (params, true);
        }
    }
    (params, false)
}

#[test]
fn em_handles_degenerate_logs() {
    // Empty log, one answer, and logs too short for a full SQUAREM cycle:
    // the cached path and the naive oracle are still the same run.
    let cases: &[&[(u32, u32, u16, f64)]] = &[
        &[],
        &[(0, 0, 0b101, 0.3)],
        &[(0, 0, 1, 0.1), (1, 1, 2, 0.5), (2, 2, 3, 0.9)],
        &[
            (0, 0, 1, 0.1),
            (1, 1, 2, 0.2),
            (2, 2, 3, 0.3),
            (0, 1, 4, 0.4),
            (1, 2, 5, 0.5),
            (2, 0, 6, 0.6),
            (0, 2, 7, 0.7),
        ],
    ];
    for max_iterations in [1, 2, 3, 4, 8] {
        let config = EmConfig {
            max_iterations,
            ..EmConfig::default()
        };
        for answers in cases {
            let (tasks, log, _) = build_world(3, 3, 3, answers);
            let (fast, fast_report) = run_em(&tasks, &log, &config);
            let (naive, naive_report) = run_em_naive(&tasks, &log, &config);
            assert_same_run(&fast, &fast_report, &naive, &naive_report);
            assert!(fast_report.iterations <= max_iterations);
            assert_eq!(fast_report.iterations, fast_report.max_delta_history.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance gate: the geometry-cached batch EM equals the naive
    /// batch EM within 1e-12 on random logs (it is in fact bit-identical).
    #[test]
    fn optimized_batch_em_matches_naive_within_1e12(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        n_labels in 1usize..5,
        vote_share in any::<bool>(),
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..40,
        ),
    ) {
        let (tasks, log, _) = build_world(n_tasks, n_workers, n_labels, &answers);
        let config = EmConfig {
            max_iterations: 12,
            init: if vote_share { InitStrategy::VoteShare } else { InitStrategy::Uniform },
            ..EmConfig::default()
        };
        let (fast, fast_report) = run_em(&tasks, &log, &config);
        let (naive_params, naive_report) = run_em_naive(&tasks, &log, &config);
        prop_assert!(fast.max_abs_diff(&naive_params) <= 1e-12,
            "optimized batch EM drifted from the naive path");
        prop_assert_eq!(fast_report.iterations, naive_report.iterations);
        prop_assert_eq!(fast_report.converged, naive_report.converged);
    }

    /// Acceptance gate: the online estimator under the exact escape hatch
    /// (geometry cache + dirty-set machinery with `full_sweep_every = 1`)
    /// equals a naive-primitive mirror of the original estimator within
    /// 1e-12 across random streams and rebuild cadences.
    #[test]
    fn online_exact_policy_matches_naive_mirror_within_1e12(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        n_labels in 1usize..4,
        every in 2usize..9,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..40,
        ),
    ) {
        let (tasks, full_log, stream) = build_world(n_tasks, n_workers, n_labels, &answers);
        let config = EmConfig { max_iterations: 12, ..EmConfig::default() };
        let empty = AnswerLog::new(tasks.len(), full_log.n_workers());
        let mut optimized = OnlineModel::new(
            &tasks,
            &empty,
            config.clone(),
            UpdatePolicy::exact(Some(every)),
        );
        let mut mirror = NaiveMirror::new(&tasks, &empty, config, every);

        let mut replay = AnswerLog::new(tasks.len(), full_log.n_workers());
        for answer in &stream {
            replay.push(&tasks, *answer).expect("replaying a valid stream");
            optimized.on_submit(&tasks, &replay, answer);
            mirror.on_submit(&tasks, &replay, answer);
            prop_assert!(
                optimized.params().max_abs_diff(&mirror.params) <= 1e-12,
                "optimized online path drifted from the naive mirror"
            );
        }
        // The hardening full sweep stays equivalent too.
        optimized.full_sweep(&tasks, &replay);
        run_em_from_naive(&tasks, &replay, &mirror.config, &mut mirror.params);
        prop_assert!(optimized.params().max_abs_diff(&mirror.params) <= 1e-12);
    }

    /// SQUAREM changes how fast EM reaches a fixed point, not which one:
    /// run from the same initialisation to a residual of 1e-8 (or 20 000
    /// E-steps), SQUAREM and a plain loop over the same map would reach
    /// the same decisions wherever both converge, and parameters within
    /// 1e-4. Decisions within 1e-3 of the 0.5 threshold are ties.
    ///
    /// Known not to hold, hence ignored: this model's fixed points are not
    /// isolated (`P(d_w)` and `P(d_t)` lie on likelihood ridges for
    /// workers and tasks with few answers), so the two schemes settle at
    /// different points of a ridge or in different basins. Over 600
    /// random worlds both converged in 534; the parameters ended more
    /// than 1e-4 apart in 192 of those and a decision differed in 5.
    /// [`squarem_and_plain_em_agree_on_almost_every_decision`] bounds the
    /// decision part.
    #[test]
    #[ignore = "known not to hold: SQUAREM and plain EM stop at different points of a likelihood ridge"]
    fn squarem_and_plain_em_reach_the_same_fixed_point(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        n_labels in 1usize..5,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..40,
        ),
    ) {
        let (tasks, log, _) = build_world(n_tasks, n_workers, n_labels, &answers);
        let Some((fast, plain)) = both_to_fixed_points(&tasks, &log) else {
            return Ok(());
        };
        prop_assert_eq!(decision_disagreements(&tasks, &fast, &plain), 0);
        prop_assert!(fast.max_abs_diff(&plain) <= 1e-4,
            "SQUAREM and plain EM stopped {} apart", fast.max_abs_diff(&plain));
    }
}

/// SQUAREM and a plain loop over the same map, both from the shared
/// initialisation and run to a residual of 1e-8 (or 20 000 E-steps);
/// `None` unless both converge. Near a ridge or a bound the map converges
/// sublinearly and either scheme can stall above 1e-8.
fn both_to_fixed_points(tasks: &TaskSet, log: &AnswerLog) -> Option<(ModelParams, ModelParams)> {
    let config = EmConfig {
        tolerance: 1e-8,
        max_iterations: 20_000,
        ..EmConfig::default()
    };
    let init = ModelParams::init(tasks, log.n_workers(), config.fset.len(), config.init, log);
    let (fast, report) = run_em(tasks, log, &config);
    let (plain, plain_converged) = plain_em_from(tasks, log, &config, init);
    (report.converged && plain_converged).then_some((fast, plain))
}

/// Label slots whose decision differs between `a` and `b`, ignoring ties
/// within 1e-3 of the 0.5 threshold on either side.
fn decision_disagreements(tasks: &TaskSet, a: &ModelParams, b: &ModelParams) -> usize {
    (0..tasks.total_labels())
        .filter(|&slot| {
            let (p, q) = (a.z_slot(slot), b.z_slot(slot));
            (p - 0.5).abs() > 1e-3 && (q - 0.5).abs() > 1e-3 && (p > 0.5) != (q > 0.5)
        })
        .count()
}

/// The decision part of the ignored fixed-point property, as a bound over
/// a fixed set of 200 random worlds: SQUAREM and plain EM from the same
/// start disagree on a decision in at most 2 % of the worlds where both
/// converge (none of the 180 here; 5 of 534 over 600 proptest worlds).
#[test]
fn squarem_and_plain_em_agree_on_almost_every_decision() {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let (mut converged, mut disagreeing) = (0, 0);
    for _ in 0..200 {
        let (n_tasks, n_workers, n_labels) = (
            1 + next(5) as usize,
            1 + next(4) as usize,
            1 + next(4) as usize,
        );
        let answers: Vec<_> = (0..1 + next(39))
            .map(|_| {
                (
                    next(8) as u32,
                    next(12) as u32,
                    next(u64::from(u16::MAX)) as u16,
                    next(1 << 20) as f64 / f64::from(1u32 << 20),
                )
            })
            .collect();
        let (tasks, log, _) = build_world(n_tasks, n_workers, n_labels, &answers);
        if let Some((fast, plain)) = both_to_fixed_points(&tasks, &log) {
            converged += 1;
            if decision_disagreements(&tasks, &fast, &plain) > 0 {
                disagreeing += 1;
            }
        }
    }
    assert!(
        converged >= 150,
        "only {converged} of 200 worlds converged under both schemes"
    );
    assert!(
        disagreeing * 50 <= converged,
        "decisions differ in {disagreeing} of {converged} worlds"
    );
}
