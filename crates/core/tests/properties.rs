//! Property-based tests over the core model invariants:
//! distance functions, E-step posteriors, M-step simplexes, the Lemma 1/2
//! accuracy recursion, the equivalence of the two greedy inner loops, and
//! the equivalence of the cached (fvals-memo) accuracy and ACCOPT scoring
//! paths with re-evaluation.

use crowd_core::accuracy::{
    expected_accuracy_brute, AccuracyEstimator, GainSemantics, LabelAccuracy,
};
use crowd_core::model::{factored, naive, run_em, EmConfig, Posterior, PosteriorInputs};
use crowd_core::{
    synthetic_task, AccOptAssigner, Answer, AnswerLog, AssignContext, Assigner, BellShaped,
    DistanceFunctionSet, Distances, InitStrategy, InnerLoop, LabelBits, ModelParams,
    ReservationSet, TaskId, TaskSet, Worker, WorkerId, WorkerPool,
};
use crowd_geo::Point;
use proptest::prelude::*;

fn arb_prob() -> impl Strategy<Value = f64> {
    0.001f64..0.999
}

fn arb_simplex(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, n).prop_map(|mut v| {
        let sum: f64 = v.iter().sum();
        for x in &mut v {
            *x /= sum;
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bell_function_stays_in_half_one(lambda in 0.0f64..500.0, d in -0.5f64..1.5) {
        let v = BellShaped::new(lambda).eval(d);
        prop_assert!((0.5..=1.0).contains(&v));
    }

    #[test]
    fn bell_function_monotone_in_lambda_and_distance(
        l1 in 0.0f64..200.0,
        l2 in 0.0f64..200.0,
        d1 in 0.0f64..1.0,
        d2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        // Steeper decay → lower quality at any fixed distance.
        prop_assert!(BellShaped::new(hi).eval(near) <= BellShaped::new(lo).eval(near) + 1e-12);
        // Farther → lower quality for any fixed λ.
        prop_assert!(BellShaped::new(l1).eval(far) <= BellShaped::new(l1).eval(near) + 1e-12);
    }

    #[test]
    fn mixture_is_convex_combination(weights in arb_simplex(3), d in 0.0f64..1.0) {
        let fset = DistanceFunctionSet::paper_default();
        let vals = fset.values(d);
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mix = fset.mixture(&weights, d);
        prop_assert!(mix >= lo - 1e-12 && mix <= hi + 1e-12);
    }

    #[test]
    fn factored_posterior_equals_naive_enumeration(
        pz1 in arb_prob(),
        pi1 in arb_prob(),
        pdw in arb_simplex(3),
        pdt in arb_simplex(3),
        d in 0.0f64..1.0,
        alpha in 0.0f64..1.0,
        r in any::<bool>(),
    ) {
        let fset = DistanceFunctionSet::paper_default();
        let fvals = fset.values(d);
        let inputs = PosteriorInputs {
            pz1, pi1, pdw: &pdw, pdt: &pdt, fvals: &fvals, alpha, r,
        };
        let expected = naive(&inputs);
        let mut got = Posterior::zeros(3);
        factored(&inputs, &mut got);
        prop_assert!((got.z1 - expected.z1).abs() < 1e-10);
        prop_assert!((got.i1 - expected.i1).abs() < 1e-10);
        prop_assert!((got.likelihood - expected.likelihood).abs() < 1e-10);
        for j in 0..3 {
            prop_assert!((got.dw[j] - expected.dw[j]).abs() < 1e-10);
            prop_assert!((got.dt[j] - expected.dt[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn posterior_marginals_are_normalised(
        pz1 in arb_prob(),
        pi1 in arb_prob(),
        pdw in arb_simplex(4),
        pdt in arb_simplex(4),
        d in 0.0f64..1.0,
        r in any::<bool>(),
    ) {
        let fset = DistanceFunctionSet::new(&[0.1, 1.0, 10.0, 100.0]);
        let fvals = fset.values(d);
        let inputs = PosteriorInputs {
            pz1, pi1, pdw: &pdw, pdt: &pdt, fvals: &fvals, alpha: 0.5, r,
        };
        let mut p = Posterior::zeros(4);
        factored(&inputs, &mut p);
        prop_assert!((0.0..=1.0).contains(&p.z1));
        prop_assert!((0.0..=1.0).contains(&p.i1));
        prop_assert!((p.dw.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((p.dt.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.likelihood > 0.0 && p.likelihood <= 1.0 + 1e-12);
    }

    #[test]
    fn lemma2_recursion_equals_brute_force(
        start in arb_prob(),
        ps in prop::collection::vec(0.5f64..1.0, 0..6),
        n0 in 0usize..5,
    ) {
        let mut pair = LabelAccuracy { acc1: start, acc0: start };
        for (j, &p) in ps.iter().enumerate() {
            pair = pair.step(p, n0 + j);
        }
        let brute = expected_accuracy_brute(start, &ps, n0);
        prop_assert!((pair.acc1 - brute).abs() < 1e-9, "{} vs {}", pair.acc1, brute);
    }

    #[test]
    fn lemma1_order_invariance(
        pz1 in arb_prob(),
        p1 in 0.5f64..1.0,
        p2 in 0.5f64..1.0,
        n0 in 0usize..6,
    ) {
        let pair = LabelAccuracy::from_prior(pz1);
        let ab = pair.step(p1, n0).step(p2, n0 + 1);
        let ba = pair.step(p2, n0).step(p1, n0 + 1);
        prop_assert!((ab.acc1 - ba.acc1).abs() < 1e-12);
        prop_assert!((ab.acc0 - ba.acc0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_tracks_stay_probabilities(
        pz1 in arb_prob(),
        ps in prop::collection::vec(0.5f64..1.0, 1..8),
        n0 in 0usize..4,
    ) {
        let mut pair = LabelAccuracy::from_prior(pz1);
        for (j, &p) in ps.iter().enumerate() {
            pair = pair.step(p, n0 + j);
            prop_assert!((0.0..=1.0).contains(&pair.acc1));
            prop_assert!((0.0..=1.0).contains(&pair.acc0));
        }
    }

    #[test]
    fn informative_workers_never_hurt_uncertain_labels(p in 0.5f64..1.0, n0 in 0usize..5) {
        // On a maximally uncertain label, any worker with p ≥ 0.5 has
        // non-negative expected improvement.
        let pair = LabelAccuracy::from_prior(0.5);
        let after = pair.step(p, n0);
        prop_assert!(after.improvement_over_prior(0.5) >= -1e-12);
    }
}

/// Builds a random-but-valid world for assignment equivalence tests.
fn build_world(
    n_tasks: usize,
    n_workers: usize,
    n_labels: usize,
    answers: &[(u32, u32, u16, f64)],
) -> (TaskSet, WorkerPool, AnswerLog, ModelParams, Distances) {
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
    let workers = WorkerPool::from_workers(
        (0..n_workers)
            .map(|i| Worker::at(format!("w{i}"), Point::new(i as f64 * 0.7, 2.0)))
            .collect(),
    )
    .expect("workers have locations");
    let mut log = AnswerLog::new(tasks.len(), workers.len());
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
        log.push(
            &tasks,
            Answer {
                worker: WorkerId(w),
                task: TaskId(t),
                bits,
                distance: dist,
            },
        )
        .expect("validated above");
    }
    let params = ModelParams::init(&tasks, n_workers, 3, InitStrategy::VoteShare, &log);
    let distances = Distances::from_tasks(&tasks);
    (tasks, workers, log, params, distances)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_scan_and_heap_always_agree(
        n_tasks in 2usize..10,
        n_workers in 1usize..6,
        h in 1usize..4,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            0..24,
        ),
    ) {
        let (tasks, workers, log, params, distances) =
            build_world(n_tasks, n_workers, 4, &answers);
        let fset = DistanceFunctionSet::paper_default();
        let reserved = ReservationSet::new();
        let ctx = AssignContext {
            tasks: &tasks,
            workers: &workers,
            log: &log,
            params: &params,
            fset: &fset,
            alpha: 0.5,
            distances: &distances,
            reserved: &reserved,
        };
        let batch: Vec<WorkerId> = workers.ids().collect();
        for gain in [GainSemantics::Marginal, GainSemantics::TotalSet] {
            let mut scan = AccOptAssigner {
                gain, inner: InnerLoop::Scan, z_shrinkage: 1.0, ..AccOptAssigner::default()
            };
            let mut heap = AccOptAssigner {
                gain, inner: InnerLoop::LazyHeap, z_shrinkage: 1.0, ..AccOptAssigner::default()
            };
            let a = scan.assign(&ctx, &batch, h);
            let b = heap.assign(&ctx, &batch, h);
            prop_assert_eq!(a, b);
        }
    }

    /// The cached-fvals accuracy estimator equals the re-evaluating one
    /// bit for bit on arbitrary distances.
    #[test]
    fn accuracy_from_cached_values_matches_reevaluation(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        d in 0.0f64..3.0,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..30,
        ),
    ) {
        let (tasks, _, log, params, _) = build_world(n_tasks, n_workers, 4, &answers);
        let fset = DistanceFunctionSet::paper_default();
        let estimator = AccuracyEstimator::new(&params, &fset, &log, 0.5);
        let fvals = fset.values(d);
        for w in 0..n_workers as u32 {
            for t in tasks.ids() {
                let task = tasks.get(t).expect("id from the set");
                let direct = estimator.answer_accuracy(WorkerId(w), task, d);
                let cached = estimator.answer_accuracy_from_values(WorkerId(w), task, &fvals);
                prop_assert_eq!(direct.to_bits(), cached.to_bits());
            }
        }
    }

    /// ACCOPT with the cross-round fvals memo picks the identical
    /// assignment whatever the memo holds: a cold memo, a warm memo and a
    /// fresh assigner all agree.
    #[test]
    fn accopt_assignment_is_identical_across_memo_state(
        n_tasks in 2usize..10,
        n_workers in 1usize..6,
        h in 1usize..4,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            0..24,
        ),
    ) {
        let (tasks, workers, log, params, distances) =
            build_world(n_tasks, n_workers, 4, &answers);
        let fset = DistanceFunctionSet::paper_default();
        let reserved = ReservationSet::new();
        let ctx = AssignContext {
            tasks: &tasks,
            workers: &workers,
            log: &log,
            params: &params,
            fset: &fset,
            alpha: 0.5,
            distances: &distances,
            reserved: &reserved,
        };
        let batch: Vec<WorkerId> = workers.ids().collect();
        let expected = AccOptAssigner::new().assign(&ctx, &batch, h);
        let mut reused = AccOptAssigner::new();
        for round in 0..3 {
            let got = reused.assign(&ctx, &batch, h);
            prop_assert_eq!(&got, &expected, "round {} diverged", round);
        }
    }

    #[test]
    fn assignments_respect_history_and_arity(
        n_tasks in 2usize..10,
        n_workers in 1usize..5,
        h in 1usize..4,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            0..20,
        ),
    ) {
        let (tasks, workers, log, params, distances) =
            build_world(n_tasks, n_workers, 4, &answers);
        let fset = DistanceFunctionSet::paper_default();
        let reserved = ReservationSet::new();
        let ctx = AssignContext {
            tasks: &tasks,
            workers: &workers,
            log: &log,
            params: &params,
            fset: &fset,
            alpha: 0.5,
            distances: &distances,
            reserved: &reserved,
        };
        let batch: Vec<WorkerId> = workers.ids().collect();
        let mut assigner = AccOptAssigner::new();
        let assignment = assigner.assign(&ctx, &batch, h);
        for (w, ts) in assignment.per_worker() {
            // At most h tasks, all distinct, none already answered.
            prop_assert!(ts.len() <= h);
            let mut sorted = ts.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), ts.len());
            for &t in ts {
                prop_assert!(!log.has_answered(*w, t));
            }
            // A worker only gets fewer than h tasks when they exhausted
            // the task set.
            let unanswered = tasks.ids().filter(|&t| !log.has_answered(*w, t)).count();
            prop_assert_eq!(ts.len(), h.min(unanswered));
        }
    }

    #[test]
    fn em_parameters_remain_valid_on_arbitrary_logs(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            1..30,
        ),
    ) {
        let (tasks, _workers, log, _params, _d) = build_world(n_tasks, n_workers, 5, &answers);
        let config = EmConfig { max_iterations: 15, ..EmConfig::default() };
        let (params, report) = run_em(&tasks, &log, &config);
        prop_assert!(params.check_invariants());
        prop_assert_eq!(report.iterations, report.max_delta_history.len());
        // Likelihood history is finite.
        prop_assert!(report.log_likelihood_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn answer_log_prefix_is_consistent(
        n_tasks in 1usize..6,
        n_workers in 1usize..5,
        answers in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            0..30,
        ),
        cut in 0usize..40,
    ) {
        let (tasks, _w, log, _p, _d) = build_world(n_tasks, n_workers, 3, &answers);
        let prefix = log.prefix(cut);
        prop_assert_eq!(prefix.len(), cut.min(log.len()));
        // Per-task counts of the prefix never exceed the full counts.
        for t in tasks.ids() {
            prop_assert!(prefix.n_answers_on(t) <= log.n_answers_on(t));
        }
        // The prefix preserves stream order.
        for (a, b) in prefix.answers().iter().zip(log.answers()) {
            prop_assert_eq!(a.worker, b.worker);
            prop_assert_eq!(a.task, b.task);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn posterior_is_normalised_for_any_function_set_size(
        lambdas in prop::collection::vec(0.05f64..150.0, 2..8),
        raw_w in prop::collection::vec(0.01f64..1.0, 8),
        raw_t in prop::collection::vec(0.01f64..1.0, 8),
        pz1 in arb_prob(),
        pi1 in arb_prob(),
        d in 0.0f64..1.0,
        alpha in 0.0f64..1.0,
        r in any::<bool>(),
    ) {
        // Existing normalisation tests pin |F| to 3 or 4; this one sweeps
        // the set size. Truncate the fixed-size weight draws to |F| and
        // renormalise onto the simplex.
        let n = lambdas.len();
        let simplex = |raw: &[f64]| {
            let mut v = raw[..n].to_vec();
            let sum: f64 = v.iter().sum();
            for x in &mut v {
                *x /= sum;
            }
            v
        };
        let (pdw, pdt) = (simplex(&raw_w), simplex(&raw_t));
        let fset = DistanceFunctionSet::new(&lambdas);
        let fvals = fset.values(d);
        let inputs = PosteriorInputs {
            pz1, pi1, pdw: &pdw, pdt: &pdt, fvals: &fvals, alpha, r,
        };
        let mut p = Posterior::zeros(n);
        factored(&inputs, &mut p);
        prop_assert!((0.0..=1.0).contains(&p.z1));
        prop_assert!((0.0..=1.0).contains(&p.i1));
        prop_assert!((p.dw.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((p.dt.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn posterior_satisfies_total_probability(
        pz1 in arb_prob(),
        pi1 in arb_prob(),
        pdw in arb_simplex(3),
        pdt in arb_simplex(3),
        d in 0.0f64..1.0,
        alpha in 0.0f64..1.0,
    ) {
        // Law of total probability over the observed bit: the answer
        // marginals P(r=1) and P(r=0) must sum to 1, and mixing the two
        // conditional posteriors by them must reconstruct every prior
        // exactly. This subsumes "posteriors sum to 1" — any normalisation
        // leak in the E-step breaks the reconstruction.
        let fset = DistanceFunctionSet::paper_default();
        let fvals = fset.values(d);
        let mut pos = Posterior::zeros(3);
        let mut neg = Posterior::zeros(3);
        factored(
            &PosteriorInputs { pz1, pi1, pdw: &pdw, pdt: &pdt, fvals: &fvals, alpha, r: true },
            &mut pos,
        );
        factored(
            &PosteriorInputs { pz1, pi1, pdw: &pdw, pdt: &pdt, fvals: &fvals, alpha, r: false },
            &mut neg,
        );
        let (lp, ln) = (pos.likelihood, neg.likelihood);
        prop_assert!((lp + ln - 1.0).abs() < 1e-10, "P(r=1)+P(r=0) = {}", lp + ln);
        prop_assert!((lp * pos.z1 + ln * neg.z1 - pz1).abs() < 1e-10);
        prop_assert!((lp * pos.i1 + ln * neg.i1 - pi1).abs() < 1e-10);
        for j in 0..3 {
            prop_assert!((lp * pos.dw[j] + ln * neg.dw[j] - pdw[j]).abs() < 1e-10);
            prop_assert!((lp * pos.dt[j] + ln * neg.dt[j] - pdt[j]).abs() < 1e-10);
        }
    }
}
