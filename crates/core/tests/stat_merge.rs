//! The merge algebra of the worker-statistic gossip layer, proven on
//! random inputs:
//!
//! 1. **Commutativity** — absorbing the same set of deltas in any order
//!    yields the same [`PeerStats`] table and bit-identical aggregates;
//! 2. **Associativity** — `(a ⊔ b) ⊔ c = a ⊔ (b ⊔ c)` for table merges;
//! 3. **Idempotence** — re-delivering any delta (or re-merging a table)
//!    changes nothing;
//! 4. **Fold-then-EM ≡ pooled EM** — a distributed EM where each of `k`
//!    shards sweeps only its own answers but pools worker statistics
//!    through the gossip deltas every iteration reproduces a single
//!    framework's plain EM map ([`em_step`]) over the union of the
//!    answers within `1e-9` (the only divergence is floating-point
//!    summation order). Pooling is a property of that map; the SQUAREM
//!    loop that accelerates production runs iterates the same map.
//!
//! Properties 1–3 are what make the exchange layer trivially correct:
//! deltas may be duplicated, reordered or redelivered without corrupting
//! the pooled estimate. Property 4 is the reason gossip recovers the
//! unsharded system's accuracy: the pooled worker M-step is the *same
//! arithmetic* a single instance holding all answers would perform.

use crowd_core::model::{
    em_step, factored, AnswerGeometry, EmConfig, InitStrategy, ModelParams, PeerStats, Posterior,
    PosteriorInputs, SufficientStats, WorkerStatDelta,
};
use crowd_core::{synthetic_task, Answer, AnswerLog, LabelBits, TaskId, TaskSet, WorkerId};
use crowd_geo::Point;
use proptest::prelude::*;
use proptest::TestCaseError;

const N_FUNCS: usize = 3;

/// A deterministic payload for `(source, version)` — the gossip protocol
/// guarantees one payload per (source, version) pair, and the generators
/// below honour that by deriving the payload from the stamp.
fn delta_for(source: u64, version: u64) -> WorkerStatDelta {
    let n_workers = 3 + (source as usize % 3);
    let mut i_sum = Vec::with_capacity(n_workers);
    let mut worker_bits = Vec::with_capacity(n_workers);
    let mut dw_sum = Vec::with_capacity(n_workers * N_FUNCS);
    for w in 0..n_workers as u64 {
        let x = source
            .wrapping_mul(31)
            .wrapping_add(version.wrapping_mul(7))
            .wrapping_add(w);
        let bits = (x % 5) as u32 * u32::try_from(version).unwrap_or(1);
        worker_bits.push(bits);
        i_sum.push(f64::from(bits) * 0.25 + (x % 7) as f64 * 0.125);
        for j in 0..N_FUNCS as u64 {
            dw_sum.push((x.wrapping_add(j * 13) % 11) as f64 * 0.0625);
        }
    }
    WorkerStatDelta {
        source,
        version,
        n_funcs: N_FUNCS,
        i_sum,
        worker_bits,
        dw_sum,
    }
}

fn fold_all(stamps: &[(u64, u64)]) -> PeerStats {
    let mut peers = PeerStats::new();
    for &(s, v) in stamps {
        peers.absorb(&delta_for(s, v));
    }
    peers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Law 1: delivery order is irrelevant — forward, reverse and rotated
    /// delivery of the same deltas produce identical tables (and, because
    /// the aggregate is recomputed in source order, bit-identical pooled
    /// sums).
    #[test]
    fn absorb_is_commutative(
        stamps in prop::collection::vec((0u64..6, 1u64..8), 0..16),
        rotation in 0usize..16,
    ) {
        let forward = fold_all(&stamps);
        let mut reversed_stamps = stamps.clone();
        reversed_stamps.reverse();
        let reversed = fold_all(&reversed_stamps);
        prop_assert_eq!(&forward, &reversed);
        if !stamps.is_empty() {
            let mut rotated_stamps = stamps.clone();
            rotated_stamps.rotate_left(rotation % stamps.len());
            prop_assert_eq!(&forward, &fold_all(&rotated_stamps));
        }
        for w in 0..forward.n_workers() {
            prop_assert_eq!(forward.i_sum(w).to_bits(), reversed.i_sum(w).to_bits());
            prop_assert_eq!(forward.bits(w), reversed.bits(w));
        }
    }

    /// Law 2: table merges associate — `(a ⊔ b) ⊔ c = a ⊔ (b ⊔ c)` —
    /// and folding deltas one by one equals merging whole tables.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec((0u64..6, 1u64..8), 0..8),
        b in prop::collection::vec((0u64..6, 1u64..8), 0..8),
        c in prop::collection::vec((0u64..6, 1u64..8), 0..8),
    ) {
        let (ta, tb, tc) = (fold_all(&a), fold_all(&b), fold_all(&c));
        let mut left = ta.clone();
        left.merge(&tb);
        left.merge(&tc);
        let mut right_tail = tb.clone();
        right_tail.merge(&tc);
        let mut right = ta.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);
        // Element-wise folding is the same join.
        let all: Vec<(u64, u64)> =
            a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &fold_all(&all));
    }

    /// Law 3: re-delivery is a no-op — absorbing every delta twice (and
    /// self-merging the final table) changes nothing, and each duplicate
    /// absorb reports `false`.
    #[test]
    fn redelivery_is_idempotent(
        stamps in prop::collection::vec((0u64..6, 1u64..8), 0..16),
    ) {
        let once = fold_all(&stamps);
        let mut twice = PeerStats::new();
        for &(s, v) in &stamps {
            twice.absorb(&delta_for(s, v));
        }
        for &(s, v) in &stamps {
            // Every stamp is now ≤ the newest held version for its source,
            // so re-delivery — including of the newest delta itself — is a
            // no-op.
            prop_assert!(
                !twice.absorb(&delta_for(s, v)),
                "duplicate delivery changed the table"
            );
        }
        prop_assert_eq!(&once, &twice);
        let mut self_merged = once.clone();
        prop_assert!(!self_merged.merge(&once));
        prop_assert_eq!(&self_merged, &once);
    }
}

// ─── Fold-then-EM ≡ pooled EM ───────────────────────────────────────────

/// Builds a world and a valid answer stream from raw proptest tuples.
fn build_world(
    n_tasks: usize,
    n_workers: usize,
    raw: &[(u32, u32, u16, f64)],
) -> (TaskSet, AnswerLog) {
    let tasks = TaskSet::new(
        (0..n_tasks)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 5) as f64, (i / 5) as f64),
                    3,
                )
            })
            .collect(),
    );
    let mut log = AnswerLog::new(n_tasks, n_workers);
    for &(w, t, bit_seed, dist) in raw {
        let answer = Answer {
            worker: WorkerId(w % n_workers as u32),
            task: TaskId(t % n_tasks as u32),
            bits: LabelBits::from_slice(
                &(0..3).map(|k| (bit_seed >> k) & 1 == 1).collect::<Vec<_>>(),
            ),
            distance: dist,
        };
        // Duplicates are skipped, mirroring the framework's validation.
        let _ = log.push(&tasks, answer);
    }
    (tasks, log)
}

/// One shard of the distributed EM: its own slice of the answer log plus
/// its own parameter copy and accumulators.
struct DistShard {
    answers: Vec<Answer>,
    params: ModelParams,
    stats: SufficientStats,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Law 4: splitting a log across `k` shards by task, sweeping each
    /// shard's answers locally and pooling the worker statistics through
    /// the gossip deltas every iteration reproduces `iterations` plain EM
    /// steps of a single framework over the pooled log within 1e-9 — task
    /// parameters on the owning shard, worker parameters everywhere.
    #[test]
    fn fold_then_em_matches_pooled_single_framework_em(
        n_tasks in 2usize..7,
        n_workers in 2usize..6,
        k in 2usize..5,
        iterations in 3usize..12,
        raw in prop::collection::vec(
            (0u32..8, 0u32..12, 0u16..u16::MAX, 0.0f64..1.0),
            4..60,
        ),
    ) {
        let (tasks, log) = build_world(n_tasks, n_workers, &raw);
        let config = EmConfig {
            init: InitStrategy::Uniform,
            ..EmConfig::default()
        };
        let n_funcs = config.fset.len();

        // ── The pooled reference: the plain map over the union ──────────
        let geometry = AnswerGeometry::build(&tasks, &log, &config.fset);
        let mut pooled =
            ModelParams::init(&tasks, n_workers, n_funcs, InitStrategy::Uniform, &log);
        for _ in 0..iterations {
            em_step(&tasks, &log, &geometry, &config, &mut pooled, &PeerStats::new());
        }

        // ── The distributed run: shards own disjoint task ranges ────────
        let owner = |t: TaskId| t.index() % k;
        let mut shards: Vec<DistShard> = (0..k)
            .map(|_| DistShard {
                answers: Vec::new(),
                params: ModelParams::init(
                    &tasks, n_workers, n_funcs, InitStrategy::Uniform, &log,
                ),
                stats: SufficientStats::new(&tasks, n_workers, n_funcs),
            })
            .collect();
        for answer in log.answers() {
            shards[owner(answer.task)].answers.push(*answer);
        }
        // A zeroed accumulator: the pooled worker M-step reads *only* the
        // delta table, so every shard computes bit-identical worker
        // parameters from the identical set of deltas.
        let zero = SufficientStats::new(&tasks, n_workers, n_funcs);
        let mut scratch = Posterior::zeros(n_funcs);

        for iter in 0..iterations {
            // Local E-steps under each shard's current parameters.
            for shard in &mut shards {
                shard.stats.clear();
                for answer in &shard.answers {
                    let fvals = config.fset.values(answer.distance);
                    let base = tasks.label_offset(answer.task);
                    shard
                        .stats
                        .add_answer(answer.task, answer.worker, answer.bits.len());
                    for (kk, r) in answer.bits.iter().enumerate() {
                        let inputs = PosteriorInputs {
                            pz1: shard.params.z_slot(base + kk),
                            pi1: shard.params.inherent(answer.worker),
                            pdw: shard.params.dw(answer.worker),
                            pdt: shard.params.dt(answer.task),
                            fvals: &fvals,
                            alpha: config.alpha,
                            r,
                        };
                        factored(&inputs, &mut scratch);
                        shard.stats.add_label_bit(
                            base + kk,
                            answer.task,
                            answer.worker,
                            &scratch,
                        );
                    }
                }
            }

            // Gossip: every shard publishes, every shard folds everything
            // (rotated delivery order + a re-delivery, exercising the
            // algebra in situ).
            let deltas: Vec<WorkerStatDelta> = shards
                .iter()
                .enumerate()
                .map(|(s, shard)| shard.stats.worker_delta(s as u64, iter as u64 + 1))
                .collect();
            let pools: Vec<PeerStats> = (0..k)
                .map(|s| {
                    let mut pool = PeerStats::new();
                    for i in 0..k {
                        prop_assert!(pool.absorb(&deltas[(s + i) % k]));
                    }
                    prop_assert!(
                        !pool.absorb(&deltas[s]),
                        "re-delivered delta must be a no-op"
                    );
                    Ok(pool)
                })
                .collect::<Result<_, TestCaseError>>()?;
            prop_assert!(pools.windows(2).all(|w| w[0] == w[1]));

            // M-step: tasks from local accumulators (each task's answers
            // are complete on the owning shard), workers from the pooled
            // deltas alone.
            for (s, shard) in shards.iter_mut().enumerate() {
                for t in tasks.ids() {
                    shard.stats.apply_task(&mut shard.params, &tasks, t);
                }
                for w in 0..n_workers {
                    zero.apply_worker_pooled(
                        &mut shard.params,
                        WorkerId::from_index(w),
                        &pools[s],
                    );
                }
            }
        }

        // Task-side parameters match the pooled run on the owning shard…
        for t in tasks.ids() {
            let shard = &shards[owner(t)];
            let base = tasks.label_offset(t);
            for kk in 0..tasks.n_labels(t) {
                prop_assert!(
                    (shard.params.z_slot(base + kk) - pooled.z_slot(base + kk)).abs() <= 1e-9,
                    "z[{}] drifted: {} vs {}",
                    base + kk,
                    shard.params.z_slot(base + kk),
                    pooled.z_slot(base + kk)
                );
            }
            for (j, (&d, &p)) in shard.params.dt(t).iter().zip(pooled.dt(t)).enumerate() {
                prop_assert!((d - p).abs() <= 1e-9, "dt[{t:?}][{j}] drifted: {d} vs {p}");
            }
        }
        // …and worker-side parameters match on every shard.
        for shard in &shards {
            for w in 0..n_workers {
                let id = WorkerId::from_index(w);
                prop_assert!(
                    (shard.params.inherent(id) - pooled.inherent(id)).abs() <= 1e-9,
                    "P(i_{w}) drifted: {} vs {}",
                    shard.params.inherent(id),
                    pooled.inherent(id)
                );
                for (j, (&d, &p)) in shard.params.dw(id).iter().zip(pooled.dw(id)).enumerate() {
                    prop_assert!((d - p).abs() <= 1e-9, "dw[{w}][{j}] drifted: {d} vs {p}");
                }
            }
        }
    }
}
