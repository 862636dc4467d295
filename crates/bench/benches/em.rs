//! Inference hot-path micro-benchmarks: the cost of the delayed rebuild
//! (the dominant per-shard cost in `crowd_serve`) across log sizes, for
//! every implementation tier:
//!
//! * `naive_full`    — warm-started full EM on the reference path
//!   (per-iteration `FvalTable`, per-bit `factored`); what every rebuild
//!   cost before the overhaul.
//! * `cached_full`   — the same full EM on the answer-geometry cache with
//!   prepared per-answer terms (`run_em_geometry`); bit-identical results.
//! * `dirty_set`     — `OnlineModel::full_em` after 100 fresh submits on a
//!   converged model: re-sweeps only answers touching dirty tasks/workers.
//! * `incremental`   — absorbing the same 100 answers with no rebuild at
//!   all (the per-submit steady-state cost, for scale).
//!
//! Full rebuilds run the SQUAREM-accelerated loop and dirty-set rebuilds
//! plain EM, one sequential E-step per iteration. Alongside the timings, one `em_iterations` JSON
//! line per log size and rebuild tier reports the iterations one rebuild
//! takes and whether it converged before `max_iterations` — the columns
//! that split a rebuild's cost into iterations × cost per iteration.
//!
//! The committed baseline lives in `BENCH_em.json` at the repo root. With
//! `EM_BENCH_ENFORCE=1` (set by CI) the final "bench" asserts that the
//! optimized rebuild beats the naive rebuild at the largest log size.
//!
//! Environment knob:
//!
//! * `EM_SWEEP=1` — additionally runs the policy-knob sweep
//!   (`full_sweep_every`, `dirty_coverage_fallback`) and prints one JSON
//!   line per configuration for `BENCH_em.json`'s sweep table.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use crowd_core::model::{run_em_from_naive, run_em_geometry, AnswerGeometry};
use crowd_core::{
    synthetic_task, Answer, AnswerLog, EmConfig, EmReport, LabelBits, OnlineModel, TaskId, TaskSet,
    UpdatePolicy, WorkerId,
};
use crowd_geo::Point;

const N_TASKS: usize = 400;
const N_WORKERS: usize = 1500;
const N_LABELS: usize = 4;
/// Fresh submits between delayed rebuilds (the paper's policy).
const FRESH: usize = 100;
const LOG_SIZES: [usize; 3] = [1000, 4000, 16000];

fn world() -> (TaskSet, AnswerLog) {
    let tasks = TaskSet::new(
        (0..N_TASKS)
            .map(|i| {
                synthetic_task(
                    format!("t{i}"),
                    Point::new((i % 20) as f64, (i / 20) as f64),
                    N_LABELS,
                )
            })
            .collect(),
    );
    let log = AnswerLog::new(tasks.len(), N_WORKERS);
    (tasks, log)
}

/// Deterministic answer `i` of the synthetic stream: workers cycle, each
/// answering a worker-specific progression of tasks.
fn answer_at(i: usize) -> Answer {
    let w = i % N_WORKERS;
    let round = i / N_WORKERS;
    let t = (round * 17 + w * 3) % N_TASKS;
    let seed = crowd_sim::rngx::pair_seed(w as u64, t as u64);
    Answer {
        worker: WorkerId::from_index(w),
        task: TaskId::from_index(t),
        bits: LabelBits::from_slice(
            &(0..N_LABELS)
                .map(|k| seed >> k & 1 == 1)
                .collect::<Vec<_>>(),
        ),
        distance: f64::from(u32::try_from(seed & 0xffff).unwrap()) / 65535.0,
    }
}

/// A converged model over the first `size - FRESH` answers with the last
/// `FRESH` absorbed but not yet rebuilt — the state every delayed rebuild
/// starts from — plus the full log and its geometry cache.
struct Prepared {
    tasks: TaskSet,
    log: AnswerLog,
    geometry: AnswerGeometry,
    config: EmConfig,
    /// Converged, then dirtied by the last `FRESH` absorptions.
    model: OnlineModel,
    /// Converged over the prefix only; used to time pure absorption.
    settled: OnlineModel,
    fresh: Vec<Answer>,
}

fn prepare(size: usize) -> Prepared {
    // A policy that never full-sweeps on its own: rebuild cadence is driven
    // manually, so each timed rebuild exercises exactly one path.
    prepare_policy(
        size,
        UpdatePolicy {
            full_em_every: None,
            full_sweep_every: usize::MAX,
            ..UpdatePolicy::default()
        },
    )
}

fn time_naive_rebuild(p: &Prepared) -> std::time::Duration {
    let mut params = p.model.params().clone();
    let start = Instant::now();
    black_box(run_em_from_naive(
        &p.tasks,
        &p.log,
        &p.config,
        black_box(&mut params),
    ));
    start.elapsed()
}

fn time_dirty_rebuild(p: &Prepared) -> std::time::Duration {
    let mut model = p.model.clone();
    let start = Instant::now();
    model.full_em(&p.tasks, &p.log);
    black_box(model.params());
    let elapsed = start.elapsed();
    let report = model.last_report().expect("rebuild ran");
    if report.full_sweep {
        // The dirty path disengaged (e.g. a constant change pushed the
        // dirty coverage past the fallback limit) — the gate would compare
        // full sweep vs full sweep. Surface it; panic only when enforcing.
        eprintln!("warning: smoke gate measured a full sweep, not a dirty-set rebuild");
        assert!(
            std::env::var_os("EM_BENCH_ENFORCE").is_none(),
            "expected a dirty-set rebuild at the largest log size"
        );
    }
    elapsed
}

fn bench_em(c: &mut Criterion) {
    let prepared: Vec<Prepared> = LOG_SIZES.iter().map(|&s| prepare(s)).collect();
    let mut group = c.benchmark_group("em_rebuild");
    group.sample_size(10);
    // Every tier clones its mutable starting state in `iter_batched` setup,
    // outside the timed region, so the tiers are measured on equal footing.
    for p in &prepared {
        let size = p.log.len();
        group.bench_with_input(BenchmarkId::new("naive_full", size), p, |b, p| {
            b.iter_batched(
                || p.model.params().clone(),
                |mut params| {
                    black_box(run_em_from_naive(&p.tasks, &p.log, &p.config, &mut params));
                    params
                },
                BatchSize::PerIteration,
            );
        });
        group.bench_with_input(BenchmarkId::new("cached_full", size), p, |b, p| {
            b.iter_batched(
                || p.model.params().clone(),
                |mut params| {
                    black_box(run_em_geometry(
                        &p.tasks,
                        &p.log,
                        &p.geometry,
                        &p.config,
                        &mut params,
                    ));
                    params
                },
                BatchSize::PerIteration,
            );
        });
        group.bench_with_input(BenchmarkId::new("dirty_set", size), p, |b, p| {
            b.iter_batched(
                || p.model.clone(),
                |mut model| {
                    model.full_em(&p.tasks, &p.log);
                    black_box(model.last_report().map(|r| r.iterations));
                    model
                },
                BatchSize::PerIteration,
            );
        });
        group.bench_with_input(BenchmarkId::new("incremental", size), p, |b, p| {
            b.iter_batched(
                || p.settled.clone(),
                |mut model| {
                    for answer in &p.fresh {
                        model.absorb(&p.tasks, answer);
                    }
                    black_box(model.absorbed_since_full());
                    model
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// One warm-started full sweep on the geometry-cached path.
fn time_cached_rebuild(p: &Prepared) -> std::time::Duration {
    let mut params = p.model.params().clone();
    let start = Instant::now();
    black_box(run_em_geometry(
        &p.tasks,
        &p.log,
        &p.geometry,
        &p.config,
        black_box(&mut params),
    ));
    start.elapsed()
}

/// Prints one `em_iterations` JSON line per log size and rebuild tier:
/// the iterations one rebuild of the prepared state takes and whether it
/// converged. Counts are deterministic, so one run per row suffices;
/// `naive_full` runs the same map through the same SQUAREM loop as
/// `cached_full` and reports the same counts.
fn bench_iterations(_c: &mut Criterion) {
    let row = |tier: &str, size: usize, report: &EmReport| {
        eprintln!(
            "em_iterations {{\"tier\":\"{tier}\",\"log_size\":{size},\"iterations\":{},\
             \"converged\":{},\"final_delta\":{:.3e}}}",
            report.iterations,
            report.converged,
            report.max_delta_history.last().copied().unwrap_or(0.0)
        );
    };
    for &size in &LOG_SIZES {
        let p = prepare(size);
        let mut params = p.model.params().clone();
        let full = run_em_geometry(&p.tasks, &p.log, &p.geometry, &p.config, &mut params);
        row("cached_full", size, &full);
        let mut model = p.model.clone();
        model.full_em(&p.tasks, &p.log);
        let dirty = model.last_report().expect("rebuild ran");
        row(
            if dirty.full_sweep {
                "full_fallback"
            } else {
                "dirty_set"
            },
            size,
            dirty,
        );
    }
}

/// CI smoke gate: at the largest log size the optimized rebuild (dirty-set
/// path, as the service runs it) must not be slower than the naive full
/// EM. Only enforced with `EM_BENCH_ENFORCE=1` so local runs never flake.
fn bench_smoke_gate(_c: &mut Criterion) {
    let p = prepare(*LOG_SIZES.last().unwrap());
    let enforce = std::env::var_os("EM_BENCH_ENFORCE").is_some();
    let naive = (0..3).map(|_| time_naive_rebuild(&p)).min().unwrap();
    let optimized = (0..3).map(|_| time_dirty_rebuild(&p)).min().unwrap();
    let ratio = naive.as_secs_f64() / optimized.as_secs_f64();
    eprintln!(
        "smoke gate @ {} answers: naive {naive:?} vs optimized {optimized:?} ({ratio:.1}x)",
        p.log.len()
    );
    if enforce {
        assert!(
            optimized <= naive,
            "optimized rebuild ({optimized:?}) is slower than the naive full EM ({naive:?})"
        );
    }
}

/// A `prepare`d world whose online model runs under `policy` instead of
/// the manual-cadence default — the sweep needs each probe policy baked
/// in at construction because `UpdatePolicy` is fixed for a model's life.
fn prepare_policy(size: usize, policy: UpdatePolicy) -> Prepared {
    assert!(size > FRESH);
    let (tasks, mut log) = world();
    let config = EmConfig::default();
    let mut model = OnlineModel::new(&tasks, &log, config.clone(), policy);
    let mut fresh = Vec::new();
    let mut i = 0;
    while log.len() < size {
        let answer = answer_at(i);
        i += 1;
        if log.push(&tasks, answer).is_err() {
            continue;
        }
        if log.len() == size - FRESH {
            model.full_sweep(&tasks, &log);
        }
        if log.len() > size - FRESH {
            fresh.push(answer);
        }
    }
    let settled = model.clone();
    for answer in &fresh {
        model.absorb(&tasks, answer);
    }
    let geometry = AnswerGeometry::build(&tasks, &log, &config.fset);
    Prepared {
        tasks,
        log,
        geometry,
        config,
        model,
        settled,
        fresh,
    }
}

/// Policy-knob sweep (`EM_SWEEP=1`): prices one delayed rebuild of the
/// standard 100-fresh-answer dirtied state on the 4000-answer world under
/// each knob setting and prints one JSON line per configuration — the
/// raw rows behind `BENCH_em.json`'s `knob_sweep` table.
///
/// `dirty_coverage_fallback` rows measure `full_em` directly (the knob
/// decides whether the dirty path engages; `dirty_share` records which
/// path actually ran). `full_sweep_every = K` rows amortize one K-cycle
/// from the two measured path costs — (K−1) dirty rebuilds plus one
/// scheduled full sweep — because a real cycle would need K×100 distinct
/// fresh answers and the knob only changes cadence, never per-rebuild
/// cost.
fn bench_knob_sweep(_c: &mut Criterion) {
    if std::env::var_os("EM_SWEEP").is_none() {
        return;
    }
    let manual = |dirty_coverage_fallback: usize| UpdatePolicy {
        full_em_every: None,
        full_sweep_every: usize::MAX,
        dirty_coverage_fallback,
    };
    // One rebuild of the dirtied state under each coverage-fallback value.
    let mut dirty_ns = f64::INFINITY; // the engaged dirty path, for amortization
    let mut full_ns = f64::INFINITY; // the disengaged (full-sweep) path
    for dirty_coverage_fallback in [20usize, 40, 60, 80, 100] {
        let p = prepare_policy(4000, manual(dirty_coverage_fallback));
        let mut best = f64::INFINITY;
        let mut full_sweeps = 0u32;
        for _ in 0..3 {
            let mut m = p.model.clone();
            let start = Instant::now();
            m.full_em(&p.tasks, &p.log);
            best = best.min(start.elapsed().as_secs_f64());
            full_sweeps += u32::from(m.last_report().expect("rebuild ran").full_sweep);
        }
        let dirty_share = if full_sweeps > 0 { 0.0 } else { 1.0 };
        if full_sweeps > 0 {
            full_ns = full_ns.min(best * 1e9);
        } else {
            dirty_ns = dirty_ns.min(best * 1e9);
        }
        eprintln!(
            "knob_sweep {{\"knob\":\"dirty_coverage_fallback\",\"value\":{dirty_coverage_fallback},\
             \"mean_rebuild_ns\":{:.0},\"dirty_share\":{dirty_share:.2}}}",
            best * 1e9
        );
    }
    // If every fallback value kept the dirty path engaged, price the full
    // sweep from the cached-geometry batch path it would take.
    if full_ns.is_infinite() {
        let p = prepare_policy(4000, manual(60));
        full_ns = (0..3)
            .map(|_| time_cached_rebuild(&p))
            .min()
            .unwrap()
            .as_secs_f64()
            * 1e9;
    }
    for full_sweep_every in [1usize, 2, 4, 8, 16] {
        #[allow(clippy::cast_precision_loss)]
        let k = full_sweep_every as f64;
        let amortized = ((k - 1.0) * dirty_ns + full_ns) / k;
        eprintln!(
            "knob_sweep {{\"knob\":\"full_sweep_every\",\"value\":{full_sweep_every},\
             \"mean_rebuild_ns\":{amortized:.0},\"dirty_share\":{:.2}}}",
            (k - 1.0) / k
        );
    }
}

criterion_group!(
    benches,
    bench_em,
    bench_iterations,
    bench_smoke_gate,
    bench_knob_sweep
);
criterion_main!(benches);
