//! A concurrent labelling campaign through the `crowd_serve` service layer:
//! the synthetic Beijing dataset sharded 4 ways with cross-shard
//! worker-quality gossip, driven by 4 producer threads simulating the
//! crowd, with a mid-campaign snapshot → verified restore → resume
//! round-trip and an end-of-campaign incremental-snapshot workflow
//! (base → `snapshot_delta` → `compact` ≡ full snapshot, then a
//! `restore_verified` pass proving the v3 parameter fast path equals the
//! replay path bit for bit — see `docs/SNAPSHOT_FORMAT.md`), compared
//! against the equivalent single-threaded `SimPlatform` campaign at the
//! *same* budget — gossip pools each worker's sufficient statistics
//! across shards, so sharding no longer starves the `P(i_w)` estimates
//! and the accuracy gate holds without any extra budget.
//!
//! ```sh
//! cargo run --release --example serve_campaign
//! cargo run --release --example serve_campaign -- --campaigns 2
//! ```
//!
//! With `--campaigns N` (N ≥ 2) the example instead multiplexes N
//! concurrent campaigns over one explicit [`CampaignPool`] — shared slot
//! queues and drain threads, independent budgets, shard maps and models —
//! storms campaign 0 with a mid-flight hot-cell split and a
//! demand-driven budget rebalance, and holds every campaign to the same
//! 0.02 accuracy gate against the single-threaded reference.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use crowdpoi::prelude::*;
use crowdpoi::sim::AnswerSimulator;

const SEED: u64 = 2016;
/// Single-threaded campaigns whose mean accuracy is the gate's reference.
const REFERENCE_CAMPAIGNS: u64 = 6;
const BUDGET: usize = 4000;
const PRODUCERS: usize = 4;
const SHARDS: usize = 4;
/// Gossip cadence: each shard publishes + folds worker statistics every
/// this many applied answers (≈ 8 exchange cycles per shard per campaign).
const GOSSIP_EVERY: usize = 128;

/// Deterministic per-(worker, task) seed so the simulated crowd gives the
/// same answer to the same HIT regardless of thread interleaving.
fn answer_seed(w: WorkerId, t: TaskId) -> u64 {
    crowdpoi::sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0)).wrapping_add(SEED)
}

fn simulate_answer(
    platform: &SimPlatform,
    distances: &Distances,
    w: WorkerId,
    t: TaskId,
) -> LabelBits {
    let worker = platform.population.pool.worker(w);
    let task = platform.dataset.tasks.task(t);
    let d = distances.between(worker, task);
    let mut sim = AnswerSimulator::new(platform.behavior().clone(), answer_seed(w, t));
    sim.answer(
        &platform.population.profiles[w.index()],
        &platform.dataset.true_dt[t.index()],
        &platform.dataset.truth[t.index()],
        d,
    )
}

/// Drives the service with `PRODUCERS` threads, each simulating a slice of
/// the worker population (request → answer → submit). Stops when the
/// budget is exhausted, or once `stop_at` budget units are spent.
fn drive(
    service: &LabellingService,
    platform: &SimPlatform,
    distances: &Distances,
    stop_at: Option<usize>,
) {
    let n_workers = platform.population.len();
    let stop = AtomicBool::new(false);
    let active = AtomicUsize::new(PRODUCERS);
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let handle = service.handle();
            let stop = &stop;
            let active = &active;
            scope.spawn(move || {
                let my_workers: Vec<WorkerId> = (0..n_workers)
                    .filter(|i| i % PRODUCERS == p)
                    .map(WorkerId::from_index)
                    .collect();
                let mut empty_rounds = 0usize;
                'produce: for batch in my_workers.chunks(5).cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match handle.request_tasks(batch) {
                        Ok(a) if a.is_empty() => {
                            empty_rounds += 1;
                            if empty_rounds > 2 * n_workers {
                                break; // everyone answered everything left
                            }
                        }
                        Ok(a) => {
                            empty_rounds = 0;
                            for (w, t) in a.pairs() {
                                let bits = simulate_answer(platform, distances, w, t);
                                if handle.submit_wait(w, t, bits).is_err() {
                                    break 'produce;
                                }
                            }
                        }
                        Err(_) => break, // budget exhausted or service closed
                    }
                }
                active.fetch_sub(1, Ordering::AcqRel);
            });
        }
        if let Some(target) = stop_at {
            while service.budget_used() < target && active.load(Ordering::Acquire) > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        }
    });
    service.quiesce();
}

/// The paper's accuracy metric (Equation 1) for the service's decisions.
fn accuracy_of_decisions(platform: &SimPlatform, decisions: &[LabelBits]) -> f64 {
    let tasks = &platform.dataset.tasks;
    let total: f64 = tasks
        .iter()
        .map(|task| {
            let truth = &platform.dataset.truth[task.id.index()];
            f64::from(truth.agreement(&decisions[task.id.index()]) as u32) / task.n_labels() as f64
        })
        .sum();
    total / tasks.len() as f64
}

/// N concurrent campaigns over one shard pool, each gated at 0.02 against
/// the single-threaded reference.
fn run_multi_campaigns(
    platform: &SimPlatform,
    distances: &Distances,
    reference_accuracy: f64,
    n_campaigns: usize,
) {
    println!(
        "\nMultiplexing {n_campaigns} concurrent campaigns over one {SHARDS}-slot pool \
         (budget {BUDGET} each, independent shard maps and models)…"
    );
    let pool = CampaignPool::new(SHARDS, 256, 64);
    let campaigns: Vec<LabellingService> = (0..n_campaigns)
        .map(|_| {
            pool.attach(
                &platform.dataset.tasks,
                &platform.population.pool,
                ServeConfig {
                    n_shards: SHARDS,
                    queue_capacity: 256,
                    budget: BUDGET,
                    h: 2,
                    gossip_every: Some(GOSSIP_EVERY),
                    ..ServeConfig::default()
                },
            )
        })
        .collect();
    assert_eq!(pool.campaign_ids().len(), n_campaigns);

    // All campaigns race over the shared drains; meanwhile campaign 0
    // takes a hot-cell split and a demand-driven budget rebalance
    // mid-flight — elasticity must be invisible to its accuracy.
    std::thread::scope(|scope| {
        for campaign in &campaigns {
            scope.spawn(move || drive(campaign, platform, distances, None));
        }
        let stormed = &campaigns[0];
        scope.spawn(move || {
            let wait_for = |target: usize| {
                let deadline = std::time::Instant::now() + Duration::from_secs(120);
                while stormed.budget_used() < target && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
            };
            // Hot-cell split at ~40% spend, merged back at ~70%: the
            // round trip exercises both handoff directions mid-flight
            // while the campaign ends on its original partition (the
            // same shape `tests/shard_map.rs` pins bit-identical).
            wait_for(2 * BUDGET / 5);
            match stormed.split_hot() {
                Ok(report) => {
                    println!(
                        "  campaign 0: split cell {} (shard {} → {}, {} tasks, {} answers, \
                         {} budget) at map v{}",
                        report.cell,
                        report.from,
                        report.to,
                        report.moved_tasks,
                        report.moved_answers,
                        report.budget_moved,
                        report.map_version
                    );
                    wait_for(7 * BUDGET / 10);
                    match stormed.reassign_cell(report.cell, report.from) {
                        Ok(back) => println!(
                            "  campaign 0: merged cell {} back to shard {} at map v{}",
                            back.cell, back.to, back.map_version
                        ),
                        Err(e) => println!("  campaign 0: merge-back refused ({e})"),
                    }
                }
                Err(e) => println!("  campaign 0: split refused mid-flight ({e})"),
            }
        });
    });

    for (i, campaign) in campaigns.iter().enumerate() {
        campaign.quiesce();
        campaign.force_full_em();
        campaign.force_full_em();
        assert!(campaign.budget_used() <= BUDGET, "campaign {i} overcharged");
        let accuracy = accuracy_of_decisions(platform, &campaign.decisions());
        let gap = (accuracy - reference_accuracy).abs();
        println!(
            "  campaign {i} (map v{}): {} answers, {} budget spent, accuracy {:.1}% \
             (reference {:.1}%, |gap| {gap:.4})",
            campaign.map().version(),
            campaign.answers_total(),
            campaign.budget_used(),
            accuracy * 100.0,
            reference_accuracy * 100.0,
        );
        assert!(
            gap <= 0.02,
            "campaign {i} accuracy ({accuracy:.4}) must stay within 0.02 of the \
             single-threaded reference ({reference_accuracy:.4}) at the same budget \
             {BUDGET}; gap {gap:.4}"
        );
    }
    println!("  all {n_campaigns} campaigns within tolerance ✓");
    for campaign in campaigns {
        campaign.shutdown();
    }
    assert!(!pool.is_open(), "last campaign closes the pool");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_campaigns = args
        .iter()
        .position(|a| a == "--campaigns")
        .and_then(|i| args.get(i + 1))
        .map_or(1, |v| v.parse().expect("--campaigns takes a count"));

    println!("Generating synthetic Beijing dataset (200 POIs) and 60 workers…");
    let dataset = beijing(SEED);
    let population = generate_population(&PopulationConfig::with_workers(60, SEED ^ 1), &dataset);
    let platform = SimPlatform::new(dataset, population, BehaviorConfig::default(), SEED ^ 2);
    let distances = Distances::from_tasks(&platform.dataset.tasks);

    // ── Reference: the equivalent single-threaded campaign ────────────────
    // Uniform arrivals (boost 1.0) to match the service driver, which polls
    // every worker slice at the same rate.
    // One campaign's accuracy moves by about a point with its seed, so the
    // gate compares against the mean of several.
    println!(
        "\nRunning {REFERENCE_CAMPAIGNS} single-threaded reference campaigns (budget {BUDGET})…"
    );
    let reference = platform.mean_campaign_accuracy(
        &CampaignConfig {
            budget: BUDGET,
            h: 2,
            batch_size: 5,
            careless_arrival_boost: 1.0,
            seed: SEED ^ 3,
            ..CampaignConfig::default()
        },
        REFERENCE_CAMPAIGNS,
    );
    println!(
        "  reference final accuracy: {:.1}% (mean of {REFERENCE_CAMPAIGNS})",
        reference * 100.0
    );

    if n_campaigns > 1 {
        run_multi_campaigns(&platform, &distances, reference, n_campaigns);
        return;
    }

    // ── Concurrent service: phase 1 until half the budget is spent ────────
    println!(
        "\nStarting the sharded service ({SHARDS} shards, {PRODUCERS} producer threads, \
         worker-quality gossip every {GOSSIP_EVERY} answers)…"
    );
    let config = ServeConfig {
        n_shards: SHARDS,
        ingest_threads: 2,
        queue_capacity: 256,
        budget: BUDGET,
        h: 2,
        gossip_every: Some(GOSSIP_EVERY),
        ..ServeConfig::default()
    };
    let service =
        LabellingService::start(&platform.dataset.tasks, &platform.population.pool, config);
    drive(&service, &platform, &distances, Some(BUDGET / 2));
    let spent = service.budget_used();
    println!(
        "  phase 1 done: {spent} budget spent, {} answers collected",
        service.answers_total()
    );

    // ── Snapshot → verified restore: the campaign survives a restart ──────
    // One snapshot serves every later need: `snapshot_json` renders it and
    // records the size gauge, and parsing the document back gives the
    // in-memory base (exact — the format round-trips bit for bit) whose
    // cursors the incremental snapshot below chains from.
    let json = service.snapshot_json();
    let base = ServiceSnapshot::from_json(&json).expect("own snapshot parses");
    println!(
        "  snapshot: {} bytes of v3 JSON across {} shards (metrics gauge: {})",
        json.len(),
        base.shards.len(),
        service.metrics().snapshot_bytes
    );
    // restore_verified runs BOTH restore paths — harden-from-parameters
    // and full event-stream replay — and errors unless they agree bit for
    // bit, then hands back the (fast) parameter-restored service.
    let restored = LabellingService::restore_verified(
        &platform.dataset.tasks,
        &platform.population.pool,
        &base,
    )
    .expect("own snapshot restores, both paths agreeing");
    assert_eq!(
        restored.decisions(),
        service.decisions(),
        "restore must reproduce the snapshotted inference decisions exactly"
    );
    assert_eq!(restored.budget_used(), spent);
    println!("  restore verified: parameter path ≡ replay path, identical decisions ✓");
    service.shutdown();

    // ── Resume on the restored service until the budget runs out ──────────
    println!("\nResuming the restored campaign to budget exhaustion…");
    drive(&restored, &platform, &distances, None);
    // End-of-campaign hardening, twice: each call exchanges worker
    // statistics (the second cycle publishes the *post-sweep* statistics,
    // superseding the pre-sweep ones) and full-sweeps every shard, so the
    // final estimates settle on the pooled fixed point regardless of how
    // the racy mid-campaign gossip interleaved.
    restored.force_full_em();
    restored.force_full_em();
    let service_accuracy = accuracy_of_decisions(&platform, &restored.decisions());

    // ── Incremental snapshots: ship only what happened since the base ─────
    // The mid-campaign `base` plus one delta covering the resumed half
    // compacts into a document byte-identical to a fresh full snapshot —
    // and the compacted base restores with both paths agreeing (the
    // hardening sweeps above gave every shard a parameter checkpoint, so
    // this restore exercises the v3 fast path for real).
    let delta = restored
        .snapshot_delta(&base.cursors())
        .expect("delta since the mid-campaign base");
    let compacted = base
        .compact(std::slice::from_ref(&delta))
        .expect("delta chains onto its base");
    let full = restored.snapshot_json();
    assert_eq!(
        compacted.to_json(),
        full,
        "compact(base, delta) must equal a one-shot full snapshot byte for byte"
    );
    println!(
        "\n  incremental snapshot: base {} B + delta {} B; compact(base, delta) ≡ \
         full snapshot ({} B) ✓",
        base.to_json().len(),
        delta.to_json().len(),
        full.len()
    );
    let reverified = LabellingService::restore_verified(
        &platform.dataset.tasks,
        &platform.population.pool,
        &compacted,
    )
    .expect("compacted snapshot restores, parameter path ≡ replay path");
    assert_eq!(reverified.decisions(), restored.decisions());
    println!("  compacted restore verified: parameter path ≡ replay path ✓");
    reverified.shutdown();

    let metrics = restored.metrics();
    println!("  per-shard metrics:");
    println!(
        "    shard  submits  requests  assigned  em_rebuilds  gossip_rounds  gossip_folds  events  budget_left"
    );
    for s in &metrics.shards {
        println!(
            "    {:>5}  {:>7}  {:>8}  {:>8}  {:>11}  {:>13}  {:>12}  {:>6}  {:>11}",
            s.shard,
            s.submits,
            s.requests,
            s.assigned,
            s.em_rebuilds,
            s.gossip_rounds,
            s.gossip_folds,
            s.events_len,
            s.budget_remaining
        );
    }
    let gossip_rounds: u64 = metrics.shards.iter().map(|s| s.gossip_rounds).sum();
    let gossip_folds: u64 = metrics.shards.iter().map(|s| s.gossip_folds).sum();
    assert!(
        gossip_rounds > 0 && gossip_folds > 0,
        "gossip must actually exchange worker statistics during the campaign"
    );
    println!(
        "  pipeline: {} commands processed, {:.0} submits/sec since restore",
        metrics.processed,
        metrics.submits_per_sec()
    );
    println!(
        "\n  service final accuracy:   {:.1}%",
        service_accuracy * 100.0
    );
    println!(
        "  reference final accuracy: {:.1}% (mean of {REFERENCE_CAMPAIGNS})",
        reference * 100.0
    );

    // Same budget on both sides (BUDGET = 4000): with worker-quality
    // gossip the sharded service closes the accuracy gap without the 2×
    // budget the pre-gossip service needed to compensate for per-shard
    // P(i_w) starvation.
    let gap = (service_accuracy - reference).abs();
    assert!(
        gap <= 0.02,
        "sharded service accuracy ({service_accuracy:.4}) must stay within 0.02 \
         of the single-threaded reference ({:.4}) at the same budget {BUDGET}; gap {gap:.4}",
        reference
    );
    println!("  within tolerance (|gap| = {gap:.4} <= 0.02) ✓");
    restored.shutdown();
}
