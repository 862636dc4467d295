//! Replays each shard's applied stream through a fresh
//! `crowd_core::Framework` to time the core layers call by call.
//!
//! A shard's stream is its answer log plus its recorded out-of-stream
//! events (peer folds and hardening sweeps), each at the log position it
//! was applied at. Replaying both in that order rebuilds the shard's model
//! bit for bit; the numbers are rejected when it does not.

use std::time::Duration;

use crowd_core::{Framework, WorkerStatDelta};
use crowd_serve::{GossipEventKind, LabellingService};

use crate::stats::{ms, us};
use crate::trace::Spans;

#[derive(Default)]
pub struct Replay {
    /// `Framework::submit` calls that triggered no rebuild, µs each.
    pub submit_us: Vec<f64>,
    /// Submits that triggered a delayed rebuild, ms each.
    pub rebuild_ms: Vec<f64>,
    /// EM iterations of each delayed rebuild.
    pub iterations: Vec<f64>,
    pub unconverged: usize,
    /// Iterations of the hardening sweeps.
    pub harden_iterations: Vec<f64>,
    /// Time spent in rebuilds and hardening sweeps.
    pub em_time: Duration,
    /// Iterations run by rebuilds and hardening sweeps.
    pub em_iterations: usize,
    /// Shards whose replayed parameters differ from the live ones.
    pub mismatches: Vec<String>,
}

impl Replay {
    pub fn ms_per_iteration(&self) -> f64 {
        ms(self.em_time) / self.em_iterations.max(1) as f64
    }
}

pub fn replay(service: &LabellingService, spans: &mut Spans<'_>) -> Replay {
    let mut out = Replay::default();
    for s in 0..service.n_shards() {
        let shard = service.shard(s);
        let live = shard.framework();
        let mut fw = Framework::with_distances(
            live.tasks().clone(),
            live.workers().clone(),
            live.config().clone(),
            *live.distances(),
        );
        let answers = live.log().answers();
        let events = shard.gossip_events();
        if live.log().pruned() > 0 {
            out.mismatches.push(format!("shard {s}: log was pruned"));
            continue;
        }
        let mut next = 0;
        for position in 0..=answers.len() {
            let mut folds: Vec<WorkerStatDelta> = Vec::new();
            while let Some(event) = events.get(next).filter(|e| e.position == position) {
                next += 1;
                match &event.kind {
                    GossipEventKind::Fold(delta) => folds.push(delta.clone()),
                    kind => {
                        fold(&mut fw, &mut folds, spans);
                        if matches!(kind, GossipEventKind::FullSweep) {
                            let ((), took) =
                                spans.time("core.force_full_em", 0, 0, || fw.force_full_em());
                            out.em_time += took;
                            if let Some(report) = fw.model().last_report() {
                                out.harden_iterations.push(report.iterations as f64);
                                out.em_iterations += report.iterations;
                            }
                        } else {
                            out.mismatches
                                .push(format!("shard {s}: cannot replay event {kind:?}"));
                        }
                    }
                }
            }
            fold(&mut fw, &mut folds, spans);
            let Some(a) = answers.get(position) else {
                break;
            };
            let (result, took) =
                spans.time("core.submit", 0, 0, || fw.submit(a.worker, a.task, a.bits));
            match result {
                Ok(false) => out.submit_us.push(us(took)),
                Ok(true) => {
                    out.rebuild_ms.push(ms(took));
                    out.em_time += took;
                    if let Some(report) = fw.model().last_report() {
                        out.iterations.push(report.iterations as f64);
                        out.em_iterations += report.iterations;
                        out.unconverged += usize::from(!report.converged);
                    }
                }
                Err(e) => out
                    .mismatches
                    .push(format!("shard {s}: replayed submit failed: {e}")),
            }
        }
        if fw.params() != live.params() {
            out.mismatches.push(format!(
                "shard {s}: replayed parameters differ from the live shard"
            ));
        }
    }
    out
}

/// Applies the pending folds of one position as one batch, as the shard
/// did.
fn fold(fw: &mut Framework, folds: &mut Vec<WorkerStatDelta>, spans: &mut Spans<'_>) {
    if !folds.is_empty() {
        spans.time("core.fold_peer_stats", 0, 0, || {
            fw.fold_peer_stats_batch(folds)
        });
        folds.clear();
    }
}
