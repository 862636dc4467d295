//! Serve-layer observability: the per-service [`ObsHub`] and the bridge
//! implementing [`crowd_core::Recorder`] over it.
//!
//! Every [`LabellingService`](crate::LabellingService) owns one hub. The
//! drain threads record shard queue-wait and per-answer apply time into
//! its histograms; the core recorder bridge feeds EM-rebuild timings and
//! iteration counts (split dirty vs full sweep), the unconverged-rebuild
//! counter and the last-residual gauge, and assignment timings; the
//! snapshot paths
//! record capture/restore durations; a periodic self-sampler thread
//! appends queue-depth and event-log-length gauges. The trace ring
//! follows individual labelling requests across threads (see
//! [`crowd_obs::TraceBuf`]) and is drained by `GET /debug/trace`.
//!
//! The hub is process-local by design: snapshots do **not** serialize
//! it, and a restored service starts a fresh one (documented in
//! `docs/OBSERVABILITY.md`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crowd_core::{EmReport, Recorder};
use crowd_obs::{GaugeSeries, Histogram, TraceBuf};

/// Buffered trace events before the ring drops the oldest.
const TRACE_CAP: usize = 4096;
/// Buffered self-sampler points per gauge series.
const SERIES_CAP: usize = 512;

/// All observability state for one running service.
#[derive(Debug)]
pub struct ObsHub {
    /// Time commands spent waiting in their shard's ingestion queue.
    pub queue_wait: Histogram,
    /// Per-answer apply time under the shard write lock (includes any
    /// incremental model update; a triggered delayed rebuild shows up
    /// here *and* in the EM histograms).
    pub apply: Histogram,
    /// Full-sweep EM rebuild durations.
    pub em_full: Histogram,
    /// Dirty-set EM rebuild durations.
    pub em_dirty: Histogram,
    /// Assignment-round durations (the assigner's inner loop).
    pub assign: Histogram,
    /// Gossip publish + fold round durations.
    pub gossip_round: Histogram,
    /// Snapshot capture (quiesce + render) durations.
    pub snapshot: Histogram,
    /// Snapshot restore durations (recorded into the *restored*
    /// service's hub).
    pub restore: Histogram,
    /// The request trace ring (span ids across HTTP → enqueue → drain →
    /// EM → gossip fold).
    pub trace: TraceBuf,
    /// Self-sampled total ingestion-queue depth over time.
    pub queue_depth_series: GaugeSeries,
    /// Self-sampled total recorded-event-log length over time.
    pub events_len_series: GaugeSeries,
    /// EM iterations (E-steps) per full-sweep rebuild.
    pub em_full_iterations: Histogram,
    /// EM iterations (E-steps) per dirty-set rebuild.
    pub em_dirty_iterations: Histogram,
    /// Rebuilds that stopped at `EmConfig::max_iterations` without
    /// reaching the tolerance.
    pub em_unconverged: AtomicU64,
    /// Final residual `‖F(x) − x‖∞` of the most recent rebuild that ran
    /// at least one iteration, as `f64` bits (read it with
    /// [`ObsHub::em_last_delta`]).
    pub em_last_delta_bits: AtomicU64,
}

impl ObsHub {
    /// A fresh hub with empty histograms and rings.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue_wait: Histogram::new(),
            apply: Histogram::new(),
            em_full: Histogram::new(),
            em_dirty: Histogram::new(),
            assign: Histogram::new(),
            gossip_round: Histogram::new(),
            snapshot: Histogram::new(),
            restore: Histogram::new(),
            trace: TraceBuf::new(TRACE_CAP),
            queue_depth_series: GaugeSeries::new(SERIES_CAP),
            events_len_series: GaugeSeries::new(SERIES_CAP),
            em_full_iterations: Histogram::new(),
            em_dirty_iterations: Histogram::new(),
            em_unconverged: AtomicU64::new(0),
            em_last_delta_bits: AtomicU64::new(0),
        }
    }

    /// Final residual of the most recent EM rebuild (0 before any).
    #[must_use]
    pub fn em_last_delta(&self) -> f64 {
        f64::from_bits(self.em_last_delta_bits.load(Ordering::Relaxed))
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

/// Bridges [`crowd_core::Recorder`] onto an [`ObsHub`]: attached to
/// every shard's framework at service construction, so EM rebuilds and
/// assignment rounds inside the core land in the hub's histograms.
#[derive(Debug)]
pub struct CoreRecorder {
    hub: Arc<ObsHub>,
}

impl CoreRecorder {
    /// A recorder feeding `hub`.
    #[must_use]
    pub fn new(hub: Arc<ObsHub>) -> Self {
        Self { hub }
    }
}

impl Recorder for CoreRecorder {
    fn em_rebuild(&self, took: Duration, report: &EmReport) {
        let hub = &self.hub;
        let (latency, iterations) = if report.full_sweep {
            (&hub.em_full, &hub.em_full_iterations)
        } else {
            (&hub.em_dirty, &hub.em_dirty_iterations)
        };
        latency.record_duration(took);
        iterations.record(report.iterations as u64);
        if !report.converged {
            hub.em_unconverged.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(delta) = report.max_delta_history.last() {
            hub.em_last_delta_bits
                .store(delta.to_bits(), Ordering::Relaxed);
        }
    }

    fn assignment(&self, took: Duration, _pairs: usize) {
        self.hub.assign.record_duration(took);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_recorder_splits_em_by_sweep_kind() {
        let hub = Arc::new(ObsHub::new());
        let rec = CoreRecorder::new(Arc::clone(&hub));
        let report = |full_sweep, iterations, converged, last| EmReport {
            iterations,
            converged,
            full_sweep,
            answers_swept: 10,
            max_delta_history: vec![last; iterations],
            log_likelihood_history: vec![-1.0; iterations],
        };
        rec.em_rebuild(Duration::from_micros(5), &report(true, 100, false, 0.02));
        rec.em_rebuild(Duration::from_micros(2), &report(false, 7, true, 0.004));
        rec.em_rebuild(Duration::from_micros(3), &report(false, 9, true, 0.001));
        rec.assignment(Duration::from_micros(1), 4);
        assert_eq!(hub.em_full.count(), 1);
        assert_eq!(hub.em_dirty.count(), 2);
        assert_eq!(hub.assign.count(), 1);
        assert_eq!(hub.em_full.sum(), 5_000);
        assert_eq!(hub.em_full_iterations.sum(), 100);
        assert_eq!(hub.em_dirty_iterations.sum(), 16);
        assert_eq!(hub.em_unconverged.load(Ordering::Relaxed), 1);
        assert_eq!(hub.em_last_delta(), 0.001);
    }
}
