//! Instrumentation hooks: the [`Recorder`] trait and its handle.
//!
//! `crowd_core` stays dependency-free, so instead of depending on an
//! observability crate it *defines* the sink interface and lets the
//! embedding layer (e.g. `crowd_serve`) plug one in. When no recorder
//! is attached — the default — the hot paths skip even the clock reads:
//! every instrumentation site checks [`RecorderHandle::is_enabled`]
//! before touching `Instant::now()`, so an uninstrumented `Framework`
//! pays one branch on a `None` per event, nothing more.
//!
//! The handle is deliberately excluded from `serde` state: recorders
//! describe a *process*, not a campaign, so snapshots neither carry nor
//! restore them (the embedder re-attaches after restore).

use std::sync::Arc;
use std::time::Duration;

use crate::EmReport;

/// A sink for timing events produced inside the core framework.
///
/// Implementations must be cheap and non-blocking — these methods are
/// called from the EM and assignment hot paths.
pub trait Recorder: Send + Sync {
    /// An EM rebuild finished in `took`. The report says which sweep
    /// kind ran (`full_sweep`), how many answers it visited, how many
    /// iterations it took, whether it `converged` before the iteration
    /// cap, and the final residual (the last `max_delta_history` entry).
    fn em_rebuild(&self, took: Duration, report: &EmReport);

    /// One assignment round finished: the assigner produced `pairs`
    /// worker–task pairs in `took`.
    fn assignment(&self, took: Duration, pairs: usize);
}

/// A cloneable, optional [`Recorder`] slot held by [`Framework`] and
/// [`OnlineModel`].
///
/// The handle is [`Default`]-empty, compares irrelevant to model state
/// (it is skipped by `serde`), and is safe to clone across shards — all
/// clones share the same underlying recorder.
///
/// [`Framework`]: crate::Framework
/// [`OnlineModel`]: crate::OnlineModel
#[derive(Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RecorderHandle")
            .field(&if self.0.is_some() { "attached" } else { "none" })
            .finish()
    }
}

impl RecorderHandle {
    /// A handle wrapping `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self(Some(recorder))
    }

    /// The empty handle: every event is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Self(None)
    }

    /// Whether a recorder is attached. Instrumentation sites gate their
    /// `Instant::now()` calls on this, keeping the disabled path free
    /// of clock reads.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Forwards an EM rebuild event, if a recorder is attached.
    pub fn em_rebuild(&self, took: Duration, report: &EmReport) {
        if let Some(r) = &self.0 {
            r.em_rebuild(took, report);
        }
    }

    /// Forwards an assignment event, if a recorder is attached.
    pub fn assignment(&self, took: Duration, pairs: usize) {
        if let Some(r) = &self.0 {
            r.assignment(took, pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting {
        em: AtomicUsize,
        assign: AtomicUsize,
    }

    impl Recorder for Counting {
        fn em_rebuild(&self, _took: Duration, report: &EmReport) {
            self.em.fetch_add(report.iterations, Ordering::Relaxed);
        }

        fn assignment(&self, _took: Duration, _pairs: usize) {
            self.assign.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn handle_forwards_when_attached_and_noops_when_not() {
        let none = RecorderHandle::default();
        assert!(!none.is_enabled());
        let report = EmReport {
            iterations: 3,
            converged: false,
            full_sweep: false,
            answers_swept: 7,
            max_delta_history: vec![0.3, 0.2, 0.1],
            log_likelihood_history: vec![-3.0, -2.0, -1.0],
        };
        none.em_rebuild(Duration::ZERO, &report); // no-op, no panic

        let sink = Arc::new(Counting {
            em: AtomicUsize::new(0),
            assign: AtomicUsize::new(0),
        });
        let handle = RecorderHandle::new(sink.clone());
        assert!(handle.is_enabled());
        let clone = handle.clone();
        handle.em_rebuild(Duration::from_millis(1), &report);
        clone.assignment(Duration::from_millis(2), 3);
        assert_eq!(
            sink.em.load(Ordering::Relaxed),
            3,
            "the report is forwarded"
        );
        assert_eq!(sink.assign.load(Ordering::Relaxed), 1);
        assert_eq!(format!("{handle:?}"), "RecorderHandle(\"attached\")");
    }
}
