//! Per-layer numbers of a traced run, named after the module they
//! measure. Three sources feed them: the spans and timings the benchmark
//! takes around its own calls, the instruments the service exports
//! (`ObsHub`, `ServiceMetrics` and one Prometheus scrape), and the replay
//! of each shard's stream through `crowd_core::Framework`.

use std::time::Duration;

use crowd_serve::{LabellingService, ServiceMetrics};

use crate::lifecycle::{Cycle, HttpStage, ServerSide};
use crate::replay::Replay;
use crate::stats::{max, median, ms, ns_quantile_us, quantile, Outcome};
use crate::trace::Tracer;

/// The instruments of the service that carried a workload's answers,
/// read right after its traffic drained.
pub struct Primary {
    metrics: ServiceMetrics,
    shards: usize,
    /// Traffic wall time.
    wall: Duration,
    /// Drain tail after the last answer was handed over.
    quiesce: Duration,
    queue_wait_p50_us: f64,
    queue_wait_p99_us: f64,
    apply_p50_us: f64,
    em_full: u64,
    em_dirty: u64,
    em_busy: Duration,
    gossip_round_p50_us: f64,
}

impl Primary {
    pub fn read(service: &LabellingService, wall: Duration, quiesce: Duration) -> Self {
        let hub = service.obs();
        let queue_wait = hub.queue_wait.nonzero_buckets();
        let (full, dirty) = (hub.em_full.summary(), hub.em_dirty.summary());
        Self {
            metrics: service.metrics(),
            shards: service.n_shards(),
            wall,
            quiesce,
            queue_wait_p50_us: ns_quantile_us(&queue_wait, 0.5),
            queue_wait_p99_us: ns_quantile_us(&queue_wait, 0.99),
            apply_p50_us: ns_quantile_us(&hub.apply.nonzero_buckets(), 0.5),
            em_full: full.count,
            em_dirty: dirty.count,
            em_busy: Duration::from_nanos(full.sum + dirty.sum),
            gossip_round_p50_us: ns_quantile_us(&hub.gossip_round.nonzero_buckets(), 0.5),
        }
    }
}

pub struct Inputs {
    /// Median time of one end-of-traffic hardening.
    pub harden_ms: f64,
    pub primary: Option<Primary>,
    pub replay: Replay,
    pub http: Option<HttpStage>,
    pub cycles: Vec<Cycle>,
    /// p99 time the benchmark's own `submit` call blocked, where it made
    /// them; otherwise the `/labels` handler p99 of the scrape.
    pub enqueue_p99_us: Option<f64>,
    /// Traced minus untraced headline duration, as a share of untraced.
    pub overhead_pct: f64,
}

pub fn report(out: &mut Outcome, x: &Inputs, tracer: &Tracer) {
    let visits = x.http.as_ref().map(|h| &h.visits);
    let v = |f: &dyn Fn(&crate::visits::Visits) -> f64| visits.map_or(0.0, f);
    let no_server = ServerSide::default();
    let server = x.http.as_ref().map_or(&no_server, |h| &h.server);
    out.metric("http.handler_request_us", server.handler_request_us, "us");
    out.metric("http.handler_labels_us", server.handler_labels_us, "us");
    out.metric("http.wire_request_us", server.wire_request_us, "us");
    out.metric(
        "http.request_p99_us",
        v(&|v| quantile(&v.request_due_us, 0.99)),
        "us",
    );
    out.metric(
        "http.labels_p99_us",
        v(&|v| quantile(&v.labels_us, 0.99)),
        "us",
    );
    out.metric("http.non2xx", v(&|v| v.non2xx as f64), "count");
    out.metric("gen.late_p99_us", v(&|v| quantile(&v.late_us, 0.99)), "us");

    let enqueue = x.enqueue_p99_us.unwrap_or(server.handler_labels_p99_us);
    out.metric("service.enqueue_p99_us", enqueue, "us");
    let p = x.primary.as_ref();
    let pf = |f: &dyn Fn(&Primary) -> f64| p.map_or(0.0, f);
    out.metric("service.quiesce_ms", pf(&|p| ms(p.quiesce)), "ms");
    out.metric(
        "service.queue_wait_p50_us",
        pf(&|p| p.queue_wait_p50_us),
        "us",
    );
    out.metric(
        "service.queue_wait_p99_us",
        pf(&|p| p.queue_wait_p99_us),
        "us",
    );
    out.metric(
        "service.queue_hwm",
        pf(&|p| {
            p.metrics
                .shards
                .iter()
                .map(|s| s.queue_hwm)
                .max()
                .unwrap_or(0) as f64
        }),
        "count",
    );
    out.metric(
        "service.shard_skew",
        pf(&|p| {
            let submits: Vec<f64> = p.metrics.shards.iter().map(|s| s.submits as f64).collect();
            max(&submits)
                / submits
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
                    .max(1.0)
        }),
        "ratio",
    );
    out.metric(
        "service.rerouted",
        pf(&|p| p.metrics.rerouted as f64),
        "count",
    );
    out.metric("shard.apply_p50_us", pf(&|p| p.apply_p50_us), "us");

    let r = &x.replay;
    out.metric("core.submit_p50_us", median(&r.submit_us), "us");
    out.metric(
        "em.rebuilds",
        pf(&|p| p.metrics.shards.iter().map(|s| s.em_rebuilds).sum::<u64>() as f64),
        "count",
    );
    out.metric(
        "em.dirty_share",
        pf(&|p| p.em_dirty as f64 / (p.em_full + p.em_dirty).max(1) as f64),
        "ratio",
    );
    out.metric("em.busy_ms", pf(&|p| ms(p.em_busy)), "ms");
    out.metric(
        "em.busy_share",
        pf(&|p| p.em_busy.as_secs_f64() / (p.shards as f64 * p.wall.as_secs_f64()).max(1e-9)),
        "ratio",
    );
    out.metric("em.rebuild_p50_ms", median(&r.rebuild_ms), "ms");
    out.metric("em.iterations_p50", median(&r.iterations), "count");
    out.metric("em.iterations_max", max(&r.iterations), "count");
    out.metric(
        "em.unconverged_ratio",
        r.unconverged as f64 / r.iterations.len().max(1) as f64,
        "ratio",
    );
    out.metric("em.ms_per_iteration", r.ms_per_iteration(), "ms");
    out.metric("em.harden_ms", x.harden_ms, "ms");
    out.metric(
        "em.harden_iterations",
        r.harden_iterations.iter().sum(),
        "count",
    );

    out.metric("assign.p50_us", server.assign_p50_us, "us");
    out.metric("assign.p99_us", server.assign_p99_us, "us");
    out.metric(
        "assign.issued_per_request",
        v(&|v| v.issued.iter().sum::<usize>() as f64 / v.issued.len().max(1) as f64),
        "count",
    );
    out.metric(
        "assign.empty_ratio",
        v(&|v| v.issued.iter().filter(|&&n| n == 0).count() as f64 / v.issued.len().max(1) as f64),
        "ratio",
    );

    out.metric(
        "gossip.rounds",
        pf(&|p| {
            p.metrics
                .shards
                .iter()
                .map(|s| s.gossip_rounds)
                .sum::<u64>() as f64
        }),
        "count",
    );
    out.metric(
        "gossip.folds",
        pf(&|p| p.metrics.shards.iter().map(|s| s.gossip_folds).sum::<u64>() as f64),
        "count",
    );
    out.metric("gossip.round_p50_us", pf(&|p| p.gossip_round_p50_us), "us");

    let c = |f: &dyn Fn(&Cycle) -> f64| median(&x.cycles.iter().map(f).collect::<Vec<_>>());
    out.metric("snapshot.capture_ms", c(&|c| ms(c.capture)), "ms");
    out.metric("snapshot.render_ms", c(&|c| ms(c.render)), "ms");
    out.metric("snapshot.parse_ms", c(&|c| ms(c.parse)), "ms");
    out.metric("snapshot.restore_ms", c(&|c| ms(c.restore)), "ms");
    out.metric("snapshot.events", c(&|c| c.events as f64), "count");
    out.metric(
        "snapshot.bytes_per_answer",
        c(&|c| c.bytes as f64 / c.answers.max(1) as f64),
        "bytes",
    );
    out.metric("trace.overhead_pct", x.overhead_pct, "%");
    out.metric("trace.spans", tracer.len() as f64, "count");
}
