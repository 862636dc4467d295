//! The stages every workload shares: serving worker visits over HTTP,
//! hardening, and the snapshot → restart cycle.

use std::time::Duration;

use crowd_serve::{HttpConfig, HttpServer, LabellingService, ServiceSnapshot};

use crate::client::{prom_quantile, Client};
use crate::stats::{median, ns_quantile_us, us};
use crate::trace::{Spans, Tracer};
use crate::visits::{self, Stop, Visits};
use crate::world::World;

/// One snapshot → restart cycle, document text to serving service.
pub struct Cycle {
    /// `LabellingService::snapshot` (quiesce and capture).
    pub capture: Duration,
    /// `ServiceSnapshot::to_json`.
    pub render: Duration,
    /// `ServiceSnapshot::from_json`.
    pub parse: Duration,
    /// `LabellingService::restore`.
    pub restore: Duration,
    pub bytes: usize,
    pub events: usize,
    pub answers: usize,
}

/// Snapshots `service`, renders and parses the document, and restores a
/// new service from it. The restored service must decide every task as
/// the source does and hold the same answers.
pub fn restart_cycle(
    service: &LabellingService,
    world: &World,
    spans: &mut Spans<'_>,
) -> Result<(Cycle, LabellingService), String> {
    let root = spans.open();
    let began = std::time::Instant::now();
    let (snapshot, capture) = spans.time("snapshot.capture", root, 0, || service.snapshot());
    let (text, render) = spans.time("snapshot.render", root, 0, || snapshot.to_json());
    let (parsed, parse) = spans.time("snapshot.parse", root, 0, || {
        ServiceSnapshot::from_json(&text)
    });
    let parsed = parsed.map_err(|e| format!("own snapshot does not parse: {e}"))?;
    let (restored, restore) = spans.time("snapshot.restore", root, 0, || {
        LabellingService::restore(world.tasks(), world.workers(), &parsed)
    });
    spans.close(
        root,
        "restart_cycle",
        0,
        0,
        began,
        std::time::Instant::now(),
    );
    let restored = restored.map_err(|e| format!("own snapshot does not restore: {e}"))?;
    if restored.decisions() != service.decisions()
        || restored.answers_total() != service.answers_total()
    {
        restored.shutdown();
        return Err("restored service differs from its source".into());
    }
    let cycle = Cycle {
        capture,
        render,
        parse,
        restore,
        bytes: text.len(),
        events: snapshot.shards.iter().map(|s| s.gossip_events.len()).sum(),
        answers: snapshot.shards.iter().map(|s| s.answers.len()).sum(),
    };
    Ok((cycle, restored))
}

/// The one Prometheus scrape a run reads.
pub fn scrape(addr: std::net::SocketAddr) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    match client.send("GET", "/metrics?format=prometheus", "") {
        Ok((200, text)) => Ok(text),
        Ok((status, _)) => Err(format!("scrape -> {status}")),
        Err(e) => Err(format!("scrape: {e}")),
    }
}

/// What one HTTP stage observed: the client side of every visit, and
/// the server side read from one Prometheus scrape and the serving
/// service's `ObsHub` at the end of the stage.
pub struct HttpStage {
    pub visits: Visits,
    pub server: ServerSide,
}

/// Server-side latencies of one HTTP stage, µs.
#[derive(Default)]
pub struct ServerSide {
    /// p50 of `crowd_http_request_seconds{route="tasks_request"}`.
    pub handler_request_us: f64,
    /// p50 and p99 of `crowd_http_request_seconds{route="labels"}`.
    pub handler_labels_us: f64,
    pub handler_labels_p99_us: f64,
    /// Client round-trip p50 of `/tasks/request` minus its handler p50:
    /// socket, request parsing and response rendering.
    pub wire_request_us: f64,
    /// `ObsHub.assign` p50 and p99.
    pub assign_p50_us: f64,
    pub assign_p99_us: f64,
}

/// Serves worker visits from `service` over HTTP until `stop`, starting
/// at visit `first` of the seeded visit order, scrapes the server once,
/// and hands the service back.
pub fn serve_http(
    service: LabellingService,
    world: &World,
    rate: f64,
    first: usize,
    stop: Stop,
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> Option<(HttpStage, LabellingService)> {
    let server = match HttpServer::start(
        service,
        world.tasks().clone(),
        world.workers().clone(),
        HttpConfig::default(),
    ) {
        Ok(server) => server,
        Err(e) => {
            failures.push(format!("bind: {e}"));
            return None;
        }
    };
    let mut order = world.visit_order();
    let n = order.len();
    order.rotate_left(first % n);
    let visits = visits::drive(server.addr(), world, &order, rate, stop, tracer);
    let prom = scrape(server.addr()).unwrap_or_else(|e| {
        failures.push(e);
        String::new()
    });
    let Some(service) = server.shutdown() else {
        failures.push("HTTP server lost its service".into());
        return None;
    };
    let handler_us = |route: &str, q: f64| {
        let label = format!("route=\"{route}\"");
        prom_quantile(&prom, "crowd_http_request_seconds", &label, q) * 1e6
    };
    let assign = service.obs().assign.nonzero_buckets();
    let handler_request_us = handler_us("tasks_request", 0.5);
    let server = ServerSide {
        handler_request_us,
        handler_labels_us: handler_us("labels", 0.5),
        handler_labels_p99_us: handler_us("labels", 0.99),
        wire_request_us: median(&visits.request_rtt_us) - handler_request_us,
        assign_p50_us: ns_quantile_us(&assign, 0.5),
        assign_p99_us: ns_quantile_us(&assign, 0.99),
    };
    Some((HttpStage { visits, server }, service))
}

/// Times `passes` hardening sweeps (`force_full_em`) over every shard.
/// A gossip campaign hardens twice, as the repository's campaign examples
/// do: the second pass folds the statistics the first one produced.
pub fn harden(service: &LabellingService, passes: usize, spans: &mut Spans<'_>) -> Duration {
    (0..passes)
        .map(|_| {
            spans
                .time("service.force_full_em", 0, 0, || service.force_full_em())
                .1
        })
        .sum()
}

pub fn cycle_us(c: &Cycle) -> f64 {
    us(c.capture + c.render + c.parse + c.restore)
}
