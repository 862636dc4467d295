//! The three workloads. Each is one campaign lifecycle as an operator
//! runs it: set up, carry the workload's traffic, harden, snapshot and
//! restart, and serve worker visits over HTTP. The workloads differ in
//! which stage carries the load; `README.md` says why each was chosen.

use std::time::{Duration, Instant};

use crowd_core::{LabelBits, TaskId, WorkerId};
use crowd_serve::{LabellingService, ServeConfig, ServiceMetrics};

use crate::layers::{self, Primary};
use crate::lifecycle::{self, Cycle, HttpStage};
use crate::replay::{self, Replay};
use crate::stats::{mean, median, ms, quantile, us, Outcome};
use crate::trace::Tracer;
use crate::visits::Stop;
use crate::world::{Scale, World, H};

pub const NAMES: [&str; 3] = ["http_campaign", "ingest_replay", "restart"];

/// Largest accuracy gap to the single-threaded reference campaign.
const ACCURACY_GATE: f64 = 0.02;

pub struct Run<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// `Some` for a traced run: per-layer numbers instead of end-to-end.
    pub tracer: Option<&'a Tracer>,
}

impl Run<'_> {
    /// Traced runs measure one untraced then one traced iteration;
    /// untraced runs iterate until `seconds` have passed since `began`.
    fn more(&self, done: usize, began: Instant) -> bool {
        match self.tracer {
            Some(_) => done < 2,
            None => done == 0 || began.elapsed().as_secs_f64() < self.seconds,
        }
    }

    /// The tracer for iteration `i`: the last iteration of a traced run
    /// records spans, every other one runs with tracing off.
    fn tracer_for<'t>(&'t self, i: usize, off: &'t Tracer) -> &'t Tracer {
        match self.tracer {
            Some(t) if i == 1 => t,
            _ => off,
        }
    }
}

/// What a workload accumulates across its iterations.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failures: Vec<String>,
    setups: Vec<f64>,
    harden_ms: Vec<f64>,
    accuracy: Vec<f64>,
    answers_per_s: Vec<f64>,
    cycles: Vec<Cycle>,
    http: Option<HttpStage>,
    /// Headline duration of the untraced and the traced iteration.
    headline: Vec<f64>,
    primary: Option<Primary>,
    replay: Option<Replay>,
    enqueue_us: Vec<f64>,
}

impl Acc {
    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn add_http(&mut self, stage: HttpStage) {
        self.attempted += stage.visits.calls;
        self.failures.extend(stage.visits.failures.iter().cloned());
        match &mut self.http {
            Some(all) => {
                // Stages run one after another: their walls add up.
                let wall = all.visits.wall + stage.visits.wall;
                all.visits.merge(stage.visits);
                all.visits.wall = wall;
                all.server = stage.server;
            }
            None => self.http = Some(stage),
        }
    }

    /// Runs `n` restart cycles of `service`. With `reopen`, each restarted
    /// service then serves `scale.reopen_visits` worker visits over HTTP
    /// before it shuts down.
    fn add_cycles(
        &mut self,
        service: &LabellingService,
        world: &World,
        n: usize,
        reopen: Option<&Scale>,
        tracer: &Tracer,
    ) {
        for _ in 0..n {
            self.attempted += 1;
            let cycle = lifecycle::restart_cycle(service, world, &mut tracer.local());
            let restored = match cycle {
                Ok((cycle, restored)) => {
                    self.cycles.push(cycle);
                    restored
                }
                Err(e) => {
                    self.failures.push(e);
                    continue;
                }
            };
            let Some(scale) = reopen else {
                restored.shutdown();
                continue;
            };
            let first = self.http.as_ref().map_or(0, |h| h.visits.visits as usize);
            let stop = Stop::Visits(scale.reopen_visits);
            let served = lifecycle::serve_http(
                restored,
                world,
                scale.visit_rate,
                first,
                stop,
                tracer,
                &mut self.failures,
            );
            if let Some((stage, restored)) = served {
                self.add_http(stage);
                restored.shutdown();
            }
        }
    }

    fn harden(&mut self, service: &LabellingService, passes: usize, tracer: &Tracer) {
        self.attempted += 1;
        self.harden_ms
            .push(ms(lifecycle::harden(service, passes, &mut tracer.local())));
    }

    /// Reads the traced iteration's primary service: instruments now,
    /// then (after hardening) the replay.
    fn observe(
        &mut self,
        run: &Run<'_>,
        service: &LabellingService,
        wall: Duration,
        quiesce: Duration,
    ) {
        if run.tracer.is_some() {
            self.primary = Some(Primary::read(service, wall, quiesce));
        }
    }

    fn replay(&mut self, run: &Run<'_>, service: &LabellingService) {
        if let Some(tracer) = run.tracer {
            let r = replay::replay(service, &mut tracer.local());
            self.failures.extend(r.mismatches.iter().cloned());
            self.replay = Some(r);
        }
    }

    fn finish(self, run: &Run<'_>) -> Outcome {
        let mut out = Outcome {
            attempted: self.attempted,
            failures: self.failures.clone(),
            metrics: Vec::new(),
        };
        match run.tracer {
            Some(tracer) => layers::report(&mut out, &self.into_layers(), tracer),
            None => self.end_to_end(&mut out),
        }
        out
    }

    fn end_to_end(&self, out: &mut Outcome) {
        let http = self.http.as_ref();
        let visits = |f: fn(&crate::visits::Visits) -> f64| http.map_or(0.0, |h| f(&h.visits));
        out.metric("setup_s", median(&self.setups), "s");
        out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
        out.metric("success_ratio", out.success_ratio(), "ratio");
        out.metric(
            "request_p50_us",
            visits(|v| quantile(&v.request_due_us, 0.5)),
            "us",
        );
        out.metric(
            "labels_p50_us",
            visits(|v| quantile(&v.labels_us, 0.5)),
            "us",
        );
        out.metric(
            "slo_ratio",
            visits(crate::visits::Visits::slo_ratio),
            "ratio",
        );
        out.metric("answers_per_s", median(&self.answers_per_s), "1/s");
        out.metric("accuracy", mean(&self.accuracy), "ratio");
        let cycles = |f: fn(&Cycle) -> f64| median(&self.cycles.iter().map(f).collect::<Vec<_>>());
        out.metric("snapshot_ms", cycles(|c| ms(c.capture + c.render)), "ms");
        out.metric("restart_ms", cycles(|c| ms(c.parse + c.restore)), "ms");
        out.metric("snapshot_bytes", cycles(|c| c.bytes as f64), "bytes");
    }

    fn into_layers(self) -> layers::Inputs {
        let overhead_pct = match self.headline.as_slice() {
            [untraced, traced] if *untraced > 0.0 => (traced - untraced) / untraced * 100.0,
            _ => 0.0,
        };
        layers::Inputs {
            harden_ms: median(&self.harden_ms),
            primary: self.primary,
            replay: self.replay.unwrap_or_default(),
            http: self.http,
            cycles: self.cycles,
            enqueue_p99_us: (!self.enqueue_us.is_empty()).then(|| quantile(&self.enqueue_us, 0.99)),
            overhead_pct,
        }
    }
}

fn config(scale: &Scale, gossip_every: Option<usize>) -> ServeConfig {
    ServeConfig {
        n_shards: 2,
        budget: scale.budget,
        h: H,
        gossip_every,
        ..ServeConfig::default()
    }
}

/// Quiesces `service`, returning how long the drain tail took.
fn quiesce(service: &LabellingService, tracer: &Tracer) -> Duration {
    tracer
        .local()
        .time("service.quiesce", 0, 0, || service.quiesce())
        .1
}

fn rejected(m: &ServiceMetrics) -> u64 {
    m.shards.iter().map(|s| s.rejected).sum()
}

/// Times one more set-up, torn down untouched. `http_campaign` and
/// `ingest_replay` set up in milliseconds and take one after every
/// restart cycle, so that `setup_s` samples the whole run: the host's
/// speed drifts within seconds.
fn time_setup<T>(acc: &mut Acc, setup: impl FnOnce() -> T, teardown: impl FnOnce(T)) {
    let t0 = Instant::now();
    let state = setup();
    acc.setups.push(t0.elapsed().as_secs_f64());
    teardown(state);
}

/// Extra set-ups so that `setup_s` is a median of at least
/// `3 * scale.setups` samples.
fn pad_setups<T>(acc: &mut Acc, scale: &Scale, setup: impl Fn() -> T, teardown: impl Fn(T)) {
    while acc.setups.len() < 3 * scale.setups {
        time_setup(acc, &setup, &teardown);
    }
}

// ── http_campaign ──────────────────────────────────────────────────────

/// The seed of campaign `i` of a run: each campaign visits workers in an
/// order of its own, so the accuracies the gate averages are independent.
fn campaign_seed(seed: u64, i: usize) -> u64 {
    match i {
        0 => seed,
        _ => crowd_sim::rngx::pair_seed(seed, i as u64),
    }
}

pub fn http_campaign(run: &Run<'_>) -> Outcome {
    let scale = run.scale;
    let off = Tracer::new(false);
    let mut acc = Acc::default();
    let t0 = Instant::now();
    let reference = World::new(run.seed, scale.workers).reference_accuracy(scale.budget);
    eprintln!(
        "perfbench: reference accuracy {reference:.4} in {:.1?}",
        t0.elapsed()
    );
    let expected = scale.budget as f64 / (H as f64 * scale.visit_rate);
    let stop = Stop::BudgetExhausted {
        deadline: Duration::from_secs_f64((5.0 * expected).max(30.0)),
    };
    let setup = |i: usize| {
        let world = World::new(campaign_seed(run.seed, i), scale.workers);
        let service =
            LabellingService::start(world.tasks(), world.workers(), config(&scale, Some(128)));
        (world, service)
    };
    let began = Instant::now();
    let mut i = 0;
    while run.more(i, began) {
        let tracer = run.tracer_for(i, &off);
        let t0 = Instant::now();
        let (world, service) = setup(i);
        acc.setups.push(t0.elapsed().as_secs_f64());
        let served = lifecycle::serve_http(
            service,
            &world,
            scale.visit_rate,
            0,
            stop,
            tracer,
            &mut acc.failures,
        );
        let Some((stage, service)) = served else {
            break;
        };
        let wall = stage.visits.wall;
        acc.answers_per_s.push(stage.visits.answers_per_s());
        acc.headline
            .push(quantile(&stage.visits.request_due_us, 0.5));
        acc.add_http(stage);
        let drained = quiesce(&service, tracer);
        let m = service.metrics();
        acc.gate(rejected(&m) == 0, || {
            format!("{} answers rejected", rejected(&m))
        });
        acc.gate(service.answers_total() == service.budget_used(), || {
            format!(
                "{} answers for {} budget spent",
                service.answers_total(),
                service.budget_used()
            )
        });
        if i == 1 {
            acc.observe(run, &service, wall, drained);
        }
        acc.harden(&service, 2, tracer);
        let accuracy = world.accuracy(&service.decisions());
        eprintln!("perfbench: campaign {i}: accuracy {accuracy:.4}, reference {reference:.4}");
        acc.accuracy.push(accuracy);
        let tail = Instant::now();
        let mut cycles = 0;
        while cycles < scale.tail_cycles || tail.elapsed().as_secs_f64() < scale.tail_seconds {
            acc.add_cycles(&service, &world, 1, None, tracer);
            time_setup(&mut acc, || setup(0), |(_, s)| s.shutdown());
            cycles += 1;
        }
        if i == 1 {
            acc.replay(run, &service);
        }
        service.shutdown();
        i += 1;
    }
    pad_setups(&mut acc, &scale, || setup(0), |(_, s)| s.shutdown());
    let accuracy = mean(&acc.accuracy);
    acc.gate((accuracy - reference).abs() <= ACCURACY_GATE, || {
        format!("accuracy {accuracy:.4} vs reference {reference:.4}")
    });
    acc.finish(run)
}

// ── ingest_replay ──────────────────────────────────────────────────────

pub fn ingest_replay(run: &Run<'_>) -> Outcome {
    let scale = run.scale;
    let off = Tracer::new(false);
    let mut acc = Acc::default();
    let setup = || {
        let world = World::new(run.seed, scale.workers);
        let stream = world.deployment1(scale.answers_per_poi);
        let service = LabellingService::start(world.tasks(), world.workers(), config(&scale, None));
        (world, stream, service)
    };
    let began = Instant::now();
    let mut i = 0;
    while run.more(i, began) {
        let tracer = run.tracer_for(i, &off);
        let t0 = Instant::now();
        let (world, stream, service) = setup();
        acc.setups.push(t0.elapsed().as_secs_f64());
        let handle = service.handle();
        let mut spans = tracer.local();
        let began = Instant::now();
        let mut refused = 0;
        for &(w, t, bits) in &stream {
            let (result, took) = spans.time("service.submit", 0, 0, || handle.submit(w, t, bits));
            refused += usize::from(result.is_err());
            if i == 1 {
                acc.enqueue_us.push(us(took));
            }
        }
        let drained = quiesce(&service, tracer);
        let wall = began.elapsed();
        drop(spans);
        acc.attempted += stream.len() as u64;
        acc.failures
            .extend((0..refused).map(|_| "submit refused".to_string()));
        acc.answers_per_s
            .push(stream.len() as f64 / wall.as_secs_f64());
        acc.headline.push(wall.as_secs_f64());
        let m = service.metrics();
        acc.gate(service.answers_total() == stream.len(), || {
            format!("{} answers of {}", service.answers_total(), stream.len())
        });
        acc.gate(m.enqueued == m.processed, || {
            format!("{} enqueued, {} processed", m.enqueued, m.processed)
        });
        if i == 1 {
            acc.observe(run, &service, wall, drained);
        }
        acc.harden(&service, 1, tracer);
        acc.accuracy.push(world.accuracy(&service.decisions()));
        for _ in 0..scale.tail_cycles {
            acc.add_cycles(&service, &world, 1, Some(&scale), tracer);
            time_setup(&mut acc, setup, |(_, _, s)| s.shutdown());
        }
        if i == 1 {
            acc.replay(run, &service);
        }
        service.shutdown();
        i += 1;
    }
    pad_setups(&mut acc, &scale, setup, |(_, _, s)| s.shutdown());
    acc.finish(run)
}

// ── restart ────────────────────────────────────────────────────────────

/// Builds the service `restart` works on: the Deployment-1 stream
/// submitted in lockstep, so every run records the same events. Returns
/// the service, the refused submits, the build time and the drain tail.
fn build_lockstep(
    world: &World,
    stream: &[(WorkerId, TaskId, LabelBits)],
    scale: &Scale,
) -> (LabellingService, usize, Duration, Duration) {
    let began = Instant::now();
    let service = LabellingService::start(world.tasks(), world.workers(), config(scale, Some(100)));
    let handle = service.handle();
    let refused = stream
        .iter()
        .filter(|&&(w, t, bits)| handle.submit_wait(w, t, bits).is_err())
        .count();
    let wall = began.elapsed();
    let drained = quiesce(&service, &Tracer::new(false));
    (service, refused, wall, drained)
}

pub fn restart(run: &Run<'_>) -> Outcome {
    let scale = run.scale;
    let off = Tracer::new(false);
    let mut acc = Acc::default();
    let world = World::new(run.seed, scale.workers);
    let stream = world.deployment1(scale.answers_per_poi);
    let mut source = None;
    for _ in 0..scale.setups {
        let t0 = Instant::now();
        let (service, refused, wall, drained) = build_lockstep(&world, &stream, &scale);
        acc.harden(&service, 1, &off);
        acc.setups.push(t0.elapsed().as_secs_f64());
        acc.attempted += stream.len() as u64;
        acc.failures
            .extend((0..refused).map(|_| "submit refused".to_string()));
        if run.tracer.is_some() {
            acc.primary = Some(Primary::read(&service, wall, drained));
        }
        if let Some(old) = source.replace(service) {
            LabellingService::shutdown(old);
        }
    }
    let Some(source) = source else {
        return acc.finish(run);
    };
    acc.accuracy.push(world.accuracy(&source.decisions()));
    let began = Instant::now();
    let mut traced_from = None;
    while acc.cycles.is_empty() || began.elapsed().as_secs_f64() < run.seconds {
        let tracer = match run.tracer {
            Some(t) if began.elapsed().as_secs_f64() >= run.seconds / 2.0 => {
                traced_from.get_or_insert(acc.cycles.len());
                t
            }
            _ => &off,
        };
        let before = acc.cycles.len();
        acc.add_cycles(&source, &world, 1, Some(&scale), tracer);
        if acc.cycles.len() == before {
            break;
        }
    }
    if let Some(split) = traced_from.filter(|&s| s > 0 && s < acc.cycles.len()) {
        let times: Vec<f64> = acc.cycles.iter().map(lifecycle::cycle_us).collect();
        acc.headline = vec![median(&times[..split]), median(&times[split..])];
    }
    if let Some(http) = &acc.http {
        acc.answers_per_s.push(http.visits.answers_per_s());
    }
    acc.replay(run, &source);
    source.shutdown();
    acc.finish(run)
}
