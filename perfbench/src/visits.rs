//! The open-loop worker-visit generator.
//!
//! Visit `i` is due at `start + i / rate`, whatever happened to earlier
//! visits, and goes out on whichever of the keep-alive connections is
//! free first, as independent users share a client's connection pool. A
//! visit is `POST /tasks/request` for one worker, then, when tasks were
//! issued, one fire-and-forget `POST /labels` with that worker's answers.
//! A request is timed from when it was due, so while every connection is
//! held up, the wait counts against each visit queued behind; how late
//! each visit went out is recorded separately as generator lateness.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crowd_core::{TaskId, WorkerId};
use crowd_serve::Json;

use crate::client::Client;
use crate::stats::us;
use crate::trace::Tracer;
use crate::world::World;

/// One connection per core of the 2-core reference host.
const CONNECTIONS: usize = 2;

/// A request that completes this long after its due time misses the SLO.
pub const SLO: Duration = Duration::from_millis(50);

#[derive(Clone, Copy)]
pub enum Stop {
    /// Run until the campaign answers 409 (budget exhausted); the 409
    /// that ends each connection is not a failure.
    BudgetExhausted { deadline: Duration },
    /// Run exactly this many visits; every non-2xx is a failure.
    Visits(usize),
}

#[derive(Default)]
pub struct Visits {
    /// `/tasks/request` completion minus due time, per answered request.
    pub request_due_us: Vec<f64>,
    /// `/tasks/request` round trip from send, per answered request.
    pub request_rtt_us: Vec<f64>,
    /// `/labels` round trips.
    pub labels_us: Vec<f64>,
    /// Send time minus due time, per visit.
    pub late_us: Vec<f64>,
    /// Tasks issued per answered request.
    pub issued: Vec<usize>,
    /// Requests that completed within [`SLO`] of their due time.
    pub within_slo: u64,
    /// HTTP calls made (requests and labels), final 409s included.
    pub calls: u64,
    /// Visits that counted (excludes the final 409s).
    pub visits: u64,
    /// Answers the service accepted (202).
    pub answers: u64,
    /// Non-2xx responses other than a final budget 409.
    pub non2xx: u64,
    /// One line per failed operation: non-2xx responses, unreadable
    /// bodies, transport failures and overruns.
    pub failures: Vec<String>,
    /// From the first due time to the last response.
    pub wall: Duration,
}

impl Visits {
    pub fn merge(&mut self, other: Self) {
        self.request_due_us.extend(other.request_due_us);
        self.request_rtt_us.extend(other.request_rtt_us);
        self.labels_us.extend(other.labels_us);
        self.late_us.extend(other.late_us);
        self.issued.extend(other.issued);
        self.within_slo += other.within_slo;
        self.calls += other.calls;
        self.visits += other.visits;
        self.answers += other.answers;
        self.non2xx += other.non2xx;
        self.failures.extend(other.failures);
        self.wall = self.wall.max(other.wall);
    }

    pub fn answers_per_s(&self) -> f64 {
        self.answers as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    pub fn slo_ratio(&self) -> f64 {
        self.within_slo as f64 / self.visits.max(1) as f64
    }
}

/// Runs visits against the server at `addr` until `stop`.
pub fn drive(
    addr: SocketAddr,
    world: &World,
    order: &[WorkerId],
    rate: f64,
    stop: Stop,
    tracer: &Tracer,
) -> Visits {
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let mut total = Visits::default();
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (done, next) = (&done, &next);
                s.spawn(move || {
                    connection(addr, world, order, rate, stop, tracer, start, next, done)
                })
            })
            .collect();
        for t in threads {
            match t.join() {
                Ok(v) => total.merge(v),
                Err(_) => total.failures.push("visit thread panicked".into()),
            }
        }
    });
    total
}

#[allow(clippy::too_many_arguments)]
fn connection(
    addr: SocketAddr,
    world: &World,
    order: &[WorkerId],
    rate: f64,
    stop: Stop,
    tracer: &Tracer,
    start: Instant,
    next: &AtomicUsize,
    done: &AtomicBool,
) -> Visits {
    let mut out = Visits::default();
    let mut spans = tracer.local();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut body = String::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if done.load(Ordering::Relaxed) {
            break;
        }
        match stop {
            Stop::Visits(n) if i >= n => break,
            Stop::BudgetExhausted { deadline } if start.elapsed() > deadline => {
                out.failures
                    .push(format!("budget not exhausted after {deadline:?}"));
                done.store(true, Ordering::Relaxed);
                break;
            }
            _ => {}
        }
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let visit = i as u64 + 1;
        let visit_span = spans.open();
        let sent = Instant::now();
        out.late_us.push(us(sent.saturating_duration_since(due)));
        let worker = order[i % order.len()];
        let request = format!(r#"{{"workers": [{}]}}"#, worker.index());
        let (reply, rtt) = spans.time("http.tasks_request", visit_span, visit, || {
            client.send("POST", "/tasks/request", &request)
        });
        out.calls += 1;
        let finished = sent + rtt;
        let assigned = match reply {
            Ok((409, _)) if matches!(stop, Stop::BudgetExhausted { .. }) => {
                done.store(true, Ordering::Relaxed);
                break;
            }
            Ok((200, text)) => match Json::parse(&text) {
                Ok(json) => json,
                Err(e) => {
                    out.visits += 1;
                    out.failures.push(format!("bad /tasks/request body ({e})"));
                    continue;
                }
            },
            Ok((status, text)) => {
                out.visits += 1;
                out.non2xx += 1;
                out.failures
                    .push(format!("/tasks/request -> {status}: {text}"));
                continue;
            }
            Err(e) => {
                out.visits += 1;
                out.failures.push(format!("/tasks/request: {e}"));
                break;
            }
        };
        out.visits += 1;
        let from_due = finished.saturating_duration_since(due);
        out.request_due_us.push(us(from_due));
        out.request_rtt_us.push(us(rtt));
        if from_due <= SLO {
            out.within_slo += 1;
        }
        let pairs: Vec<(WorkerId, TaskId)> = assigned
            .get("assignments")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .flat_map(|entry| {
                let w = entry.get("worker").and_then(Json::as_usize);
                let tasks = entry.get("tasks").and_then(Json::as_arr).unwrap_or(&[]);
                tasks.iter().filter_map(move |t| {
                    Some((WorkerId::from_index(w?), TaskId::from_index(t.as_usize()?)))
                })
            })
            .collect();
        out.issued.push(pairs.len());
        if !pairs.is_empty() {
            body.clear();
            body.push('[');
            for (k, &(w, t)) in pairs.iter().enumerate() {
                let bits: String = world
                    .answer(w, t)
                    .iter()
                    .map(|b| if b { '1' } else { '0' })
                    .collect();
                if k > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    r#"{{"worker": {}, "task": {}, "bits": "{bits}"}}"#,
                    w.index(),
                    t.index()
                ));
            }
            body.push(']');
            let (reply, took) = spans.time("http.labels", visit_span, visit, || {
                client.send("POST", "/labels", &body)
            });
            out.calls += 1;
            out.labels_us.push(us(took));
            match reply {
                Ok((202, _)) => out.answers += pairs.len() as u64,
                Ok((status, text)) => {
                    out.non2xx += 1;
                    out.failures.push(format!("/labels -> {status}: {text}"));
                }
                Err(e) => {
                    out.failures.push(format!("/labels: {e}"));
                    break;
                }
            }
        }
        let end = Instant::now();
        spans.close(visit_span, "visit", 0, visit, due, end);
        out.wall = end - start;
    }
    out
}
