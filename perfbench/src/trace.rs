//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Every span has a name, start and end (ns since the run's epoch), the
//! id of the span that caused it (0 for a root) and a visit id shared by
//! the HTTP calls of one worker visit (0 outside visits). Threads record
//! into their own buffer; buffers merge when dropped and the whole set is
//! written out once, after the run. With tracing off, calls are still
//! timed (the metrics need the durations) but nothing is stored.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    id: u64,
    parent: u64,
    visit: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A buffer for one thread.
    pub fn local(&self) -> Spans<'_> {
        Spans {
            tracer: self,
            buf: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.done.lock().expect("span buffer poisoned").len()
    }

    /// All recorded spans as a JSON array, in start order.
    pub fn to_json(&self) -> String {
        let mut spans = self.done.lock().expect("span buffer poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                r#"{{"id": {}, "parent": {}, "visit": {}, "name": "{}", "start_ns": {}, "end_ns": {}}}"#,
                s.id, s.parent, s.visit, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

pub struct Spans<'a> {
    tracer: &'a Tracer,
    buf: Vec<Span>,
}

impl Spans<'_> {
    /// Allocates a span id without recording anything yet (for a parent
    /// whose extent is known only after its children ran).
    pub fn open(&self) -> u64 {
        if self.tracer.enabled {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records span `id` (from [`Spans::open`]) over `[start, end]`.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        visit: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.tracer.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.buf.push(Span {
            id,
            parent,
            visit,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` as span `name` and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        visit: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.close(id, name, parent, visit, start, end);
        (out, end - start)
    }
}

impl Drop for Spans<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            // Poisoning means another thread panicked; its spans are moot.
            if let Ok(mut done) = self.tracer.done.lock() {
                done.append(&mut self.buf);
            }
        }
    }
}
