//! Traced-run instrumentation: the benchmark's own spans around the calls
//! it makes into each layer, and a telemetry sink that timestamps the
//! phase/epoch/step events the trainers already emit.
//!
//! Spans are kept in memory and summarised when the run ends; a span's
//! self time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uae_obs::{Event, Sink};

use crate::stats;

/// One closed span: name, interval (ms from the recorder's origin) and the
/// span that caused it.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// In-memory span recorder (single-threaded; the benchmark's spans all
/// live on the thread that drives the program).
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.recs.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.recs.push(SpanRec {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.recs[id].end = self.now();
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.end - r.start)
            .collect()
    }

    /// Total and self time (ms) per span name, in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                children[p].push((r.start, r.end));
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            let e = out.entry(r.name).or_default();
            e.0 += r.end - r.start;
            e.1 += stats::self_time((r.start, r.end), &children[i]);
        }
        out
    }
}

/// A telemetry sink keeping only the trainer events the ledgers read
/// (`PhaseEnd`, `FitEpoch`, `Epoch`, `TrainStep`), each stamped on arrival.
#[derive(Default)]
pub struct EventLog {
    events: Mutex<Vec<(Instant, Event)>>,
}

impl EventLog {
    pub fn new() -> Arc<EventLog> {
        Arc::new(EventLog::default())
    }

    pub fn take(&self) -> Vec<(Instant, Event)> {
        std::mem::take(&mut *self.events.lock().expect("event log poisoned"))
    }
}

impl Sink for EventLog {
    fn emit(&self, _seq: u64, event: &Event) {
        if matches!(
            event,
            Event::PhaseEnd { .. }
                | Event::FitEpoch { .. }
                | Event::Epoch { .. }
                | Event::TrainStep { .. }
        ) {
            let now = Instant::now();
            self.events
                .lock()
                .expect("event log poisoned")
                .push((now, event.clone()));
        }
    }
}
