//! The flight recorder: a fixed-size ring of recent structured events,
//! dumped on panic.
//!
//! Post-mortem telemetry vanishes exactly when it matters most — a
//! crash mid-solve leaves no run report. The flight recorder keeps the
//! last [`DEFAULT_CAPACITY`] events (facade messages, span open/close,
//! failpoint trips) in a bounded `VecDeque` behind one short mutex;
//! recording is a push + possible pop-front, never an allocation scan,
//! so it stays on even in production. A panic hook serializes the ring
//! (plus a registry snapshot, if the live plane is on) to a JSON crash
//! dump, and the exposition server serves the same ring at `/flight`.
//!
//! Like the registry, the recorder is process-global and hears events
//! only while the live plane is on ([`crate::enable_live`]).

use crate::event::Event;
use crate::json::Json;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// Events retained in the ring. 512 comfortably covers the tail of a
/// solve (spans, sweep events, failpoint trips) in a few hundred KB.
pub const DEFAULT_CAPACITY: usize = 512;

/// Schema tag on crash dumps and `/flight` responses.
pub const SCHEMA: &str = "spammass.flight/v1";

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotone sequence number (never reused; gaps mean drops).
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch.
    pub t_ns: u64,
    /// Event kind: `message`, `span_start`, `span_end`, `failpoint`,
    /// `panic`.
    pub kind: &'static str,
    /// Dotted event or span name.
    pub name: String,
    /// Structured payload.
    pub fields: Vec<(String, Json)>,
}

impl FlightEvent {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::uint(self.seq)),
            ("t_ns".to_string(), Json::uint(self.t_ns)),
            ("kind".to_string(), Json::str(self.kind)),
            ("name".to_string(), Json::str(&self.name)),
        ];
        fields.extend(self.fields.iter().map(|(k, v)| (k.clone(), v.clone())));
        Json::Obj(fields)
    }
}

struct Ring {
    cap: usize,
    seq: u64,
    dropped: u64,
    events: VecDeque<FlightEvent>,
}

/// A bounded recorder of recent structured events.
pub struct FlightRecorder {
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            ring: Mutex::new(Ring { cap: cap.max(1), seq: 0, dropped: 0, events: VecDeque::new() }),
        }
    }

    /// Appends a span open or close, a message or a failpoint trip;
    /// metric updates are the registry's and are ignored here.
    pub(crate) fn record(&self, event: &Event) {
        let uint = |key: &str, v: u64| (key.to_string(), Json::uint(v));
        match event {
            Event::SpanStart { path, depth, .. } => {
                self.push("span_start", path, vec![uint("depth", *depth as u64)]);
            }
            Event::SpanEnd(span) => self.push(
                "span_end",
                &span.path,
                vec![uint("elapsed_ns", span.elapsed_ns), uint("depth", span.depth as u64)],
            ),
            Event::Message { name, fields } => self.push("message", name, fields.clone()),
            Event::Failpoint { name, action } => {
                self.push("failpoint", name, vec![("action".to_string(), Json::str(*action))]);
            }
            Event::Counter { .. } | Event::Gauge { .. } | Event::Observe { .. } => {}
        }
    }

    /// Appends one entry, evicting the oldest past capacity.
    fn push(&self, kind: &'static str, name: &str, fields: Vec<(String, Json)>) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut ring = lock_unpoisoned(&self.ring);
        let seq = ring.seq;
        ring.seq += 1;
        if ring.events.len() == ring.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(FlightEvent { seq, t_ns, kind, name: name.to_string(), fields });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        lock_unpoisoned(&self.ring).events.iter().cloned().collect()
    }

    /// Events evicted so far (ring overflow, not an error).
    pub fn dropped(&self) -> u64 {
        lock_unpoisoned(&self.ring).dropped
    }

    /// JSON form of the ring: schema, drop count, events oldest-first.
    pub fn to_json(&self) -> Json {
        let ring = lock_unpoisoned(&self.ring);
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("dropped", Json::uint(ring.dropped)),
            ("events", Json::Arr(ring.events.iter().map(FlightEvent::to_json).collect())),
        ])
    }
}

// ---------------------------------------------------------------------
// Process-global instance
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global recorder (created on first use).
pub fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

// ---------------------------------------------------------------------
// Crash dumps
// ---------------------------------------------------------------------

static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static HOOK: Once = Once::new();

/// Installs (once) a panic hook that writes a crash dump to `path`.
/// Later calls retarget the path. The previous hook still runs
/// afterwards, so default panic output is preserved. The ring holds
/// what happened before the panic only if the live plane is on.
pub fn install_crash_hook(path: impl Into<PathBuf>) {
    *lock_unpoisoned(&DUMP_PATH) = Some(path.into());
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_on_panic(info);
            prev(info);
        }));
    });
}

fn dump_on_panic(info: &std::panic::PanicHookInfo<'_>) {
    let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    let location = info.location().map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
    // The panic itself becomes the ring's final event, so the dump's
    // tail reads: …, the thing that tripped, the panic it caused.
    global().push(
        "panic",
        "panic",
        vec![
            ("message".to_string(), Json::str(&message)),
            ("location".to_string(), location.as_deref().map(Json::str).unwrap_or(Json::Null)),
        ],
    );
    let path = lock_unpoisoned(&DUMP_PATH).clone();
    if let Some(path) = path {
        // A failed dump must not double-panic; the previous hook still
        // prints the message either way.
        let _ = write_crash_dump(&path, Some((&message, location.as_deref())));
    }
}

/// Writes a crash dump (ring + live registry snapshot + optional panic
/// info) to `path`. Also callable on demand for "dump now" debugging.
pub fn write_crash_dump(path: &Path, panic: Option<(&str, Option<&str>)>) -> io::Result<()> {
    let mut fields = vec![("schema".to_string(), Json::str(SCHEMA))];
    match panic {
        Some((message, location)) => fields.push((
            "panic".to_string(),
            Json::obj([
                ("message", Json::str(message)),
                ("location", location.map(Json::str).unwrap_or(Json::Null)),
            ]),
        )),
        None => fields.push(("panic".to_string(), Json::Null)),
    }
    let ring = global().to_json();
    fields.push(("dropped".to_string(), ring.get("dropped").cloned().unwrap_or(Json::Null)));
    fields.push(("events".to_string(), ring.get("events").cloned().unwrap_or(Json::Arr(vec![]))));
    fields.push((
        "metrics".to_string(),
        if crate::is_live() {
            crate::export::snapshot_json(&crate::registry::global().snapshot())
        } else {
            Json::Null
        },
    ));
    let mut doc = Json::Obj(fields).render();
    doc.push('\n');
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = FlightRecorder::new(3);
        for i in 0..5 {
            r.push("message", &format!("e{i}"), vec![]);
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn timestamps_are_monotone() {
        let r = FlightRecorder::new(8);
        r.push("message", "a", vec![]);
        r.push("message", "b", vec![]);
        let events = r.events();
        assert!(events[0].t_ns <= events[1].t_ns);
    }

    #[test]
    fn ring_json_shape() {
        let r = FlightRecorder::new(8);
        r.record(&Event::Failpoint { name: "state.manifest.rename".into(), action: "panic" });
        r.record(&Event::Gauge { name: "not.a.flight.event".into(), value: 1.0 });
        let j = r.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let events = j.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").and_then(Json::as_str), Some("failpoint"));
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("state.manifest.rename"));
        assert_eq!(events[0].get("action").and_then(Json::as_str), Some("panic"));
    }

    // The live switch and the crash hook are pinned in tests/live_plane.rs
    // (integration tests run in their own process, so flipping the
    // process-global switch cannot leak into unit tests).
}
