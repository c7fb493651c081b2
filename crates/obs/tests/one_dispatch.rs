//! One facade call, heard by every store: with a collector installed and
//! the live plane on, the same event reaches the collector's log and
//! totals, the global registry and the flight ring.
//!
//! An integration test (its own process) because switching the live
//! plane on is irreversible; unit tests share a process and must never
//! flip it.

use spammass_obs as obs;
use spammass_obs::{Collector, Event, Json, Metric};

#[test]
fn one_event_reaches_the_collector_the_registry_and_the_ring() {
    obs::enable_live();
    let collector = Collector::builder().build();
    {
        let _g = collector.install();
        obs::counter("od.hits", 2.0);
        obs::counter("od.hits", 3.0);
        obs::gauge("od.ratio", 0.5);
        obs::event("od.note", vec![("k".to_string(), Json::str("v"))]);
        drop(obs::span("od.stage"));
    }

    // The collector keeps every event and its totals.
    let metrics = collector.metrics_snapshot();
    assert!(metrics.contains(&("od.hits".to_string(), Metric::Counter(5.0))), "{metrics:?}");
    assert!(metrics.contains(&("od.ratio".to_string(), Metric::Gauge(0.5))), "{metrics:?}");
    let events = collector.events();
    assert!(events.iter().any(|e| matches!(e, Event::Message { name, .. } if name == "od.note")));
    assert_eq!(collector.spans().len(), 1);

    // The registry holds the same metric values.
    let snap = obs::registry::global().snapshot();
    match snap.get("od.hits") {
        Some(obs::MetricSnapshot::Counter { total, .. }) => assert_eq!(*total, 5.0),
        other => panic!("od.hits: {other:?}"),
    }
    match snap.get("od.ratio") {
        Some(obs::MetricSnapshot::Gauge { value, .. }) => assert_eq!(*value, 0.5),
        other => panic!("od.ratio: {other:?}"),
    }

    // The ring holds the message and the span's open and close.
    let ring = obs::flight::global().events();
    for (kind, name) in
        [("message", "od.note"), ("span_start", "od.stage"), ("span_end", "od.stage")]
    {
        assert!(ring.iter().any(|e| e.kind == kind && e.name == name), "{kind} {name}: {ring:?}");
    }
}
