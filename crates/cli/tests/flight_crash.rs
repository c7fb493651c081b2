//! Acceptance pin for the flight recorder's crash path: arming a
//! failpoint in panic mode kills an `estimate --state` run, and the
//! resulting `metrics-crash.json` names the failpoint site as the last
//! thing that happened before the panic.
//!
//! Runs as its own process (integration test): the crash hook and the
//! global registry/recorder are irreversible once installed.

use spammass_cli::args::ParsedArgs;
use spammass_cli::commands;
use spammass_obs::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn parse(parts: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

#[test]
fn armed_panic_failpoint_writes_a_flight_dump_naming_the_site() {
    let dir = std::env::temp_dir().join(format!(
        "spammass-cli-{}-armed_panic_failpoint_writes_a_flight_dump_naming_the_site",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("web.graph");
    let core = dir.join("core.txt");
    let dump = dir.join("metrics-crash.json");

    commands::dispatch(&parse(&[
        "generate",
        "--hosts",
        "2000",
        "--seed",
        "11",
        "--out",
        graph.to_str().unwrap(),
        "--core",
        core.to_str().unwrap(),
    ]))
    .expect("generate");

    // Panic on the first manifest rename — the same site the crash-safety
    // suite kills with error-mode injection, now as a hard process death.
    spammass_delta::failpoint::arm_panic("state.manifest.rename", 0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        commands::dispatch(&parse(&[
            "estimate",
            "--graph",
            graph.to_str().unwrap(),
            "--core",
            core.to_str().unwrap(),
            "--state",
            dir.join("state").to_str().unwrap(),
            "--crash-dump",
            dump.to_str().unwrap(),
        ]))
    }));
    assert!(result.is_err(), "the armed failpoint must panic the run");

    let text = std::fs::read_to_string(&dump).expect("panic hook wrote the crash dump");
    let doc = Json::parse(&text).expect("dump parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("spammass.flight/v1"));

    let message =
        doc.get("panic").and_then(|p| p.get("message")).and_then(Json::as_str).expect("panic info");
    assert!(message.contains("injected fault"), "{message}");
    assert!(message.contains("state.manifest.rename"), "{message}");

    // The ring's tail reads: the failpoint trip, then the panic it
    // caused — nothing in between.
    let events = doc.get("events").and_then(Json::as_arr).expect("events");
    assert!(events.len() >= 2, "ring too short: {text}");
    let kind = |e: &Json| e.get("kind").and_then(Json::as_str).unwrap_or("").to_string();
    let name = |e: &Json| e.get("name").and_then(Json::as_str).unwrap_or("").to_string();
    let last = &events[events.len() - 1];
    let prev = &events[events.len() - 2];
    assert_eq!(kind(last), "panic", "{text}");
    assert_eq!(kind(prev), "failpoint", "{text}");
    assert_eq!(name(prev), "state.manifest.rename", "{text}");
    assert_eq!(prev.get("action").and_then(Json::as_str), Some("panic"), "{text}");

    // Earlier ring entries show the run that led up to the crash (the
    // solver's sizing event fires before any state is saved).
    assert!(
        events.iter().any(|e| name(e) == "pagerank.pool.sizing"),
        "no solve context in the ring: {text}"
    );

    // The registry was live (--crash-dump turns the plane on), so the
    // dump embeds a final metrics snapshot.
    assert_eq!(
        doc.get("metrics").and_then(|m| m.get("schema")).and_then(Json::as_str),
        Some("spammass.metrics_snapshot/v1")
    );

    // The state directory was mid-publish when the process died; the
    // repair path must see a recoverable layout, not a corrupt one.
    assert!(dir.join("state").exists());
}
