//! End-to-end tests of the live observability plane: the process-global
//! registry + flight recorder, the exposition server's HTTP surface, and
//! crash dumps.
//!
//! These live in an integration test (their own process) on purpose:
//! switching the live plane on is irreversible, so unit tests — which
//! share a process — must never flip the switch.
//! Everything here runs inside ONE #[test] so the enable order and the
//! server lifecycle stay deterministic.

use spammass_obs as obs;
use spammass_obs::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Minimal HTTP/1.1 GET over a raw socket; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Reads one response off an open connection: (status line and
/// headers, body framed by `Content-Length`).
fn read_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
    let mut head = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read response head") > 0, "{head}");
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
        head.push_str(&line);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read response body");
    (head, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn live_plane_round_trips() {
    // ---- switch the live plane on (irreversible; done once, up front) ----
    assert!(!obs::is_live());
    obs::enable_live();
    assert!(obs::is_live());

    // The facade now tees into the registry and ring with NO collector
    // installed — the live plane must not depend on --trace.
    obs::counter("lp.hits", 3.0);
    obs::gauge("lp.ratio", 0.25);
    for v in 1..=100u32 {
        obs::observe("lp.lat_ns", f64::from(v));
    }
    obs::event("lp.note", vec![("k".to_string(), Json::str("v"))]);

    let snap = obs::registry::global().snapshot();
    match snap.get("lp.hits") {
        Some(obs::MetricSnapshot::Counter { total, .. }) => assert_eq!(*total, 3.0),
        other => panic!("lp.hits: {other:?}"),
    }
    let events = obs::flight::global().events();
    assert!(
        events.iter().any(|e| e.kind == "message" && e.name == "lp.note"),
        "facade event missing from the flight ring: {events:?}"
    );

    // Spans land in the ring as start/end pairs.
    {
        let mut s = obs::span("lp.stage");
        s.record("items", 7.0);
    }
    // A failpoint trip keeps its own kind; metric updates stay out of
    // the ring (they are the registry's).
    obs::failpoint("lp.site", "error");
    let events = obs::flight::global().events();
    assert!(events.iter().any(|e| e.kind == "span_start" && e.name == "lp.stage"), "{events:?}");
    assert!(events.iter().any(|e| e.kind == "span_end" && e.name == "lp.stage"), "{events:?}");
    assert!(events.iter().any(|e| e.kind == "failpoint" && e.name == "lp.site"), "{events:?}");
    assert!(!events.iter().any(|e| e.name.starts_with("lp.hits")), "{events:?}");

    // ---- server: bind ephemeral, advertise, serve all routes ----
    let server = obs::MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.local_addr();
    assert_eq!(obs::export::serving_addr(), Some(addr), "bound address is advertised");

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("spammass_lp_hits 3.0"), "{body}");
    assert!(body.contains("spammass_lp_ratio 0.25"), "{body}");
    assert!(body.contains("# TYPE spammass_lp_lat_ns summary"), "{body}");
    assert!(body.contains("spammass_lp_lat_ns{quantile=\"0.5\"}"), "{body}");

    let (status, body) = http_get(addr, "/snapshot");
    assert!(status.contains("200"), "{status}");
    let doc = Json::parse(&body).expect("snapshot parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(obs::export::SNAPSHOT_SCHEMA));
    let metrics = doc.get("metrics").expect("metrics object");
    assert_eq!(
        metrics.get("lp.hits").and_then(|m| m.get("kind")).and_then(Json::as_str),
        Some("counter")
    );
    assert_eq!(
        metrics.get("lp.lat_ns").and_then(|m| m.get("count")).and_then(Json::as_f64),
        Some(100.0)
    );

    let (status, body) = http_get(addr, "/flight");
    assert!(status.contains("200"), "{status}");
    let doc = Json::parse(&body).expect("flight parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(obs::flight::SCHEMA));
    let ring = doc.get("events").and_then(Json::as_arr).expect("events array");
    assert!(ring.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("lp.note")), "{body}");

    // Unknown routes 404, non-GET 405; neither kills the accept loop.
    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    // Scrapes themselves are counted (each GET above incremented it).
    let (_, body) = http_get(addr, "/metrics");
    let scrapes = body
        .lines()
        .find(|l| l.starts_with("spammass_obs_export_scrapes "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("scrape counter exported");
    assert!(scrapes >= 4.0, "scrapes = {scrapes}");

    // ---- a silent open connection delays no scrape ----
    let silent = TcpStream::connect(addr).unwrap();
    let asked = Instant::now();
    let (status, _) = http_get(addr, "/metrics");
    let waited = asked.elapsed();
    assert!(status.contains("200"), "{status}");
    assert!(waited < Duration::from_secs(1), "a scrape behind a silent connection took {waited:?}");
    drop(silent);

    // ---- past the connection cap: 503 + Retry-After, counted ----
    // Hold the cap's worth of keep-alive connections, each answered once
    // so the server is known to have taken it.
    let held: Vec<BufReader<TcpStream>> = (0..obs::http::MAX_CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut reader = BufReader::new(stream);
            write!(reader.get_mut(), "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (head, _) = read_response(&mut reader);
            assert!(head.starts_with("HTTP/1.1 404"), "{head}");
            assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
            reader
        })
        .collect();
    let extra = TcpStream::connect(addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (head, body) = read_response(&mut BufReader::new(extra));
    assert!(head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{head}");
    assert!(head.contains("Retry-After: 1\r\n"), "{head}");
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert!(!body.is_empty());
    match obs::registry::global().snapshot().get(obs::names::SERVE_SHED) {
        Some(obs::MetricSnapshot::Counter { total, .. }) => assert_eq!(*total, 1.0),
        other => panic!("{}: {other:?}", obs::names::SERVE_SHED),
    }
    // Closing them frees the slots.
    drop(held);
    let freed = Instant::now();
    loop {
        let (status, _) = http_get(addr, "/metrics");
        if status.contains("200") {
            break;
        }
        assert!(
            freed.elapsed() < Duration::from_secs(5),
            "still shed after the cap freed: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // ---- shutdown: drop stops the thread and clears the advert ----
    drop(server);
    assert_eq!(obs::export::serving_addr(), None, "drop clears the advertised address");

    // ---- crash dump (on-demand path; the panic-hook path is pinned in
    // the CLI's flight_crash test) ----
    let dir = std::env::temp_dir()
        .join(format!("spammass-obs-{}-live_plane_round_trips", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("dump.json");
    obs::flight::write_crash_dump(&dump, Some(("boom", Some("here.rs:1:1")))).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(&dump).unwrap()).expect("dump parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(obs::flight::SCHEMA));
    assert_eq!(
        doc.get("panic").and_then(|p| p.get("message")).and_then(Json::as_str),
        Some("boom")
    );
    // Registry is live, so the dump embeds a metrics snapshot.
    assert_eq!(
        doc.get("metrics").and_then(|m| m.get("schema")).and_then(Json::as_str),
        Some(obs::export::SNAPSHOT_SCHEMA)
    );
    let ring = doc.get("events").and_then(Json::as_arr).expect("dump carries the ring");
    assert!(!ring.is_empty());
}
