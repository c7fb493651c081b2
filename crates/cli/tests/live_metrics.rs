//! The PR's headline acceptance path: a 120k-host `estimate
//! --serve-metrics` run must answer `/metrics` scrapes while it runs,
//! with the per-worker profiler series present.
//!
//! Integration test on purpose: `--serve-metrics` flips the irreversible
//! process-global registry on, which must never happen inside the unit
//! test process.

use spammass_cli::args::ParsedArgs;
use spammass_cli::commands;
use spammass_obs as obs;
use spammass_obs::Json;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn parse(parts: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw.split_once("\r\n\r\n").expect("response split").1.to_string()
}

#[test]
fn estimate_answers_scrapes_mid_solve_with_worker_series() {
    let dir = std::env::temp_dir().join(format!(
        "spammass-cli-{}-estimate_answers_scrapes_mid_solve_with_worker_series",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("web.graph");
    let core = dir.join("core.txt");

    let out = commands::dispatch(&parse(&[
        "generate",
        "--hosts",
        "120000",
        "--seed",
        "7",
        "--out",
        graph.to_str().unwrap(),
        "--core",
        core.to_str().unwrap(),
    ]))
    .expect("generate 120k hosts");
    assert!(out.contains("graph written"), "{out}");

    // `--edges-per-thread 1` defeats the edge quota so the pool widens to
    // two real workers even on a small CI host; `--serve-linger` keeps
    // the server up after the solve so a slow scraper can't lose the
    // race outright (mid-solve scraping is still exercised below — the
    // scrape loop starts as soon as the socket binds, long before a
    // 120k-host estimate finishes).
    let solver = std::thread::spawn({
        let graph = graph.clone();
        let core = core.clone();
        move || {
            commands::dispatch(&parse(&[
                "estimate",
                "--graph",
                graph.to_str().unwrap(),
                "--core",
                core.to_str().unwrap(),
                "--threads",
                "2",
                "--edges-per-thread",
                "1",
                "--serve-metrics",
                "127.0.0.1:0",
                "--serve-linger",
                "3000",
            ]))
        }
    });

    // The server binds before the command body runs; discover the
    // ephemeral port through the in-process advertisement.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Some(addr) = obs::export::serving_addr() {
            break addr;
        }
        assert!(Instant::now() < deadline, "metrics server never came up");
        std::thread::sleep(Duration::from_millis(10));
    };

    // Scrape until the profiler series show up (they appear within the
    // first few sweeps); every iteration is a real mid-run scrape. A
    // scrape can land inside the first per-round flush, so wait for the
    // whole set, not the first series of it.
    let expected = [
        "spammass_pagerank_worker_0_gather_ns",
        "spammass_pagerank_worker_1_gather_ns",
        "spammass_pagerank_worker_0_barrier_wait_ns",
        "spammass_pagerank_worker_1_barrier_wait_ns",
        "spammass_pagerank_pool_sweeps",
        "spammass_pagerank_partition_imbalance",
    ];
    let mut body = String::new();
    let mut scrapes = 0u32;
    while Instant::now() < deadline {
        body = http_get(addr, "/metrics");
        scrapes += 1;
        if expected.iter().all(|series| body.contains(series)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(scrapes >= 1);
    for series in expected {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    assert!(body.contains("spammass_pagerank_pool_threads 2.0"), "{body}");

    // The JSON twin carries the same series under the schema tag.
    let snapshot = http_get(addr, "/snapshot");
    let doc = Json::parse(&snapshot).expect("snapshot parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("spammass.metrics_snapshot/v1"));
    let metrics = doc.get("metrics").expect("metrics object");
    assert_eq!(
        metrics
            .get("pagerank.worker.0.gather_ns")
            .and_then(|m| m.get("kind"))
            .and_then(Json::as_str),
        Some("histogram")
    );
    assert_eq!(
        metrics
            .get("pagerank.worker.1.edges_per_s")
            .and_then(|m| m.get("kind"))
            .and_then(Json::as_str),
        Some("gauge")
    );

    let report = solver.join().expect("solver thread").expect("estimate succeeds");
    assert!(report.contains("core:"), "{report}");
}
