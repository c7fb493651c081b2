//! Swap-consistency pin: reader threads hammer `/score` over keep-alive
//! connections while the snapshot is republished and swapped repeatedly.
//! Every response must be **internally consistent** — the score and flag
//! it reports must be exactly the ones belonging to the generation it
//! claims — i.e. no torn reads across an epoch swap, ever. One reader
//! alternates with `/topk?k=1`, whose answer comes from the rank index
//! built with the snapshot: its top host must be the generation's own.
//!
//! The second case pins that the daemon stops: dropping the server ends
//! a keep-alive connection whose client never pauses and one whose
//! client sits idle, within a second. The next pins that idle keep-alive
//! clients delay no one: each connection has a thread of its own.
//!
//! The third case pins what keeps an *old* reader safe through those
//! swaps: a snapshot serves its graph out of a mapping of
//! `gen-N/graph.bin`, and retention prunes `gen-N/` two publishes later.
//! Unlink-while-mapped must leave the mapping fully readable.

use spammass_core::detector::DetectorConfig;
use spammass_delta::StateDir;
use spammass_graph::{GraphBuilder, NodeId};
use spammass_obs::json::Json;
use spammass_serve::snapshot::RankBy;
use spammass_serve::{Reloader, ServeOptions, Server, Snapshot};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DAMPING: f64 = 0.85;
const NODES: usize = 4;

/// Per-generation ground truth for node 0: stored `p`, stored `p′`,
/// whether Algorithm 2 (ρ = 1, τ = 0.5) flags it, and the host with the
/// most absolute mass — node 0 (mass p − p′) or node 3 (a constant
/// 0.15). Generation g uses row g − 1. Flags and the top host alternate
/// so a torn (generation, flag) or (generation, top) pair is loud.
const TABLE: &[(f64, f64, bool, u32)] = &[
    (0.40, 0.10, true, 0),  // m̃ = 0.750, M̃ = 0.30
    (0.35, 0.30, false, 3), // m̃ ≈ 0.143, M̃ = 0.05
    (0.30, 0.05, true, 0),  // m̃ ≈ 0.833, M̃ = 0.25
    (0.25, 0.20, false, 3), // m̃ = 0.200, M̃ = 0.05
    (0.45, 0.10, true, 0),  // m̃ ≈ 0.778, M̃ = 0.35
    (0.50, 0.40, false, 3), // m̃ = 0.200, M̃ = 0.10
];

fn tmpdir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spammass-serve-swap-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn publish(state: &StateDir, row: usize) -> u64 {
    let (p0, pc0, _, _) = TABLE[row];
    let g = GraphBuilder::from_edges(NODES, &[(1, 0), (2, 0), (2, 3)]);
    let p = [p0, 0.1, 0.3, 0.2];
    let pc = [pc0, 0.0, 0.3, 0.05];
    state.save(&g, &[NodeId(2)], &p, &pc).unwrap()
}

/// One keep-alive HTTP GET; returns (status, body).
fn get(reader: &mut BufReader<TcpStream>, path: &str) -> (u16, String) {
    try_get(reader, path).unwrap()
}

/// [`get`], with a closed or broken connection as an error.
fn try_get(reader: &mut BufReader<TcpStream>, path: &str) -> std::io::Result<(u16, String)> {
    let broken =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let request = format!("GET {path} HTTP/1.1\r\nHost: swap-test\r\n\r\n");
    reader.get_mut().write_all(request.as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| broken("no status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(broken("headers cut short"));
        }
        if header == "\r\n" || header == "\n" {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|_| broken("bad content-length"))?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body).map(|body| (status, body)).map_err(|_| broken("body not UTF-8"))
}

/// Held by every test that starts a daemon: the process has one
/// [`spammass_serve::serving_addr`].
static DAEMON: Mutex<()> = Mutex::new(());

/// Sets its flag when dropped. Declared after the server, it stops the
/// test's clients before the server's drop waits for their connections,
/// so a failed assertion reports instead of hanging.
struct StopOnDrop(Arc<AtomicBool>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn start_server(state: &StateDir) -> Server {
    let detector = DetectorConfig { rho: 1.0, tau: 0.5 };
    let reloader = Reloader::new(state.clone(), None, detector, 0.85, DAMPING, 1);
    // Long poll: every swap in these tests is driven by GET /reload, so
    // the sequence of generations is deterministic.
    let options = ServeOptions { addr: "127.0.0.1:0".to_string(), poll: Duration::from_secs(600) };
    Server::start(options, reloader).expect("server starts")
}

fn connect(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    BufReader::new(stream)
}

#[test]
fn responses_stay_consistent_across_repeated_swaps() {
    let _daemon = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("hammer");
    let state = StateDir::new(&dir);
    assert_eq!(publish(&state, 0), 1);

    let server = start_server(&state);
    let addr = server.local_addr();
    assert_eq!(server.current_generation(), 1);

    let scale = NODES as f64 / (1.0 - DAMPING);
    let stop = Arc::new(AtomicBool::new(false));
    let _stop_readers = StopOnDrop(stop.clone());
    let readers: Vec<_> = (0..3)
        .map(|id| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut reader = connect(addr);
                let mut checked = 0usize;
                let mut generations_seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Acquire) {
                    // Reader 0 sends every other request to /topk.
                    let topk = id == 0 && checked % 2 == 1;
                    let path = if topk { "/topk?k=1" } else { "/score?node=0" };
                    let (status, body) = get(&mut reader, path);
                    assert_eq!(status, 200, "{body}");
                    let doc = Json::parse(&body).unwrap();
                    let generation = doc.get("generation").and_then(Json::as_f64).unwrap() as usize;
                    assert!(
                        (1..=TABLE.len()).contains(&generation),
                        "generation {generation} was never published"
                    );
                    let (p0, _, flag, top) = TABLE[generation - 1];
                    // The consistency pin: score, flag and ranking must
                    // belong to the generation the response claims.
                    if topk {
                        let results = doc.get("results").and_then(Json::as_arr).unwrap();
                        assert_eq!(results.len(), 1, "{body}");
                        let node = results[0].get("node").and_then(Json::as_f64).unwrap();
                        assert_eq!(
                            node,
                            f64::from(top),
                            "generation {generation} ranked host {node} first, expected {top}"
                        );
                    } else {
                        let score = doc.get("score").unwrap();
                        let pagerank = score.get("pagerank").and_then(Json::as_f64).unwrap();
                        let flagged = score.get("flagged") == Some(&Json::Bool(true));
                        assert!(
                            (pagerank - p0 * scale).abs() < 1e-6,
                            "generation {generation} reported pagerank {pagerank}, expected {}",
                            p0 * scale
                        );
                        assert_eq!(
                            flagged, flag,
                            "generation {generation} reported flag {flagged}"
                        );
                    }
                    checked += 1;
                    generations_seen.insert(generation);
                }
                (checked, generations_seen)
            })
        })
        .collect();

    // Publish the remaining generations, triggering a swap after each.
    let mut control = connect(addr);
    for row in 1..TABLE.len() {
        let generation = publish(&state, row);
        assert_eq!(generation as usize, row + 1);
        let (status, body) = get(&mut control, "/reload");
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("reloaded"), Some(&Json::Bool(true)), "{body}");
        assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(generation as f64));
        // Let the readers observe this generation for a moment.
        std::thread::sleep(Duration::from_millis(30));
    }

    stop.store(true, Ordering::Release);
    let mut total_checked = 0usize;
    let mut all_generations = std::collections::BTreeSet::new();
    for reader in readers {
        let (checked, generations) = reader.join().expect("no reader panicked");
        assert!(checked > 0, "a reader never completed a request");
        total_checked += checked;
        all_generations.extend(generations);
    }
    // The readers collectively hammered through the swap sequence and
    // saw it progress: multiple generations, hundreds of responses.
    assert!(total_checked >= 50, "only {total_checked} responses checked");
    assert!(all_generations.len() >= 2, "readers only ever saw generations {all_generations:?}");

    // After the last swap the daemon serves the final generation.
    let (_, body) = get(&mut control, "/score?node=0");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(TABLE.len() as f64));
    let (_, body) = get(&mut control, "/stats");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(TABLE.len() as f64));

    drop(control);
    drop(server);
    assert!(spammass_serve::serving_addr().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dropping_the_server_ends_a_busy_keep_alive_connection() {
    let _daemon = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("busy");
    let state = StateDir::new(&dir);
    assert_eq!(publish(&state, 0), 1);
    let server = start_server(&state);
    let addr = server.local_addr();

    // A client that asks once and then sits on its keep-alive connection.
    let mut idle = connect(addr);
    assert_eq!(get(&mut idle, "/stats").0, 200);
    idle.get_ref().set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // A client that never pauses: request after request on one
    // keep-alive connection, until it is told to stop or the server
    // closes the connection.
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicUsize::new(0));
    let client = {
        let (stop, answered) = (stop.clone(), answered.clone());
        std::thread::spawn(move || {
            let mut reader = connect(addr);
            while !stop.load(Ordering::Acquire) {
                match try_get(&mut reader, "/score?node=0") {
                    Ok((200, _)) => answered.fetch_add(1, Ordering::Relaxed),
                    _ => break,
                };
            }
        })
    };
    let busy = Instant::now();
    while answered.load(Ordering::Relaxed) < 20 {
        assert!(busy.elapsed() < Duration::from_secs(10), "the client is not being served");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Drop on a helper thread, so a drop that never ends fails the test
    // instead of hanging it; then stop both clients whatever happened,
    // which lets such a drop end too.
    let (dropped_tx, dropped_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(server);
        let _ = dropped_tx.send(());
    });
    let dropped = dropped_rx.recv_timeout(Duration::from_secs(1));
    stop.store(true, Ordering::Release);
    // The drop shut the idle connection down: its client reads the end.
    let idle_ended = dropped.is_ok() && matches!(idle.read(&mut [0u8; 1]), Ok(0));
    drop(idle);
    client.join().expect("the client does not panic");
    dropper.join().expect("the drop does not panic");
    assert!(
        dropped.is_ok(),
        "dropping the server took over 1 s with a busy and an idle keep-alive client"
    );
    assert!(idle_ended, "the idle connection was left open");
    assert!(spammass_serve::serving_addr().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn idle_keep_alive_clients_do_not_delay_a_new_one() {
    let _daemon = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("idle");
    let state = StateDir::new(&dir);
    assert_eq!(publish(&state, 0), 1);
    let server = start_server(&state);
    let addr = server.local_addr();

    // Four clients ask once, then hold their keep-alive connections open
    // without a word.
    let idle: Vec<_> = (0..4)
        .map(|_| {
            let mut client = connect(addr);
            assert_eq!(get(&mut client, "/stats").0, 200);
            client
        })
        .collect();

    let mut fresh = connect(addr);
    fresh.get_ref().set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let asked = Instant::now();
    let (status, body) = get(&mut fresh, "/score?node=0");
    let waited = asked.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(waited < Duration::from_secs(1), "a new client waited {waited:?} behind idle ones");

    drop((fresh, idle, server));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_outlives_the_pruning_of_its_generation() {
    let dir = tmpdir("prune");
    let state = StateDir::new(&dir);
    // A ring with chords, big enough that the image spans many pages.
    let n = 20_000u32;
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i + 7) % n)]).collect();
    let g = GraphBuilder::from_edges(n as usize, &edges);
    let p = vec![1.0 / n as f64; n as usize];
    let pc: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.5 / n as f64 } else { 0.0 }).collect();
    assert_eq!(state.save(&g, &[NodeId(0)], &p, &pc).unwrap(), 1);

    let detector = DetectorConfig { rho: 0.0, tau: 0.75 };
    let held = Snapshot::load(&state, &detector, DAMPING).unwrap();
    assert_eq!(held.generation, 1);
    assert_eq!(held.is_mapped(), cfg!(unix));
    let explain_before: Vec<_> = (0..n).step_by(997).map(|x| held.explain(x, 4)).collect();
    let top_before = held.top_k(RankBy::Relative, 16);

    // Publish the hammer's six generations; retention keeps two.
    for generation in 2..=TABLE.len() as u64 {
        assert_eq!(state.save(&g, &[NodeId(0)], &p, &pc).unwrap(), generation);
    }
    assert_eq!(state.list_generations().unwrap(), vec![5, 6]);
    assert!(!state.generation_path(1).exists(), "the held generation's directory is gone");

    // The held snapshot still answers, from every part of the image.
    assert_eq!(held.node_count(), n as usize);
    assert_eq!(held.edge_count(), edges.len());
    let explain_after: Vec<_> = (0..n).step_by(997).map(|x| held.explain(x, 4)).collect();
    assert_eq!(explain_after, explain_before);
    assert_eq!(held.top_k(RankBy::Relative, 16), top_before);
    let last = held.explain(n - 1, 4).unwrap();
    assert_eq!(last.in_degree, 2);

    // And a fresh load sees the newest generation, mapped the same way.
    let fresh = Snapshot::load(&state, &detector, DAMPING).unwrap();
    assert_eq!(fresh.generation, TABLE.len() as u64);
    assert_eq!(fresh.is_mapped(), cfg!(unix));
    drop(held);
    std::fs::remove_dir_all(&dir).unwrap();
}
