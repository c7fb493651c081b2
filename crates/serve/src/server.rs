//! The thread-per-core accept loop and the epoch snapshot slot.
//!
//! One `TcpListener` is shared by N blocking accept threads (N =
//! available parallelism by default); each accepted connection is
//! served keep-alive on the thread that accepted it via the shared
//! [`spammass_obs::http`] plumbing. There is no async machinery and no
//! cross-thread handoff: a request's whole life is one thread, one
//! snapshot `Arc` clone, one response write.
//!
//! The **swap protocol**: the current [`Snapshot`] lives behind a
//! mutex-guarded `Arc` slot. Readers lock only long enough to clone the
//! `Arc`; the reload pass builds the replacement snapshot entirely
//! outside that lock and then stores it with a single assignment.
//! In-flight requests finish on the generation they started on — a
//! response can never mix scores across a swap, pinned by the
//! swap-consistency integration test.

use crate::reload::Reloader;
use crate::service::{self, QueryError};
use crate::snapshot::Snapshot;
use crate::ServeError;
use spammass_obs as obs;
use spammass_obs::http::{read_request, write_response, Request};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

static SERVING: Mutex<Option<SocketAddr>> = Mutex::new(None);

/// The address the process's query daemon is bound to, if one is
/// running. Lets tests and siblings discover an ephemeral `:0` port.
pub fn serving_addr() -> Option<SocketAddr> {
    *SERVING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Configuration of a [`Server`].
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Accept threads; `0` = available parallelism.
    pub threads: usize,
    /// How often the background pass checks for staleness.
    pub poll: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { addr: "127.0.0.1:0".to_string(), threads: 0, poll: Duration::from_secs(1) }
    }
}

pub(crate) struct Shared {
    slot: Mutex<Arc<Snapshot>>,
    reloader: Mutex<Reloader>,
    stop: AtomicBool,
}

impl Shared {
    /// One pointer clone under a short lock: the reader-side epoch pin.
    fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn swap(&self, snapshot: Arc<Snapshot>) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = snapshot;
        obs::counter(obs::names::SERVE_SWAPS, 1.0);
    }

    /// One full staleness check; swaps and reports the new generation
    /// when a refresh path produced a snapshot.
    fn reload_now(&self) -> Result<Option<u64>, ServeError> {
        // The reloader mutex serializes concurrent /reload requests with
        // the background pass; readers never touch it.
        let mut reloader = self.reloader.lock().unwrap_or_else(|e| e.into_inner());
        let current = self.snapshot().generation;
        let started = Instant::now();
        match reloader.check(current)? {
            Some(snapshot) => {
                let generation = snapshot.generation;
                self.swap(Arc::new(snapshot));
                obs::observe(obs::names::SERVE_RELOAD_NS, started.elapsed().as_nanos() as f64);
                Ok(Some(generation))
            }
            None => Ok(None),
        }
    }
}

/// A running query daemon. Dropping it stops the accept threads and the
/// background reload pass: a keep-alive connection ends after its next
/// response, or once it has been idle for the 10 s read timeout.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    accept_threads: usize,
}

impl Server {
    /// Binds, loads the initial snapshot through `reloader`, and starts
    /// serving.
    pub fn start(options: ServeOptions, reloader: Reloader) -> Result<Server, ServeError> {
        let initial = Arc::new(reloader.initial_snapshot()?);
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            slot: Mutex::new(initial),
            reloader: Mutex::new(reloader),
            stop: AtomicBool::new(false),
        });
        let accept_threads = if options.threads == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            options.threads
        };

        let listener = Arc::new(listener);
        let mut handles = Vec::with_capacity(accept_threads + 1);
        for worker in 0..accept_threads {
            let listener = listener.clone();
            let shared = shared.clone();
            handles.push(
                std::thread::Builder::new().name(format!("spammass-serve-{worker}")).spawn(
                    move || loop {
                        let Ok((stream, _peer)) = listener.accept() else { continue };
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let _ = handle_connection(&shared, stream);
                    },
                )?,
            );
        }
        {
            let shared = shared.clone();
            let poll = options.poll;
            handles.push(
                std::thread::Builder::new().name("spammass-serve-reload".to_string()).spawn(
                    move || loop {
                        // Sleep in short slices so shutdown is prompt even
                        // under long poll intervals.
                        let wake = Instant::now() + poll;
                        while Instant::now() < wake {
                            if shared.stop.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(25).min(poll));
                        }
                        if shared.stop.load(Ordering::Acquire) {
                            return;
                        }
                        if let Err(e) = shared.reload_now() {
                            obs::event(
                                "serve.reload.error",
                                vec![("message".to_string(), obs::json::Json::str(e.to_string()))],
                            );
                        }
                    },
                )?,
            );
        }
        *SERVING.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
        Ok(Server { addr, shared, handles, accept_threads })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept threads actually started.
    pub fn accept_threads(&self) -> usize {
        self.accept_threads
    }

    /// Generation currently serving.
    pub fn current_generation(&self) -> u64 {
        self.shared.snapshot().generation
    }

    /// Runs a staleness check right now (what `GET /reload` does).
    pub fn reload_now(&self) -> Result<Option<u64>, ServeError> {
        self.shared.reload_now()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // One nudge per accept thread so every blocking accept() returns
        // and observes the flag; the reload thread wakes on its own.
        for _ in 0..self.accept_threads {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let mut serving = SERVING.lock().unwrap_or_else(|e| e.into_inner());
        if *serving == Some(self.addr) {
            *serving = None;
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    // Small request/response pairs on a keep-alive connection are the
    // worst case for Nagle + delayed ACK; latency is the product here.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(e) => {
                // Malformed/oversized requests get a typed error; clean
                // closes and transport failures end the connection.
                if let Some((status, message)) = e.response() {
                    obs::counter(obs::names::SERVE_REQUESTS, 1.0);
                    obs::counter(obs::names::SERVE_ERRORS, 1.0);
                    write_response(reader.get_mut(), status, TEXT, &message, false)?;
                }
                return Ok(());
            }
        };
        obs::counter(obs::names::SERVE_REQUESTS, 1.0);
        let started = Instant::now();
        let (status, content_type, body, latency_metric) = route(shared, &request);
        if let Some(name) = latency_metric {
            obs::observe(name, started.elapsed().as_nanos() as f64);
        }
        if !status.starts_with("200") {
            obs::counter(obs::names::SERVE_ERRORS, 1.0);
        }
        // Once the daemon is stopping, answer and close: a client that
        // keeps sending on one connection must not hold its accept
        // thread, and so `Server::drop`, past its next response.
        let keep_alive = request.keep_alive && !shared.stop.load(Ordering::Acquire);
        write_response(reader.get_mut(), status, content_type, &body, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

type Routed = (&'static str, &'static str, String, Option<&'static str>);

fn respond(result: Result<spammass_obs::json::Json, QueryError>, metric: &'static str) -> Routed {
    match result {
        Ok(doc) => {
            let mut body = doc.render();
            body.push('\n');
            ("200 OK", JSON, body, Some(metric))
        }
        Err(e) => (e.status(), TEXT, e.message(), Some(metric)),
    }
}

fn route(shared: &Shared, request: &Request) -> Routed {
    if request.method != "GET" {
        return ("405 Method Not Allowed", TEXT, "only GET is served\n".to_string(), None);
    }
    // One snapshot pin per request: every number in the response comes
    // from the same generation, whatever the reload pass does meanwhile.
    let snapshot = shared.snapshot();
    match request.path.as_str() {
        "/score" => respond(service::score(&snapshot, request), obs::names::SERVE_SCORE_NS),
        "/batch" => respond(service::batch(&snapshot, request), obs::names::SERVE_BATCH_NS),
        "/topk" => respond(service::topk(&snapshot, request), obs::names::SERVE_TOPK_NS),
        "/explain" => respond(service::explain(&snapshot, request), obs::names::SERVE_EXPLAIN_NS),
        "/stats" => {
            let mut body = service::stats(&snapshot).render();
            body.push('\n');
            ("200 OK", JSON, body, None)
        }
        "/reload" => match shared.reload_now() {
            Ok(swapped) => {
                let generation = match swapped {
                    Some(g) => g,
                    None => snapshot.generation,
                };
                let mut body = service::reload_response(swapped.is_some(), generation).render();
                body.push('\n');
                ("200 OK", JSON, body, None)
            }
            Err(e) => ("500 Internal Server Error", TEXT, format!("reload failed: {e}\n"), None),
        },
        _ => (
            "404 Not Found",
            TEXT,
            "routes: /score /batch /topk /explain /stats /reload\n".to_string(),
            None,
        ),
    }
}
