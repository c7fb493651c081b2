//! The daemon's route table, its epoch snapshot slot, and the reload
//! pass.
//!
//! Transport is the workspace's one HTTP server, [`spammass_obs::http`]:
//! each connection is served keep-alive on a thread of its own. There is
//! no async machinery and no cross-thread handoff: a request's whole life
//! is one thread, one snapshot `Arc` clone, one response write.
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
use spammass_obs::http::{self, Request, Response, TEXT};
use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// How often the background pass checks for staleness.
    pub poll: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { addr: "127.0.0.1:0".to_string(), poll: Duration::from_secs(1) }
    }
}

pub(crate) struct Shared {
    slot: Mutex<Arc<Snapshot>>,
    reloader: Mutex<Reloader>,
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

impl http::Routes for Shared {
    fn route(&self, request: &Request) -> Response {
        obs::counter(obs::names::SERVE_REQUESTS, 1.0);
        let response = route(self, request, Instant::now());
        if !response.0.starts_with("200") {
            obs::counter(obs::names::SERVE_ERRORS, 1.0);
        }
        response
    }

    fn refused(&self) {
        obs::counter(obs::names::SERVE_REQUESTS, 1.0);
        obs::counter(obs::names::SERVE_ERRORS, 1.0);
    }
}

/// A running query daemon. Dropping it ends the reload pass at once and
/// stops the HTTP server, which shuts every open connection down.
pub struct Server {
    shared: Arc<Shared>,
    /// Never sent on: dropping it wakes and ends the reload pass.
    reload: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
    http: http::Server,
}

impl Server {
    /// Binds, loads the initial snapshot through `reloader`, and starts
    /// serving.
    pub fn start(options: ServeOptions, reloader: Reloader) -> Result<Server, ServeError> {
        let initial = Arc::new(reloader.initial_snapshot()?);
        let shared = Arc::new(Shared { slot: Mutex::new(initial), reloader: Mutex::new(reloader) });
        let http = http::start(&options.addr, shared.clone())?;
        let (wake, asleep) = mpsc::channel::<()>();
        let reload = {
            let shared = shared.clone();
            std::thread::Builder::new().name("spammass-serve-reload".to_string()).spawn(
                move || {
                    while let Err(RecvTimeoutError::Timeout) = asleep.recv_timeout(options.poll) {
                        if let Err(e) = shared.reload_now() {
                            obs::event(
                                "serve.reload.error",
                                vec![("message".to_string(), obs::json::Json::str(e.to_string()))],
                            );
                        }
                    }
                },
            )?
        };
        *SERVING.lock().unwrap_or_else(|e| e.into_inner()) = Some(http.local_addr());
        Ok(Server { shared, reload: Some((wake, reload)), http })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
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
        if let Some((wake, reload)) = self.reload.take() {
            drop(wake);
            let _ = reload.join();
        }
        let mut serving = SERVING.lock().unwrap_or_else(|e| e.into_inner());
        if *serving == Some(self.local_addr()) {
            *serving = None;
        }
    }
}

fn route(shared: &Shared, request: &Request, started: Instant) -> Response {
    if request.method != "GET" {
        return ("405 Method Not Allowed", TEXT, "only GET is served\n".to_string());
    }
    // A query's latency histogram covers its routing and rendering.
    let timed = |result: Result<obs::json::Json, QueryError>, metric: &str| {
        let response = match result {
            Ok(doc) => http::json(&doc),
            Err(e) => (e.status(), TEXT, e.message()),
        };
        obs::observe(metric, started.elapsed().as_nanos() as f64);
        response
    };
    // One snapshot pin per request: every number in the response comes
    // from the same generation, whatever the reload pass does meanwhile.
    let snapshot = shared.snapshot();
    match request.path.as_str() {
        "/score" => timed(service::score(&snapshot, request), obs::names::SERVE_SCORE_NS),
        "/batch" => timed(service::batch(&snapshot, request), obs::names::SERVE_BATCH_NS),
        "/topk" => timed(service::topk(&snapshot, request), obs::names::SERVE_TOPK_NS),
        "/explain" => timed(service::explain(&snapshot, request), obs::names::SERVE_EXPLAIN_NS),
        "/stats" => http::json(&service::stats(&snapshot)),
        "/reload" => match shared.reload_now() {
            Ok(swapped) => {
                let generation = swapped.unwrap_or(snapshot.generation);
                http::json(&service::reload_response(swapped.is_some(), generation))
            }
            Err(e) => ("500 Internal Server Error", TEXT, format!("reload failed: {e}\n")),
        },
        _ => (
            "404 Not Found",
            TEXT,
            "routes: /score /batch /topk /explain /stats /reload\n".to_string(),
        ),
    }
}
