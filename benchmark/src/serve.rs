//! The two daemon workloads: one state, two traffic mixes.
//!
//! Each runs an open-loop phase (a fixed request rate, latency from the due
//! time) and then a closed-loop phase (up to two requests pipelined on the
//! one connection, a polling client, time per request = interval between
//! answers). The end-to-end numbers come from the
//! closed loop, where no thread ever sleeps; the open loop's go to the
//! per-layer list, because a sleeping server thread's wake-up latency is
//! the hypervisor's on this kind of host and reads 14 µs or 70 µs for
//! minutes at a time with no change to the code.
//!
//! `serve_point` is lookup traffic — per-request work in the snapshot is
//! nanoseconds, so what it measures is parse → route → render → two
//! syscalls → a cross-core wake. `serve_scan` is analyst traffic — every
//! `/topk` heaps over all hosts and every big `/batch` renders kilobytes,
//! so the snapshot and the handlers dominate and transport does little.
//! An optimisation aimed at one must leave the other where it was.

use crate::common::{
    generation_tag, num, parse, quality, schema_tag, start_server, tagged_ok, Inputs, Measured,
    Truth, DAMPING, DETECTOR,
};
use crate::load::{open_loop, Client, RealClock};
use crate::spec::Sizes;
use crate::trace::Tracer;
use crate::util::{ctx, max, median, peak_rss_mb, percentile, Layers, Res, Rng};
use spammass_delta::StateDir;
use spammass_obs::http::Request;
use spammass_obs::json::Json;
use spammass_serve::service::{self, BATCH_SCHEMA, EXPLAIN_SCHEMA, SCORE_SCHEMA, TOPK_SCHEMA};
use spammass_serve::snapshot::RankBy;
use spammass_serve::Snapshot;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Mix {
    /// 90 % `/score`, 10 % `/batch` of 32, uniform seeded ids.
    Point,
    /// 60 % `/topk?k=100` over the three rankings, 25 % `/explain` on the
    /// highest-PageRank hosts, 15 % `/batch` of 256. The scan share is
    /// kept clear of one half so the median request is always a `/topk`:
    /// at exactly 50 % the median would flip between a scan and a lookup
    /// with the seed.
    Scan,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Score,
    Batch,
    Topk,
    Explain,
}

/// In discriminant order, so `kind as usize` indexes per-endpoint arrays.
const KINDS: [Kind; 4] = [Kind::Score, Kind::Batch, Kind::Topk, Kind::Explain];
const RANKINGS: [(&str, RankBy); 3] =
    [("pagerank", RankBy::Pagerank), ("mass", RankBy::Absolute), ("relative", RankBy::Relative)];
const TOPK_K: usize = 100;

struct Req {
    kind: Kind,
    path: String,
    /// Hosts the request names (one for score/explain, the list for batch).
    nodes: Vec<u32>,
    by: RankBy,
}

/// Draws requests of one mix from the seed.
struct Generator<'a> {
    rng: Rng,
    mix: Mix,
    hosts: u64,
    /// `/explain` targets: the highest-PageRank hosts, whose in-degree
    /// makes an explanation real work.
    hubs: &'a [u32],
}

impl Generator<'_> {
    fn ids(&mut self, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.rng.below(self.hosts) as u32).collect()
    }

    fn next(&mut self) -> Req {
        let roll = self.rng.below(100);
        let kind = match self.mix {
            Mix::Point if roll < 90 => Kind::Score,
            Mix::Point => Kind::Batch,
            Mix::Scan if roll < 60 => Kind::Topk,
            Mix::Scan if roll < 85 => Kind::Explain,
            Mix::Scan => Kind::Batch,
        };
        self.of(kind)
    }

    fn of(&mut self, kind: Kind) -> Req {
        let mut by = RankBy::Absolute;
        let (path, nodes) = match kind {
            Kind::Score => {
                let ids = self.ids(1);
                (format!("/score?node={}", ids[0]), ids)
            }
            Kind::Batch => {
                let ids = self.ids(if self.mix == Mix::Point { 32 } else { 256 });
                let list: Vec<String> = ids.iter().map(u32::to_string).collect();
                (format!("/batch?nodes={}", list.join(",")), ids)
            }
            Kind::Topk => {
                let (name, rank) = RANKINGS[self.rng.below(3) as usize];
                by = rank;
                (format!("/topk?k={TOPK_K}&by={name}"), Vec::new())
            }
            Kind::Explain => {
                let node = self.hubs[self.rng.below(self.hubs.len() as u64) as usize];
                (format!("/explain?node={node}"), vec![node])
            }
        };
        Req { kind, path, nodes, by }
    }
}

/// Checks every response's tags, and every hundredth one field by field
/// against the snapshot loaded in-process from the same generation.
struct Checker<'a> {
    snapshot: &'a Snapshot,
    schema_tags: [String; 4],
    generation_tag: String,
    seen: u64,
    pub compared: u64,
}

impl<'a> Checker<'a> {
    fn new(snapshot: &'a Snapshot) -> Checker<'a> {
        Checker {
            snapshot,
            schema_tags: [SCORE_SCHEMA, BATCH_SCHEMA, TOPK_SCHEMA, EXPLAIN_SCHEMA].map(schema_tag),
            generation_tag: generation_tag(snapshot.generation),
            seen: 0,
            compared: 0,
        }
    }

    fn check(&mut self, req: &Req, status: u16, body: &[u8]) -> Result<(), String> {
        tagged_ok(status, body, &self.schema_tags[req.kind as usize], &self.generation_tag)?;
        self.seen += 1;
        if self.seen % 100 != 1 {
            return Ok(());
        }
        self.compared += 1;
        let doc = parse(body)?;
        let same = |what: &str, got: f64, want: f64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{} {what}: served {got}, snapshot {want}", req.path))
            }
        };
        let row = |served: &Json, node: u32| {
            let want =
                self.snapshot.score(node).ok_or(format!("host {node} not in the snapshot"))?;
            same("node", num(served, &["node"])?, f64::from(node))?;
            same("pagerank", num(served, &["pagerank"])?, want.pagerank)?;
            same("relative_mass", num(served, &["relative_mass"])?, want.relative)?;
            match served.get("flagged") {
                Some(Json::Bool(f)) if *f == want.flagged => Ok(()),
                other => Err(format!(
                    "{} flagged: served {other:?}, snapshot {}",
                    req.path, want.flagged
                )),
            }
        };
        let rows = |want: &[u32]| {
            let served = doc.get("results").and_then(Json::as_arr).ok_or("no results array")?;
            same("count", served.len() as f64, want.len() as f64)?;
            served.iter().zip(want).try_for_each(|(s, &node)| row(s, node))
        };
        match req.kind {
            Kind::Score => row(doc.get("score").ok_or("no score object")?, req.nodes[0]),
            Kind::Batch => rows(&req.nodes),
            Kind::Topk => {
                let want: Vec<u32> =
                    self.snapshot.top_k(req.by, TOPK_K).iter().map(|s| s.node).collect();
                rows(&want)
            }
            Kind::Explain => {
                let want = self
                    .snapshot
                    .explain(req.nodes[0], service::EXPLAIN_DEFAULT_LIMIT)
                    .ok_or("explained host not in the snapshot")?;
                same("core_pagerank", num(&doc, &["core_pagerank"])?, want.core_pagerank)?;
                same("in_degree", num(&doc, &["in_degree"])?, want.in_degree as f64)?;
                same("linked_total", num(&doc, &["linked_total"])?, want.linked_total)
            }
        }
    }
}

/// Keeps the first few failure reasons for the operator.
fn note(failures: &mut Vec<String>, why: String) {
    if failures.len() < 8 {
        failures.push(why);
    }
}

/// Sends `req` and checks the answer; the instant the answer was complete
/// is returned so checking stays off the latency.
fn exchange(
    client: &mut Client,
    checker: &mut Checker,
    req: &Req,
) -> (Instant, Result<(), String>) {
    match client.get(&req.path) {
        Ok((status, body)) => {
            let done = Instant::now();
            (done, checker.check(req, status, body))
        }
        Err(e) => (Instant::now(), Err(format!("{}: {e}", req.path))),
    }
}

pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Res<Measured> {
    let mut out = Measured::default();
    let state = StateDir::new(inputs.state());
    let snapshot =
        Snapshot::load(&state, &DETECTOR, DAMPING).map_err(|e| format!("load snapshot: {e}"))?;
    let hubs: Vec<u32> =
        snapshot.top_k(RankBy::Pagerank, sizes.explain_pool).iter().map(|s| s.node).collect();
    let server = start_server(&inputs.state(), None, None)?;
    let mut client = Client::connect(server.local_addr())?;
    let mut checker = Checker::new(&snapshot);
    let mut generator = Generator {
        rng: Rng::new(seed ^ 0x5345_5256_4521_2121),
        mix,
        hosts: snapshot.node_count() as u64,
        hubs: &hubs,
    };

    let rate = if mix == Mix::Point { sizes.point_rate } else { sizes.scan_rate };
    let (open_s, closed_s) = (seconds * 0.5, seconds * 0.5);
    let scheduled: Vec<Req> = (0..(rate * open_s) as usize).map(|_| generator.next()).collect();
    let closed_reqs: Vec<Req> = (0..4096).map(|_| generator.next()).collect();

    // Untimed warm-up: connection, allocator, branch predictors, and the
    // server's lazily grown buffers.
    for req in closed_reqs.iter().take(200) {
        if let (_, Err(why)) = exchange(&mut client, &mut checker, req) {
            return Err(format!("warm-up request failed: {why}"));
        }
    }

    // Phase 1, open loop: `rate` requests per second whatever the server
    // does, latency from each request's due time, an ordinary blocking
    // client. The server sleeps between requests here, so the numbers
    // include a thread wake-up — which on a virtual machine is the
    // hypervisor's to give (see README); they go to the per-layer list.
    let mut clock = RealClock::start();
    let mut failures = Vec::new();
    let open = open_loop(&mut clock, scheduled.len(), rate, |clock, i, due_ns| {
        let (done, result) = exchange(&mut client, &mut checker, &scheduled[i]);
        tracer.set_rep(i as u32);
        tracer.record("serve.server.request", clock.instant(due_ns), done);
        match result {
            Ok(()) => Some(clock.ns_at(done)),
            Err(why) => {
                note(&mut failures, why);
                None
            }
        }
    });

    // Phase 2, closed loop: up to two requests in flight on one connection
    // and a client that polls instead of sleeping, so the server always has
    // a request waiting and neither side ever waits for a wake-up. One
    // operation is the time the connection was occupied by one request:
    // the interval between consecutive complete answers. What is left is
    // the server's own work per request.
    ctx("switch the client to polling", client.spin())?;
    let request = |i: usize| &closed_reqs[i % closed_reqs.len()];
    let mut closed_failed = 0u64;
    for i in 0..2 {
        let sent = client.send(&request(i).path);
        ctx("prime the pipeline", sent)?;
    }
    let mut answered = 0usize;
    let mut closed_started = None;
    let mut last_done = Instant::now();
    while closed_started.is_none_or(|t: Instant| t.elapsed().as_secs_f64() < closed_s) {
        let result = match client.recv() {
            Ok((status, body)) => {
                let done = Instant::now();
                if closed_started.is_some() {
                    tracer.set_rep(answered as u32);
                    tracer.record("serve.server.pipelined", last_done, done);
                    out.samples_ms.push(done.duration_since(last_done).as_secs_f64() * 1e3);
                } else {
                    // The first answer starts the clock: its own interval
                    // would include priming the pipeline.
                    closed_started = Some(done);
                }
                last_done = done;
                checker.check(request(answered), status, body)
            }
            Err(e) => return Err(format!("pipelined connection broke: {e}")),
        };
        if let Err(why) = result {
            closed_failed += 1;
            note(&mut failures, why);
        }
        answered += 1;
        let sent = client.send(&request(answered + 1).path);
        ctx("send a pipelined request", sent)?;
    }
    let closed_wall_s = last_done.duration_since(closed_started.expect("loop ran")).as_secs_f64();
    // The two requests still in flight are answered off the clock.
    for _ in 0..2 {
        ctx("drain the pipeline", client.recv().map(|_| ()))?;
    }
    out.peak_rss_mb = peak_rss_mb()?;

    out.attempted = (scheduled.len() + answered) as u64;
    out.failed = open.failed + closed_failed;
    out.failures = failures;
    out.throughput_per_s = (out.samples_ms.len() as u64 - closed_failed) as f64 / closed_wall_s;
    if checker.compared == 0 {
        out.fail("no response was compared with the snapshot".into());
    }

    let truth = Truth::read(&inputs.truth())?;
    let flagged = &snapshot.detection().candidates;
    let quality = quality(
        flagged,
        snapshot.node_count(),
        |x| snapshot.score(x).map_or(0.0, |s| s.pagerank),
        |x| truth.is_spam(x),
    );
    out.set_flagged(flagged, quality);

    if tracer.on() {
        let l = &mut out.layers;
        let finite: Vec<f64> =
            open.latency_us.iter().copied().filter(|us| us.is_finite()).collect();
        l.insert("serve.server.open_p50_us".into(), percentile(&open.latency_us, 0.50).min(1e12));
        l.insert(
            "serve.server.latency_p99_us".into(),
            percentile(&open.latency_us, 0.99).min(1e12),
        );
        l.insert("serve.server.latency_max_us".into(), max(&finite));
        l.insert("serve.server.sent".into(), scheduled.len() as f64);
        l.insert("serve.server.failed".into(), out.failed as f64);
        l.insert("serve.server.late_p99_us".into(), percentile(&open.late_us, 0.99));
        l.insert("serve.server.backlog_max".into(), open.backlog_max as f64);
        // Probes go over a fresh blocking connection: one request, one
        // answer, the way `serve.server.*_rtt_us` is defined.
        drop(client);
        client = Client::connect(server.local_addr())?;
        endpoint_probes(l, &mut client, &mut checker, &mut generator, &snapshot)?;
    }
    drop(client);
    drop(server);
    Ok(out)
}

/// Per-endpoint costs at three depths, off the clock: the round trip over
/// TCP, the pure handler with JSON rendering, and the bare snapshot call.
/// Round trip minus handler is what transport costs.
fn endpoint_probes(
    l: &mut Layers,
    client: &mut Client,
    checker: &mut Checker,
    generator: &mut Generator,
    snapshot: &Snapshot,
) -> Res<()> {
    const ROUNDS: usize = 200;
    let mut rtt_us = [0.0; 4];
    let mut handler_us = [0.0; 4];
    for (slot, kind) in KINDS.into_iter().enumerate() {
        let reqs: Vec<Req> = (0..ROUNDS).map(|_| generator.of(kind)).collect();
        let mut rtts = Vec::with_capacity(ROUNDS);
        let mut handlers = Vec::with_capacity(ROUNDS);
        for req in &reqs {
            let sent = Instant::now();
            let (done, result) = exchange(client, checker, req);
            result.map_err(|why| format!("probe request failed: {why}"))?;
            rtts.push(done.duration_since(sent).as_secs_f64() * 1e6);

            let (path, query) = req.path.split_once('?').expect("every probe path has a query");
            let request = Request {
                method: "GET".into(),
                path: path.into(),
                query: query
                    .split('&')
                    .map(|pair| pair.split_once('=').expect("key=value"))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                keep_alive: true,
            };
            let t = Instant::now();
            let doc = match kind {
                Kind::Score => service::score(snapshot, &request),
                Kind::Batch => service::batch(snapshot, &request),
                Kind::Topk => service::topk(snapshot, &request),
                Kind::Explain => service::explain(snapshot, &request),
            };
            let rendered = doc.map_err(|e| format!("handler probe: {}", e.message()))?.render();
            std::hint::black_box(rendered);
            handlers.push(t.elapsed().as_secs_f64() * 1e6);
        }
        rtt_us[slot] = median(&rtts);
        handler_us[slot] = median(&handlers);
    }
    for (slot, name) in ["score", "batch", "topk", "explain"].into_iter().enumerate() {
        l.insert(format!("serve.server.{name}_rtt_us"), rtt_us[slot]);
        l.insert(format!("serve.service.{name}_us"), handler_us[slot]);
    }
    l.insert("serve.server.transport_us".into(), rtt_us[0] - handler_us[0]);

    let nodes = snapshot.node_count() as u32;
    let t = Instant::now();
    for i in 0..100_000u32 {
        std::hint::black_box(snapshot.score(i.wrapping_mul(2_654_435_761) % nodes));
    }
    l.insert("serve.snapshot.score_ns".into(), t.elapsed().as_secs_f64() * 1e9 / 100_000.0);
    let t = Instant::now();
    for (_, by) in RANKINGS.iter().cycle().take(30) {
        std::hint::black_box(snapshot.top_k(*by, TOPK_K));
    }
    l.insert("serve.snapshot.topk_us".into(), t.elapsed().as_secs_f64() * 1e6 / 30.0);
    let t = Instant::now();
    for &hub in generator.hubs.iter().take(200) {
        std::hint::black_box(snapshot.explain(hub, service::EXPLAIN_DEFAULT_LIMIT));
    }
    let explained = generator.hubs.len().min(200) as f64;
    l.insert("serve.snapshot.explain_us".into(), t.elapsed().as_secs_f64() * 1e6 / explained);
    Ok(())
}
