//! Endpoint logic: query parameters in, versioned JSON documents out.
//!
//! Every response document carries a `schema` tag
//! (`spammass.<endpoint>_response/v1`) and the `generation` of the
//! snapshot it was answered from, so clients can pin formats and detect
//! swaps. The functions here are pure — snapshot plus parsed request in,
//! `Json` out — which keeps them unit-testable without sockets; the
//! route table in [`crate::server`] and [`spammass_obs::http`] own
//! transport concerns.

use crate::snapshot::{NodeScore, RankBy, Snapshot};
use spammass_obs::http::Request;
use spammass_obs::json::Json;

/// Schema tag of `/score` responses.
pub const SCORE_SCHEMA: &str = "spammass.score_response/v1";
/// Schema tag of `/batch` responses.
pub const BATCH_SCHEMA: &str = "spammass.batch_response/v1";
/// Schema tag of `/topk` responses.
pub const TOPK_SCHEMA: &str = "spammass.topk_response/v1";
/// Schema tag of `/explain` responses.
pub const EXPLAIN_SCHEMA: &str = "spammass.explain_response/v1";
/// Schema tag of `/stats` responses.
pub const STATS_SCHEMA: &str = "spammass.stats_response/v1";
/// Schema tag of `/reload` responses.
pub const RELOAD_SCHEMA: &str = "spammass.reload_response/v1";

/// Most node ids one `/batch` request may ask for.
pub const BATCH_LIMIT: usize = 1024;
/// Largest accepted `/topk` k.
pub const TOPK_LIMIT: usize = 10_000;
/// Default `/explain` contribution count.
pub const EXPLAIN_DEFAULT_LIMIT: usize = 10;

/// A client-side request problem, mapped onto an HTTP status.
#[derive(Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Missing or unparseable parameter → 400.
    BadParam(String),
    /// A node id outside the snapshot's range → 404.
    UnknownNode(u32),
}

impl QueryError {
    /// The HTTP status line this error maps to.
    pub fn status(&self) -> &'static str {
        match self {
            QueryError::BadParam(_) => "400 Bad Request",
            QueryError::UnknownNode(_) => "404 Not Found",
        }
    }

    /// The plain-text body.
    pub fn message(&self) -> String {
        match self {
            QueryError::BadParam(m) => format!("{m}\n"),
            QueryError::UnknownNode(node) => format!("node {node} out of range\n"),
        }
    }
}

fn parse_node(value: &str) -> Result<u32, QueryError> {
    value
        .parse()
        .map_err(|_| QueryError::BadParam(format!("bad node id {value:?} (numeric ids only)")))
}

fn require_node(request: &Request) -> Result<u32, QueryError> {
    let raw = request
        .query_param("node")
        .ok_or_else(|| QueryError::BadParam("missing node=<id> parameter".to_string()))?;
    parse_node(raw)
}

fn score_fields(s: &NodeScore) -> Json {
    Json::obj([
        ("node", Json::uint(u64::from(s.node))),
        ("pagerank", Json::num(s.pagerank)),
        ("core_pagerank", Json::num(s.core_pagerank)),
        ("absolute_mass", Json::num(s.absolute)),
        ("relative_mass", Json::num(s.relative)),
        ("flagged", Json::Bool(s.flagged)),
    ])
}

fn tagged(schema: &str, snapshot: &Snapshot, rest: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("schema".to_string(), Json::str(schema)),
        ("generation".to_string(), Json::uint(snapshot.generation)),
    ];
    fields.extend(rest);
    Json::Obj(fields)
}

/// `GET /score?node=N` — one host's full score row.
pub fn score(snapshot: &Snapshot, request: &Request) -> Result<Json, QueryError> {
    let node = require_node(request)?;
    let s = snapshot.score(node).ok_or(QueryError::UnknownNode(node))?;
    Ok(tagged(SCORE_SCHEMA, snapshot, vec![("score".to_string(), score_fields(&s))]))
}

/// `GET /batch?nodes=N,N,...` — up to [`BATCH_LIMIT`] score rows in
/// request order. Unknown ids fail the whole batch (a partial answer
/// would be ambiguous to diff against).
pub fn batch(snapshot: &Snapshot, request: &Request) -> Result<Json, QueryError> {
    let raw = request
        .query_param("nodes")
        .ok_or_else(|| QueryError::BadParam("missing nodes=<id,id,...> parameter".to_string()))?;
    let ids: Vec<&str> = raw.split(',').filter(|s| !s.is_empty()).collect();
    if ids.is_empty() {
        return Err(QueryError::BadParam("nodes= lists no ids".to_string()));
    }
    if ids.len() > BATCH_LIMIT {
        return Err(QueryError::BadParam(format!(
            "{} ids exceed the batch limit of {BATCH_LIMIT}",
            ids.len()
        )));
    }
    let mut results = Vec::with_capacity(ids.len());
    for raw_id in ids {
        let node = parse_node(raw_id)?;
        let s = snapshot.score(node).ok_or(QueryError::UnknownNode(node))?;
        results.push(score_fields(&s));
    }
    Ok(tagged(
        BATCH_SCHEMA,
        snapshot,
        vec![
            ("count".to_string(), Json::uint(results.len() as u64)),
            ("results".to_string(), Json::Arr(results)),
        ],
    ))
}

/// `GET /topk?k=K[&by=absolute|relative|pagerank]` — the K hosts with
/// the most (estimated, scaled) spam mass, or another axis via `by=`.
pub fn topk(snapshot: &Snapshot, request: &Request) -> Result<Json, QueryError> {
    let k: usize = match request.query_param("k") {
        Some(raw) => raw.parse().map_err(|_| QueryError::BadParam(format!("bad k {raw:?}")))?,
        None => 10,
    };
    if k > TOPK_LIMIT {
        return Err(QueryError::BadParam(format!("k {k} exceeds the limit of {TOPK_LIMIT}")));
    }
    let by = match request.query_param("by") {
        Some(raw) => RankBy::parse(raw).ok_or_else(|| {
            QueryError::BadParam(format!("bad by {raw:?} (absolute, relative, pagerank)"))
        })?,
        None => RankBy::Absolute,
    };
    let results: Vec<Json> = snapshot.top_k(by, k).iter().map(score_fields).collect();
    Ok(tagged(
        TOPK_SCHEMA,
        snapshot,
        vec![
            ("by".to_string(), Json::str(by.name())),
            ("k".to_string(), Json::uint(k as u64)),
            ("count".to_string(), Json::uint(results.len() as u64)),
            ("results".to_string(), Json::Arr(results)),
        ],
    ))
}

/// `GET /explain?node=N[&limit=L]` — which in-neighbors and what
/// core-PageRank share drive `p′` at N.
pub fn explain(snapshot: &Snapshot, request: &Request) -> Result<Json, QueryError> {
    let node = require_node(request)?;
    let limit: usize = match request.query_param("limit") {
        Some(raw) => raw.parse().map_err(|_| QueryError::BadParam(format!("bad limit {raw:?}")))?,
        None => EXPLAIN_DEFAULT_LIMIT,
    };
    let ex = snapshot.explain(node, limit).ok_or(QueryError::UnknownNode(node))?;
    let contributions: Vec<Json> = ex
        .contributions
        .iter()
        .map(|f| {
            Json::obj([
                ("from", Json::uint(u64::from(f.from))),
                ("core_pagerank", Json::num(f.core_pagerank)),
                ("contribution", Json::num(f.contribution)),
            ])
        })
        .collect();
    Ok(tagged(
        EXPLAIN_SCHEMA,
        snapshot,
        vec![
            ("node".to_string(), Json::uint(u64::from(ex.node))),
            ("core_pagerank".to_string(), Json::num(ex.core_pagerank)),
            ("in_degree".to_string(), Json::uint(ex.in_degree as u64)),
            ("linked_total".to_string(), Json::num(ex.linked_total)),
            ("residual".to_string(), Json::num(ex.residual)),
            ("damping".to_string(), Json::num(snapshot.damping())),
            ("contributions".to_string(), Json::Arr(contributions)),
        ],
    ))
}

/// `GET /stats` — the serving snapshot's shape and detector settings.
pub fn stats(snapshot: &Snapshot) -> Json {
    let detection = snapshot.detection();
    tagged(
        STATS_SCHEMA,
        snapshot,
        vec![
            ("nodes".to_string(), Json::uint(snapshot.node_count() as u64)),
            ("edges".to_string(), Json::uint(snapshot.edge_count() as u64)),
            ("core_size".to_string(), Json::uint(snapshot.core_len() as u64)),
            ("candidates".to_string(), Json::uint(detection.candidates.len() as u64)),
            ("considered".to_string(), Json::uint(detection.considered as u64)),
            ("rho".to_string(), Json::num(detection.config.rho)),
            ("tau".to_string(), Json::num(detection.config.tau)),
            ("damping".to_string(), Json::num(snapshot.damping())),
            ("mapped".to_string(), Json::Bool(snapshot.is_mapped())),
        ],
    )
}

/// The `/reload` response document.
pub fn reload_response(reloaded: bool, generation: u64) -> Json {
    Json::obj([
        ("schema", Json::str(RELOAD_SCHEMA)),
        ("reloaded", Json::Bool(reloaded)),
        ("generation", Json::uint(generation)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_core::detector::DetectorConfig;
    use spammass_delta::StateDir;
    use spammass_graph::{GraphBuilder, NodeId};
    use std::io::BufReader;

    fn request(path_and_query: &str) -> Request {
        let text = format!("GET {path_and_query} HTTP/1.1\r\n\r\n");
        spammass_obs::http::read_request(&mut BufReader::new(text.as_bytes())).unwrap()
    }

    fn snapshot() -> Snapshot {
        // One directory per call: the tests here run on parallel threads
        // and each builds (and removes) its own state.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spammass-serve-service-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let g = GraphBuilder::from_edges(4, &[(1, 0), (2, 0), (2, 3)]);
        let state = StateDir::new(&dir);
        state.save(&g, &[NodeId(2)], &[0.4, 0.1, 0.3, 0.2], &[0.1, 0.0, 0.3, 0.05]).unwrap();
        let snap = Snapshot::load(&state, &DetectorConfig { rho: 1.0, tau: 0.5 }, 0.85).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        snap
    }

    #[test]
    fn score_responses_are_tagged_and_complete() {
        let snap = snapshot();
        let doc = score(&snap, &request("/score?node=0")).unwrap();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCORE_SCHEMA));
        assert_eq!(parsed.get("generation").and_then(Json::as_f64), Some(1.0));
        let s = parsed.get("score").unwrap();
        assert_eq!(s.get("node").and_then(Json::as_f64), Some(0.0));
        let scale = 4.0 / 0.15;
        let pr = s.get("pagerank").and_then(Json::as_f64).unwrap();
        assert!((pr - 0.4 * scale).abs() < 1e-6, "{pr}");
        assert_eq!(s.get("flagged"), Some(&Json::Bool(true)));

        assert_eq!(
            score(&snap, &request("/score")).unwrap_err(),
            QueryError::BadParam("missing node=<id> parameter".to_string())
        );
        assert!(matches!(
            score(&snap, &request("/score?node=banana")).unwrap_err(),
            QueryError::BadParam(_)
        ));
        assert_eq!(
            score(&snap, &request("/score?node=99")).unwrap_err(),
            QueryError::UnknownNode(99)
        );
    }

    #[test]
    fn batch_preserves_request_order_and_fails_whole() {
        let snap = snapshot();
        let doc = batch(&snap, &request("/batch?nodes=3,0,3")).unwrap();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(BATCH_SCHEMA));
        assert_eq!(parsed.get("count").and_then(Json::as_f64), Some(3.0));
        let nodes: Vec<f64> = parsed
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.get("node").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(nodes, vec![3.0, 0.0, 3.0]);

        assert!(matches!(
            batch(&snap, &request("/batch?nodes=0,99")).unwrap_err(),
            QueryError::UnknownNode(99)
        ));
        assert!(matches!(
            batch(&snap, &request("/batch?nodes=")).unwrap_err(),
            QueryError::BadParam(_)
        ));
        let oversized = format!("/batch?nodes={}", vec!["0"; BATCH_LIMIT + 1].join(","));
        assert!(matches!(batch(&snap, &request(&oversized)).unwrap_err(), QueryError::BadParam(_)));
    }

    #[test]
    fn batch_rows_are_the_score_rows() {
        let snap = snapshot();
        let reparse = |doc: Json| Json::parse(&doc.render()).unwrap();
        let batched = reparse(batch(&snap, &request("/batch?nodes=0,1,2,3")).unwrap());
        let rows = batched.get("results").and_then(Json::as_arr).unwrap();
        for (node, row) in rows.iter().enumerate() {
            let single = reparse(score(&snap, &request(&format!("/score?node={node}"))).unwrap());
            assert_eq!(single.get("generation"), batched.get("generation"));
            assert_eq!(single.get("score"), Some(row), "node {node}");
        }
    }

    #[test]
    fn topk_ranks_and_validates() {
        let snap = snapshot();
        let doc = topk(&snap, &request("/topk?k=2")).unwrap();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("by").and_then(Json::as_str), Some("absolute"));
        let nodes: Vec<f64> = parsed
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.get("node").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(nodes, vec![0.0, 3.0]);

        let doc = topk(&snap, &request("/topk?k=1&by=relative")).unwrap();
        let parsed = Json::parse(&doc.render()).unwrap();
        let first = parsed.get("results").and_then(Json::as_arr).unwrap()[0]
            .get("node")
            .and_then(Json::as_f64);
        assert_eq!(first, Some(1.0));

        assert!(matches!(
            topk(&snap, &request("/topk?by=banana")).unwrap_err(),
            QueryError::BadParam(_)
        ));
        assert!(matches!(
            topk(&snap, &request(&format!("/topk?k={}", TOPK_LIMIT + 1))).unwrap_err(),
            QueryError::BadParam(_)
        ));
    }

    #[test]
    fn explain_lists_contributions() {
        let snap = snapshot();
        let doc = explain(&snap, &request("/explain?node=0&limit=1")).unwrap();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(EXPLAIN_SCHEMA));
        assert_eq!(parsed.get("in_degree").and_then(Json::as_f64), Some(2.0));
        let contributions = parsed.get("contributions").and_then(Json::as_arr).unwrap();
        assert_eq!(contributions.len(), 1);
        assert_eq!(contributions[0].get("from").and_then(Json::as_f64), Some(2.0));

        // An unchecked limit must not size an allocation: it lists every
        // in-neighbour and no more.
        let doc = explain(&snap, &request("/explain?node=0&limit=1000000000000")).unwrap();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("in_degree").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parsed.get("contributions").and_then(Json::as_arr).map(<[_]>::len), Some(2));
        assert!(matches!(
            explain(&snap, &request("/explain?node=7")).unwrap_err(),
            QueryError::UnknownNode(7)
        ));
    }

    #[test]
    fn stats_and_reload_documents() {
        let snap = snapshot();
        let parsed = Json::parse(&stats(&snap).render()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(STATS_SCHEMA));
        assert_eq!(parsed.get("nodes").and_then(Json::as_f64), Some(4.0));
        assert_eq!(parsed.get("edges").and_then(Json::as_f64), Some(3.0));
        assert_eq!(parsed.get("candidates").and_then(Json::as_f64), Some(3.0));

        let parsed = Json::parse(&reload_response(true, 7).render()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(RELOAD_SCHEMA));
        assert_eq!(parsed.get("reloaded"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("generation").and_then(Json::as_f64), Some(7.0));
    }
}
