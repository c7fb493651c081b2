//! Graph serialization: text edge lists and a binary image format.
//!
//! * **Text**: one `from<TAB>to` pair per line, `#` comments — the common
//!   interchange format of public web-graph datasets (WebGraph/LAW dumps,
//!   the WEBSPAM-UK corpora), so real crawls can be dropped in for the
//!   synthetic workload. Real crawl dumps are messy; [`read_edge_list_with`]
//!   offers a **lenient** mode that skips malformed lines up to an error
//!   budget and reports them in a [`LoadReport`].
//! * **Binary**: the little-endian `SPAMGRPH` image. The system writes two
//!   versions, each with one job: **v3** ([`graph_to_bytes_v3`]) is the
//!   resident format — the four CSR arrays as 8-byte-aligned,
//!   individually-checksummed sections, so a graph loads **zero-copy**
//!   straight out of a memory-mapped file ([`map_graph_file`]) with no
//!   per-edge decode and no per-edge copy — and **v4**
//!   ([`crate::compress`]) is the compressed, block-streamed one. These
//!   two are also the only versions it reads: a v1/v2 edge-list image is
//!   rejected as an unsupported version, and `spammass convert` built
//!   from commit `4e9c81e`, the last to read them, upgrades one to v3.
//!
//! ## Binary layout (v3)
//!
//! ```text
//! offset        field
//! 0             magic  b"SPAMGRPH"
//! 8             version u32 LE (3)
//! 12            section_count u32 LE (4)
//! 16            node_count u64 LE
//! 24            edge_count u64 LE
//! 32            section table: 4 × { kind u32, crc32 u32, offset u64, len u64 }
//! 128           header_crc32 u32 LE — CRC-32 over bytes [0, 128)
//! 132           pad (4 bytes) so sections start 8-aligned
//! 136           sections (kinds 0..4: out-offsets, out-targets, in-offsets,
//!               in-sources), each padded to start on an 8-byte boundary,
//!               each a little-endian u32 array covered by its table CRC
//! end−8         total_len u64 LE — length of the whole image
//! ```
//!
//! The v3 loader verifies each section CRC independently. A corrupted
//! section does not doom the image: the two CSR orientations encode the
//! same edge set, so a bad orientation is **rebuilt** from the intact one
//! (only when both orientations are damaged is the image rejected).
//! Sections whose in-memory address is 4-byte-aligned on a little-endian
//! target are used in place ([`U32Store::shared`]); anything else falls
//! back to an owned copy — same graph, one copy. [`ImageLoadStats`] reports
//! which path each section took.
//!
use crate::builder::GraphBuilder;
use crate::crc32::crc32;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::labels::NodeLabels;
use crate::le::{get_u32, get_u64};
use crate::node::NodeId;
use crate::storage::{ByteStore, NodeStore, U32Store};
use spammass_obs as obs;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;

/// Magic prefix of the binary graph format.
const MAGIC: &[u8; 8] = b"SPAMGRPH";
/// Sectioned CSR format, loadable zero-copy from a mapped file.
const VERSION_V3: u32 = 3;
/// How many offending lines a [`LoadReport`] retains verbatim.
const REPORT_SAMPLE_CAP: usize = 16;
/// Number of CSR sections in a v3 image.
const V3_SECTION_COUNT: usize = 4;
/// Byte offset of the v3 section table.
const V3_TABLE_OFFSET: usize = 32;
/// Bytes per v3 section-table entry.
const V3_TABLE_ENTRY_LEN: usize = 24;
/// Byte offset of the v3 header CRC (covers bytes `[0, 128)`).
const V3_HEADER_CRC_OFFSET: usize = V3_TABLE_OFFSET + V3_SECTION_COUNT * V3_TABLE_ENTRY_LEN;
/// Byte offset of the first v3 section (8-aligned).
const V3_SECTIONS_OFFSET: usize = 136;
/// Smallest input shard worth a dedicated ingest worker; inputs below
/// `threads × this` use fewer workers (down to the sequential path).
const PAR_MIN_CHUNK_BYTES: usize = 4096;

// ---------------------------------------------------------------------------
// Text edge lists
// ---------------------------------------------------------------------------

/// Writes `g` as a text edge list.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes: {}", g.node_count())?;
    writeln!(w, "# edges: {}", g.edge_count())?;
    for (f, t) in g.edges() {
        writeln!(w, "{}\t{}", f.0, t.0)?;
    }
    w.flush()?;
    Ok(())
}

/// How text ingest treats malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOptions {
    /// `true`: the first malformed line aborts the load (the historical
    /// behavior). `false`: malformed lines are skipped and recorded, up to
    /// [`max_bad_lines`](ReadOptions::max_bad_lines).
    pub strict: bool,
    /// Error budget for lenient mode: loading fails with
    /// [`GraphError::BudgetExhausted`] once more than this many lines have
    /// been skipped. Ignored when `strict` is set.
    pub max_bad_lines: usize,
    /// Worker threads for the in-memory ingest path
    /// ([`read_edge_list_bytes`]): the input is split into shards at
    /// newline boundaries and parsed in parallel. `0` or `1` parses
    /// sequentially; streaming readers always parse sequentially.
    pub threads: usize,
}

impl Default for ReadOptions {
    /// Strict: any malformed line is an error. Sequential parse.
    fn default() -> Self {
        ReadOptions { strict: true, max_bad_lines: 0, threads: 1 }
    }
}

impl ReadOptions {
    /// Lenient mode tolerating up to `max_bad_lines` malformed lines.
    pub fn lenient(max_bad_lines: usize) -> Self {
        ReadOptions { strict: false, max_bad_lines, threads: 1 }
    }

    /// Sets the worker-thread count for [`read_edge_list_bytes`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One skipped input line (lenient mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadLine {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

/// What happened during a (possibly lenient) text ingest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Total lines read, including comments and blanks.
    pub lines_total: usize,
    /// Edges accepted into the graph.
    pub edges_loaded: usize,
    /// Malformed lines skipped (lenient mode only; strict mode errors out
    /// on the first one).
    pub skipped: usize,
    /// Up to the first [`REPORT_SAMPLE_CAP`] skipped lines, verbatim.
    pub samples: Vec<BadLine>,
}

impl LoadReport {
    /// Whether every line was ingested cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0
    }

    fn record(&mut self, line: usize, message: String) {
        self.skipped += 1;
        if self.samples.len() < REPORT_SAMPLE_CAP {
            self.samples.push(BadLine { line, message });
        }
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lines, {} edges loaded, {} skipped",
            self.lines_total, self.edges_loaded, self.skipped
        )?;
        for bad in &self.samples {
            write!(f, "\n  line {}: {}", bad.line, bad.message)?;
        }
        if self.skipped > self.samples.len() {
            write!(f, "\n  … and {} more", self.skipped - self.samples.len())?;
        }
        Ok(())
    }
}

/// Reads a text edge list produced by [`write_edge_list`] (or any
/// whitespace-separated `from to` pair file with `#` comments), strictly:
/// the first malformed line aborts with [`GraphError::Parse`].
///
/// The node count is the maximum referenced id + 1, or the value of a
/// `# nodes: N` header if that is larger (so trailing isolated nodes
/// survive a round trip).
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    read_edge_list_with(reader, &ReadOptions::default()).map(|(g, _)| g)
}

/// Reads a text edge list under the given [`ReadOptions`].
///
/// In lenient mode, malformed lines — unparsable pairs, trailing garbage,
/// and (when a `# nodes: N` header precedes them) edges referencing ids
/// `≥ N` — are skipped and recorded in the returned [`LoadReport`] until
/// the error budget runs out.
pub fn read_edge_list_with<R: Read>(
    reader: R,
    options: &ReadOptions,
) -> Result<(Graph, LoadReport), GraphError> {
    let mut span = obs::span("graph.ingest.text");
    let r = BufReader::new(reader);
    let mut declared_nodes = 0usize;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut report = LoadReport::default();
    let mut bytes_read = 0usize;

    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        bytes_read += line.len() + 1; // +1 for the stripped newline
        report.lines_total += 1;
        let lineno = lineno + 1; // 1-based for humans
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(n) = rest.strip_prefix("nodes:") {
                match n.trim().parse() {
                    Ok(count) => declared_nodes = count,
                    Err(_) => {
                        let message = format!("bad node count {rest:?}");
                        handle_bad_line(options, &mut report, lineno, message)?;
                    }
                }
            }
            continue;
        }
        match parse_edge_line(line) {
            Ok((f, t)) => {
                // With a declared node count, lenient mode treats ids that
                // fall outside it as crawl noise; strict mode keeps the
                // historical grow-to-fit behavior.
                if !options.strict
                    && declared_nodes > 0
                    && (f as usize >= declared_nodes || t as usize >= declared_nodes)
                {
                    let bad = if f as usize >= declared_nodes { f } else { t };
                    let message = format!("node id {bad} out of declared range {declared_nodes}");
                    handle_bad_line(options, &mut report, lineno, message)?;
                    continue;
                }
                edges.push((f, t));
            }
            Err(message) => handle_bad_line(options, &mut report, lineno, message)?,
        }
    }
    report.edges_loaded = edges.len();
    span.record("lines", report.lines_total as f64);
    span.record("edges", report.edges_loaded as f64);
    span.record("skipped", report.skipped as f64);
    span.record("bytes", bytes_read as f64);
    obs::counter("graph.ingest.lines", report.lines_total as f64);
    obs::counter("graph.ingest.edges", report.edges_loaded as f64);
    obs::counter("graph.ingest.skipped", report.skipped as f64);
    obs::counter("graph.ingest.bytes", bytes_read as f64);
    Ok((GraphBuilder::from_edges(declared_nodes, &edges), report))
}

/// Parses one `from to` line (already trimmed, non-empty, non-comment).
fn parse_edge_line(line: &str) -> Result<(u32, u32), String> {
    let mut parts = line.split_whitespace();
    let parse = |tok: Option<&str>| -> Result<u32, String> {
        tok.ok_or_else(|| "expected `from to` pair".to_string())?
            .parse()
            .map_err(|_| "node id is not a u32".to_string())
    };
    let f = parse(parts.next())?;
    let t = parse(parts.next())?;
    if parts.next().is_some() {
        return Err("trailing tokens after edge pair".into());
    }
    Ok((f, t))
}

fn handle_bad_line(
    options: &ReadOptions,
    report: &mut LoadReport,
    line: usize,
    message: String,
) -> Result<(), GraphError> {
    if options.strict {
        return Err(GraphError::Parse { line, message });
    }
    if report.skipped >= options.max_bad_lines {
        return Err(GraphError::BudgetExhausted { budget: options.max_bad_lines, line, message });
    }
    report.record(line, message);
    Ok(())
}

// ---------------------------------------------------------------------------
// Parallel (sharded) text ingest
// ---------------------------------------------------------------------------

/// Reads a text edge list from an in-memory buffer, parsing newline-aligned
/// shards in parallel when [`ReadOptions::threads`] asks for it.
///
/// Semantics match [`read_edge_list_with`] exactly — same accepted graphs,
/// same [`LoadReport`] counts and sample line numbers, same strict /
/// lenient / budget errors (pinned by parity tests). Inputs the sharded
/// parser cannot handle faithfully (a `# nodes:` header appearing **after**
/// the first data line, which sequential parsing applies mid-stream) are
/// detected and re-parsed sequentially.
pub fn read_edge_list_bytes(
    data: &[u8],
    options: &ReadOptions,
) -> Result<(Graph, LoadReport), GraphError> {
    let shard_cap = data.len().div_ceil(PAR_MIN_CHUNK_BYTES).max(1);
    let threads = options.threads.max(1).min(shard_cap);
    if threads <= 1 {
        return read_edge_list_with(data, options);
    }
    read_edge_list_sharded(data, options, threads)
}

/// Per-shard parse result; bad-line numbers are relative to the shard
/// (1-based) until the merge step rebases them with a prefix sum.
struct ShardOutcome {
    lines: usize,
    edges: Vec<(u32, u32)>,
    skipped: usize,
    bad: Vec<BadLine>,
    late_header: bool,
    utf8_error: bool,
}

fn parse_shard(shard: &[u8], declared_nodes: usize, strict: bool, retain: usize) -> ShardOutcome {
    let mut out = ShardOutcome {
        lines: 0,
        edges: Vec::new(),
        skipped: 0,
        bad: Vec::new(),
        late_header: false,
        utf8_error: false,
    };
    fn record(out: &mut ShardOutcome, retain: usize, message: String) {
        let line = out.lines;
        out.skipped += 1;
        if out.bad.len() < retain {
            out.bad.push(BadLine { line, message });
        }
    }
    let mut pos = 0usize;
    while pos < shard.len() {
        let end = shard[pos..].iter().position(|&b| b == b'\n').map_or(shard.len(), |i| pos + i);
        let raw = &shard[pos..end];
        pos = end + 1;
        out.lines += 1;
        let line = match std::str::from_utf8(raw) {
            Ok(s) => s.trim(),
            Err(_) => {
                out.utf8_error = true;
                return out;
            }
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if rest.trim().strip_prefix("nodes:").is_some() {
                // A header after the first data line changes how the rest
                // of the stream is interpreted; only the sequential parser
                // can honor that.
                out.late_header = true;
            }
            continue;
        }
        match parse_edge_line(line) {
            Ok((f, t)) => {
                if !strict
                    && declared_nodes > 0
                    && (f as usize >= declared_nodes || t as usize >= declared_nodes)
                {
                    let bad = if f as usize >= declared_nodes { f } else { t };
                    record(
                        &mut out,
                        retain,
                        format!("node id {bad} out of declared range {declared_nodes}"),
                    );
                    continue;
                }
                out.edges.push((f, t));
            }
            Err(message) => record(&mut out, retain, message),
        }
    }
    out
}

fn read_edge_list_sharded(
    data: &[u8],
    options: &ReadOptions,
    threads: usize,
) -> Result<(Graph, LoadReport), GraphError> {
    // Consume the leading comment/blank region sequentially: that is where
    // a well-formed `# nodes:` header lives, and workers need its value to
    // apply the declared-range rule.
    let mut declared_nodes = 0usize;
    let mut header_lines = 0usize;
    let mut body_start = 0usize;
    while body_start < data.len() {
        let end = data[body_start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(data.len(), |i| body_start + i + 1);
        let Ok(line) = std::str::from_utf8(&data[body_start..end]) else {
            break; // let the shard parser surface the UTF-8 error
        };
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("nodes:") {
                match n.trim().parse() {
                    Ok(count) => declared_nodes = count,
                    // Malformed header: defer to the sequential parser's
                    // error/budget handling verbatim.
                    Err(_) => return read_edge_list_with(data, options),
                }
            }
        } else if !line.is_empty() {
            break; // first data line: shard everything from here on
        }
        header_lines += 1;
        body_start = end;
    }

    let body = &data[body_start..];
    // Shard boundaries: advance to just past the next newline so no line
    // straddles two workers.
    let approx = body.len().div_ceil(threads);
    let mut bounds: Vec<usize> = vec![0];
    let mut cut = 0usize;
    while bounds.len() < threads && cut < body.len() {
        cut = (cut + approx).min(body.len());
        if cut < body.len() {
            cut = body[cut..].iter().position(|&b| b == b'\n').map_or(body.len(), |i| cut + i + 1);
        }
        if cut < body.len() {
            bounds.push(cut);
        }
    }
    bounds.push(body.len());

    let mut span = obs::span("graph.ingest.text");
    span.record("threads", (bounds.len() - 1) as f64);

    // Each worker retains its earliest bad lines: enough to identify the
    // globally (budget+1)-th offender and to fill the report samples.
    let retain =
        if options.strict { 1 } else { (options.max_bad_lines + 1).max(REPORT_SAMPLE_CAP) };
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let shard = &body[w[0]..w[1]];
                scope.spawn(move || parse_shard(shard, declared_nodes, options.strict, retain))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ingest worker panicked")).collect()
    });

    if outcomes.iter().any(|o| o.late_header) {
        return read_edge_list_with(data, options);
    }
    if outcomes.iter().any(|o| o.utf8_error) {
        return Err(GraphError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )));
    }

    // Merge in file order: rebase shard-relative line numbers with a
    // running prefix of line counts, then apply strict/budget semantics
    // exactly as the sequential parser would have.
    let mut report = LoadReport {
        lines_total: header_lines + outcomes.iter().map(|o| o.lines).sum::<usize>(),
        ..LoadReport::default()
    };
    let mut edges: Vec<(u32, u32)> =
        Vec::with_capacity(outcomes.iter().map(|o| o.edges.len()).sum());
    let mut all_bad: Vec<BadLine> = Vec::new();
    let mut total_skipped = 0usize;
    let mut line_offset = header_lines;
    for o in outcomes {
        all_bad.extend(
            o.bad.into_iter().map(|b| BadLine { line: line_offset + b.line, message: b.message }),
        );
        total_skipped += o.skipped;
        line_offset += o.lines;
        edges.extend_from_slice(&o.edges);
    }
    if options.strict && !all_bad.is_empty() {
        let first = all_bad.remove(0);
        return Err(GraphError::Parse { line: first.line, message: first.message });
    }
    if !options.strict && total_skipped > options.max_bad_lines {
        // Retention guarantees the (budget+1)-th earliest offender is here.
        let straw = all_bad.swap_remove(options.max_bad_lines);
        return Err(GraphError::BudgetExhausted {
            budget: options.max_bad_lines,
            line: straw.line,
            message: straw.message,
        });
    }
    report.skipped = total_skipped;
    all_bad.truncate(REPORT_SAMPLE_CAP);
    report.samples = all_bad;
    report.edges_loaded = edges.len();
    span.record("lines", report.lines_total as f64);
    span.record("edges", report.edges_loaded as f64);
    span.record("skipped", report.skipped as f64);
    span.record("bytes", data.len() as f64);
    obs::counter("graph.ingest.lines", report.lines_total as f64);
    obs::counter("graph.ingest.edges", report.edges_loaded as f64);
    obs::counter("graph.ingest.skipped", report.skipped as f64);
    obs::counter("graph.ingest.bytes", data.len() as f64);
    Ok((GraphBuilder::from_edges(declared_nodes, &edges), report))
}

// ---------------------------------------------------------------------------
// Binary images
// ---------------------------------------------------------------------------

/// Where every part of a v3 image of a given graph lives.
struct V3Layout {
    node_count: usize,
    edge_count: usize,
    /// `(offset, len)` of each section, in kind order.
    sections: [(usize, usize); V3_SECTION_COUNT],
    /// Whole image length, length sentinel included.
    total: usize,
}

impl V3Layout {
    fn of(g: &Graph) -> V3Layout {
        let (n, m) = (g.node_count(), g.edge_count());
        let mut pos = V3_SECTIONS_OFFSET;
        let sections = [4 * (n + 1), 4 * m, 4 * (n + 1), 4 * m].map(|len| {
            let start = pos.next_multiple_of(8);
            pos = start + len;
            (start, len)
        });
        V3Layout { node_count: n, edge_count: m, sections, total: pos.next_multiple_of(8) + 8 }
    }

    /// Image bytes `[0, V3_SECTIONS_OFFSET)`: the fixed header, the
    /// section table carrying `crcs`, the header CRC and the pad.
    fn header(&self, crcs: [u32; V3_SECTION_COUNT]) -> [u8; V3_SECTIONS_OFFSET] {
        let mut h = [0u8; V3_SECTIONS_OFFSET];
        h[..8].copy_from_slice(MAGIC);
        h[8..12].copy_from_slice(&VERSION_V3.to_le_bytes());
        h[12..16].copy_from_slice(&(V3_SECTION_COUNT as u32).to_le_bytes());
        h[16..24].copy_from_slice(&(self.node_count as u64).to_le_bytes());
        h[24..32].copy_from_slice(&(self.edge_count as u64).to_le_bytes());
        for (kind, (&(offset, len), crc)) in self.sections.iter().zip(crcs).enumerate() {
            let base = V3_TABLE_OFFSET + kind * V3_TABLE_ENTRY_LEN;
            h[base..base + 4].copy_from_slice(&(kind as u32).to_le_bytes());
            h[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
            h[base + 8..base + 16].copy_from_slice(&(offset as u64).to_le_bytes());
            h[base + 16..base + 24].copy_from_slice(&(len as u64).to_le_bytes());
        }
        let header_crc = crc32(&h[..V3_HEADER_CRC_OFFSET]);
        h[V3_HEADER_CRC_OFFSET..V3_HEADER_CRC_OFFSET + 4]
            .copy_from_slice(&header_crc.to_le_bytes());
        h
    }

    /// Encodes both orientations' sections into `out` and `inn`, one
    /// orientation per thread, and returns the four section CRCs. The
    /// out-orientation writes `[V3_SECTIONS_OFFSET, in-offsets start)`,
    /// the in-orientation from there to the length sentinel; each writes
    /// the zero pads in its range too. The header and the sentinel are
    /// the caller's.
    fn encode(&self, g: &Graph, out: Dest, inn: Dest) -> std::io::Result<[u32; V3_SECTION_COUNT]> {
        let [(s0, _), (s1, _), (s2, _), (s3, _)] = self.sections;
        let end = self.total - 8;
        let (out, inn) = crate::graph::per_orientation(
            || encode_orientation(g.out_offsets(), g.out_targets(), [s0, s1, s2], out),
            || encode_orientation(g.in_offsets(), g.in_sources(), [s2, s3, end], inn),
        );
        let ([c0, c1], [c2, c3]) = (out?, inn?);
        Ok([c0, c1, c2, c3])
    }
}

/// Bytes one v3 encoder thread stages before handing them to a file.
const V3_CHUNK_BYTES: usize = 1 << 20;

/// Where a v3 encoder thread puts its bytes.
enum Dest<'a> {
    /// Straight into the image buffer: `buf` holds the image's bytes
    /// from offset `base` on.
    Buffer { buf: &'a mut [u8], base: usize },
    /// Through `chunk` into `file`, at the same offsets.
    #[cfg(unix)]
    File { file: &'a std::fs::File, chunk: Vec<u8> },
}

impl Dest<'_> {
    /// The buffer the image bytes `[pos, pos + len)` are encoded into.
    fn chunk(&mut self, pos: usize, len: usize) -> &mut [u8] {
        match self {
            Dest::Buffer { buf, base } => &mut buf[pos - *base..pos - *base + len],
            #[cfg(unix)]
            Dest::File { chunk, .. } => &mut chunk[..len],
        }
    }

    /// The bytes `[pos, pos + len)` handed out by [`Dest::chunk`] are
    /// final.
    fn commit(&mut self, pos: usize, len: usize) -> std::io::Result<()> {
        match self {
            Dest::Buffer { .. } => Ok(()),
            #[cfg(unix)]
            Dest::File { file, chunk } => {
                std::os::unix::fs::FileExt::write_all_at(*file, &chunk[..len], pos as u64)
            }
        }
    }
}

/// Encodes one orientation into the image bytes `[bounds[0], bounds[2])`
/// — the offsets section from `bounds[0]`, the adjacency section from
/// `bounds[1]`, each zero-padded up to where the next part starts — and
/// returns the two section CRCs.
fn encode_orientation(
    offsets: &[u32],
    adjacency: &[NodeId],
    bounds: [usize; 3],
    mut sink: Dest,
) -> std::io::Result<[u32; 2]> {
    let [off_start, adj_start, end] = bounds;
    let off_crc = encode_section(offsets, |v| v, off_start, adj_start, &mut sink)?;
    let adj_crc = encode_section(adjacency, |t| t.0, adj_start, end, &mut sink)?;
    Ok([off_crc, adj_crc])
}

/// Writes `values` as little-endian `u32` words from image offset `start`,
/// a chunk at a time, then zeros up to `end`; returns the CRC of the
/// words (the pad is outside every section CRC).
fn encode_section<T: Copy>(
    values: &[T],
    word: impl Fn(T) -> u32,
    start: usize,
    end: usize,
    sink: &mut Dest,
) -> std::io::Result<u32> {
    let mut crc = 0;
    let mut pos = start;
    for piece in values.chunks(V3_CHUNK_BYTES / 4) {
        let len = piece.len() * 4;
        let bytes = sink.chunk(pos, len);
        for (dst, &v) in bytes.chunks_exact_mut(4).zip(piece) {
            dst.copy_from_slice(&word(v).to_le_bytes());
        }
        crc = crate::crc32::crc32_update(crc, bytes);
        sink.commit(pos, len)?;
        pos += len;
    }
    sink.chunk(pos, end - pos).fill(0);
    sink.commit(pos, end - pos)?;
    Ok(crc)
}

/// Serializes `g` into the v3 sectioned image: the four CSR arrays,
/// 8-aligned and individually CRC-checksummed, loadable zero-copy by
/// [`graph_from_image`]. Each orientation's two sections are filled and
/// checksummed on their own thread, page faults of the fresh buffer
/// included.
pub fn graph_to_bytes_v3(g: &Graph) -> Vec<u8> {
    let layout = V3Layout::of(g);
    let mut buf = vec![0u8; layout.total];
    let split = layout.sections[2].0;
    let (out, inn) = buf.split_at_mut(split);
    let crcs = layout
        .encode(g, Dest::Buffer { buf: out, base: 0 }, Dest::Buffer { buf: inn, base: split })
        .expect("encoding into memory cannot fail");
    buf[..V3_SECTIONS_OFFSET].copy_from_slice(&layout.header(crcs));
    buf[layout.total - 8..].copy_from_slice(&(layout.total as u64).to_le_bytes());
    buf
}

/// Writes the v3 image of `g` — the bytes of [`graph_to_bytes_v3`] —
/// into `file` from offset 0 and returns its length, without ever holding
/// the image in memory: each orientation's thread encodes through its own
/// 1 MiB chunk, continues its sections' CRCs chunk by chunk
/// ([`crate::crc32::crc32_update`]) and writes each chunk in place with a
/// positioned write. The header goes last, once the CRCs are known. Not
/// on Unix, the image is encoded in memory and written in one piece.
///
/// # Errors
/// The first failed write, out-orientation first; the file then holds
/// a partial image.
pub fn write_graph_v3(g: &Graph, file: &std::fs::File) -> std::io::Result<u64> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let layout = V3Layout::of(g);
        let sink = || Dest::File { file, chunk: vec![0; V3_CHUNK_BYTES] };
        let crcs = layout.encode(g, sink(), sink())?;
        file.write_all_at(&layout.header(crcs), 0)?;
        file.write_all_at(&(layout.total as u64).to_le_bytes(), (layout.total - 8) as u64)?;
        Ok(layout.total as u64)
    }
    #[cfg(not(unix))]
    {
        let bytes = graph_to_bytes_v3(g);
        let mut writer = file;
        writer.write_all(&bytes)?;
        Ok(bytes.len() as u64)
    }
}

/// How each CSR section of an image load was materialized.
///
/// `zero_copy + copied + rebuilt` always equals the section count (4);
/// v4 images report all sections as copied (they have no in-place
/// representation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageLoadStats {
    /// Format version of the image.
    pub version: u32,
    /// Sections used in place as views into the shared buffer.
    pub zero_copy_sections: usize,
    /// Sections copied into owned arrays (misalignment, big-endian
    /// target, or a v4 image).
    pub copied_sections: usize,
    /// Sections reconstructed from the opposite CSR orientation after a
    /// CRC failure.
    pub rebuilt_sections: usize,
    /// Bytes of CSR data viewed in place (no owned allocation).
    pub zero_copy_bytes: u64,
    /// Bytes of CSR data materialized as owned arrays — including
    /// per-section zero-copy fallbacks, which the section counters alone
    /// used to hide from residency accounting.
    pub copied_bytes: u64,
}

impl ImageLoadStats {
    /// Whether every section was used in place (the mmap fast path).
    pub fn is_zero_copy(&self) -> bool {
        self.zero_copy_sections == V3_SECTION_COUNT
    }

    /// Emits the residency counters ([`obs::names::GRAPH_LOAD_ZERO_COPY_BYTES`],
    /// [`obs::names::GRAPH_LOAD_COPIED_BYTES`]) for this load.
    fn emit(&self) {
        obs::counter(obs::names::GRAPH_LOAD_ZERO_COPY_BYTES, self.zero_copy_bytes as f64);
        obs::counter(obs::names::GRAPH_LOAD_COPIED_BYTES, self.copied_bytes as f64);
    }
}

/// Owned bytes of a fully materialized CSR graph (both orientations).
fn csr_resident_bytes(g: &Graph) -> u64 {
    2 * ((g.node_count() as u64 + 1) * 4 + g.edge_count() as u64 * 4)
}

/// Loads a graph from a shared byte buffer (an [`crate::MappedFile`], an
/// [`crate::AlignedBytes`], or a plain `Vec<u8>`), zero-copy when the
/// image is v3 and the buffer permits it. This is the one place an
/// image's version word is read.
///
/// v3 sections with valid CRCs become in-place views when their address
/// is element-aligned on a little-endian target, owned copies otherwise.
/// A CRC-failed orientation is rebuilt from the intact one; only when
/// both orientations are damaged does the load fail. v4 images decompress
/// into an owned CSR; any other version is [`GraphError::Corrupt`].
pub fn graph_from_image(owner: Arc<dyn ByteStore>) -> Result<(Graph, ImageLoadStats), GraphError> {
    let data = owner.bytes();
    if data.len() < 12 {
        return Err(GraphError::Corrupt("image shorter than header".into()));
    }
    if &data[..8] != MAGIC {
        return Err(GraphError::Corrupt("bad magic".into()));
    }
    let version = get_u32(data, 8);
    let graph = match version {
        VERSION_V3 => return load_v3(owner),
        // Block-streaming callers use `CompressedImage` directly; here
        // the decoded size (not the encoded size) is what becomes resident.
        crate::compress::VERSION_V4 => {
            crate::compress::CompressedImage::from_store(owner.clone())?.decode_graph()?
        }
        other => return Err(unsupported_version(other)),
    };
    // v4 has no in-place representation: every section is an owned copy
    // by construction.
    let stats = ImageLoadStats {
        version,
        copied_sections: V3_SECTION_COUNT,
        copied_bytes: csr_resident_bytes(&graph),
        ..Default::default()
    };
    stats.emit();
    Ok((graph, stats))
}

/// The error for an image version this build does not read. The retired
/// v1/v2 edge lists name the last build that upgrades them.
fn unsupported_version(version: u32) -> GraphError {
    let upgrade = if matches!(version, 1 | 2) {
        "; `spammass convert` built from commit 4e9c81e, the last to read v1/v2, upgrades it to v3"
    } else {
        ""
    };
    GraphError::Corrupt(format!(
        "unsupported version {version} (this build reads v3 and v4{upgrade})"
    ))
}

/// One parsed v3 section-table entry.
struct V3Section {
    offset: usize,
    elems: usize,
    stored_crc: u32,
    computed_crc: u32,
}

impl V3Section {
    fn crc_ok(&self) -> bool {
        self.stored_crc == self.computed_crc
    }
}

fn load_v3(owner: Arc<dyn ByteStore>) -> Result<(Graph, ImageLoadStats), GraphError> {
    let mut span = obs::span("graph.ingest.image");
    let data = owner.bytes();
    span.record("bytes", data.len() as f64);
    obs::counter("graph.ingest.bytes", data.len() as f64);
    if data.len() < V3_SECTIONS_OFFSET + 8 {
        return Err(GraphError::Corrupt("v3 image shorter than header".into()));
    }
    let sentinel = get_u64(data, data.len() - 8);
    if sentinel != data.len() as u64 {
        return Err(GraphError::Corrupted {
            field: "length sentinel",
            expected: sentinel,
            got: data.len() as u64,
        });
    }
    let stored_header_crc = get_u32(data, V3_HEADER_CRC_OFFSET);
    let computed_header_crc = crc32(&data[..V3_HEADER_CRC_OFFSET]);
    if stored_header_crc != computed_header_crc {
        return Err(GraphError::Corrupted {
            field: "crc32",
            expected: stored_header_crc as u64,
            got: computed_header_crc as u64,
        });
    }
    if get_u32(data, 12) as usize != V3_SECTION_COUNT {
        return Err(GraphError::Corrupt(format!(
            "v3 image declares {} sections, expected {V3_SECTION_COUNT}",
            get_u32(data, 12)
        )));
    }
    let nodes = get_u64(data, 16) as usize;
    let edges = get_u64(data, 24) as usize;
    if nodes > u32::MAX as usize {
        return Err(GraphError::Corrupt(format!("node count {nodes} exceeds u32 range")));
    }
    if edges > u32::MAX as usize {
        return Err(GraphError::Corrupt(format!("edge count {edges} exceeds u32 range")));
    }

    let payload_end = data.len() - 8;
    let mut sections = Vec::with_capacity(V3_SECTION_COUNT);
    for kind in 0..V3_SECTION_COUNT {
        let base = V3_TABLE_OFFSET + kind * V3_TABLE_ENTRY_LEN;
        if get_u32(data, base) as usize != kind {
            return Err(GraphError::Corrupt(format!("section table entry {kind} out of order")));
        }
        let stored_crc = get_u32(data, base + 4);
        let offset = get_u64(data, base + 8) as usize;
        let len = get_u64(data, base + 16) as usize;
        let expected_len = if kind % 2 == 0 { (nodes + 1) * 4 } else { edges * 4 };
        let in_bounds = offset >= V3_SECTIONS_OFFSET
            && offset.is_multiple_of(8)
            && offset.checked_add(len).is_some_and(|end| end <= payload_end);
        if !in_bounds || len != expected_len {
            return Err(GraphError::Corrupt(format!(
                "section {kind} window (offset {offset}, len {len}) inconsistent with image"
            )));
        }
        sections.push(V3Section { offset, elems: len / 4, stored_crc, computed_crc: 0 });
    }
    // The CRC pass is the dominant cost of a load: each orientation's two
    // sections are checksummed on their own thread.
    let crc_of = |s: &V3Section| crc32(&data[s.offset..s.offset + s.elems * 4]);
    let (out_crcs, in_crcs) = crate::graph::per_orientation(
        || [crc_of(&sections[0]), crc_of(&sections[1])],
        || [crc_of(&sections[2]), crc_of(&sections[3])],
    );
    for (s, crc) in sections.iter_mut().zip(out_crcs.into_iter().chain(in_crcs)) {
        s.computed_crc = crc;
    }

    let out_ok = sections[0].crc_ok() && sections[1].crc_ok();
    let in_ok = sections[2].crc_ok() && sections[3].crc_ok();
    if !out_ok && !in_ok {
        let bad = sections.iter().find(|s| !s.crc_ok()).expect("some section failed");
        return Err(GraphError::Corrupted {
            field: "crc32",
            expected: bad.stored_crc as u64,
            got: bad.computed_crc as u64,
        });
    }

    let mut stats = ImageLoadStats { version: VERSION_V3, ..Default::default() };
    let graph = if out_ok && in_ok {
        // Fast path: view each section in place when the buffer allows,
        // fall back to a per-section owned copy otherwise.
        let mut stores = Vec::with_capacity(V3_SECTION_COUNT);
        for s in &sections {
            match U32Store::shared(owner.clone(), s.offset, s.elems) {
                Some(store) => {
                    stats.zero_copy_sections += 1;
                    stats.zero_copy_bytes += s.elems as u64 * 4;
                    stores.push(store);
                }
                None => {
                    stats.copied_sections += 1;
                    stats.copied_bytes += s.elems as u64 * 4;
                    stores.push(decode_u32_section(data, s).into());
                }
            }
        }
        let in_sources = NodeStore(stores.pop().expect("4 stores"));
        let in_offsets = stores.pop().expect("3 stores");
        let out_targets = NodeStore(stores.pop().expect("2 stores"));
        let out_offsets = stores.pop().expect("1 store");
        Graph::from_csr_parts(nodes, out_offsets, out_targets, in_offsets, in_sources)?
    } else {
        // One orientation failed its CRC: rebuild the whole graph from the
        // intact orientation (both encode the same edge set). Everything
        // ends up owned: the decoded sections and the rebuilt ones alike.
        stats.copied_sections = 2;
        stats.rebuilt_sections = 2;
        stats.copied_bytes = 2 * ((nodes as u64 + 1) * 4 + edges as u64 * 4);
        let (off_idx, adj_idx, from_in) = if out_ok { (0, 1, false) } else { (2, 3, true) };
        let offsets = decode_u32_section(data, &sections[off_idx]);
        let adjacency: NodeStore = decode_u32_section(data, &sections[adj_idx]).into();
        crate::graph::validate_csr(
            nodes,
            &offsets,
            &adjacency,
            if from_in { "in" } else { "out" },
        )?;
        let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(edges);
        for x in 0..nodes {
            for y in &adjacency[offsets[x] as usize..offsets[x + 1] as usize] {
                edge_list.push(if from_in { (y.0, x as u32) } else { (x as u32, y.0) });
            }
        }
        edge_list.sort_unstable();
        Graph::try_from_sorted_unique_edges(nodes, &edge_list)?
    };

    span.record("nodes", graph.node_count() as f64);
    span.record("edges", graph.edge_count() as f64);
    span.record("zero_copy_sections", stats.zero_copy_sections as f64);
    span.record("rebuilt_sections", stats.rebuilt_sections as f64);
    obs::counter("graph.ingest.edges", graph.edge_count() as f64);
    stats.emit();
    Ok((graph, stats))
}

fn decode_u32_section(data: &[u8], s: &V3Section) -> Vec<u32> {
    (0..s.elems).map(|i| get_u32(data, s.offset + i * 4)).collect()
}

/// Loads a binary graph image from `path`: memory-mapped on Unix so v3
/// sections are used in place straight out of the page cache, read into
/// an 8-aligned owned buffer elsewhere (same semantics, one copy).
pub fn map_graph_file(path: &std::path::Path) -> Result<(Graph, ImageLoadStats), GraphError> {
    #[cfg(unix)]
    {
        let mapped = crate::retry::retry_io("graph.mmap", || crate::mmap::MappedFile::open(path))?;
        graph_from_image(Arc::new(mapped))
    }
    #[cfg(not(unix))]
    {
        let data = crate::retry::retry_io("graph.read", || std::fs::read(path))?;
        graph_from_image(Arc::new(crate::storage::AlignedBytes::copy_from(&data)))
    }
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// Writes node labels, one host per line, line number = node id.
pub fn write_labels<W: Write>(labels: &NodeLabels, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    for (_, host) in labels.iter() {
        writeln!(w, "{host}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads node labels written by [`write_labels`]. CRLF line endings are
/// accepted.
pub fn read_labels<R: Read>(reader: R) -> Result<NodeLabels, GraphError> {
    let r = BufReader::new(reader);
    let mut labels = NodeLabels::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let host = line.trim();
        if host.is_empty() {
            continue;
        }
        let before = labels.len();
        labels.push(host);
        if labels.len() == before {
            // A silently collapsed duplicate would shift every subsequent
            // node id; fail loudly instead.
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: format!("duplicate host name {host:?}"),
            });
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_EDGES: [(u32, u32); 4] = [(0, 1), (0, 2), (1, 3), (2, 3)];

    fn sample() -> Graph {
        GraphBuilder::from_edges(5, &SAMPLE_EDGES)
    }

    fn load(bytes: &[u8]) -> Result<Graph, GraphError> {
        graph_from_image(aligned_image(bytes)).map(|(g, _)| g)
    }

    #[test]
    fn text_round_trip_preserves_graph() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.node_count(), 5); // isolated node 4 survives via header
        assert_eq!(g2.edge_count(), g.edge_count());
        for x in g.nodes() {
            assert_eq!(g.out_neighbors(x), g2.out_neighbors(x));
        }
    }

    #[test]
    fn text_parser_accepts_comments_and_blanks() {
        let text = "# a comment\n\n0 1\n1\t2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn text_parser_accepts_crlf() {
        let text = "# nodes: 3\r\n0 1\r\n1 2\r\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn text_parser_rejects_garbage() {
        assert!(matches!(read_edge_list("0 x".as_bytes()), Err(GraphError::Parse { line: 1, .. })));
        assert!(matches!(read_edge_list("0".as_bytes()), Err(GraphError::Parse { .. })));
        assert!(matches!(read_edge_list("0 1 2".as_bytes()), Err(GraphError::Parse { .. })));
        assert!(matches!(
            read_edge_list("# nodes: banana".as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn lenient_mode_skips_within_budget() {
        let text = "# nodes: 4\n0 1\nbogus line\n1 2\n2 99\n3 zebra\n2 3\n";
        let (g, report) = read_edge_list_with(text.as_bytes(), &ReadOptions::lenient(5)).unwrap();
        assert_eq!(g.edge_count(), 3); // 0->1, 1->2, 2->3
        assert_eq!(g.node_count(), 4);
        assert_eq!(report.skipped, 3);
        assert_eq!(report.edges_loaded, 3);
        assert!(!report.is_clean());
        assert_eq!(report.samples.len(), 3);
        assert_eq!(report.samples[0].line, 3);
        assert!(report.samples[1].message.contains("out of declared range"));
        let display = report.to_string();
        assert!(display.contains("3 skipped"), "{display}");
    }

    #[test]
    fn lenient_mode_enforces_budget() {
        let text = "a b\nc d\ne f\n0 1\n";
        let err = read_edge_list_with(text.as_bytes(), &ReadOptions::lenient(2)).unwrap_err();
        match err {
            GraphError::BudgetExhausted { budget: 2, line: 3, .. } => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn strict_options_match_plain_reader() {
        let text = "0 1\nbad\n";
        assert!(matches!(
            read_edge_list_with(text.as_bytes(), &ReadOptions::default()),
            Err(GraphError::Parse { line: 2, .. })
        ));
    }

    /// A retired v1/v2 image header, built by hand: magic, version, and
    /// the node and edge counts of `sample()`.
    fn retired_header(version: u32) -> Vec<u8> {
        let mut bytes = b"SPAMGRPH".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes
    }

    #[test]
    fn v1_and_v2_images_are_rejected_naming_what_this_build_reads() {
        for version in [1, 2] {
            let Err(GraphError::Corrupt(msg)) = load(&retired_header(version)) else {
                panic!("v{version} must be rejected as corrupt");
            };
            assert!(msg.contains(&format!("unsupported version {version}")), "{msg}");
            assert!(msg.contains("reads v3 and v4"), "{msg}");
            assert!(msg.contains("commit 4e9c81e"), "{msg}");
        }
        let Err(GraphError::Corrupt(msg)) = load(&retired_header(99)) else {
            panic!("v99 must be rejected as corrupt");
        };
        assert!(msg.contains("reads v3 and v4") && !msg.contains("4e9c81e"), "{msg}");
    }

    #[test]
    fn a_retired_version_is_named_whatever_follows_the_version_word() {
        // The version word alone decides: a bare 12-byte header, the full
        // counts, or a header followed by an old payload all name it.
        for version in [1, 2] {
            let header = retired_header(version);
            let mut padded = header.clone();
            padded.extend(std::iter::repeat_n(0xA5, 4096));
            for bytes in [&header[..12], &header[..], &padded[..]] {
                let Err(GraphError::Corrupt(msg)) = load(bytes) else {
                    panic!("v{version}, {} bytes: must be rejected as corrupt", bytes.len());
                };
                assert!(msg.contains(&format!("unsupported version {version}")), "{msg}");
                assert!(msg.contains("commit 4e9c81e"), "{msg}");
            }
            // Short of the version word there is no version to name.
            let Err(GraphError::Corrupt(msg)) = load(&header[..11]) else {
                panic!("v{version}, 11 bytes: must be rejected as corrupt");
            };
            assert!(msg.contains("shorter than header"), "{msg}");
        }
    }

    #[test]
    fn retired_images_are_refused_through_map_graph_file() {
        let dir = crate::test_dir("retired_images_are_refused_through_map_graph_file");
        for version in [1, 2] {
            let path = dir.join(format!("sample.v{version}.bin"));
            std::fs::write(&path, retired_header(version)).unwrap();
            let Err(GraphError::Corrupt(msg)) = map_graph_file(&path) else {
                panic!("v{version} must be rejected as corrupt");
            };
            assert!(msg.contains(&format!("unsupported version {version}")), "{msg}");
            assert!(msg.contains("reads v3 and v4") && msg.contains("commit 4e9c81e"), "{msg}");
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        // Through every format this build writes, and the file entry
        // point for both image versions.
        let g = GraphBuilder::new(0).build();
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let dir = crate::test_dir("empty_graph_round_trips");
        let v3 = dir.join("empty.v3");
        let v4 = dir.join("empty.v4");
        std::fs::write(&v3, graph_to_bytes_v3(&g)).unwrap();
        std::fs::write(&v4, crate::compress::graph_to_bytes_v4(&g)).unwrap();
        let (from_v3, v3_stats) = map_graph_file(&v3).unwrap();
        let (from_v4, v4_stats) = map_graph_file(&v4).unwrap();
        assert_eq!((v3_stats.version, v4_stats.version), (3, 4));
        for g2 in [read_edge_list(&text[..]).unwrap(), from_v3, from_v4] {
            assert_eq!((g2.node_count(), g2.edge_count()), (0, 0));
        }
    }

    #[test]
    fn binary_rejects_corruption() {
        let bytes = graph_to_bytes_v3(&sample());
        assert!(matches!(load(&bytes[..10]), Err(GraphError::Corrupt(_))));

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(load(&bad_magic), Err(GraphError::Corrupt(_))));

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(matches!(load(&bad_version), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn ingest_emits_telemetry() {
        let collector = obs::Collector::builder().build();
        {
            let _guard = collector.install();
            read_edge_list("# nodes: 3\n0 1\n1 2\n".as_bytes()).unwrap();
            load(&graph_to_bytes_v3(&sample())).unwrap();
        }
        let spans = collector.spans();
        let text = spans.iter().find(|s| s.name == "graph.ingest.text").unwrap();
        assert!(text.counters.contains(&("lines".to_string(), 3.0)));
        assert!(text.counters.contains(&("edges".to_string(), 2.0)));
        let image = spans.iter().find(|s| s.name == "graph.ingest.image").unwrap();
        assert!(image.counters.contains(&("edges".to_string(), 4.0)));
        let metrics = collector.metrics_snapshot();
        let edges = metrics.iter().find(|(k, _)| k == "graph.ingest.edges").unwrap();
        // 2 from the text load + 4 from the v3 image load.
        assert_eq!(edges.1, obs::Metric::Counter(6.0));
    }

    #[test]
    fn labels_round_trip() {
        let mut labels = NodeLabels::new();
        labels.push("a.example.gov");
        labels.push("b.example.edu");
        let mut buf = Vec::new();
        write_labels(&labels, &mut buf).unwrap();
        let l2 = read_labels(&buf[..]).unwrap();
        assert_eq!(l2.len(), 2);
        assert_eq!(l2.id("a.example.gov"), Some(NodeId(0)));
        assert_eq!(l2.name(NodeId(1)).unwrap().as_str(), "b.example.edu");
    }

    #[test]
    fn labels_accept_crlf() {
        let l = read_labels("a.gov\r\nb.edu\r\n".as_bytes()).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.id("b.edu"), Some(NodeId(1)));
    }

    // -- v3 sectioned images ------------------------------------------------

    use crate::storage::AlignedBytes;

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for x in a.nodes() {
            assert_eq!(a.out_neighbors(x), b.out_neighbors(x));
            assert_eq!(a.in_neighbors(x), b.in_neighbors(x));
        }
    }

    fn aligned_image(bytes: &[u8]) -> Arc<dyn ByteStore> {
        Arc::new(AlignedBytes::copy_from(bytes))
    }

    #[test]
    fn v3_round_trips_bit_exactly() {
        let g = sample();
        let bytes = graph_to_bytes_v3(&g);
        let (g2, stats) = graph_from_image(aligned_image(&bytes)).unwrap();
        assert_same_graph(&g, &g2);
        assert_eq!(stats.version, 3);
        // Re-serializing the loaded graph reproduces the image bit-exactly.
        assert_eq!(graph_to_bytes_v3(&g2), bytes);
    }

    #[test]
    fn v3_loads_zero_copy_from_aligned_buffer() {
        let g = sample();
        let (g2, stats) = graph_from_image(aligned_image(&graph_to_bytes_v3(&g))).unwrap();
        assert!(stats.is_zero_copy(), "{stats:?}");
        assert_eq!(stats.zero_copy_sections, 4);
        assert_eq!(stats.copied_sections + stats.rebuilt_sections, 0);
        assert!(g2.is_zero_copy());
        assert_same_graph(&g, &g2);
        // A reversed view of a zero-copy graph stays zero-copy (Arc bumps).
        assert!(g2.reversed().is_zero_copy());
    }

    #[test]
    fn v3_empty_graph_round_trips() {
        let g = GraphBuilder::new(0).build();
        let (g2, stats) = graph_from_image(aligned_image(&graph_to_bytes_v3(&g))).unwrap();
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
        assert!(stats.is_zero_copy(), "empty sections still view in place: {stats:?}");
    }

    /// Byte offset/len of section `kind` read from a v3 image's table.
    fn section_window(bytes: &[u8], kind: usize) -> (usize, usize) {
        let base = V3_TABLE_OFFSET + kind * V3_TABLE_ENTRY_LEN;
        (get_u64(bytes, base + 8) as usize, get_u64(bytes, base + 16) as usize)
    }

    #[test]
    fn v3_corrupted_orientation_rebuilds_from_the_other() {
        let g = sample();
        let clean = graph_to_bytes_v3(&g);
        for bad_kind in 0..4 {
            let (offset, len) = section_window(&clean, bad_kind);
            assert!(len > 0, "section {bad_kind} non-empty");
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x01;
            let (g2, stats) = graph_from_image(aligned_image(&bytes))
                .unwrap_or_else(|e| panic!("section {bad_kind}: {e}"));
            assert_same_graph(&g, &g2);
            assert_eq!(stats.rebuilt_sections, 2, "section {bad_kind}");
            assert!(!stats.is_zero_copy());
        }
    }

    #[test]
    fn v3_both_orientations_bad_is_an_error() {
        let g = sample();
        let mut bytes = graph_to_bytes_v3(&g);
        let (out_tgt, _) = section_window(&bytes, 1);
        let (in_src, _) = section_window(&bytes, 3);
        bytes[out_tgt] ^= 0x01;
        bytes[in_src] ^= 0x01;
        assert!(matches!(
            graph_from_image(aligned_image(&bytes)),
            Err(GraphError::Corrupted { field: "crc32", .. })
        ));
    }

    /// Recomputes every section CRC and the header CRC of a v3 image
    /// after a test edited its sections, so only structural checks can
    /// object to it.
    fn reseal(bytes: &mut [u8]) {
        for kind in 0..V3_SECTION_COUNT {
            let (offset, len) = section_window(bytes, kind);
            let crc = crc32(&bytes[offset..offset + len]);
            let base = V3_TABLE_OFFSET + kind * V3_TABLE_ENTRY_LEN;
            bytes[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let header_crc = crc32(&bytes[..V3_HEADER_CRC_OFFSET]);
        bytes[V3_HEADER_CRC_OFFSET..V3_HEADER_CRC_OFFSET + 4]
            .copy_from_slice(&header_crc.to_le_bytes());
    }

    /// Overwrites word `index` of section `kind`.
    fn poke(bytes: &mut [u8], kind: usize, index: usize, value: u32) {
        let (offset, _) = section_window(bytes, kind);
        bytes[offset + 4 * index..offset + 4 * index + 4].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn v3_structural_errors_keep_their_order_under_parallel_checks() {
        // Each orientation is validated on its own thread; the error that
        // comes back is still the first in the order out, in, edge count,
        // self-loops.
        let clean = graph_to_bytes_v3(&sample());
        let error_of = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = clean.clone();
            edit(&mut bytes);
            reseal(&mut bytes);
            graph_from_image(aligned_image(&bytes)).unwrap_err().to_string()
        };
        // Out-offsets are [0, 2, 3, 4, 4, 4], in-offsets [0, 0, 1, 2, 4, 4]:
        // a 9 in slot 1 makes either non-monotone.
        let both = error_of(&|b| {
            poke(b, 0, 1, 9);
            poke(b, 2, 1, 9);
        });
        assert!(both.contains("out-offsets not monotone"), "{both}");
        let inn = error_of(&|b| poke(b, 2, 1, 9));
        assert!(inn.contains("in-offsets not monotone"), "{inn}");
        // Node 1's one out-edge (1, 3) becomes (1, 1): valid lists, but a
        // self-loop, reported only once the in-orientation has passed.
        let self_loop = error_of(&|b| poke(b, 1, 2, 1));
        assert!(self_loop.contains("self-loop"), "{self_loop}");
        let self_loop_and_bad_in = error_of(&|b| {
            poke(b, 1, 2, 1);
            poke(b, 2, 1, 9);
        });
        assert!(self_loop_and_bad_in.contains("in-offsets not monotone"), "{self_loop_and_bad_in}");
    }

    #[test]
    fn binary_rejects_out_of_range_edge() {
        // A poisoned endpoint in either orientation, resealed so only the
        // structural check can object: no rebuild from the other side.
        let clean = graph_to_bytes_v3(&sample());
        for kind in [1, 3] {
            let mut bytes = clean.clone();
            poke(&mut bytes, kind, 0, 1000);
            reseal(&mut bytes);
            let err = load(&bytes).unwrap_err();
            assert!(matches!(err, GraphError::Corrupt(_)), "section {kind}: {err:?}");
        }
    }

    #[test]
    fn v3_truncation_and_header_flips_are_rejected() {
        let g = sample();
        let bytes = graph_to_bytes_v3(&g);
        assert!(matches!(
            graph_from_image(aligned_image(&bytes[..bytes.len() - 3])),
            Err(GraphError::Corrupted { field: "length sentinel", .. })
        ));
        let mut flipped = bytes.clone();
        flipped[16] ^= 0x01; // node count, covered by the header CRC
        assert!(matches!(
            graph_from_image(aligned_image(&flipped)),
            Err(GraphError::Corrupted { field: "crc32", .. })
        ));
    }

    /// A store that deliberately presents its image at an odd address, so
    /// every section flunks the alignment check.
    struct Misaligned(AlignedBytes);

    impl ByteStore for Misaligned {
        fn bytes(&self) -> &[u8] {
            &self.0.bytes()[1..]
        }
    }

    #[test]
    fn v3_misaligned_buffer_falls_back_to_owned_copies() {
        let g = sample();
        let mut padded = vec![0u8];
        padded.extend_from_slice(&graph_to_bytes_v3(&g));
        let store = Misaligned(AlignedBytes::copy_from(&padded));
        let (g2, stats) = graph_from_image(Arc::new(store)).unwrap();
        assert_same_graph(&g, &g2);
        assert_eq!(stats.copied_sections, 4, "{stats:?}");
        assert_eq!(stats.zero_copy_sections, 0);
        assert!(!g2.is_zero_copy());
    }

    /// The CSR byte volume every load of `g` materializes, one way or
    /// another: two offset arrays + two adjacency arrays.
    fn expected_csr_bytes(g: &Graph) -> u64 {
        2 * ((g.node_count() as u64 + 1) * 4 + g.edge_count() as u64 * 4)
    }

    #[test]
    fn load_stats_account_every_section_byte() {
        let g = sample();
        let total = expected_csr_bytes(&g);

        // Aligned v3: all bytes zero-copy.
        let (_, stats) = graph_from_image(aligned_image(&graph_to_bytes_v3(&g))).unwrap();
        assert_eq!(stats.zero_copy_bytes, total, "{stats:?}");
        assert_eq!(stats.copied_bytes, 0);

        // Misaligned v3: the zero-copy fallback must show up as copied
        // bytes (the undercount this accounting fixes).
        let mut padded = vec![0u8];
        padded.extend_from_slice(&graph_to_bytes_v3(&g));
        let store = Misaligned(AlignedBytes::copy_from(&padded));
        let (_, stats) = graph_from_image(Arc::new(store)).unwrap();
        assert_eq!(stats.copied_bytes, total, "{stats:?}");
        assert_eq!(stats.zero_copy_bytes, 0);

        // CRC-failed orientation: decoded + rebuilt sections all owned.
        let clean = graph_to_bytes_v3(&g);
        let (offset, _) = section_window(&clean, 1);
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x01;
        let (_, stats) = graph_from_image(aligned_image(&bytes)).unwrap();
        assert_eq!(stats.zero_copy_bytes + stats.copied_bytes, total, "{stats:?}");
        assert_eq!(stats.zero_copy_bytes, 0);
    }

    #[test]
    fn v4_images_load_through_the_image_entry_point() {
        let g = sample();
        let bytes = crate::compress::graph_to_bytes_v4(&g);
        let (g2, stats) = graph_from_image(aligned_image(&bytes)).unwrap();
        assert_same_graph(&g, &g2);
        assert_eq!(stats.version, 4);
        assert!(!stats.is_zero_copy());
        assert_eq!(stats.copied_bytes, expected_csr_bytes(&g), "{stats:?}");
    }

    /// 100 000 nodes and 300 001 edges: every section spans more than
    /// one 1 MiB encoder chunk, and both `n + 1` and `m` are odd, so
    /// every section but the first is preceded by a pad.
    fn multi_chunk_graph() -> Graph {
        let n = 100_000u32;
        let mut edges: Vec<(u32, u32)> =
            (0..n).flat_map(|x| (1..4).map(move |d| (x, (x + d) % n))).collect();
        edges.push((0, n / 2));
        GraphBuilder::from_edges(n as usize, &edges)
    }

    #[test]
    fn streamed_file_image_equals_the_in_memory_image() {
        let dir = crate::test_dir("streamed_file_image_equals_the_in_memory_image");
        for g in [sample(), GraphBuilder::new(0).build(), multi_chunk_graph()] {
            let path = dir.join("g.v3");
            let file = std::fs::File::create(&path).unwrap();
            let len = write_graph_v3(&g, &file).unwrap();
            drop(file);
            let bytes = graph_to_bytes_v3(&g);
            assert_eq!(len, bytes.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{g:?}");
            let (loaded, stats) = map_graph_file(&path).unwrap();
            assert_eq!(stats.rebuilt_sections, 0, "every chunked section CRC verifies: {g:?}");
            assert_same_graph(&g, &loaded);
        }
    }

    #[cfg(unix)]
    #[test]
    fn streamed_write_failures_propagate() {
        let dir = crate::test_dir("streamed_write_failures_propagate");
        let path = dir.join("g.v3");
        std::fs::write(&path, b"").unwrap();
        // A read-only handle: the first positioned write of either
        // orientation's thread fails, and the error reaches the caller.
        let file = std::fs::File::open(&path).unwrap();
        assert!(write_graph_v3(&multi_chunk_graph(), &file).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn v3_maps_zero_copy_from_file() {
        let g = sample();
        let path = crate::test_dir("v3_maps_zero_copy_from_file").join("sample.v3.bin");
        std::fs::write(&path, graph_to_bytes_v3(&g)).unwrap();
        let (g2, stats) = map_graph_file(&path).unwrap();
        assert!(stats.is_zero_copy(), "mmap base is page-aligned: {stats:?}");
        assert!(g2.is_zero_copy());
        assert_same_graph(&g, &g2);
    }

    // -- sharded text ingest ------------------------------------------------

    /// A synthetic edge list big enough to split into several shards
    /// (PAR_MIN_CHUNK_BYTES each), salted with the requested bad lines.
    fn big_edge_list(bad_every: Option<usize>) -> String {
        let mut text = String::from("# generated workload\n# nodes: 5000\n");
        for i in 0..4000usize {
            if bad_every.is_some_and(|k| i % k == 0) {
                text.push_str("bogus line here\n");
            }
            let f = (i * 7919) % 5000;
            let t = (i * 104729 + 1) % 5000;
            text.push_str(&format!("{f}\t{t}\n"));
        }
        text
    }

    #[test]
    fn sharded_ingest_matches_sequential_on_clean_input() {
        let text = big_edge_list(None);
        assert!(text.len() > 4 * PAR_MIN_CHUNK_BYTES, "input large enough to shard");
        let opts = ReadOptions::default();
        let (seq, seq_report) = read_edge_list_with(text.as_bytes(), &opts).unwrap();
        let (par, par_report) =
            read_edge_list_bytes(text.as_bytes(), &opts.with_threads(4)).unwrap();
        assert_same_graph(&seq, &par);
        assert_eq!(seq_report, par_report);
    }

    #[test]
    fn sharded_ingest_matches_sequential_reports_on_dirty_input() {
        let text = big_edge_list(Some(100));
        let opts = ReadOptions::lenient(1000);
        let (seq, seq_report) = read_edge_list_with(text.as_bytes(), &opts).unwrap();
        let (par, par_report) =
            read_edge_list_bytes(text.as_bytes(), &opts.with_threads(4)).unwrap();
        assert_same_graph(&seq, &par);
        // Line numbers in the samples must be file-absolute, not
        // shard-relative — full report equality covers that.
        assert_eq!(seq_report, par_report);
        assert_eq!(par_report.skipped, 40);
    }

    #[test]
    fn sharded_ingest_budget_error_matches_sequential() {
        let text = big_edge_list(Some(50));
        let opts = ReadOptions::lenient(10);
        let seq_err = read_edge_list_with(text.as_bytes(), &opts).unwrap_err();
        let par_err = read_edge_list_bytes(text.as_bytes(), &opts.with_threads(4)).unwrap_err();
        match (seq_err, par_err) {
            (
                GraphError::BudgetExhausted { budget: b1, line: l1, message: m1 },
                GraphError::BudgetExhausted { budget: b2, line: l2, message: m2 },
            ) => {
                assert_eq!((b1, l1, m1), (b2, l2, m2));
            }
            other => panic!("expected matching BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn sharded_ingest_strict_error_matches_sequential() {
        let text = big_edge_list(Some(1000));
        let opts = ReadOptions { strict: true, max_bad_lines: 0, threads: 4 };
        let seq_err = read_edge_list_with(text.as_bytes(), &ReadOptions::default()).unwrap_err();
        let par_err = read_edge_list_bytes(text.as_bytes(), &opts).unwrap_err();
        match (seq_err, par_err) {
            (
                GraphError::Parse { line: l1, message: m1 },
                GraphError::Parse { line: l2, message: m2 },
            ) => assert_eq!((l1, m1), (l2, m2)),
            other => panic!("expected matching Parse errors, got {other:?}"),
        }
    }

    #[test]
    fn sharded_ingest_defers_to_sequential_on_late_header() {
        // A `# nodes:` header mid-file re-declares the node count; the
        // sharded path must detect it and fall back.
        let mut text = big_edge_list(None);
        text.push_str("# nodes: 9000\n4999 0\n");
        let opts = ReadOptions::lenient(5).with_threads(4);
        let (seq, _) = read_edge_list_with(text.as_bytes(), &opts).unwrap();
        let (par, _) = read_edge_list_bytes(text.as_bytes(), &opts).unwrap();
        assert_eq!(par.node_count(), 9000);
        assert_same_graph(&seq, &par);
    }

    #[test]
    fn single_threaded_bytes_reader_is_the_sequential_path() {
        let text = "# nodes: 3\n0 1\n1 2\n";
        let (g, report) = read_edge_list_bytes(text.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(report.is_clean());
    }
}
