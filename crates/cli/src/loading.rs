//! File loading helpers: auto-detected graph formats, label tables, and
//! core lists.

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_graph::io::{self, LoadReport, ReadOptions};
use spammass_graph::{Graph, NodeId, NodeLabels};
use std::fs;
use std::path::Path;

/// Builds [`ReadOptions`] from the shared `--lenient N` flag: strict by
/// default, or skipping up to `N` malformed lines when given.
///
/// The shared `--threads T` flag (0 = all cores, the default) also sets
/// the worker count for sharded text ingest; small files fall back to the
/// sequential parser regardless.
pub fn read_options(args: &ParsedArgs) -> Result<ReadOptions, CliError> {
    let opts = match args.optional("lenient") {
        None => ReadOptions::default(),
        Some(v) => {
            let budget: usize =
                v.parse().map_err(|_| CliError::Usage(format!("--lenient: cannot parse {v:?}")))?;
            ReadOptions::lenient(budget)
        }
    };
    let threads: usize = args.parsed_or("threads", 0)?;
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    Ok(opts.with_threads(threads))
}

/// Loads a graph, auto-detecting the binary image (magic `SPAMGRPH`)
/// versus text edge-list format.
///
/// The returned [`LoadReport`] is `Some` for text edge lists (where lines
/// may have been skipped under a lenient [`ReadOptions`]) and `None` for
/// binary images, which are checksummed all-or-nothing.
pub fn load_graph_with(
    path: &Path,
    opts: &ReadOptions,
) -> Result<(Graph, Option<LoadReport>), CliError> {
    if sniff_magic(path)? {
        // Binary image: memory-map and, for an aligned v3 image, serve the
        // CSR arrays zero-copy straight from the mapping.
        let (graph, _stats) = io::map_graph_file(path)?;
        Ok((graph, None))
    } else {
        let data = fs::read(path)?;
        let (graph, report) = io::read_edge_list_bytes(&data, opts)?;
        Ok((graph, Some(report)))
    }
}

/// Refuses a graph with no hosts: an empty (or emptied, e.g. caught
/// mid-write) input parses as a valid empty edge list, and every solve on
/// it trivially "converges" on nothing. `source` names the flag the graph
/// came from.
pub fn require_hosts(node_count: usize, source: &str) -> Result<(), CliError> {
    if node_count == 0 {
        return Err(CliError::Usage(format!(
            "{source} holds no hosts (empty or truncated input?); nothing to solve"
        )));
    }
    Ok(())
}

/// Whether the file starts with the `SPAMGRPH` image magic, reading only
/// the first 8 bytes so huge text edge lists are not slurped twice. A
/// file that ends inside the magic is a truncated image, not text.
fn sniff_magic(path: &Path) -> Result<bool, CliError> {
    use std::io::Read as _;
    let mut file = fs::File::open(path)?;
    let mut magic = [0u8; 8];
    let mut filled = 0;
    while filled < magic.len() {
        let k = file.read(&mut magic[filled..])?;
        if k == 0 {
            break;
        }
        filled += k;
    }
    let seen = &magic[..filled];
    if (1..magic.len()).contains(&filled) && b"SPAMGRPH".starts_with(seen) {
        return Err(spammass_graph::GraphError::Corrupted {
            field: "magic",
            expected: magic.len() as u64,
            got: filled as u64,
        }
        .into());
    }
    Ok(seen == b"SPAMGRPH")
}

/// Strict [`load_graph_with`], discarding the (necessarily clean) report.
pub fn load_graph(path: &Path) -> Result<Graph, CliError> {
    Ok(load_graph_with(path, &ReadOptions::default())?.0)
}

/// Renders an ingest warning for a lenient load that skipped lines, or
/// `None` when the load was clean (or the graph was binary).
pub fn ingest_warning(report: Option<&LoadReport>) -> Option<String> {
    report.filter(|r| !r.is_clean()).map(|r| format!("warning: {r}"))
}

/// Loads a label table (one host per line; line number = node id).
pub fn load_labels(path: &Path) -> Result<NodeLabels, CliError> {
    let file = fs::File::open(path)?;
    Ok(io::read_labels(file)?)
}

/// A loaded core list plus ingest diagnostics.
#[derive(Debug, Clone)]
pub struct CoreLoad {
    /// The deduplicated members, ascending.
    pub nodes: Vec<NodeId>,
    /// Entries that appeared more than once in the file (each listed once).
    /// Duplicates are harmless to the estimator but usually indicate a
    /// carelessly concatenated core file, so commands surface them.
    pub duplicates: Vec<NodeId>,
}

impl CoreLoad {
    /// A warning line when duplicates were present.
    pub fn warning(&self) -> Option<String> {
        if self.duplicates.is_empty() {
            return None;
        }
        let sample: Vec<String> = self.duplicates.iter().take(8).map(|x| x.to_string()).collect();
        let suffix = if self.duplicates.len() > sample.len() { ", …" } else { "" };
        Some(format!(
            "warning: core file lists {} entr{} more than once ({}{suffix})",
            self.duplicates.len(),
            if self.duplicates.len() == 1 { "y" } else { "ies" },
            sample.join(", ")
        ))
    }
}

/// Loads a core file: one entry per line, `#` comments allowed; entries
/// are node ids, or host names when `labels` is available. CRLF line
/// endings are accepted; duplicate entries are deduplicated and reported
/// via [`CoreLoad::duplicates`].
pub fn load_core(
    path: &Path,
    labels: Option<&NodeLabels>,
    node_count: usize,
) -> Result<CoreLoad, CliError> {
    let text = fs::read_to_string(path)?;
    let mut core = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let entry = line.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        let node = if let Ok(id) = entry.parse::<u32>() {
            NodeId(id)
        } else if let Some(labels) = labels {
            labels.id(entry).ok_or_else(|| {
                CliError::Format(format!("line {}: unknown host {entry:?}", lineno + 1))
            })?
        } else {
            return Err(CliError::Format(format!(
                "line {}: {entry:?} is not a node id and no --labels file was given",
                lineno + 1
            )));
        };
        if node.index() >= node_count {
            return Err(CliError::Format(format!(
                "line {}: node {node} out of range for {node_count}-node graph",
                lineno + 1
            )));
        }
        core.push(node);
    }
    if core.is_empty() {
        return Err(CliError::Format("core file contains no entries".into()));
    }
    core.sort_unstable();
    let mut nodes = Vec::with_capacity(core.len());
    let mut duplicates = Vec::new();
    for x in core {
        if nodes.last() == Some(&x) {
            if duplicates.last() != Some(&x) {
                duplicates.push(x);
            }
        } else {
            nodes.push(x);
        }
    }
    Ok(CoreLoad { nodes, duplicates })
}

/// Formats a node for output: its host name when labels are present,
/// otherwise the numeric id.
pub fn display_node(labels: Option<&NodeLabels>, x: NodeId) -> String {
    labels.and_then(|l| l.name(x)).map(|h| h.to_string()).unwrap_or_else(|| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::GraphBuilder;
    use std::io::Write;

    /// Writes `contents` to `name` in a directory of its own; every call
    /// site uses a distinct `name`.
    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = crate::test_dir(&format!("loading-{name}")).join(name);
        let mut f = fs::File::create(&p).unwrap();
        f.write_all(contents).unwrap();
        p
    }

    #[test]
    fn graph_autodetect_binary_and_text() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        let bin = tmp("auto.bin", &io::graph_to_bytes_v3(&g));
        let loaded = load_graph(&bin).unwrap();
        assert_eq!(loaded.edge_count(), 2);

        let txt = tmp("auto.txt", b"# nodes: 3\n0 1\n1 2\n");
        let loaded = load_graph(&txt).unwrap();
        assert_eq!(loaded.node_count(), 3);
        assert_eq!(loaded.edge_count(), 2);
    }

    #[test]
    fn truncated_magic_is_corruption_not_text() {
        for cut in 1..8 {
            let p = tmp(&format!("torn{cut}.bin"), &b"SPAMGRPH"[..cut]);
            match load_graph(&p) {
                Err(CliError::Format(m)) => assert!(m.contains("magic"), "{cut} bytes: {m}"),
                other => panic!("{cut}-byte magic prefix: expected Format, got {other:?}"),
            }
        }
        // The whole magic with nothing behind it is the image reader's
        // to reject; a short file that is not a magic prefix is text.
        assert!(matches!(load_graph(&tmp("bare.bin", b"SPAMGRPH")), Err(CliError::Format(_))));
        assert_eq!(load_graph(&tmp("short.txt", b"0 1\n")).unwrap().edge_count(), 1);
    }

    #[test]
    fn lenient_load_reports_skipped_lines() {
        let txt = tmp("lenient.txt", b"0 1\nbroken line here\n1 2\n");
        // Strict: hard error.
        assert!(load_graph(&txt).is_err());
        // Lenient: loads the valid edges and reports the bad line.
        let (g, report) = load_graph_with(&txt, &ReadOptions::lenient(5)).unwrap();
        assert_eq!(g.edge_count(), 2);
        let report = report.expect("text loads carry a report");
        assert_eq!(report.skipped, 1);
        let warn = ingest_warning(Some(&report)).unwrap();
        assert!(warn.contains("1 skipped"), "{warn}");
        // Binary images never produce a report.
        let g2 = GraphBuilder::from_edges(2, &[(0, 1)]);
        let bin = tmp("lenient.bin", &io::graph_to_bytes_v3(&g2));
        let (_, report) = load_graph_with(&bin, &ReadOptions::lenient(5)).unwrap();
        assert!(report.is_none());
        assert!(ingest_warning(report.as_ref()).is_none());
    }

    #[test]
    fn read_options_from_flag() {
        let strict = ParsedArgs::parse(&["stats".to_string()]).unwrap();
        assert!(read_options(&strict).unwrap().strict);
        let lenient =
            ParsedArgs::parse(&["stats".to_string(), "--lenient".to_string(), "7".to_string()])
                .unwrap();
        let opts = read_options(&lenient).unwrap();
        assert!(!opts.strict);
        assert_eq!(opts.max_bad_lines, 7);
        let bad =
            ParsedArgs::parse(&["stats".to_string(), "--lenient".to_string(), "many".to_string()])
                .unwrap();
        assert!(matches!(read_options(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn core_by_ids_and_names() {
        let mut labels = NodeLabels::new();
        labels.push("a.gov");
        labels.push("b.edu");
        labels.push("c.com");

        let by_id = tmp("core_ids.txt", b"# comment\n0\n2\n0\n");
        let core = load_core(&by_id, None, 3).unwrap();
        assert_eq!(core.nodes, vec![NodeId(0), NodeId(2)]);
        assert_eq!(core.duplicates, vec![NodeId(0)]);
        assert!(core.warning().unwrap().contains("more than once"));

        let by_name = tmp("core_names.txt", b"b.edu\nA.GOV\n");
        let core = load_core(&by_name, Some(&labels), 3).unwrap();
        assert_eq!(core.nodes, vec![NodeId(0), NodeId(1)]);
        assert!(core.duplicates.is_empty());
        assert!(core.warning().is_none());
    }

    #[test]
    fn core_accepts_crlf_line_endings() {
        let crlf = tmp("core_crlf.txt", b"# windows file\r\n0\r\n2\r\n");
        let core = load_core(&crlf, None, 3).unwrap();
        assert_eq!(core.nodes, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn core_error_paths() {
        let labels = {
            let mut l = NodeLabels::new();
            l.push("a.gov");
            l
        };
        let unknown = tmp("core_unknown.txt", b"nosuch.host\n");
        assert!(load_core(&unknown, Some(&labels), 1).is_err());

        let no_labels = tmp("core_nolabels.txt", b"a.gov\n");
        assert!(load_core(&no_labels, None, 1).is_err());

        let out_of_range = tmp("core_oor.txt", b"99\n");
        assert!(load_core(&out_of_range, None, 3).is_err());

        let empty = tmp("core_empty.txt", b"# nothing\n");
        assert!(load_core(&empty, None, 3).is_err());
    }

    #[test]
    fn display_node_prefers_labels() {
        let mut labels = NodeLabels::new();
        labels.push("x.com");
        assert_eq!(display_node(Some(&labels), NodeId(0)), "x.com");
        assert_eq!(display_node(Some(&labels), NodeId(5)), "5");
        assert_eq!(display_node(None, NodeId(2)), "2");
    }
}
