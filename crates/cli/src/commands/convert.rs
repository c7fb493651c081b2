//! `spammass convert` — encode a graph into one of the two `SPAMGRPH`
//! image versions the system writes.
//!
//! `--format v3` (the default) is the resident format: aligned CSR
//! sections that memory-map zero-copy on load. Any readable `--in` works
//! — a text edge list, or a v3 or v4 image. `--format v4`
//! compresses any input — including a shard **directory** from
//! `spammass generate --stream` — into the delta-varint block format
//! that the out-of-core estimator streams
//! (`spammass estimate --max-resident-mb`).
//!
//! `--order degree` renumbers the nodes into degree order once, for every
//! later solve on the image. Files keyed by the original ids are re-keyed
//! beside it: `--core FILE` is written as `<out>.core.txt` (node ids, the
//! format a state generation's `core.txt` has) and `--labels FILE` as
//! `<out>.labels.txt`.
//!
//! Directory input never materializes the graph: out-rows stream
//! straight from the shards (they arrive source-sorted) while the
//! transposed in-orientation is built with an external-memory bucket
//! sort under `{out}.transpose.tmp/`, so peak memory is one transpose
//! bucket, not the edge list.

use crate::args::ParsedArgs;
use crate::loading::{ingest_warning, load_core, load_graph_with, load_labels, read_options};
use crate::CliError;
use spammass_graph::{
    graph_to_bytes_v4_with, io, GraphError, NodeId, NodeLabels, NodeOrdering, Permutation,
    V4Config, V4Writer,
};
use spammass_synth::stream::StreamManifest;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::fs;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read as _, Write as IoWrite};
use std::path::{Path, PathBuf};

/// Transpose fan-out for directory conversion. More buckets means less
/// memory in the in-orientation sort: the popularity skew concentrates
/// in-links on low ids, so the first bucket is the resident-size
/// bottleneck.
const TRANSPOSE_BUCKETS: u64 = 256;

fn v4_config(args: &ParsedArgs) -> Result<V4Config, CliError> {
    let defaults = V4Config::default();
    let config = V4Config {
        rows_per_block: args.parsed_or("block-rows", defaults.rows_per_block)?,
        edges_per_block: args.parsed_or("block-edges", defaults.edges_per_block)?,
    };
    config.validate().map_err(CliError::from)?;
    Ok(config)
}

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "in",
        "out",
        "format",
        "order",
        "core",
        "labels",
        "lenient",
        "threads",
        "block-rows",
        "block-edges",
        "trace",
        "metrics-out",
    ])?;
    let input = Path::new(args.required("in")?);
    let output = Path::new(args.required("out")?);
    let format = args.optional("format").unwrap_or("v3");
    if !matches!(format, "v3" | "v4") {
        return Err(CliError::Usage(format!("unknown --format {format:?} (v3, v4)")));
    }
    if format != "v4"
        && (args.optional("block-rows").is_some() || args.optional("block-edges").is_some())
    {
        return Err(CliError::Usage("--block-rows/--block-edges only apply to --format v4".into()));
    }
    let ordering: NodeOrdering = match args.optional("order") {
        None => NodeOrdering::Natural,
        Some(v) => v.parse().map_err(|e| CliError::Usage(format!("--order: {e}")))?,
    };
    for flag in ["core", "labels"] {
        if ordering == NodeOrdering::Natural && args.optional(flag).is_some() {
            return Err(CliError::Usage(format!(
                "--{flag} is re-keyed to a renumbered image and needs --order degree"
            )));
        }
    }

    if input.is_dir() {
        if format != "v4" {
            return Err(CliError::Usage(format!(
                "directory input (streamed shards) can only be converted to --format v4, not {format:?}"
            )));
        }
        if args.optional("order").is_some() {
            return Err(CliError::Usage(
                "--order is not supported for directory input; streamed shards keep natural ids \
                 so truth.tsv/core.txt stay valid"
                    .into(),
            ));
        }
        return convert_stream_dir(input, output, v4_config(args)?);
    }

    let opts = read_options(args)?;
    let (graph, load_report) = load_graph_with(input, &opts)?;
    let n = graph.node_count();
    // Both inputs are read and checked before anything is written.
    let labels = match args.optional("labels") {
        Some(p) => Some(load_labels(Path::new(p))?),
        None => None,
    };
    if let Some(labels) = labels.as_ref().filter(|l| l.len() < n) {
        // A nameless node cannot be written: the labels format is one name
        // per line, and a blank line is skipped on read.
        return Err(CliError::Usage(format!(
            "--labels names {} hosts but the graph has {n}; every node needs a name",
            labels.len()
        )));
    }
    let core = match args.optional("core") {
        Some(p) => Some(load_core(Path::new(p), labels.as_ref(), n)?),
        None => None,
    };
    let perm = (ordering != NodeOrdering::Natural).then(|| Permutation::compute(&graph, ordering));
    let graph = match &perm {
        Some(perm) => perm.permute_graph(&graph),
        None => graph,
    };
    let mut trailer = String::new();
    let bytes = if format == "v4" {
        let bytes = graph_to_bytes_v4_with(&graph, v4_config(args)?)?;
        if graph.edge_count() > 0 {
            let bits = bytes.len() as f64 * 8.0 / (2.0 * graph.edge_count() as f64);
            let _ = write!(trailer, " ({bits:.2} bits/edge over both orientations)");
        }
        bytes
    } else {
        io::graph_to_bytes_v3(&graph)
    };
    fs::write(output, &bytes)?;

    let mut out = String::new();
    if let Some(warn) = ingest_warning(load_report.as_ref()) {
        let _ = writeln!(out, "{warn}");
    }
    if let Some(w) = core.as_ref().and_then(|c| c.warning()) {
        let _ = writeln!(out, "{w}");
    }
    if perm.is_some() {
        let _ = writeln!(
            out,
            "note: nodes renumbered into {} order; a journal or any file not re-keyed here \
             must name this image's ids",
            ordering.name()
        );
    }
    let _ = writeln!(
        out,
        "wrote {} image: {} nodes, {} edges, {} bytes{} -> {}",
        format,
        graph.node_count(),
        graph.edge_count(),
        bytes.len(),
        trailer,
        output.display()
    );
    if let (Some(perm), Some(core)) = (&perm, &core) {
        let path = beside(output, ".core.txt");
        fs::write(&path, spammass_delta::core_to_text(&perm.permute_nodes(&core.nodes)))?;
        let _ = writeln!(out, "re-keyed core: {} hosts -> {}", core.nodes.len(), path.display());
    }
    if let (Some(perm), Some(labels)) = (&perm, &labels) {
        let mut rekeyed = NodeLabels::with_capacity(labels.len());
        for new in 0..labels.len() {
            let old = perm.to_old(NodeId::from_index(new));
            rekeyed.push(labels.name(old).expect("every node has a name").as_str());
        }
        let path = beside(output, ".labels.txt");
        io::write_labels(&rekeyed, File::create(&path)?)?;
        let _ = writeln!(out, "re-keyed labels: {} hosts -> {}", labels.len(), path.display());
    }
    Ok(out)
}

/// `output` with `suffix` appended to its file name.
fn beside(output: &Path, suffix: &str) -> PathBuf {
    let mut name = OsString::from(output.as_os_str());
    name.push(suffix);
    PathBuf::from(name)
}

fn corrupt(msg: String) -> CliError {
    CliError::from(GraphError::Corrupt(msg))
}

/// Streams a `generate --stream` shard directory into a v4 image.
fn convert_stream_dir(dir: &Path, output: &Path, config: V4Config) -> Result<String, CliError> {
    let manifest = StreamManifest::read(dir)?;
    if manifest.nodes > u64::from(u32::MAX) {
        return Err(CliError::Format(format!(
            "manifest declares {} nodes; v4 images cap at u32::MAX",
            manifest.nodes
        )));
    }
    let n = manifest.nodes;
    let mut writer = V4Writer::new(BufWriter::new(File::create(output)?), n as usize, config)?;

    let tmp = beside(output, ".transpose.tmp");
    fs::create_dir_all(&tmp)?;
    let result = convert_stream_dir_inner(dir, &manifest, &tmp, &mut writer);
    // The temp buckets are pure scratch; remove them on every exit path.
    let _ = fs::remove_dir_all(&tmp);
    let summary = match result {
        Ok(()) => writer.finish()?,
        Err(e) => {
            let _ = fs::remove_file(output);
            return Err(e);
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "wrote v4 image: {} nodes, {} edges, {} bytes ({:.2} bits/edge over both orientations) -> {}",
        summary.node_count,
        summary.edge_count,
        summary.file_bytes,
        summary.bits_per_edge(),
        output.display()
    );
    Ok(out)
}

fn bucket_span(nodes: u64) -> u64 {
    nodes.div_ceil(TRANSPOSE_BUCKETS).max(1)
}

fn convert_stream_dir_inner(
    dir: &Path,
    manifest: &StreamManifest,
    tmp: &Path,
    writer: &mut V4Writer<BufWriter<File>>,
) -> Result<(), CliError> {
    let n = manifest.nodes;
    let span = bucket_span(n);
    let bucket_count = n.div_ceil(span);
    let mut buckets: Vec<BufWriter<File>> = (0..bucket_count)
        .map(|b| Ok(BufWriter::new(File::create(tmp.join(format!("b{b:03}.bin")))?)))
        .collect::<Result<_, std::io::Error>>()?;

    // Pass A: shards arrive sorted by (from, to); feed out-rows directly,
    // scattering the transposed pairs into to-range buckets on the way.
    let mut row: Vec<NodeId> = Vec::new();
    let mut pending_from: u64 = 0;
    let mut edges_seen: u64 = 0;
    for shard in manifest.shard_paths(dir) {
        let mut reader = BufReader::with_capacity(1 << 20, File::open(&shard)?);
        let mut pair = [0u8; 8];
        loop {
            match reader.read_exact(&mut pair) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let from = u64::from(u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")));
            let to = u32::from_le_bytes(pair[4..].try_into().expect("4 bytes"));
            if from >= n || u64::from(to) >= n {
                return Err(corrupt(format!(
                    "shard {} edge ({from}, {to}) out of range for {n} nodes",
                    shard.display()
                )));
            }
            if from != pending_from {
                if from < pending_from {
                    return Err(corrupt(format!(
                        "shard {} is not sorted: source {from} after {pending_from}",
                        shard.display()
                    )));
                }
                writer.push_row(&row)?;
                row.clear();
                for _ in pending_from + 1..from {
                    writer.push_row(&[])?;
                }
                pending_from = from;
            } else if row.last().is_some_and(|last| last.0 >= to) {
                return Err(corrupt(format!(
                    "shard {} row {from} targets are not strictly increasing at {to}",
                    shard.display()
                )));
            }
            row.push(NodeId(to));
            buckets[(u64::from(to) / span) as usize].write_all(&[
                pair[4], pair[5], pair[6], pair[7], pair[0], pair[1], pair[2], pair[3],
            ])?;
            edges_seen += 1;
        }
    }
    writer.push_row(&row)?;
    for _ in pending_from + 1..n {
        writer.push_row(&[])?;
    }
    if edges_seen != manifest.edges {
        return Err(corrupt(format!(
            "manifest declares {} edges but shards hold {edges_seen}",
            manifest.edges
        )));
    }
    for w in &mut buckets {
        w.flush()?;
    }
    drop(buckets);
    writer.finish_out()?;

    // Pass B: one bucket at a time — read, sort by (to, from), feed the
    // bucket's node span as in-rows. Peak memory is the largest bucket.
    let mut sources: Vec<NodeId> = Vec::new();
    for b in 0..bucket_count {
        let lo = b * span;
        let hi = (lo + span).min(n);
        let bytes = fs::read(tmp.join(format!("b{b:03}.bin")))?;
        let mut pairs: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| {
                let to = u64::from(u32::from_le_bytes(c[..4].try_into().expect("4 bytes")));
                let from = u64::from(u32::from_le_bytes(c[4..].try_into().expect("4 bytes")));
                (to << 32) | from
            })
            .collect();
        pairs.sort_unstable();
        let mut idx = 0;
        for y in lo..hi {
            sources.clear();
            while idx < pairs.len() && pairs[idx] >> 32 == y {
                sources.push(NodeId(pairs[idx] as u32));
                idx += 1;
            }
            writer.push_row(&sources)?;
        }
        debug_assert_eq!(idx, pairs.len(), "bucket {b} held pairs outside [{lo}, {hi})");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{CompressedImage, GraphBuilder};
    use std::sync::Arc;

    fn run_argv(argv: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&ParsedArgs::parse(&v).unwrap())
    }

    #[test]
    fn a_retired_v1_or_v2_image_is_refused_and_nothing_is_written() {
        let d = crate::test_dir("convert-retired-version");
        let out = d.join("new.bin");
        for version in [1u32, 2] {
            // A v1/v2 header: magic, version, node and edge counts.
            let mut bytes = b"SPAMGRPH".to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&4u64.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            let old = d.join(format!("old.v{version}.bin"));
            fs::write(&old, bytes).unwrap();
            let err = run_argv(&[
                "convert",
                "--in",
                old.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap_err()
            .to_string();
            assert!(err.contains(&format!("unsupported version {version}")), "{err}");
            assert!(err.contains("reads v3 and v4") && err.contains("commit 4e9c81e"), "{err}");
            assert!(!out.exists(), "v{version}: nothing may be written");
        }
    }

    #[test]
    fn converts_text_to_either_written_version() {
        let d = crate::test_dir("convert-text-either-version");
        let txt = d.join("edges.txt");
        fs::write(&txt, "# nodes: 3\n0 1\n1 2\n").unwrap();
        for format in ["v3", "v4"] {
            let bin = d.join(format!("as_{format}.bin"));
            let out = run_argv(&[
                "convert",
                "--in",
                txt.to_str().unwrap(),
                "--out",
                bin.to_str().unwrap(),
                "--format",
                format,
            ])
            .unwrap();
            assert!(out.contains(&format!("wrote {format} image")), "{out}");
            let (g, stats) = io::map_graph_file(&bin).unwrap();
            assert_eq!((g.node_count(), g.edge_count()), (3, 2));
            assert_eq!(format!("v{}", stats.version), format);
        }
    }

    #[test]
    fn converts_between_the_two_image_versions_byte_for_byte() {
        // v3 → v4 → v3 reproduces the first image exactly, and each
        // written image is what encoding the graph directly gives.
        let d = crate::test_dir("convert-v3-v4-v3");
        let g = GraphBuilder::from_edges(6, &[(0, 1), (0, 4), (1, 2), (2, 0), (3, 2), (5, 3)]);
        let v3 = d.join("g.v3");
        fs::write(&v3, io::graph_to_bytes_v3(&g)).unwrap();
        let v4 = d.join("g.v4");
        let back = d.join("back.v3");
        for (from, to, format) in [(&v3, &v4, "v4"), (&v4, &back, "v3")] {
            let out = run_argv(&[
                "convert",
                "--in",
                from.to_str().unwrap(),
                "--out",
                to.to_str().unwrap(),
                "--format",
                format,
            ])
            .unwrap();
            assert!(out.contains(&format!("wrote {format} image")), "{out}");
        }
        assert_eq!(fs::read(&v4).unwrap(), spammass_graph::compress::graph_to_bytes_v4(&g));
        assert_eq!(fs::read(&back).unwrap(), fs::read(&v3).unwrap());
    }

    #[test]
    fn bakes_a_node_ordering_into_the_image() {
        let d = crate::test_dir("convert-ordering");
        let txt = d.join("hub.txt");
        // Node 3 has the highest out-degree, so degree order renumbers it 0.
        fs::write(&txt, "3 0\n3 1\n3 2\n0 1\n").unwrap();
        let bin = d.join("hub_degree.bin");
        let out = run_argv(&[
            "convert",
            "--in",
            txt.to_str().unwrap(),
            "--out",
            bin.to_str().unwrap(),
            "--order",
            "degree",
        ])
        .unwrap();
        assert!(out.contains("renumbered into degree order"), "{out}");
        let (g, _) = io::map_graph_file(&bin).unwrap();
        assert_eq!(g.out_degree(spammass_graph::NodeId(0)), 3);
    }

    #[test]
    fn rejects_unknown_format_and_order() {
        let d = crate::test_dir("convert-v4-blocks");
        let txt = d.join("e.txt");
        fs::write(&txt, "0 1\n").unwrap();
        let bin = d.join("e.bin");
        // The retired writers' names are as unknown as any other: the
        // error names the two formats that can be written.
        for format in ["v1", "v2", "v9"] {
            let bad_format = run_argv(&[
                "convert",
                "--in",
                txt.to_str().unwrap(),
                "--out",
                bin.to_str().unwrap(),
                "--format",
                format,
            ]);
            match bad_format {
                Err(CliError::Usage(m)) => assert!(m.contains("(v3, v4)"), "{format}: {m}"),
                other => panic!("--format {format}: expected a usage error, got {other:?}"),
            }
            assert!(!bin.exists(), "--format {format} must not write anything");
        }
        // BFS order is retired like any unknown one.
        for order in ["random", "bfs"] {
            match run_argv(&[
                "convert",
                "--in",
                txt.to_str().unwrap(),
                "--out",
                bin.to_str().unwrap(),
                "--order",
                order,
            ]) {
                Err(CliError::Usage(m)) => assert!(m.contains("(none, degree)"), "{order}: {m}"),
                other => panic!("--order {order}: expected a usage error, got {other:?}"),
            }
        }
        // The files to re-key need a renumbering to re-key them to, and
        // a labels file must name every node of the graph.
        let (core, short_labels) = (d.join("core.txt"), d.join("short.txt"));
        fs::write(&core, "0\n").unwrap();
        fs::write(&short_labels, "a.example\n").unwrap();
        for (flags, needle) in [
            (vec!["--core", core.to_str().unwrap()], "needs --order degree"),
            (vec!["--labels", short_labels.to_str().unwrap(), "--order", "none"], "--order degree"),
            (
                vec!["--labels", short_labels.to_str().unwrap(), "--order", "degree"],
                "names 1 hosts",
            ),
        ] {
            let mut argv = vec!["convert", "--in", txt.to_str().unwrap()];
            argv.extend(["--out", bin.to_str().unwrap()]);
            argv.extend(&flags);
            match run_argv(&argv) {
                Err(CliError::Usage(m)) => assert!(m.contains(needle), "{flags:?}: {m}"),
                other => panic!("{flags:?}: expected a usage error, got {other:?}"),
            }
            assert!(!bin.exists(), "{flags:?} must not write anything");
        }
        let blocks_without_v4 = run_argv(&[
            "convert",
            "--in",
            txt.to_str().unwrap(),
            "--out",
            bin.to_str().unwrap(),
            "--block-rows",
            "64",
        ]);
        assert!(matches!(blocks_without_v4, Err(CliError::Usage(_))));
    }

    #[test]
    fn rekeyed_image_core_and_labels_flag_the_same_hosts() {
        let d = crate::test_dir("convert-rekeyed-detect");
        let path = |name: &str| d.join(name).to_str().unwrap().to_string();
        let parse = |argv: &[&str]| {
            ParsedArgs::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        let (web, labels, core) = (path("web.graph"), path("hosts.txt"), path("core.txt"));
        crate::commands::generate::run(&parse(&[
            "generate", "--hosts", "2000", "--seed", "7", "--out", &web, "--labels", &labels,
            "--core", &core,
        ]))
        .unwrap();
        let out = run_argv(&[
            "convert",
            "--in",
            &web,
            "--out",
            &path("web.v3"),
            "--order",
            "degree",
            "--core",
            &core,
            "--labels",
            &labels,
        ])
        .unwrap();
        assert!(out.contains("re-keyed core") && out.contains("re-keyed labels"), "{out}");
        // The candidate column of `detect`, as a sorted list of host names.
        let flagged = |graph: &str, core: &str, labels: &str| {
            let report = crate::commands::detect::run(&parse(&[
                "detect", "--graph", graph, "--core", core, "--labels", labels,
            ]))
            .unwrap();
            let rows = report.lines().skip_while(|l| !l.ends_with("candidate")).skip(1);
            let mut hosts: Vec<String> =
                rows.map(|l| l.split_whitespace().last().unwrap().to_string()).collect();
            hosts.sort();
            hosts
        };
        let original = flagged(&web, &core, &labels);
        assert!(!original.is_empty(), "the farm web should flag something");
        assert!(original.iter().all(|h| h.parse::<u32>().is_err()), "{original:?}");
        let rekeyed =
            flagged(&path("web.v3"), &path("web.v3.core.txt"), &path("web.v3.labels.txt"));
        assert_eq!(original, rekeyed);
        // The image really was renumbered: the labels moved with it.
        assert_ne!(fs::read(&labels).unwrap(), fs::read(path("web.v3.labels.txt")).unwrap());
    }

    /// A five-host web whose degree order is not the natural one, with its
    /// labels and a core naming two hosts by name, written under `d`.
    fn small_labelled_web(d: &Path) -> (spammass_graph::Graph, [PathBuf; 3]) {
        let edges = [(0, 1), (0, 2), (3, 0), (3, 1), (3, 2), (3, 4), (4, 0)];
        let paths = [d.join("web.txt"), d.join("hosts.txt"), d.join("core.txt")];
        let text: String = edges.iter().map(|(f, t)| format!("{f} {t}\n")).collect();
        fs::write(&paths[0], format!("# nodes: 5\n{text}")).unwrap();
        fs::write(&paths[1], "a.example\nb.example\nc.example\nd.example\ne.example\n").unwrap();
        fs::write(&paths[2], "b.example\nd.example\n").unwrap();
        (GraphBuilder::from_edges(5, &edges), paths)
    }

    fn convert_with_order(
        paths: &[PathBuf; 3],
        out: &Path,
        format: &str,
    ) -> Result<String, CliError> {
        let arg = |p: &Path| p.to_str().unwrap().to_string();
        let (web, labels, core, out) = (arg(&paths[0]), arg(&paths[1]), arg(&paths[2]), arg(out));
        run_argv(&[
            "convert", "--in", &web, "--out", &out, "--format", format, "--order", "degree",
            "--core", &core, "--labels", &labels,
        ])
    }

    #[test]
    fn core_named_by_host_is_rekeyed_into_the_image_ids() {
        let d = crate::test_dir("convert-rekeyed-core");
        let (g, paths) = small_labelled_web(&d);
        let bin = d.join("web.v3");
        convert_with_order(&paths, &bin, "v3").unwrap();
        // Written as a state generation's core.txt, in the image's ids.
        let perm = Permutation::compute(&g, NodeOrdering::DegreeDescending);
        let expected = perm.permute_nodes(&[NodeId(1), NodeId(3)]);
        let text = fs::read_to_string(beside(&bin, ".core.txt")).unwrap();
        assert_eq!(text, spammass_delta::core_to_text(&expected));
        // Those ids still name the hosts the original core named.
        let rekeyed = load_labels(&beside(&bin, ".labels.txt")).unwrap();
        let mut names: Vec<&str> =
            expected.iter().map(|&x| rekeyed.name(x).unwrap().as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["b.example", "d.example"]);
    }

    #[test]
    fn rekeyed_labels_name_the_same_edges() {
        let d = crate::test_dir("convert-rekeyed-labels");
        let (g, paths) = small_labelled_web(&d);
        let bin = d.join("web.v3");
        convert_with_order(&paths, &bin, "v3").unwrap();
        let (image, _) = io::map_graph_file(&bin).unwrap();
        let (before, after) =
            (load_labels(&paths[1]).unwrap(), load_labels(&beside(&bin, ".labels.txt")).unwrap());
        assert_eq!(after.len(), before.len());
        // Every edge, named by host, is an edge of the renumbered image.
        let rename = |x: NodeId| after.id(before.name(x).unwrap().as_str()).unwrap();
        assert_eq!(image.edge_count(), g.edge_count());
        for (f, t) in g.edges() {
            assert!(image.has_edge(rename(f), rename(t)), "edge {f} -> {t}");
        }
        // The hub (host d) has the most out-links and leads the image.
        assert_eq!(after.name(NodeId(0)).unwrap().as_str(), "d.example");
    }

    #[test]
    fn v4_output_is_renumbered_like_v3() {
        let d = crate::test_dir("convert-rekeyed-v4");
        let (_, paths) = small_labelled_web(&d);
        let (v3, v4) = (d.join("web.v3"), d.join("web.v4"));
        convert_with_order(&paths, &v3, "v3").unwrap();
        convert_with_order(&paths, &v4, "v4").unwrap();
        let (resident, _) = io::map_graph_file(&v3).unwrap();
        let image = CompressedImage::from_store(Arc::new(fs::read(&v4).unwrap())).unwrap();
        let streamed = image.decode_graph().unwrap();
        assert_eq!(streamed.edge_count(), resident.edge_count());
        for y in resident.nodes() {
            assert_eq!(streamed.out_neighbors(y), resident.out_neighbors(y), "node {y}");
        }
        for suffix in [".core.txt", ".labels.txt"] {
            assert_eq!(
                fs::read(beside(&v3, suffix)).unwrap(),
                fs::read(beside(&v4, suffix)).unwrap()
            );
        }
    }

    #[test]
    fn rekeyed_image_estimates_match_by_host_name() {
        let d = crate::test_dir("convert-rekeyed-estimate");
        let path = |name: &str| d.join(name).to_str().unwrap().to_string();
        let parse = |argv: &[&str]| {
            ParsedArgs::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        let (web, labels, core) = (path("web.graph"), path("hosts.txt"), path("core.txt"));
        crate::commands::generate::run(&parse(&[
            "generate", "--hosts", "1500", "--seed", "5", "--out", &web, "--labels", &labels,
            "--core", &core,
        ]))
        .unwrap();
        run_argv(&[
            "convert",
            "--in",
            &web,
            "--out",
            &path("web.v3"),
            "--order",
            "degree",
            "--core",
            &core,
            "--labels",
            &labels,
        ])
        .unwrap();
        // The `estimate --out` rows keyed by host name: the four score columns.
        let rows = |graph: &str, core: &str, labels: &str, out: &str| {
            crate::commands::estimate::run(&parse(&[
                "estimate", "--graph", graph, "--core", core, "--labels", labels, "--out", out,
            ]))
            .unwrap();
            let tsv = fs::read_to_string(out).unwrap();
            let mut rows: Vec<(String, Vec<f64>)> = tsv
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| {
                    let cols: Vec<&str> = l.split('\t').collect();
                    (cols[1].to_string(), cols[2..].iter().map(|c| c.parse().unwrap()).collect())
                })
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows
        };
        let original = rows(&web, &core, &labels, &path("a.tsv"));
        let rekeyed = rows(
            &path("web.v3"),
            &path("web.v3.core.txt"),
            &path("web.v3.labels.txt"),
            &path("b.tsv"),
        );
        assert!(original.len() >= 1500, "{} rows", original.len());
        assert_eq!(original.len(), rekeyed.len());
        for ((host, a), (other, b)) in original.iter().zip(&rekeyed) {
            assert_eq!(host, other);
            // Printed to six decimals: values within 1e-12 of each other
            // may round one unit apart.
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() <= 1.5e-6, "{host}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn shard_directory_converts_to_the_same_graph_as_in_memory_decode() {
        use spammass_synth::stream::{generate_stream, StreamConfig};
        let scratch = crate::test_dir("convert-shard-directory");
        let d = scratch.join("stream-src");
        let config = StreamConfig {
            edges_per_shard: 10_000, // force several shards
            ..StreamConfig::sized(5_000)
        };
        generate_stream(&d, &config, 11).unwrap();
        let v4 = scratch.join("streamed.v4");
        let out = run_argv(&[
            "convert",
            "--in",
            d.to_str().unwrap(),
            "--out",
            v4.to_str().unwrap(),
            "--format",
            "v4",
            "--block-rows",
            "512",
        ])
        .unwrap();
        assert!(out.contains("wrote v4 image: 5000 nodes"), "{out}");
        assert!(out.contains("bits/edge"), "{out}");
        assert!(!PathBuf::from(format!("{}.transpose.tmp", v4.display())).exists());

        // The streamed conversion and a plain in-memory rebuild from the
        // shards must describe the identical graph.
        let image = CompressedImage::from_store(Arc::new(fs::read(&v4).unwrap())).unwrap();
        let streamed = image.decode_graph().unwrap();
        let manifest = StreamManifest::read(&d).unwrap();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for shard in manifest.shard_paths(&d) {
            for pair in fs::read(&shard).unwrap().chunks_exact(8) {
                edges.push((
                    u32::from_le_bytes(pair[..4].try_into().unwrap()),
                    u32::from_le_bytes(pair[4..].try_into().unwrap()),
                ));
            }
        }
        let direct = GraphBuilder::from_edges(manifest.nodes as usize, &edges);
        assert_eq!(streamed.node_count(), direct.node_count());
        assert_eq!(streamed.edge_count(), direct.edge_count());
        for y in streamed.nodes() {
            assert_eq!(streamed.out_neighbors(y), direct.out_neighbors(y));
            assert_eq!(streamed.in_neighbors(y), direct.in_neighbors(y));
        }
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn directory_input_requires_v4_and_natural_order() {
        let d = crate::test_dir("convert-directory-input");
        let out = d.join("x.bin");
        let as_v3 =
            run_argv(&["convert", "--in", d.to_str().unwrap(), "--out", out.to_str().unwrap()]);
        assert!(matches!(as_v3, Err(CliError::Usage(_))), "{as_v3:?}");
        let ordered = run_argv(&[
            "convert",
            "--in",
            d.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--format",
            "v4",
            "--order",
            "degree",
        ]);
        assert!(matches!(ordered, Err(CliError::Usage(_))), "{ordered:?}");
    }
}
