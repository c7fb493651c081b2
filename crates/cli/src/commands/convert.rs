//! `spammass convert` — encode a graph into one of the two `SPAMGRPH`
//! image versions the system writes.
//!
//! `--format v3` (the default) is the resident format: aligned CSR
//! sections that memory-map zero-copy on load. Any readable `--in` works
//! — a text edge list, or an image of any version, which makes this the
//! upgrade path for the import-only v1/v2 images. `--format v4`
//! compresses any input — including a shard **directory** from
//! `spammass generate --stream` — into the delta-varint block format
//! that the out-of-core estimator streams
//! (`spammass estimate --max-resident-mb`).
//!
//! Directory input never materializes the graph: out-rows stream
//! straight from the shards (they arrive source-sorted) while the
//! transposed in-orientation is built with an external-memory bucket
//! sort under `{out}.transpose.tmp/`, so peak memory is one transpose
//! bucket, not the edge list.

use crate::args::ParsedArgs;
use crate::loading::{ingest_warning, load_graph_with, node_ordering, read_options};
use crate::CliError;
use spammass_graph::{
    graph_to_bytes_v4_with, io, GraphError, NodeId, NodeOrdering, Permutation, V4Config, V4Writer,
};
use spammass_synth::stream::StreamManifest;
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
    let ordering = node_ordering(args)?;
    let (graph, load_report) = load_graph_with(input, &opts)?;
    // Baking an ordering into the image renumbers nodes permanently, so
    // label files and core lists written against the original ids no
    // longer apply — worth it only for solver-only pipelines; say so.
    let graph = match ordering {
        NodeOrdering::Natural => graph,
        other => Permutation::compute(&graph, other).permute_graph(&graph),
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
    if ordering != NodeOrdering::Natural {
        let _ = writeln!(
            out,
            "note: nodes renumbered into {} order; labels/core files keyed by \
             original ids no longer apply to this image",
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
    Ok(out)
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

    let tmp = PathBuf::from(format!("{}.transpose.tmp", output.display()));
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

    include!(concat!(env!("CARGO_MANIFEST_DIR"), "/../graph/tests/support/legacy_image.rs"));

    fn run_argv(argv: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&ParsedArgs::parse(&v).unwrap())
    }

    #[test]
    fn upgrades_v2_image_to_zero_copy_v3() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let g = GraphBuilder::from_edges(4, &edges);
        let d = crate::test_dir("convert-v2-to-v3");
        let v3 = d.join("new.bin");
        for version in [1, 2] {
            let old = d.join(format!("old.v{version}.bin"));
            fs::write(&old, legacy_image(version, 4, &edges)).unwrap();
            let out = run_argv(&[
                "convert",
                "--in",
                old.to_str().unwrap(),
                "--out",
                v3.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("wrote v3 image"), "{out}");
            assert_eq!(fs::read(&v3).unwrap(), io::graph_to_bytes_v3(&g), "v{version} upgrade");
            let (loaded, stats) = io::map_graph_file(&v3).unwrap();
            assert_eq!(loaded.edge_count(), g.edge_count());
            assert_eq!(stats.version, 3);
            assert!(stats.is_zero_copy(), "{stats:?}");
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
        let bad_order = run_argv(&[
            "convert",
            "--in",
            txt.to_str().unwrap(),
            "--out",
            bin.to_str().unwrap(),
            "--order",
            "random",
        ]);
        assert!(matches!(bad_order, Err(CliError::Usage(_))));
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
