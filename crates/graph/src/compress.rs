//! SPAMGRPH **v4**: the compressed, block-streamable section format.
//!
//! A v3 image spends 32 bits per edge per orientation; at the paper's
//! 979M-edge scale the raw CSR alone is ~8 GB. v4 stores each adjacency
//! row delta-varint-encoded ([`crate::varint`]) and packs consecutive
//! rows into independently CRC'd, length-prefixed **blocks**, so a
//! reader can decode any block without touching the rest of the file —
//! the primitive behind the blocked out-of-core solve
//! (`spammass_pagerank::stream`) and sub-RAM serve snapshots.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset size  field
//! 0      8     magic "SPAMGRPH"
//! 8      4     version = 4
//! 12     4     reserved (0)
//! 16     8     node_count
//! 24     8     edge_count
//! 32     8     out-index offset           ┐ block indexes live *after*
//! 40     8     in-index offset            ┘ the data so writers stream
//! 48     4     out-block count
//! 52     4     in-block count
//! 56     4     header CRC-32 (bytes 0..56)
//! 60     4     pad (0)
//! 64     …     block data (out blocks, then in blocks, packed)
//!        …     out index: count × 24-byte entries
//!        …     in  index: count × 24-byte entries
//! end−8  8     total file length (torn-write sentinel, as in v2/v3)
//! ```
//!
//! An index entry is `{offset u64, len u32, crc u32, rows u32, edges
//! u32}`: the block's absolute byte window, its CRC-32, and how many
//! rows/edges it decodes to. Blocks cover consecutive row ranges; a
//! block closes when it reaches the writer's row cap **or** edge cap,
//! which bounds the decoded scratch size even on graphs whose hub rows
//! concentrate millions of in-edges in a few thousand rows.
//!
//! Every structural field a reader trusts is validated before use:
//! header CRC, sentinel, index bounds, per-orientation row/edge totals,
//! and (lazily, on first decode) each block's CRC. Violations surface as
//! typed [`GraphError`]s — never panics.

use crate::crc32::crc32;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::le::{get_u32, get_u64};
use crate::node::NodeId;
use crate::storage::ByteStore;
use crate::varint;
use std::io::{Seek, SeekFrom, Write};
#[cfg(unix)]
use std::path::Path;
use std::sync::Arc;

/// The shared `SPAMGRPH` magic (same as v1–v3).
const MAGIC: &[u8; 8] = b"SPAMGRPH";
/// Format version of this module.
pub const VERSION_V4: u32 = 4;
/// Fixed header length; block data starts here.
const HEADER_LEN: u64 = 64;
/// Bytes 0..56 are covered by the header CRC at 56.
const HEADER_CRC_OFFSET: usize = 56;
/// One block-index entry: offset u64 + len u32 + crc u32 + rows u32 + edges u32.
const INDEX_ENTRY_LEN: u64 = 24;
/// Trailing total-length sentinel.
const TRAILER_LEN: u64 = 8;

/// Block sizing of the v4 writer.
#[derive(Debug, Clone, Copy)]
pub struct V4Config {
    /// Maximum rows per block.
    pub rows_per_block: u32,
    /// Maximum edges per block — bounds the decoded scratch size, so hub
    /// rows cannot blow the resident budget of a streamed solve.
    pub edges_per_block: u32,
}

impl Default for V4Config {
    /// ~64k rows / ~256k edges per block: ≈1 MiB of decoded targets, a
    /// few hundred blocks on a 100M-edge graph.
    fn default() -> Self {
        V4Config { rows_per_block: 1 << 16, edges_per_block: 1 << 18 }
    }
}

impl V4Config {
    /// Validates the caps (both must be nonzero).
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.rows_per_block == 0 || self.edges_per_block == 0 {
            return Err(GraphError::Corrupt("v4 block caps must be nonzero".into()));
        }
        Ok(())
    }
}

/// Which adjacency orientation a block region stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Rows are out-adjacency (row y lists the targets of y's links).
    Out,
    /// Rows are in-adjacency (row y lists the sources linking to y).
    In,
}

/// One entry of a block index.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    offset: u64,
    len: u32,
    crc: u32,
    rows: u32,
    edges: u32,
}

/// Summary statistics of a finished v4 image.
#[derive(Debug, Clone, Copy)]
pub struct V4Summary {
    /// Total file bytes.
    pub file_bytes: u64,
    /// Edges per orientation.
    pub edge_count: u64,
    /// Nodes.
    pub node_count: u64,
    /// Blocks written (out + in).
    pub blocks: usize,
}

impl V4Summary {
    /// Encoded bits per edge, counting **both** orientations' payload and
    /// all framing against `2 × edge_count` stored edges — directly
    /// comparable to the 32 bits/edge of a raw CSR section.
    pub fn bits_per_edge(&self) -> f64 {
        if self.edge_count == 0 {
            return 0.0;
        }
        (self.file_bytes * 8) as f64 / (2 * self.edge_count) as f64
    }
}

/// Streaming v4 writer: feed every out-row in node order, then every
/// in-row in node order, then [`finish`](V4Writer::finish). Needs `Seek`
/// only to patch the header at the end, so both files and in-memory
/// buffers work.
pub struct V4Writer<W: Write + Seek> {
    sink: W,
    config: V4Config,
    node_count: u64,
    /// Position the next block lands at.
    cursor: u64,
    out_index: Vec<BlockEntry>,
    in_index: Vec<BlockEntry>,
    /// Encoded bytes of the open block.
    block: Vec<u8>,
    block_rows: u32,
    block_edges: u32,
    /// Rows fed for the current orientation.
    rows_fed: [u64; 2],
    edges_fed: [u64; 2],
    writing_in: bool,
}

impl<W: Write + Seek> V4Writer<W> {
    /// Starts a v4 image for `node_count` nodes, writing the header
    /// placeholder immediately.
    pub fn new(mut sink: W, node_count: usize, config: V4Config) -> Result<Self, GraphError> {
        config.validate()?;
        sink.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(V4Writer {
            sink,
            config,
            node_count: node_count as u64,
            cursor: HEADER_LEN,
            out_index: Vec::new(),
            in_index: Vec::new(),
            block: Vec::new(),
            block_rows: 0,
            block_edges: 0,
            rows_fed: [0, 0],
            edges_fed: [0, 0],
            writing_in: false,
        })
    }

    /// Appends the next row (strictly increasing targets) of the current
    /// orientation. Rows must arrive in node order, all `node_count` of
    /// them per orientation.
    pub fn push_row(&mut self, targets: &[NodeId]) -> Result<(), GraphError> {
        let side = usize::from(self.writing_in);
        if self.rows_fed[side] >= self.node_count {
            return Err(GraphError::Corrupt(format!(
                "v4 writer: more than {} rows fed to one orientation",
                self.node_count
            )));
        }
        // Close the open block when this row would breach either cap —
        // unless the block is empty (a single over-cap hub row still
        // becomes its own block rather than an error).
        let t = targets.len() as u64;
        if self.block_rows > 0
            && (self.block_rows >= self.config.rows_per_block
                || self.block_edges as u64 + t > self.config.edges_per_block as u64)
        {
            self.flush_block()?;
        }
        varint::encode_row(&mut self.block, self.rows_fed[side] as u32, targets);
        self.block_rows += 1;
        self.block_edges = self.block_edges.saturating_add(targets.len() as u32);
        self.rows_fed[side] += 1;
        self.edges_fed[side] += t;
        Ok(())
    }

    /// Closes the out orientation; in-rows follow.
    pub fn finish_out(&mut self) -> Result<(), GraphError> {
        if self.writing_in {
            return Err(GraphError::Corrupt("v4 writer: finish_out called twice".into()));
        }
        if self.rows_fed[0] != self.node_count {
            return Err(GraphError::Corrupt(format!(
                "v4 writer: out orientation has {} of {} rows",
                self.rows_fed[0], self.node_count
            )));
        }
        self.flush_block()?;
        self.writing_in = true;
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), GraphError> {
        if self.block_rows == 0 {
            return Ok(());
        }
        let entry = BlockEntry {
            offset: self.cursor,
            len: self.block.len() as u32,
            crc: crc32(&self.block),
            rows: self.block_rows,
            edges: self.block_edges,
        };
        self.sink.write_all(&self.block)?;
        self.cursor += self.block.len() as u64;
        if self.writing_in {
            self.in_index.push(entry);
        } else {
            self.out_index.push(entry);
        }
        self.block.clear();
        self.block_rows = 0;
        self.block_edges = 0;
        Ok(())
    }

    /// Writes the indexes, sentinel, and final header; returns summary
    /// stats. Both orientations must be complete and agree on edge count.
    pub fn finish(self) -> Result<V4Summary, GraphError> {
        self.finish_into_inner().map(|(summary, _)| summary)
    }

    /// Like [`finish`](Self::finish), but also hands back the sink —
    /// needed by in-memory encoders to recover their buffer.
    pub fn finish_into_inner(mut self) -> Result<(V4Summary, W), GraphError> {
        if !self.writing_in {
            self.finish_out()?;
        }
        if self.rows_fed[1] != self.node_count {
            return Err(GraphError::Corrupt(format!(
                "v4 writer: in orientation has {} of {} rows",
                self.rows_fed[1], self.node_count
            )));
        }
        if self.edges_fed[0] != self.edges_fed[1] {
            return Err(GraphError::Corrupt(format!(
                "v4 writer: orientations disagree on edge count ({} out, {} in)",
                self.edges_fed[0], self.edges_fed[1]
            )));
        }
        self.flush_block()?;

        let out_index_offset = self.cursor;
        let mut index_bytes = Vec::with_capacity(
            ((self.out_index.len() + self.in_index.len()) as u64 * INDEX_ENTRY_LEN) as usize,
        );
        for e in self.out_index.iter().chain(&self.in_index) {
            index_bytes.extend_from_slice(&e.offset.to_le_bytes());
            index_bytes.extend_from_slice(&e.len.to_le_bytes());
            index_bytes.extend_from_slice(&e.crc.to_le_bytes());
            index_bytes.extend_from_slice(&e.rows.to_le_bytes());
            index_bytes.extend_from_slice(&e.edges.to_le_bytes());
        }
        let in_index_offset = out_index_offset + self.out_index.len() as u64 * INDEX_ENTRY_LEN;
        self.sink.write_all(&index_bytes)?;
        let total_len = self.cursor + index_bytes.len() as u64 + TRAILER_LEN;
        self.sink.write_all(&total_len.to_le_bytes())?;

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION_V4.to_le_bytes());
        header[16..24].copy_from_slice(&self.node_count.to_le_bytes());
        header[24..32].copy_from_slice(&self.edges_fed[0].to_le_bytes());
        header[32..40].copy_from_slice(&out_index_offset.to_le_bytes());
        header[40..48].copy_from_slice(&in_index_offset.to_le_bytes());
        header[48..52].copy_from_slice(&(self.out_index.len() as u32).to_le_bytes());
        header[52..56].copy_from_slice(&(self.in_index.len() as u32).to_le_bytes());
        let hcrc = crc32(&header[..HEADER_CRC_OFFSET]);
        header[56..60].copy_from_slice(&hcrc.to_le_bytes());
        self.sink.seek(SeekFrom::Start(0))?;
        self.sink.write_all(&header)?;
        self.sink.flush()?;
        let summary = V4Summary {
            file_bytes: total_len,
            edge_count: self.edges_fed[0],
            node_count: self.node_count,
            blocks: self.out_index.len() + self.in_index.len(),
        };
        Ok((summary, self.sink))
    }
}

/// Encodes `graph` as a v4 image in memory with the given block sizing.
pub fn graph_to_bytes_v4_with(graph: &Graph, config: V4Config) -> Result<Vec<u8>, GraphError> {
    let mut writer = V4Writer::new(std::io::Cursor::new(Vec::new()), graph.node_count(), config)?;
    for y in graph.nodes() {
        writer.push_row(graph.out_neighbors(y))?;
    }
    writer.finish_out()?;
    for y in graph.nodes() {
        writer.push_row(graph.in_neighbors(y))?;
    }
    let (_, sink) = writer.finish_into_inner()?;
    Ok(sink.into_inner())
}

/// Encodes `graph` as a v4 image with default block sizing.
pub fn graph_to_bytes_v4(graph: &Graph) -> Vec<u8> {
    // A valid in-memory Graph always encodes; the fallible paths are
    // row-count/edge-count mismatches a CSR cannot exhibit and sink I/O,
    // which an in-memory cursor cannot fail.
    graph_to_bytes_v4_with(graph, V4Config::default()).expect("encoding a valid graph cannot fail")
}

/// Reusable decode target of one block: a CSR slice over the block's
/// row range.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// First row this block covers.
    pub first_row: usize,
    /// Row count.
    pub rows: usize,
    /// `rows + 1` offsets into `targets`, relative to the block.
    pub offsets: Vec<u32>,
    /// Concatenated row targets.
    pub targets: Vec<NodeId>,
    /// The row decoder's interval list ([`varint::decode_row`]), kept
    /// here so a row with intervals allocates nothing.
    runs: Vec<(u64, u64)>,
}

impl BlockScratch {
    /// The target slice of row `first_row + i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[NodeId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Heap bytes a scratch sized for `rows`/`edges` holds: offsets,
    /// targets, and the longest interval list a row of `edges` targets
    /// can declare.
    pub fn bytes_for(rows: usize, edges: usize) -> usize {
        (rows + 1) * 4 + edges * 4 + edges / varint::MIN_RUN * 16
    }
}

/// A validated, lazily-CRC-checked view of a v4 image over any
/// [`ByteStore`] (an mmap or a loaded buffer). Decoding is pull-based:
/// the caller owns one [`BlockScratch`] and streams blocks through it.
pub struct CompressedImage {
    store: Arc<dyn ByteStore>,
    node_count: usize,
    edge_count: u64,
    out_blocks: Vec<BlockEntry>,
    in_blocks: Vec<BlockEntry>,
    /// First row of each block, per orientation (cumulative row sums).
    out_first_row: Vec<u64>,
    in_first_row: Vec<u64>,
    /// Per-block "CRC verified" bits, out blocks then in blocks. Lazy:
    /// a block is hashed on first decode, then trusted (the store is
    /// immutable).
    verified: Vec<std::sync::atomic::AtomicBool>,
    /// Encoded bytes handed out by `decode_block` so far (telemetry).
    encoded_bytes_read: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for CompressedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedImage")
            .field("node_count", &self.node_count)
            .field("edge_count", &self.edge_count)
            .field("out_blocks", &self.out_blocks.len())
            .field("in_blocks", &self.in_blocks.len())
            .finish()
    }
}

impl CompressedImage {
    /// Validates and opens a v4 image held in `store`.
    ///
    /// # Errors
    /// Typed [`GraphError::Corrupted`]/[`GraphError::Corrupt`] on any
    /// structural violation: bad magic/version, torn length sentinel,
    /// header CRC mismatch, out-of-bounds index windows, or
    /// row/edge totals that disagree with the header.
    pub fn from_store(store: Arc<dyn ByteStore>) -> Result<CompressedImage, GraphError> {
        let data = store.bytes();
        let min_len = HEADER_LEN + TRAILER_LEN;
        if (data.len() as u64) < min_len {
            return Err(GraphError::Corrupted {
                field: "length",
                expected: min_len,
                got: data.len() as u64,
            });
        }
        if &data[0..8] != MAGIC {
            return Err(GraphError::Corrupt("bad magic (not a SPAMGRPH image)".into()));
        }
        let version = get_u32(data, 8);
        if version != VERSION_V4 {
            return Err(GraphError::Corrupted {
                field: "version",
                expected: VERSION_V4 as u64,
                got: version as u64,
            });
        }
        let total = get_u64(data, data.len() - 8);
        if total != data.len() as u64 {
            return Err(GraphError::Corrupted {
                field: "length",
                expected: total,
                got: data.len() as u64,
            });
        }
        let stored_hcrc = get_u32(data, HEADER_CRC_OFFSET);
        let actual_hcrc = crc32(&data[..HEADER_CRC_OFFSET]);
        if stored_hcrc != actual_hcrc {
            return Err(GraphError::Corrupted {
                field: "crc32",
                expected: stored_hcrc as u64,
                got: actual_hcrc as u64,
            });
        }
        let node_count = get_u64(data, 16);
        let edge_count = get_u64(data, 24);
        if node_count > u32::MAX as u64 {
            return Err(GraphError::Corrupted {
                field: "node_count",
                expected: u32::MAX as u64,
                got: node_count,
            });
        }
        let out_index_offset = get_u64(data, 32);
        let in_index_offset = get_u64(data, 40);
        let out_count = get_u32(data, 48) as u64;
        let in_count = get_u32(data, 52) as u64;

        let index_end = in_index_offset
            .checked_add(in_count.checked_mul(INDEX_ENTRY_LEN).ok_or(GraphError::Corrupted {
                field: "index",
                expected: u32::MAX as u64,
                got: in_count,
            })?)
            .ok_or(GraphError::Corrupted { field: "index", expected: 0, got: in_index_offset })?;
        let expect_in_offset = out_index_offset + out_count * INDEX_ENTRY_LEN;
        if out_index_offset < HEADER_LEN
            || in_index_offset != expect_in_offset
            || index_end != data.len() as u64 - TRAILER_LEN
        {
            return Err(GraphError::Corrupted {
                field: "index",
                expected: expect_in_offset,
                got: in_index_offset,
            });
        }

        let read_index =
            |offset: u64, count: u64, data_end: u64| -> Result<Vec<BlockEntry>, GraphError> {
                let mut entries = Vec::with_capacity(count as usize);
                let mut cursor = HEADER_LEN;
                for i in 0..count {
                    let at = (offset + i * INDEX_ENTRY_LEN) as usize;
                    let e = BlockEntry {
                        offset: get_u64(data, at),
                        len: get_u32(data, at + 8),
                        crc: get_u32(data, at + 12),
                        rows: get_u32(data, at + 16),
                        edges: get_u32(data, at + 20),
                    };
                    // Blocks are packed in file order; each window must lie
                    // inside the data region and carry at least one row.
                    let end = e.offset.checked_add(e.len as u64).ok_or(GraphError::Corrupted {
                        field: "block_window",
                        expected: data_end,
                        got: e.offset,
                    })?;
                    if e.offset < cursor || end > data_end || e.rows == 0 {
                        return Err(GraphError::Corrupted {
                            field: "block_window",
                            expected: data_end,
                            got: end,
                        });
                    }
                    cursor = end;
                    entries.push(e);
                }
                Ok(entries)
            };
        let out_blocks = read_index(out_index_offset, out_count, out_index_offset)?;
        let in_blocks = read_index(in_index_offset, in_count, out_index_offset)?;

        let totals = |blocks: &[BlockEntry], name: &'static str| -> Result<Vec<u64>, GraphError> {
            let mut first = Vec::with_capacity(blocks.len() + 1);
            let mut rows = 0u64;
            let mut edges = 0u64;
            for b in blocks {
                first.push(rows);
                rows += b.rows as u64;
                edges += b.edges as u64;
            }
            first.push(rows);
            if rows != node_count || edges != edge_count {
                return Err(GraphError::Corrupted { field: name, expected: node_count, got: rows });
            }
            Ok(first)
        };
        let out_first_row = totals(&out_blocks, "out_rows")?;
        let in_first_row = totals(&in_blocks, "in_rows")?;
        // Empty graphs have zero blocks; everything else was checked.
        if node_count == 0 && (!out_blocks.is_empty() || !in_blocks.is_empty()) {
            return Err(GraphError::Corrupted {
                field: "out_rows",
                expected: 0,
                got: out_blocks.len() as u64,
            });
        }

        let verified = (0..out_blocks.len() + in_blocks.len())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        Ok(CompressedImage {
            store,
            node_count: node_count as usize,
            edge_count,
            out_blocks,
            in_blocks,
            out_first_row,
            in_first_row,
            verified,
            encoded_bytes_read: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Memory-maps and validates a v4 image file.
    ///
    /// # Errors
    /// I/O errors from mapping, plus everything
    /// [`from_store`](Self::from_store) rejects.
    #[cfg(unix)]
    pub fn open(path: &Path) -> Result<CompressedImage, GraphError> {
        let mapped = crate::retry::retry_io("graph.mmap", || crate::mmap::MappedFile::open(path))?;
        CompressedImage::from_store(Arc::new(mapped))
    }

    /// Nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Edges (per orientation).
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Encoded payload + framing bytes of the whole image.
    pub fn file_bytes(&self) -> u64 {
        self.store.bytes().len() as u64
    }

    /// Block count of one orientation.
    pub fn block_count(&self, orientation: Orientation) -> usize {
        self.index(orientation).len()
    }

    /// Largest `(rows, edges)` any single block of either orientation
    /// decodes to — the scratch sizing bound.
    pub fn max_block_dims(&self) -> (usize, usize) {
        self.out_blocks
            .iter()
            .chain(&self.in_blocks)
            .fold((0, 0), |(r, e), b| (r.max(b.rows as usize), e.max(b.edges as usize)))
    }

    /// Total encoded bytes `decode_block` has read so far (telemetry).
    pub fn encoded_bytes_read(&self) -> u64 {
        self.encoded_bytes_read.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn index(&self, orientation: Orientation) -> &[BlockEntry] {
        match orientation {
            Orientation::Out => &self.out_blocks,
            Orientation::In => &self.in_blocks,
        }
    }

    /// Row range `[start, end)` covered by block `idx`.
    pub fn block_rows(&self, orientation: Orientation, idx: usize) -> std::ops::Range<usize> {
        let first = match orientation {
            Orientation::Out => &self.out_first_row,
            Orientation::In => &self.in_first_row,
        };
        first[idx] as usize..first[idx + 1] as usize
    }

    /// What the index records of block `idx`: the `(rows, edges)` it
    /// decodes to and its encoded byte length.
    pub fn block_dims(&self, orientation: Orientation, idx: usize) -> (usize, usize, usize) {
        let entry = self.index(orientation)[idx];
        (entry.rows as usize, entry.edges as usize, entry.len as usize)
    }

    /// Decodes block `idx` of `orientation` into `scratch`, reusing its
    /// allocations. The block's CRC is verified on its first decode and
    /// trusted afterwards (the backing store is immutable).
    ///
    /// # Errors
    /// Typed corruption errors on CRC mismatch, truncated/overlong
    /// varints, out-of-range targets, or row/edge totals that disagree
    /// with the block's index entry.
    pub fn decode_block(
        &self,
        orientation: Orientation,
        idx: usize,
        scratch: &mut BlockScratch,
    ) -> Result<(), GraphError> {
        use std::sync::atomic::Ordering;
        let entry = self.index(orientation)[idx];
        let data = self.store.bytes();
        let buf = &data[entry.offset as usize..(entry.offset + entry.len as u64) as usize];
        let verified_at = match orientation {
            Orientation::Out => idx,
            Orientation::In => self.out_blocks.len() + idx,
        };
        if !self.verified[verified_at].load(Ordering::Relaxed) {
            let actual = crc32(buf);
            if actual != entry.crc {
                return Err(GraphError::Corrupted {
                    field: "crc32",
                    expected: entry.crc as u64,
                    got: actual as u64,
                });
            }
            self.verified[verified_at].store(true, Ordering::Relaxed);
        }
        self.encoded_bytes_read.fetch_add(entry.len as u64, Ordering::Relaxed);

        let range = self.block_rows(orientation, idx);
        scratch.first_row = range.start;
        scratch.rows = entry.rows as usize;
        scratch.offsets.clear();
        scratch.targets.clear();
        scratch.offsets.push(0);
        let mut pos = 0usize;
        for i in 0..entry.rows as usize {
            varint::decode_row(
                buf,
                &mut pos,
                (range.start + i) as u32,
                self.node_count as u64,
                entry.edges as u64,
                &mut scratch.runs,
                &mut scratch.targets,
            )?;
            if scratch.targets.len() > entry.edges as usize {
                return Err(GraphError::Corrupted {
                    field: "block_edges",
                    expected: entry.edges as u64,
                    got: scratch.targets.len() as u64,
                });
            }
            scratch.offsets.push(scratch.targets.len() as u32);
        }
        if pos != buf.len() || scratch.targets.len() != entry.edges as usize {
            return Err(GraphError::Corrupted {
                field: "block_edges",
                expected: entry.edges as u64,
                got: scratch.targets.len() as u64,
            });
        }
        Ok(())
    }

    /// Fully decodes the image into an in-memory [`Graph`], one
    /// orientation per thread (both validated by
    /// `Graph::from_csr_parts`). Needs RAM for the whole CSR — the
    /// in-memory comparison path, not the streaming one.
    ///
    /// # Errors
    /// Decode errors, plus CSR validation failures when the two
    /// orientations are not transposes of each other.
    pub fn decode_graph(&self) -> Result<Graph, GraphError> {
        if self.edge_count > u32::MAX as u64 {
            return Err(GraphError::TooManyEdges { count: self.edge_count as usize });
        }
        let n = self.node_count;
        let decode_side = |orientation: Orientation| -> Result<(Vec<u32>, Vec<u32>), GraphError> {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut targets: Vec<u32> = Vec::with_capacity(self.edge_count as usize);
            offsets.push(0u32);
            let mut scratch = BlockScratch::default();
            for idx in 0..self.block_count(orientation) {
                self.decode_block(orientation, idx, &mut scratch)?;
                for i in 0..scratch.rows {
                    for t in scratch.row(i) {
                        targets.push(t.0);
                    }
                    offsets.push(targets.len() as u32);
                }
            }
            Ok((offsets, targets))
        };
        let (out, inn) = crate::graph::per_orientation(
            || decode_side(Orientation::Out),
            || decode_side(Orientation::In),
        );
        let ((out_offsets, out_targets), (in_offsets, in_sources)) = (out?, inn?);
        Graph::from_csr_parts(
            n,
            out_offsets.into(),
            crate::storage::NodeStore::from(out_targets),
            in_offsets.into(),
            crate::storage::NodeStore::from(in_sources),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::io;

    fn sample_graph() -> Graph {
        GraphBuilder::from_edges(
            6,
            &[(0, 1), (0, 2), (0, 5), (1, 2), (2, 0), (3, 4), (4, 3), (5, 0), (5, 1)],
        )
    }

    #[test]
    fn round_trips_through_v4() {
        let g = sample_graph();
        let bytes = graph_to_bytes_v4(&g);
        let image = CompressedImage::from_store(Arc::new(bytes)).unwrap();
        assert_eq!(image.node_count(), 6);
        assert_eq!(image.edge_count(), 9);
        let decoded = image.decode_graph().unwrap();
        assert_eq!(decoded.node_count(), g.node_count());
        assert_eq!(decoded.edge_count(), g.edge_count());
        for y in g.nodes() {
            assert_eq!(decoded.out_neighbors(y), g.out_neighbors(y));
            assert_eq!(decoded.in_neighbors(y), g.in_neighbors(y));
        }
    }

    #[test]
    fn tiny_blocks_split_and_still_round_trip() {
        let g = sample_graph();
        let cfg = V4Config { rows_per_block: 2, edges_per_block: 3 };
        let bytes = graph_to_bytes_v4_with(&g, cfg).unwrap();
        let image = CompressedImage::from_store(Arc::new(bytes)).unwrap();
        assert!(image.block_count(Orientation::Out) >= 3, "{image:?}");
        let decoded = image.decode_graph().unwrap();
        for y in g.nodes() {
            assert_eq!(decoded.out_neighbors(y), g.out_neighbors(y));
        }
        let (max_rows, max_edges) = image.max_block_dims();
        assert!(max_rows <= 2 && max_edges <= 3, "{max_rows} rows, {max_edges} edges");
    }

    #[test]
    fn corrupt_block_is_a_typed_error() {
        let g = sample_graph();
        let mut bytes = graph_to_bytes_v4(&g);
        // Flip a bit inside the data region (after the header).
        bytes[HEADER_LEN as usize + 2] ^= 0x40;
        let image = CompressedImage::from_store(Arc::new(bytes)).unwrap();
        let mut scratch = BlockScratch::default();
        let err = image.decode_block(Orientation::Out, 0, &mut scratch).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn truncated_image_is_a_typed_error() {
        let g = sample_graph();
        let bytes = graph_to_bytes_v4(&g);
        for cut in [0, 8, HEADER_LEN as usize - 1, bytes.len() - 1] {
            let torn = bytes[..cut].to_vec();
            let err = CompressedImage::from_store(Arc::new(torn)).unwrap_err();
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn header_tampering_is_detected() {
        let g = sample_graph();
        let base = graph_to_bytes_v4(&g);
        for at in [9usize, 17, 25, 33, 49] {
            let mut bytes = base.clone();
            bytes[at] ^= 0xFF;
            assert!(
                CompressedImage::from_store(Arc::new(bytes)).is_err(),
                "byte {at} tampering undetected"
            );
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::from_edges(0, &[]);
        let bytes = graph_to_bytes_v4(&g);
        let image = CompressedImage::from_store(Arc::new(bytes)).unwrap();
        assert_eq!(image.node_count(), 0);
        assert_eq!(image.decode_graph().unwrap().edge_count(), 0);
    }

    #[test]
    fn v4_matches_v3_csr_exactly() {
        let g = sample_graph();
        let (v3, _) = io::graph_from_image(Arc::new(io::graph_to_bytes_v3(&g))).unwrap();
        let v4 = CompressedImage::from_store(Arc::new(graph_to_bytes_v4(&g)))
            .unwrap()
            .decode_graph()
            .unwrap();
        assert_eq!(v3.out_offsets(), v4.out_offsets());
        assert_eq!(v3.out_targets(), v4.out_targets());
        assert_eq!(v3.in_offsets(), v4.in_offsets());
        assert_eq!(v3.in_sources(), v4.in_sources());
    }

    #[test]
    fn bits_per_edge_is_small_on_clustered_targets() {
        // Local links (small deltas → one payload byte per edge), the
        // regime degree order produces.
        let mut b = GraphBuilder::new(2000);
        for y in 0..1996u32 {
            for t in y + 1..=y + 4 {
                b.add_edge(NodeId(y), NodeId(t));
            }
        }
        let g = b.build();
        let bytes = graph_to_bytes_v4(&g);
        let summary_bits = (bytes.len() * 8) as f64 / (2 * g.edge_count()) as f64;
        assert!(summary_bits < 16.0, "{summary_bits} bits/edge");
    }

    #[test]
    fn the_writer_summary_describes_the_image_it_wrote() {
        let g = sample_graph();
        let config = V4Config { rows_per_block: 2, edges_per_block: 3 };
        let mut writer =
            V4Writer::new(std::io::Cursor::new(Vec::new()), g.node_count(), config).unwrap();
        for y in g.nodes() {
            writer.push_row(g.out_neighbors(y)).unwrap();
        }
        writer.finish_out().unwrap();
        for y in g.nodes() {
            writer.push_row(g.in_neighbors(y)).unwrap();
        }
        let (summary, sink) = writer.finish_into_inner().unwrap();
        let bytes = sink.into_inner();
        assert_eq!(bytes, graph_to_bytes_v4_with(&g, config).unwrap());

        let image = CompressedImage::from_store(Arc::new(bytes)).unwrap();
        assert_eq!(summary.file_bytes, image.file_bytes());
        assert_eq!((summary.node_count, summary.edge_count), (6, 9));
        let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
        assert_eq!(summary.blocks, blocks);
        let bits = summary.bits_per_edge();
        assert!((bits - (summary.file_bytes * 8) as f64 / 18.0).abs() < 1e-12, "{bits}");
        let empty = V4Summary { file_bytes: 80, edge_count: 0, node_count: 3, blocks: 0 };
        assert_eq!(empty.bits_per_edge(), 0.0);
    }

    #[test]
    fn the_writer_refuses_rows_out_of_order() {
        let sink = || std::io::Cursor::new(Vec::new());
        let config = V4Config::default();
        let row: &[NodeId] = &[NodeId(1)];

        // A third row on a two-node image.
        let mut w = V4Writer::new(sink(), 2, config).unwrap();
        w.push_row(row).unwrap();
        w.push_row(&[]).unwrap();
        assert!(w.push_row(&[]).is_err());

        // The out side closed before every row arrived, then twice.
        let mut w = V4Writer::new(sink(), 2, config).unwrap();
        w.push_row(row).unwrap();
        assert!(w.finish_out().is_err());
        w.push_row(&[]).unwrap();
        w.finish_out().unwrap();
        assert!(w.finish_out().is_err());

        // The in side short of rows, then disagreeing on the edge count.
        w.push_row(&[]).unwrap();
        assert!(w.finish().is_err());
        let mut w = V4Writer::new(sink(), 2, config).unwrap();
        w.push_row(row).unwrap();
        w.push_row(&[]).unwrap();
        w.finish_out().unwrap();
        w.push_row(&[]).unwrap();
        w.push_row(&[]).unwrap();
        assert!(w.finish().is_err());

        assert!(
            V4Writer::new(sink(), 2, V4Config { rows_per_block: 0, edges_per_block: 1 }).is_err()
        );
    }

    #[test]
    fn the_block_index_tiles_every_row_and_edge() {
        let g = sample_graph();
        let config = V4Config { rows_per_block: 2, edges_per_block: 3 };
        let image =
            CompressedImage::from_store(Arc::new(graph_to_bytes_v4_with(&g, config).unwrap()))
                .unwrap();
        let mut widest = (0, 0);
        for orientation in [Orientation::Out, Orientation::In] {
            let (mut next_row, mut edges) = (0, 0);
            for idx in 0..image.block_count(orientation) {
                let rows = image.block_rows(orientation, idx);
                let (row_count, edge_count, len) = image.block_dims(orientation, idx);
                assert_eq!(rows.start, next_row, "{orientation:?} block {idx}");
                assert_eq!(rows.len(), row_count, "{orientation:?} block {idx}");
                assert!(len > 0 && (len as u64) < image.file_bytes());
                next_row = rows.end;
                edges += edge_count;
                widest = (widest.0.max(row_count), widest.1.max(edge_count));
            }
            assert_eq!(next_row, g.node_count(), "{orientation:?}");
            assert_eq!(edges, g.edge_count(), "{orientation:?}");
        }
        assert_eq!(image.max_block_dims(), widest);
    }

    #[test]
    fn decoding_counts_the_encoded_bytes_it_reads() {
        let g = sample_graph();
        let config = V4Config { rows_per_block: 2, edges_per_block: 3 };
        let image =
            CompressedImage::from_store(Arc::new(graph_to_bytes_v4_with(&g, config).unwrap()))
                .unwrap();
        assert_eq!(image.encoded_bytes_read(), 0);
        let mut scratch = BlockScratch::default();
        image.decode_block(Orientation::In, 1, &mut scratch).unwrap();
        let one = image.block_dims(Orientation::In, 1).2 as u64;
        assert_eq!(image.encoded_bytes_read(), one);

        let payload: u64 = [Orientation::Out, Orientation::In]
            .into_iter()
            .flat_map(|o| (0..image.block_count(o)).map(move |idx| (o, idx)))
            .map(|(o, idx)| image.block_dims(o, idx).2 as u64)
            .sum();
        image.decode_graph().unwrap();
        assert_eq!(image.encoded_bytes_read(), one + payload);
    }
}
