//! Property-based invariants of the v4 compression codec.
//!
//! Three layers, three contracts:
//!
//! * **varint/delta row codec** — round-trips every `u64`, including
//!   the `2^7k ± 1` boundary values where the byte width changes, and
//!   never panics or over-reads on truncated or garbage input: every
//!   failure is a typed [`GraphError::Corrupted`].
//! * **v4 block format** — any graph that encodes must decode back to
//!   a CSR *bit-identical* to the v3 round-trip of the same graph
//!   (offsets, targets, sources — not just isomorphic).
//! * **adversarial images** — arbitrary single-byte mutations of a
//!   valid image must either load to the identical graph (mutations in
//!   dead padding) or fail with a typed corruption error; they must
//!   never panic, hang, or silently return a different graph.

use proptest::prelude::*;
use spammass_graph::varint::{
    decode_row, encode_row, read_varint, write_varint, MAX_VARINT_LEN, MIN_RUN,
};
use spammass_graph::{
    graph_to_bytes_v4, graph_to_bytes_v4_with, io, CompressedImage, Graph, GraphBuilder,
    GraphError, NodeId, V4Config,
};
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..=64).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..256).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for &(f, t) in &edges {
                b.add_edge(NodeId(f), NodeId(t));
            }
            b.build()
        })
    })
}

/// Byte-width boundaries of LEB128: `2^(7k)` needs one more byte than
/// `2^(7k) − 1`.
#[test]
fn varint_boundary_widths_round_trip() {
    for k in 0..10u32 {
        let boundary = 1u64 << (7 * k);
        for value in [boundary.saturating_sub(1), boundary, boundary + 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            assert!(buf.len() <= MAX_VARINT_LEN);
            if value >= boundary && value < u64::MAX {
                assert!(
                    buf.len() >= (k as usize + 1).min(MAX_VARINT_LEN),
                    "2^(7·{k}) must take more than {k} bytes"
                );
            }
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
            assert_eq!(pos, buf.len(), "decoder must consume exactly the encoding");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varint_round_trips_any_value(value in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_varints_are_typed_errors(value in any::<u64>(), cut in 0usize..10) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        prop_assume!(cut < buf.len());
        buf.truncate(cut);
        let mut pos = 0;
        match read_varint(&buf, &mut pos) {
            Err(e) => prop_assert!(e.is_corruption(), "unexpected error class: {e:?}"),
            Ok(_) => prop_assert!(false, "truncated varint decoded"),
        }
    }

    #[test]
    fn garbage_never_panics_the_varint_reader(bytes in proptest::collection::vec(0u8..=255, 0..24)) {
        let mut pos = 0;
        // Any outcome is fine except a panic or an out-of-bounds read.
        let _ = read_varint(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn rows_round_trip(
        mut targets in proptest::collection::vec(0u32..1_000_000, 0..200),
        source in 0u32..1_000_000,
    ) {
        targets.sort_unstable();
        targets.dedup();
        let row: Vec<NodeId> = targets.iter().copied().map(NodeId).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        let mut pos = 0;
        let mut decoded = Vec::new();
        let max_degree = row.len() as u64;
        decode_row(&buf, &mut pos, source, 1_000_000, max_degree, &mut Vec::new(), &mut decoded)
            .unwrap();
        prop_assert_eq!(decoded, row);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn run_heavy_rows_round_trip_and_stay_small(
        starts in proptest::collection::vec(0u32..100_000, 1..8),
        lens in proptest::collection::vec(MIN_RUN as u32..64, 1..8),
        source in 0u32..100_000,
    ) {
        // Unioned consecutive runs: the interval path end to end, with
        // overlapping inputs collapsing into longer runs.
        let mut targets: Vec<u32> = Vec::new();
        for (&s, &l) in starts.iter().zip(&lens) {
            targets.extend(s..s + l);
        }
        targets.sort_unstable();
        targets.dedup();
        let row: Vec<NodeId> = targets.iter().copied().map(NodeId).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        // Intervals cost a handful of bytes per run, never one per edge.
        prop_assert!(buf.len() <= 2 + starts.len() * 11);
        let mut pos = 0;
        let mut decoded = Vec::new();
        let max_degree = row.len() as u64;
        decode_row(&buf, &mut pos, source, 200_000, max_degree, &mut Vec::new(), &mut decoded)
            .unwrap();
        prop_assert_eq!(decoded, row);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn garbage_rows_are_errors_not_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let mut pos = 0;
        let mut decoded = Vec::new();
        // Tight node/degree caps so random degrees mostly trip validation.
        let _ = decode_row(&bytes, &mut pos, 17, 1_000, 100, &mut Vec::new(), &mut decoded);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn v4_decodes_to_the_exact_v3_csr(graph in arb_graph()) {
        let via_v4 = CompressedImage::from_store(Arc::new(graph_to_bytes_v4(&graph)))
            .unwrap()
            .decode_graph()
            .unwrap();
        let (via_v3, _) = io::graph_from_image(Arc::new(io::graph_to_bytes_v3(&graph))).unwrap();
        prop_assert_eq!(via_v4.node_count(), via_v3.node_count());
        prop_assert_eq!(via_v4.edge_count(), via_v3.edge_count());
        prop_assert_eq!(via_v4.out_offsets(), via_v3.out_offsets());
        prop_assert_eq!(via_v4.out_targets(), via_v3.out_targets());
        prop_assert_eq!(via_v4.in_offsets(), via_v3.in_offsets());
        prop_assert_eq!(via_v4.in_sources(), via_v3.in_sources());
    }

    #[test]
    fn v4_round_trips_under_any_block_geometry(
        graph in arb_graph(),
        rows in 1u32..8,
        edges in 1u32..16,
    ) {
        let config = V4Config { rows_per_block: rows, edges_per_block: edges };
        let bytes = graph_to_bytes_v4_with(&graph, config).unwrap();
        let decoded = CompressedImage::from_store(Arc::new(bytes)).unwrap().decode_graph().unwrap();
        prop_assert_eq!(decoded.out_offsets(), graph.out_offsets());
        prop_assert_eq!(decoded.out_targets(), graph.out_targets());
        prop_assert_eq!(decoded.in_offsets(), graph.in_offsets());
        prop_assert_eq!(decoded.in_sources(), graph.in_sources());
    }

    #[test]
    fn single_byte_mutations_never_panic_or_lie(
        graph in arb_graph(),
        at in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let clean = graph_to_bytes_v4(&graph);
        let mut bytes = clean.clone();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= xor;
        match CompressedImage::from_store(Arc::new(bytes)).and_then(|i| i.decode_graph()) {
            // A mutation that survives validation must land in dead bytes
            // (header padding) and decode to the identical graph.
            Ok(decoded) => {
                prop_assert_eq!(decoded.out_offsets(), graph.out_offsets());
                prop_assert_eq!(decoded.out_targets(), graph.out_targets());
                prop_assert_eq!(decoded.in_offsets(), graph.in_offsets());
                prop_assert_eq!(decoded.in_sources(), graph.in_sources());
            }
            Err(e) => prop_assert!(e.is_corruption(), "unexpected error class: {e:?}"),
        }
    }

    #[test]
    fn truncated_images_are_typed_errors(graph in arb_graph(), keep in any::<u64>()) {
        let clean = graph_to_bytes_v4(&graph);
        let keep = (keep % clean.len() as u64) as usize; // strictly shorter than the image
        let err = CompressedImage::from_store(Arc::new(clean[..keep].to_vec()))
            .and_then(|i| i.decode_graph())
            .expect_err("truncated image validated");
        prop_assert!(err.is_corruption(), "unexpected error class: {err:?}");
    }
}

/// The corrupted-row path through `decode_row`: a degree that overruns
/// the declared node count or degree cap is a typed error.
#[test]
fn out_of_range_rows_are_corrupted_errors() {
    let row: Vec<NodeId> = vec![NodeId(5), NodeId(90)];
    let mut buf = Vec::new();
    encode_row(&mut buf, 3, &row);
    let mut out = Vec::new();
    // Node-count cap below the largest target.
    let mut pos = 0;
    let err = decode_row(&buf, &mut pos, 3, 80, 10, &mut Vec::new(), &mut out).unwrap_err();
    assert!(matches!(err, GraphError::Corrupted { field: "edge_target", .. }), "{err:?}");
    // Degree cap below the actual degree.
    let mut pos = 0;
    let err = decode_row(&buf, &mut pos, 3, 100, 1, &mut Vec::new(), &mut out).unwrap_err();
    assert!(matches!(err, GraphError::Corrupted { field: "row_degree", .. }), "{err:?}");
}

// ---------------------------------------------------------------------
// Differential test of `decode_row` against a plain model decoder.
//
// The production decoder reads most varints through a one-byte fast
// path, keeps its interval list in caller-owned scratch and emits a run
// as one range-extend checked at its two ends. The model below does none
// of that: a plain LEB128 loop, a fresh `Vec` of intervals per row, and
// every emitted target — run member or residual — through the same two
// per-element tests. On any input the two must agree: the same targets
// and the same bytes consumed, or the same `Corrupted { field }`.
// ---------------------------------------------------------------------

fn model_varint(buf: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let start = *pos;
    let (mut value, mut shift) = (0u64, 0u32);
    loop {
        let byte = *buf.get(*pos).ok_or("varint")?;
        *pos += 1;
        let payload = u64::from(byte & 0x7F);
        if shift == 63 && payload > 1 {
            return Err("varint_width");
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if *pos - start >= MAX_VARINT_LEN {
            return Err("varint_width");
        }
    }
}

fn model_zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn model_unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// First id of a section, zigzag-relative to the source; anything
/// unrepresentable becomes `u64::MAX`, which the range test rejects.
fn model_first(source: u32, raw: u64) -> u64 {
    match i64::from(source).checked_add(model_unzigzag(raw)) {
        Some(s) if s >= 0 => s as u64,
        _ => u64::MAX,
    }
}

fn model_row(
    buf: &[u8],
    pos: &mut usize,
    source: u32,
    node_count: u64,
    max_degree: u64,
) -> Result<Vec<u32>, &'static str> {
    let degree = model_varint(buf, pos)?;
    if degree > max_degree {
        return Err("row_degree");
    }
    if degree == 0 {
        return Ok(Vec::new());
    }
    let interval_count = model_varint(buf, pos)?;
    if interval_count > degree / MIN_RUN as u64 {
        return Err("interval_count");
    }
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut covered = 0u64;
    let mut prev_end: Option<u64> = None;
    for _ in 0..interval_count {
        let raw = model_varint(buf, pos)?;
        let start = match prev_end {
            None => model_first(source, raw),
            Some(pe) => pe.checked_add(raw).and_then(|v| v.checked_add(2)).unwrap_or(u64::MAX),
        };
        let len = model_varint(buf, pos)?.checked_add(MIN_RUN as u64).ok_or("interval_len")?;
        covered = covered.saturating_add(len);
        if covered > degree {
            return Err("interval_len");
        }
        let end = start.saturating_add(len - 1);
        if end >= node_count {
            return Err("edge_target");
        }
        runs.push((start, len));
        prev_end = Some(end);
    }
    let mut out: Vec<u32> = Vec::new();
    let mut last: Option<u64> = None;
    let mut emit = |t: u64, out: &mut Vec<u32>| -> Result<(), &'static str> {
        if t >= node_count {
            return Err("edge_target");
        }
        if last.is_some_and(|p| t <= p) {
            return Err("edge_order");
        }
        last = Some(t);
        out.push(t as u32);
        Ok(())
    };
    let mut next_run = 0usize;
    let mut prev_res: Option<u64> = None;
    for _ in 0..degree - covered {
        let raw = model_varint(buf, pos)?;
        let r = match prev_res {
            None => model_first(source, raw),
            Some(p) => p.checked_add(raw).and_then(|v| v.checked_add(1)).unwrap_or(u64::MAX),
        };
        while next_run < runs.len() && runs[next_run].0 < r {
            let (start, len) = runs[next_run];
            for t in start..start + len {
                emit(t, &mut out)?;
            }
            next_run += 1;
        }
        emit(r, &mut out)?;
        prev_res = Some(r);
    }
    for &(start, len) in &runs[next_run..] {
        for t in start..start + len {
            emit(t, &mut out)?;
        }
    }
    Ok(out)
}

/// Runs both decoders on `buf` and demands agreement; returns the shared
/// outcome. The production side reuses `runs` across calls, as a block
/// decode does, so stale scratch content must never leak into a row.
fn decode_both(
    buf: &[u8],
    source: u32,
    node_count: u64,
    max_degree: u64,
    runs: &mut Vec<(u64, u64)>,
) -> Result<Vec<u32>, &'static str> {
    let mut model_pos = 0;
    let model = model_row(buf, &mut model_pos, source, node_count, max_degree);
    let mut pos = 0;
    let mut targets = Vec::new();
    let real = decode_row(buf, &mut pos, source, node_count, max_degree, runs, &mut targets);
    match (&model, real) {
        (Ok(expected), Ok(degree)) => {
            let got: Vec<u32> = targets.iter().map(|t| t.0).collect();
            assert_eq!(&got, expected, "targets differ on {buf:?}");
            assert_eq!(degree, expected.len(), "degree differs on {buf:?}");
            assert_eq!(pos, model_pos, "bytes consumed differ on {buf:?}");
        }
        (Err(expected), Err(GraphError::Corrupted { field, .. })) => {
            assert_eq!(field, *expected, "error field differs on {buf:?}");
        }
        (model, real) => panic!("model {model:?} vs decoder {real:?} on {buf:?}"),
    }
    model
}

/// A sorted duplicate-free row built from `(gap, len)` segments: `gap`
/// ids skipped, then `len` consecutive ids. Long segments become
/// intervals, short ones residuals; `gap == 0` fuses neighbours.
fn row_from_segments(first: u32, segments: &[(u32, u32)]) -> Vec<NodeId> {
    let mut row = Vec::new();
    let mut cursor = first;
    for &(gap, len) in segments {
        cursor += gap;
        row.extend((cursor..cursor + len).map(NodeId));
        cursor += len + 1;
    }
    row
}

/// Row shapes: run-heavy, residual-heavy and mixed.
fn arb_segments() -> impl Strategy<Value = Vec<(u32, u32)>> {
    let min_run = MIN_RUN as u32;
    (0u32..3, proptest::collection::vec((0u32..300, 0u32..48), 0..32)).prop_map(
        move |(shape, raw)| {
            raw.into_iter()
                .map(|(gap, len)| match shape {
                    0 => (gap % 40, min_run + len % 44),
                    1 => (gap, 1 + len % (min_run - 1)),
                    _ => (gap, len.max(1)),
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_row_matches_the_model_on_valid_rows(
        first in 0u32..5_000,
        segments in arb_segments(),
        source_at in 0usize..4,
        headroom in 0u64..3,
        degree_slack in 0u64..2,
    ) {
        let row = row_from_segments(first, &segments);
        let top = row.last().map_or(0, |t| t.0);
        // `source` below, inside, just above and far above the targets.
        let source = [0, first + (top - first.min(top)) / 2, top + 1, top + 100_000][source_at];
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        let mut runs = vec![(u64::MAX, u64::MAX); 3]; // stale scratch
        // headroom 0: the row's last id is the last valid id.
        let (node_count, degree) = (u64::from(top) + 1, row.len() as u64);
        let decoded =
            decode_both(&buf, source, node_count + headroom, degree + degree_slack, &mut runs);
        let expected: Vec<u32> = row.iter().map(|t| t.0).collect();
        prop_assert_eq!(decoded, Ok(expected));
        // The same bytes under tighter caps: both must name the same field.
        if !row.is_empty() {
            prop_assert!(decode_both(&buf, source, node_count - 1, degree, &mut runs).is_err());
            prop_assert_eq!(
                decode_both(&buf, source, node_count, degree - 1, &mut runs),
                Err("row_degree")
            );
        }
    }

    #[test]
    fn decode_row_matches_the_model_on_damaged_rows(
        first in 0u32..5_000,
        segments in arb_segments(),
        source_offset in 0u32..64,
        at in any::<u32>(),
        replacement in 0u8..=255,
        cut in any::<u32>(),
    ) {
        let row = row_from_segments(first, &segments);
        // A source inside the row's first ids: a damaged source-relative
        // start lands among the targets, not far outside them.
        let source = first + source_offset;
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        let mut runs = Vec::new();
        // One byte replaced, then the tail cut off: deep corruptions that
        // still parse most of the way.
        let at = at as usize % buf.len();
        buf[at] = replacement;
        decode_both(&buf, source, 20_000, 2_000, &mut runs).ok();
        buf.truncate(cut as usize % (buf.len() + 1));
        decode_both(&buf, source, 20_000, 2_000, &mut runs).ok();
    }

    #[test]
    fn decode_row_matches_the_model_on_colliding_sections(
        source in 0u32..100,
        first_run in 0u32..120,
        run_shapes in proptest::collection::vec((0u64..12, 0u64..6), 0..4),
        first_residual in 0u32..120,
        residual_gaps in proptest::collection::vec(0u64..10, 0..12),
        node_count in 60u64..200,
    ) {
        // Well-formed wire rows whose two sections are drawn
        // independently in a small id space, so residuals routinely land
        // before, inside, between and after the runs, and runs routinely
        // cross `node_count`.
        let residuals = residual_gaps.len() as u64;
        let covered: u64 = run_shapes.iter().map(|&(_, extra)| MIN_RUN as u64 + extra).sum();
        let mut buf = Vec::new();
        write_varint(&mut buf, covered + residuals);
        if covered + residuals > 0 {
            write_varint(&mut buf, run_shapes.len() as u64);
        }
        for (i, &(gap, extra)) in run_shapes.iter().enumerate() {
            let first = model_zigzag(i64::from(first_run) - i64::from(source));
            write_varint(&mut buf, if i == 0 { first } else { gap });
            write_varint(&mut buf, extra);
        }
        for (i, &gap) in residual_gaps.iter().enumerate() {
            let first = model_zigzag(i64::from(first_residual) - i64::from(source));
            write_varint(&mut buf, if i == 0 { first } else { gap });
        }
        let mut runs = Vec::new();
        decode_both(&buf, source, node_count, 64, &mut runs).ok();
    }

    #[test]
    fn decode_row_matches_the_model_on_garbage(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
        small in proptest::collection::vec(0u8..0x90, 0..64),
        source in 0u32..2_000,
    ) {
        let mut runs = Vec::new();
        decode_both(&bytes, source, 1_000, 100, &mut runs).ok();
        // Mostly one-byte varints: garbage that gets past the degree and
        // interval headers into the merge.
        decode_both(&small, source, 1_000, 100, &mut runs).ok();
    }
}

/// Hand-built rows for the places the fast decoder differs from the
/// per-element one.
#[test]
fn decode_row_matches_the_model_on_hand_built_rows() {
    let build = |values: &[u64]| {
        let mut buf = Vec::new();
        for &v in values {
            write_varint(&mut buf, v);
        }
        buf
    };
    let mut runs = Vec::new();

    // Interval [20, 28) with a residual landing inside it, at its first
    // id, and at its last id.
    for inside in [24, 20, 27] {
        let buf = build(&[9, 1, model_zigzag(20), 4, model_zigzag(inside)]);
        assert_eq!(decode_both(&buf, 0, 1_000, 64, &mut runs), Err("edge_order"), "{inside}");
    }
    // Residuals just outside the same interval are fine.
    let buf = build(&[10, 1, model_zigzag(20), 4, model_zigzag(19), 8]); // 19, then 19 + 8 + 1 = 28
    let expected: Vec<u32> = (19..=28).collect();
    assert_eq!(decode_both(&buf, 0, 1_000, 64, &mut runs), Ok(expected));

    // Two runs: the gap code places a later run at `prev_end + 2 + gap`,
    // so it cannot reach back over an earlier one — gap 0 leaves one id
    // between them, and a gap chosen to wrap `u64` is an out-of-range
    // target, not an overlap.
    let buf = build(&[8, 2, model_zigzag(10), 0, 0, 0]); // [10, 14) and [15, 19)
    assert_eq!(
        decode_both(&buf, 0, 1_000, 64, &mut runs),
        Ok(vec![10, 11, 12, 13, 15, 16, 17, 18])
    );
    let buf = build(&[8, 2, model_zigzag(10), 0, u64::MAX - 12, 0]); // 13 + gap + 2 wraps to 2
    assert_eq!(decode_both(&buf, 0, 1_000, 64, &mut runs), Err("edge_target"));
    // A first run placed below id 0 by its source-relative start.
    let buf = build(&[4, 1, model_zigzag(-6), 0]);
    assert_eq!(decode_both(&buf, 5, 1_000, 64, &mut runs), Err("edge_target"));

    // A run whose last id is the last valid id, and one id further.
    let buf = build(&[6, 1, model_zigzag(94), 2]); // [94, 100)
    assert_eq!(decode_both(&buf, 0, 100, 64, &mut runs), Ok((94..100).collect()));
    assert_eq!(decode_both(&buf, 0, 99, 64, &mut runs), Err("edge_target"));

    // Every varint width after a one-byte degree: a residual gap of k
    // bytes. Gaps past the id space are out-of-range targets; the reader
    // itself must take all ten widths and nothing wider.
    for k in 2..=MAX_VARINT_LEN as u32 {
        let gap = 1u64 << (7 * (k - 1)).min(63);
        let buf = build(&[2, 0, model_zigzag(3), gap]);
        assert_eq!(buf.len(), 3 + k as usize);
        let outcome = decode_both(&buf, 0, 1 << 32, 64, &mut runs);
        match u32::try_from(3 + gap + 1) {
            Ok(second) => assert_eq!(outcome, Ok(vec![3, second]), "{k}-byte gap"),
            Err(_) => assert_eq!(outcome, Err("edge_target"), "{k}-byte gap"),
        }
    }
    // Overlong but in-range (a padded zero), an eleventh byte, a tenth
    // byte carrying more than the last bit, and a cut inside a gap.
    let mut padded = build(&[2, 0, model_zigzag(3)]);
    padded.extend([0x80, 0x80, 0x00]);
    assert_eq!(decode_both(&padded, 0, 100, 64, &mut runs), Ok(vec![3, 4]));
    let mut eleven = build(&[2, 0, model_zigzag(3)]);
    eleven.extend([0x80; 11]);
    assert_eq!(decode_both(&eleven, 0, 100, 64, &mut runs), Err("varint_width"));
    let mut overflow = build(&[2, 0, model_zigzag(3)]);
    overflow.extend([0xFF; 9]);
    overflow.push(0x02);
    assert_eq!(decode_both(&overflow, 0, 100, 64, &mut runs), Err("varint_width"));
    let mut cut = build(&[2, 0, model_zigzag(3), 300]);
    cut.pop();
    assert_eq!(decode_both(&cut, 0, 1_000, 64, &mut runs), Err("varint"));
}
