//! LEB128 varints and the per-row delta codec of the SPAMGRPH v4
//! compressed section format.
//!
//! An adjacency row is stored as `varint(degree)` followed by two
//! sections, both optional when empty:
//!
//! * **intervals** — maximal runs of consecutive target ids at least
//!   [`MIN_RUN`] long, each stored as a start plus `varint(len −
//!   MIN_RUN)`. The first start is zigzag-encoded *relative to the
//!   source row id* (template/neighbor links land within a few ids of
//!   their source, so this is usually one byte); later starts are
//!   gap-coded against the previous interval's end (maximal runs are ≥ 2
//!   apart by definition, so `start − prev_end − 2` is lossless).
//! * **residuals** — every target not covered by an interval, the first
//!   zigzag-relative to the source, the rest as `varint(gap − 1)` (gaps
//!   are ≥ 1 because CSR rows are sorted and duplicate-free).
//!
//! The split is the WebGraph insight (Boldi & Vigna, WWW '04): web-ish
//! graphs are compressible not because links are *random and near* but
//! because template navigation makes whole id ranges co-cited. Runs cost
//! a couple of bytes regardless of length, so a 20-link nav row encodes
//! in ~4 bytes, while one-off links degrade gracefully to plain gap
//! coding. Under degree order (`spammass convert --order degree`)
//! equal-degree node groups keep their relative order, so the runs
//! survive renumbering.
//!
//! Decoding is fully defensive: every read is bounds-checked and every
//! structural violation (truncation, overlong varint, out-of-range,
//! overlapping or non-increasing target) is a typed
//! [`GraphError::Corrupted`], never a panic — adversarial images must
//! fail loudly (pinned by the codec property tests).

use crate::error::GraphError;
use crate::node::NodeId;

/// Longest accepted varint: 10 bytes carry up to 70 payload bits, enough
/// for any `u64`. An 11th continuation byte is a corruption signal, not
/// a bigger number.
pub const MAX_VARINT_LEN: usize = 10;

/// Shortest run of consecutive target ids encoded as an interval.
/// Below this, plain gap coding is at least as small (WebGraph's
/// default minimum interval length).
pub const MIN_RUN: usize = 4;

/// Appends `value` as an LEB128 varint (7 bits per byte, MSB =
/// continuation).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint from `buf` starting at `*pos`, advancing `*pos` past
/// it.
///
/// # Errors
/// [`GraphError::Corrupted`] with field `"varint"` on truncation and
/// `"varint_width"` on an overlong or `u64`-overflowing encoding.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, GraphError> {
    // Degrees, gaps and run lengths are almost always below 128: one
    // bounds-checked byte, no loop state. Everything else — longer
    // encodings, truncation — takes the general loop from the same
    // position.
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(byte as u64)
        }
        _ => read_varint_multibyte(buf, pos),
    }
}

/// The general LEB128 loop behind [`read_varint`]'s one-byte fast path.
fn read_varint_multibyte(buf: &[u8], pos: &mut usize) -> Result<u64, GraphError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let start = *pos;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(GraphError::Corrupted {
                field: "varint",
                expected: (start + 1) as u64,
                got: buf.len() as u64,
            });
        };
        *pos += 1;
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only carry the final single bit of a u64;
        // anything else overflows (or is an overlong encoding).
        if shift == 63 && payload > 1 {
            return Err(GraphError::Corrupted { field: "varint_width", expected: 1, got: payload });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if (*pos - start) >= MAX_VARINT_LEN {
            return Err(GraphError::Corrupted {
                field: "varint_width",
                expected: MAX_VARINT_LEN as u64,
                got: (*pos - start + 1) as u64,
            });
        }
    }
}

/// Maps a signed delta onto the unsigned varint space so small
/// magnitudes of either sign stay one byte (`0 → 0, −1 → 1, 1 → 2, …`).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Calls `f(start, end)` for each maximal run of consecutive ids in the
/// strictly-increasing `targets` (`end` exclusive, indices into the
/// slice).
fn for_each_maximal_run(targets: &[NodeId], mut f: impl FnMut(usize, usize)) {
    let mut i = 0;
    while i < targets.len() {
        let mut j = i + 1;
        while j < targets.len() && targets[j].0 == targets[j - 1].0 + 1 {
            j += 1;
        }
        f(i, j);
        i = j;
    }
}

/// Appends one adjacency row of `source` in interval + delta form.
/// `targets` must be strictly increasing (the CSR invariant); the caller
/// guarantees it, a debug assertion re-checks it.
pub fn encode_row(out: &mut Vec<u8>, source: u32, targets: &[NodeId]) {
    debug_assert!(targets.windows(2).all(|w| w[0].0 < w[1].0), "row must be strictly increasing");
    write_varint(out, targets.len() as u64);
    if targets.is_empty() {
        return;
    }
    // Pass 1: how many runs clear the interval threshold.
    let mut interval_count = 0u64;
    for_each_maximal_run(targets, |i, j| {
        if j - i >= MIN_RUN {
            interval_count += 1;
        }
    });
    write_varint(out, interval_count);
    // Pass 2: the intervals, first start source-relative, later starts
    // gap-coded off the previous interval's end.
    let mut prev_end: Option<u32> = None;
    for_each_maximal_run(targets, |i, j| {
        if j - i < MIN_RUN {
            return;
        }
        let start = targets[i].0;
        match prev_end {
            None => write_varint(out, zigzag(start as i64 - source as i64)),
            // Maximal runs are separated by ≥ 2 even across residuals.
            Some(pe) => write_varint(out, (start - pe - 2) as u64),
        }
        write_varint(out, (j - i - MIN_RUN) as u64);
        prev_end = Some(targets[j - 1].0);
    });
    // Pass 3: the residuals — everything shorter than a run.
    let mut prev: Option<u32> = None;
    for_each_maximal_run(targets, |i, j| {
        if j - i >= MIN_RUN {
            return;
        }
        for &t in &targets[i..j] {
            match prev {
                None => write_varint(out, zigzag(t.0 as i64 - source as i64)),
                Some(p) => write_varint(out, (t.0 - p - 1) as u64),
            }
            prev = Some(t.0);
        }
    });
}

fn corrupt(field: &'static str, expected: u64, got: u64) -> GraphError {
    GraphError::Corrupted { field, expected, got }
}

/// Resolves a zigzag source-relative first id; anything below id 0 or
/// past `u64` maps to `u64::MAX`, which every range check rejects.
#[inline]
fn source_relative(source: u32, raw: u64) -> u64 {
    (source as i64).checked_add(unzigzag(raw)).filter(|&s| s >= 0).map_or(u64::MAX, |s| s as u64)
}

/// Appends the interval `start..start + len` to `targets` as one
/// extend. A run is consecutive by construction, so its first id against
/// `floor` (one past the last emitted target) here and its last id
/// against `node_count` where [`decode_row`] parses it are the whole
/// per-element order and range test.
#[inline]
fn emit_run(
    (start, len): (u64, u64),
    floor: &mut u64,
    targets: &mut Vec<NodeId>,
) -> Result<(), GraphError> {
    if start < *floor {
        return Err(corrupt("edge_order", *floor, start));
    }
    targets.extend((start..start + len).map(|t| NodeId(t as u32)));
    *floor = start + len;
    Ok(())
}

/// Decodes one adjacency row of `source` from `buf` at `*pos`, appending
/// its targets (sorted ascending) to `targets` and returning the row's
/// degree. Validates that the merged interval + residual stream is
/// strictly increasing and below `node_count`.
///
/// `max_degree` caps the declared degree (callers pass the enclosing
/// block's edge budget) so a corrupt length byte cannot drive a
/// multi-gigabyte allocation. `runs` is caller-owned scratch for the
/// row's `(start, len)` interval list — cleared here, so a decoder that
/// reuses it allocates nothing per row.
///
/// # Errors
/// [`GraphError::Corrupted`] on truncation, a degree above `max_degree`
/// (field `"row_degree"`), a target at/above `node_count` (field
/// `"edge_target"`), an interval budget that disagrees with the degree
/// (fields `"interval_count"` / `"interval_len"`), or residuals that
/// collide with an interval (field `"edge_order"`).
#[inline]
pub fn decode_row(
    buf: &[u8],
    pos: &mut usize,
    source: u32,
    node_count: u64,
    max_degree: u64,
    runs: &mut Vec<(u64, u64)>,
    targets: &mut Vec<NodeId>,
) -> Result<usize, GraphError> {
    let degree = read_varint(buf, pos)?;
    if degree > max_degree {
        return Err(corrupt("row_degree", max_degree, degree));
    }
    if degree == 0 {
        return Ok(0);
    }
    let interval_count = read_varint(buf, pos)?;
    if interval_count > degree / MIN_RUN as u64 {
        return Err(corrupt("interval_count", degree / MIN_RUN as u64, interval_count));
    }
    // Interval starts/lengths; bounded by degree / MIN_RUN entries.
    runs.clear();
    let mut covered = 0u64;
    let mut prev_end: Option<u64> = None;
    for _ in 0..interval_count {
        let raw = read_varint(buf, pos)?;
        let start = match prev_end {
            None => source_relative(source, raw),
            Some(pe) => pe.checked_add(raw).and_then(|v| v.checked_add(2)).unwrap_or(u64::MAX),
        };
        let len = read_varint(buf, pos)?
            .checked_add(MIN_RUN as u64)
            .ok_or_else(|| corrupt("interval_len", degree, u64::MAX))?;
        covered = covered.saturating_add(len);
        if covered > degree {
            return Err(corrupt("interval_len", degree, covered));
        }
        let end = start.saturating_add(len - 1);
        if end >= node_count {
            return Err(corrupt("edge_target", node_count, end));
        }
        runs.push((start, len));
        prev_end = Some(end);
    }
    // Merge residuals with the interval stream, validating the combined
    // order: every emitted target must be at or above `floor`, one past
    // the last emitted target.
    let mut floor = 0u64;
    let mut next_run = 0usize;
    let mut prev_res: Option<u64> = None;
    for _ in 0..degree - covered {
        let raw = read_varint(buf, pos)?;
        let r = match prev_res {
            None => source_relative(source, raw),
            Some(p) => p.checked_add(raw).and_then(|v| v.checked_add(1)).unwrap_or(u64::MAX),
        };
        // Flush every interval that starts below this residual; a
        // residual landing inside one trips the order check.
        while next_run < runs.len() && runs[next_run].0 < r {
            emit_run(runs[next_run], &mut floor, targets)?;
            next_run += 1;
        }
        if r >= node_count {
            return Err(corrupt("edge_target", node_count, r));
        }
        if r < floor {
            return Err(corrupt("edge_order", floor, r));
        }
        floor = r + 1;
        targets.push(NodeId(r as u32));
        prev_res = Some(r);
    }
    for &run in &runs[next_run..] {
        emit_run(run, &mut floor, targets)?;
    }
    Ok(degree as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> usize {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos).unwrap(), v, "value {v}");
        assert_eq!(pos, buf.len());
        buf.len()
    }

    fn row_round_trip(source: u32, row: &[NodeId]) -> usize {
        let mut buf = Vec::new();
        encode_row(&mut buf, source, row);
        let mut pos = 0;
        let mut out = Vec::new();
        let deg = decode_row(
            &buf,
            &mut pos,
            source,
            u32::MAX as u64 + 1,
            row.len() as u64,
            &mut Vec::new(),
            &mut out,
        )
        .unwrap();
        assert_eq!(deg, row.len());
        assert_eq!(out, row, "source {source}");
        assert_eq!(pos, buf.len(), "decoder must consume exactly the encoding");
        buf.len()
    }

    #[test]
    fn varint_boundary_values_round_trip() {
        // 2^7k ± 1 for every k, plus the extremes: the exact byte-width
        // boundaries of the encoding.
        for k in 1..=9u32 {
            let b = 1u64 << (7 * k);
            for v in [b - 1, b, b + 1] {
                round_trip(v);
            }
        }
        assert_eq!(round_trip(0), 1);
        assert_eq!(round_trip(127), 1);
        assert_eq!(round_trip(128), 2);
        assert_eq!(round_trip(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn truncated_varint_is_typed_corruption() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(GraphError::Corrupted { field: "varint", .. })
        ));
        let mut pos = 0;
        assert!(read_varint(&[], &mut pos).is_err());
    }

    #[test]
    fn overlong_varint_is_typed_corruption() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(GraphError::Corrupted { field: "varint_width", .. })
        ));
        // A 10-byte varint whose last byte overflows bit 64.
        let mut over = vec![0xFFu8; 9];
        over.push(0x02);
        let mut pos = 0;
        assert!(read_varint(&over, &mut pos).is_err());
    }

    #[test]
    fn zigzag_is_a_bijection_near_zero() {
        for v in [-3i64, -2, -1, 0, 1, 2, 3, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes of either sign stay single-byte.
        assert!(zigzag(1) < 128 && zigzag(-1) < 128 && zigzag(63) < 128 && zigzag(-63) < 128);
    }

    #[test]
    fn rows_round_trip_across_shapes() {
        let rows: &[&[u32]] = &[
            &[],
            &[0],
            &[1, 2, 5, 100, 4_000_000],
            &[10, 11, 12, 13],                                // one pure interval
            &[10, 11, 12, 13, 14, 90, 91, 92, 93],            // two intervals
            &[5, 10, 11, 12, 13, 99],                         // residuals straddle a run
            &[0, 1, 2, 7, 8, 9, 10, 200, 201, 202, 203, 999], // mixed
        ];
        for &row in rows {
            let row: Vec<NodeId> = row.iter().map(|&t| NodeId(t)).collect();
            for source in [0u32, 11, 5_000] {
                row_round_trip(source, &row);
            }
        }
    }

    #[test]
    fn intervals_beat_gap_coding_on_template_rows() {
        // A 20-link nav row right after its source: one interval, no
        // residuals — a few bytes total instead of one per edge.
        let row: Vec<NodeId> = (101..121).map(NodeId).collect();
        let bytes = row_round_trip(100, &row);
        assert!(bytes <= 4, "nav row took {bytes} bytes");
    }

    #[test]
    fn short_runs_stay_gap_coded() {
        // MIN_RUN − 1 consecutive ids: no interval is declared, and the
        // encoding is still exactly consumed.
        let row: Vec<NodeId> = (50..50 + MIN_RUN as u32 - 1).map(NodeId).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, 49, &row);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos).unwrap(), row.len() as u64);
        assert_eq!(read_varint(&buf, &mut pos).unwrap(), 0, "no intervals expected");
        row_round_trip(49, &row);
    }

    #[test]
    fn row_validates_against_node_count() {
        let row: Vec<NodeId> = [1u32, 2, 5, 100, 4_000_000].iter().map(|&i| NodeId(i)).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, 0, &row);
        // Same bytes against a smaller node count: typed target error.
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 0, 100, 64, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "edge_target", .. })
        ));
        // An interval breaching node_count is caught from its end, not
        // after materializing targets.
        let run: Vec<NodeId> = (96..104).map(NodeId).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, 90, &run);
        let mut pos = 0;
        out.clear();
        assert!(matches!(
            decode_row(&buf, &mut pos, 90, 100, 64, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "edge_target", .. })
        ));
    }

    #[test]
    fn hostile_degree_cannot_force_allocation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 0, 10, 1 << 20, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "row_degree", .. })
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn hostile_interval_count_is_rejected() {
        // Degree 8 admits at most 2 intervals; claiming more is typed
        // corruption before any interval bytes are read.
        let mut buf = Vec::new();
        write_varint(&mut buf, 8);
        write_varint(&mut buf, 3);
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 0, 1000, 64, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "interval_count", .. })
        ));
    }

    #[test]
    fn interval_overrunning_the_degree_is_rejected() {
        // One interval whose length exceeds the declared degree.
        let mut buf = Vec::new();
        write_varint(&mut buf, 5); // degree
        write_varint(&mut buf, 1); // one interval
        write_varint(&mut buf, zigzag(10)); // start = source + 10
        write_varint(&mut buf, 4); // len = 4 + MIN_RUN = 8 > degree
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 0, 1000, 64, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "interval_len", .. })
        ));
    }

    #[test]
    fn residual_inside_an_interval_is_rejected() {
        // Interval [20, 28), then a residual at 24: the merged stream is
        // not strictly increasing.
        let mut buf = Vec::new();
        write_varint(&mut buf, 9); // degree: 8 interval + 1 residual
        write_varint(&mut buf, 1);
        write_varint(&mut buf, zigzag(20)); // start 20 (source 0)
        write_varint(&mut buf, 4); // len 8
        write_varint(&mut buf, zigzag(24)); // residual 24 ∈ [20, 28)
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 0, 1000, 64, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "edge_order", .. })
        ));
    }

    #[test]
    fn empty_row_is_one_byte() {
        let mut buf = Vec::new();
        encode_row(&mut buf, 7, &[]);
        assert_eq!(buf, vec![0]);
        let mut pos = 0;
        let mut out = Vec::new();
        assert_eq!(decode_row(&buf, &mut pos, 7, 10, 0, &mut Vec::new(), &mut out).unwrap(), 0);
    }

    #[test]
    fn delta_gap_overflow_is_rejected() {
        // first residual near u32::MAX, then a gap pushing past
        // node_count.
        let mut buf = Vec::new();
        write_varint(&mut buf, 2); // degree
        write_varint(&mut buf, 0); // no intervals
        write_varint(&mut buf, zigzag(u32::MAX as i64 - 1));
        write_varint(&mut buf, u64::MAX - 5); // absurd gap
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 0, u32::MAX as u64, 4, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "edge_target", .. })
        ));
    }

    #[test]
    fn negative_first_target_underflow_is_rejected() {
        // zigzag(−(source + 5)) would place the first target below id 0.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1);
        write_varint(&mut buf, 0);
        write_varint(&mut buf, zigzag(-15));
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 10, 1000, 4, &mut Vec::new(), &mut out),
            Err(GraphError::Corrupted { field: "edge_target", .. })
        ));
    }
}
