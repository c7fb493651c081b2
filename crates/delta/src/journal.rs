//! The `SPAMDLT` binary journal: an append-only log of graph deltas.
//!
//! A journal is a header followed by zero or more **self-framed record
//! batches**. Each batch is covered by its own CRC-32, so a reader can
//! verify (and, in lenient mode, skip) batches independently — the
//! failure mode of an append-only log is a torn or bit-flipped *tail*,
//! and per-batch framing keeps every intact prefix readable. Appending
//! is `O(batch)`: new batches are written after the existing ones with
//! no header rewrite.
//!
//! ## Binary layout
//!
//! ```text
//! offset   field
//! 0        magic  b"SPAMDLT\0"
//! 8        version u32 LE (1)
//! 12       batches…
//!
//! batch:
//! 0        payload_len u32 LE — byte length of the records payload
//! 4        record_count u32 LE
//! 8        payload: records, each `tag u8` + LE fields
//! 8+len    crc32 u32 LE — CRC-32 (IEEE) over bytes [0, 8+len) of the batch
//!
//! record payloads by tag:
//! 1  AddEdge     from u32, to u32
//! 2  RemoveEdge  from u32, to u32
//! 3  AddNode     node u32
//! 4  CoreAdd     node u32
//! 5  CoreRemove  node u32
//! ```
//!
//! Errors reuse [`GraphError`] so journal corruption surfaces through
//! the same taxonomy as graph-image corruption ([`GraphError::Corrupt`],
//! [`GraphError::Corrupted`]), and lenient reads honor the same
//! [`ReadOptions`] budget contract as text-edge-list ingest.

use crate::failpoint;
use crate::record::DeltaRecord;
use spammass_graph::crc32::crc32;
use spammass_graph::io::ReadOptions;
use spammass_graph::le::{get_u32, put_u32};
use spammass_graph::retry::retry_io;
use spammass_graph::{GraphError, NodeId};
use spammass_obs as obs;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Magic prefix of the journal format.
pub const MAGIC: &[u8; 8] = b"SPAMDLT\0";
/// Current journal format version.
const VERSION: u32 = 1;
/// Fixed journal header size (magic + version).
const HEADER_LEN: usize = 12;
/// Per-batch framing overhead: payload length + record count up front,
/// CRC-32 behind the payload.
const BATCH_OVERHEAD: usize = 12;
/// How many skipped batches a [`JournalReport`] retains verbatim.
const REPORT_SAMPLE_CAP: usize = 16;

/// Whether `data` starts with the journal magic — cheap format sniffing
/// for CLI inputs that may be either a graph image or a journal.
pub fn is_journal(data: &[u8]) -> bool {
    data.len() >= MAGIC.len() && &data[..MAGIC.len()] == MAGIC.as_slice()
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Incrementally builds a journal image, one batch per call.
///
/// A batch is the atomic unit of the journal — one crawl increment, one
/// evolution step. Empty batches are representable but [`append_batch`]
/// skips them (they carry no information and would inflate the image).
///
/// [`append_batch`]: JournalWriter::append_batch
#[derive(Debug, Clone)]
pub struct JournalWriter {
    buf: Vec<u8>,
    batches: usize,
    records: usize,
}

impl JournalWriter {
    /// Starts a journal image (header only).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, VERSION);
        JournalWriter { buf, batches: 0, records: 0 }
    }

    /// Appends one CRC-framed batch of records. No-op for empty batches.
    pub fn append_batch(&mut self, records: &[DeltaRecord]) {
        if records.is_empty() {
            return;
        }
        let start = self.buf.len();
        let payload_len: usize = records.iter().map(|r| r.wire_len()).sum();
        debug_assert!(payload_len <= u32::MAX as usize, "batch payload exceeds u32 range");
        put_u32(&mut self.buf, payload_len as u32);
        put_u32(&mut self.buf, records.len() as u32);
        for r in records {
            self.buf.push(r.tag());
            match *r {
                DeltaRecord::AddEdge { from, to } | DeltaRecord::RemoveEdge { from, to } => {
                    put_u32(&mut self.buf, from.0);
                    put_u32(&mut self.buf, to.0);
                }
                DeltaRecord::AddNode { node }
                | DeltaRecord::CoreAdd { node }
                | DeltaRecord::CoreRemove { node } => put_u32(&mut self.buf, node.0),
            }
        }
        let checksum = crc32(&self.buf[start..]);
        put_u32(&mut self.buf, checksum);
        self.batches += 1;
        self.records += records.len();
    }

    /// Records appended so far.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Finishes and returns the journal image.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut span = obs::span("delta.journal.write");
        span.record("batches", self.batches as f64);
        span.record("records", self.records as f64);
        span.record("bytes", self.buf.len() as f64);
        self.buf
    }
}

impl Default for JournalWriter {
    fn default() -> Self {
        JournalWriter::new()
    }
}

/// One-shot serialization of `batches` into a journal image.
pub fn journal_to_bytes(batches: &[Vec<DeltaRecord>]) -> Vec<u8> {
    let mut w = JournalWriter::new();
    for batch in batches {
        w.append_batch(batch);
    }
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// One skipped batch (lenient mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadBatch {
    /// 1-based batch index within the journal.
    pub batch: usize,
    /// Byte offset of the batch frame within the journal image.
    pub offset: usize,
    /// Bytes the skip discarded (the frame, or the torn remainder).
    pub bytes: usize,
    /// What was wrong with it.
    pub message: String,
}

/// What happened during a (possibly lenient) journal read — the journal
/// counterpart of the text-ingest `LoadReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalReport {
    /// Batches encountered, intact or not.
    pub batches_total: usize,
    /// Records decoded from intact batches.
    pub records_loaded: usize,
    /// Corrupt batches skipped (lenient mode only).
    pub skipped: usize,
    /// Payload bytes the skipped batches carried — the silently-dropped
    /// volume a lenient read would otherwise hide.
    pub skipped_bytes: usize,
    /// Up to the first [`REPORT_SAMPLE_CAP`] skipped batches, verbatim.
    pub samples: Vec<BadBatch>,
}

impl JournalReport {
    /// Whether every batch decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0
    }

    fn record(&mut self, batch: usize, offset: usize, bytes: usize, message: String) {
        self.skipped += 1;
        self.skipped_bytes += bytes;
        if self.samples.len() < REPORT_SAMPLE_CAP {
            self.samples.push(BadBatch { batch, offset, bytes, message });
        }
    }
}

impl fmt::Display for JournalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} batches, {} records loaded, {} skipped ({} bytes)",
            self.batches_total, self.records_loaded, self.skipped, self.skipped_bytes
        )?;
        for bad in &self.samples {
            write!(
                f,
                "\n  batch {} at byte {} ({} bytes): {}",
                bad.batch, bad.offset, bad.bytes, bad.message
            )?;
        }
        if self.skipped > self.samples.len() {
            write!(f, "\n  … and {} more", self.skipped - self.samples.len())?;
        }
        Ok(())
    }
}

/// Reads a journal strictly: the first corrupt batch aborts.
pub fn read_journal(data: &[u8]) -> Result<Vec<Vec<DeltaRecord>>, GraphError> {
    read_journal_with(data, &ReadOptions::default()).map(|(b, _)| b)
}

/// Reads a journal under the given [`ReadOptions`].
///
/// In lenient mode a batch whose CRC, framing, or record payload is bad
/// is skipped and recorded in the [`JournalReport`], up to the
/// `max_bad_lines` budget (budget unit: one batch). A torn tail — too
/// few bytes left for the claimed frame — ends the read after being
/// counted, since no later frame boundary can be trusted.
pub fn read_journal_with(
    data: &[u8],
    options: &ReadOptions,
) -> Result<(Vec<Vec<DeltaRecord>>, JournalReport), GraphError> {
    let mut span = obs::span("delta.journal.read");
    span.record("bytes", data.len() as f64);
    if data.len() < HEADER_LEN {
        return Err(GraphError::Corrupt("journal shorter than header".into()));
    }
    if !is_journal(data) {
        return Err(GraphError::Corrupt("bad journal magic".into()));
    }
    let version = get_u32(data, 8);
    if version != VERSION {
        return Err(GraphError::Corrupt(format!("unsupported journal version {version}")));
    }

    let mut batches = Vec::new();
    let mut report = JournalReport::default();
    let mut offset = HEADER_LEN;
    while offset < data.len() {
        report.batches_total += 1;
        let index = report.batches_total;
        let remaining = data.len() - offset;
        if remaining < BATCH_OVERHEAD {
            let message = format!("torn tail: {remaining} trailing bytes");
            handle_bad_batch(options, &mut report, index, offset, remaining, message)?;
            break;
        }
        let payload_len = get_u32(data, offset) as usize;
        let frame_len = match payload_len.checked_add(BATCH_OVERHEAD) {
            Some(l) if l <= remaining => l,
            _ => {
                let message = format!(
                    "torn tail: batch claims {payload_len} payload bytes, {} remain",
                    remaining - BATCH_OVERHEAD
                );
                handle_bad_batch(options, &mut report, index, offset, remaining, message)?;
                break;
            }
        };
        let frame = &data[offset..offset + frame_len];
        let frame_offset = offset;
        offset += frame_len;

        let stored_crc = get_u32(frame, frame_len - 4);
        let computed = crc32(&frame[..frame_len - 4]);
        if stored_crc != computed {
            if options.strict {
                return Err(GraphError::Corrupted {
                    field: "crc32",
                    expected: stored_crc as u64,
                    got: computed as u64,
                });
            }
            let message =
                format!("crc32 mismatch (stored {stored_crc:#x}, computed {computed:#x})");
            handle_bad_batch(options, &mut report, index, frame_offset, frame_len, message)?;
            continue;
        }

        let record_count = get_u32(frame, 4) as usize;
        match decode_batch(&frame[8..frame_len - 4], record_count) {
            Ok(records) => {
                report.records_loaded += records.len();
                batches.push(records);
            }
            // A CRC-clean batch with undecodable records was *written*
            // wrong, not damaged in transit; still skippable in lenient
            // mode so one bad producer doesn't poison the whole log.
            Err(message) => {
                handle_bad_batch(options, &mut report, index, frame_offset, frame_len, message)?
            }
        }
    }

    span.record("batches", report.batches_total as f64);
    span.record("records", report.records_loaded as f64);
    span.record("skipped", report.skipped as f64);
    obs::counter("delta.journal.records", report.records_loaded as f64);
    obs::counter("delta.journal.skipped", report.skipped as f64);
    if report.skipped_bytes > 0 {
        obs::counter(obs::names::DELTA_JOURNAL_SKIPPED_BYTES, report.skipped_bytes as f64);
    }
    Ok((batches, report))
}

/// Decodes one CRC-verified batch payload.
fn decode_batch(payload: &[u8], record_count: usize) -> Result<Vec<DeltaRecord>, String> {
    let mut records = Vec::with_capacity(record_count.min(payload.len()));
    let mut offset = 0usize;
    while offset < payload.len() {
        let tag = payload[offset];
        let need = match tag {
            1 | 2 => 9,
            3..=5 => 5,
            other => return Err(format!("unknown record tag {other}")),
        };
        if payload.len() - offset < need {
            return Err(format!("record truncated at payload byte {offset}"));
        }
        let a = NodeId(get_u32(payload, offset + 1));
        records.push(match tag {
            1 => DeltaRecord::AddEdge { from: a, to: NodeId(get_u32(payload, offset + 5)) },
            2 => DeltaRecord::RemoveEdge { from: a, to: NodeId(get_u32(payload, offset + 5)) },
            3 => DeltaRecord::AddNode { node: a },
            4 => DeltaRecord::CoreAdd { node: a },
            _ => DeltaRecord::CoreRemove { node: a },
        });
        offset += need;
    }
    if records.len() != record_count {
        return Err(format!(
            "record count mismatch: header claims {record_count}, payload holds {}",
            records.len()
        ));
    }
    Ok(records)
}

fn handle_bad_batch(
    options: &ReadOptions,
    report: &mut JournalReport,
    batch: usize,
    offset: usize,
    bytes: usize,
    message: String,
) -> Result<(), GraphError> {
    if options.strict {
        return Err(GraphError::Corrupt(format!("batch {batch}: {message}")));
    }
    if report.skipped >= options.max_bad_lines {
        return Err(GraphError::BudgetExhausted {
            budget: options.max_bad_lines,
            line: batch,
            message,
        });
    }
    report.record(batch, offset, bytes, message);
    Ok(())
}

// ---------------------------------------------------------------------------
// Fsck, repair, and durable appends
// ---------------------------------------------------------------------------

/// Findings of a journal integrity scan.
///
/// The scan walks frames from the header and stops at the first one
/// that cannot be trusted: after a bad length prefix or CRC, no later
/// frame boundary is reliable, so everything from that point on is the
/// *quarantined tail*. `valid_prefix_len` is the byte length of the
/// header plus every intact frame — the truncation point a repair cuts
/// back to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalFsck {
    /// Whether the magic/version header was intact.
    pub header_ok: bool,
    /// Frames examined, including the bad one that ended the scan.
    pub frames_scanned: usize,
    /// Intact frames in the trusted prefix.
    pub frames_valid: usize,
    /// Records carried by the trusted prefix.
    pub records_valid: usize,
    /// Bytes of header + trusted prefix (the repair truncation point).
    pub valid_prefix_len: usize,
    /// Bytes past the trusted prefix that a repair discards.
    pub quarantined_bytes: usize,
    /// What was wrong with the first untrusted frame (or the header).
    pub tail_error: Option<String>,
}

impl JournalFsck {
    /// Whether the whole image decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.header_ok && self.quarantined_bytes == 0
    }
}

impl fmt::Display for JournalFsck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.header_ok {
            write!(f, "header damaged; {} bytes quarantined", self.quarantined_bytes)?;
        } else {
            write!(
                f,
                "{} frames scanned, {} valid ({} records, {} bytes)",
                self.frames_scanned, self.frames_valid, self.records_valid, self.valid_prefix_len
            )?;
            if self.quarantined_bytes > 0 {
                write!(f, "; torn tail: {} bytes quarantined", self.quarantined_bytes)?;
            }
        }
        if let Some(e) = &self.tail_error {
            write!(f, " ({e})")?;
        }
        Ok(())
    }
}

/// Scans `data` and reports how much of it is a trustworthy journal.
/// Never errors: damage is what it is *for* — the answers come back in
/// the [`JournalFsck`].
pub fn fsck_journal(data: &[u8]) -> JournalFsck {
    let mut span = obs::span("fsck.journal");
    span.record("bytes", data.len() as f64);
    let mut fsck = JournalFsck::default();
    if data.len() < HEADER_LEN || !is_journal(data) || get_u32(data, 8) != VERSION {
        fsck.quarantined_bytes = data.len();
        fsck.tail_error = Some(if data.is_empty() {
            "empty file".to_string()
        } else {
            "bad or truncated journal header".to_string()
        });
        span.record("quarantined_bytes", fsck.quarantined_bytes as f64);
        return fsck;
    }
    fsck.header_ok = true;
    fsck.valid_prefix_len = HEADER_LEN;
    let mut offset = HEADER_LEN;
    while offset < data.len() {
        fsck.frames_scanned += 1;
        let remaining = data.len() - offset;
        if remaining < BATCH_OVERHEAD {
            fsck.tail_error = Some(format!("torn tail: {remaining} trailing bytes"));
            break;
        }
        let payload_len = get_u32(data, offset) as usize;
        let frame_len = match payload_len.checked_add(BATCH_OVERHEAD) {
            Some(l) if l <= remaining => l,
            _ => {
                fsck.tail_error = Some(format!(
                    "torn tail: frame claims {payload_len} payload bytes, {} remain",
                    remaining - BATCH_OVERHEAD
                ));
                break;
            }
        };
        let frame = &data[offset..offset + frame_len];
        let stored_crc = get_u32(frame, frame_len - 4);
        let computed = crc32(&frame[..frame_len - 4]);
        if stored_crc != computed {
            fsck.tail_error =
                Some(format!("crc32 mismatch (stored {stored_crc:#x}, computed {computed:#x})"));
            break;
        }
        let record_count = get_u32(frame, 4) as usize;
        match decode_batch(&frame[8..frame_len - 4], record_count) {
            Ok(records) => fsck.records_valid += records.len(),
            Err(message) => {
                fsck.tail_error = Some(message);
                break;
            }
        }
        fsck.frames_valid += 1;
        offset += frame_len;
        fsck.valid_prefix_len = offset;
    }
    fsck.quarantined_bytes = data.len() - fsck.valid_prefix_len;
    span.record("frames", fsck.frames_scanned as f64);
    span.record("quarantined_bytes", fsck.quarantined_bytes as f64);
    obs::counter(obs::names::FSCK_JOURNAL_QUARANTINED_BYTES, fsck.quarantined_bytes as f64);
    fsck
}

/// Returns a clean journal image: the trusted prefix of `data`, or a
/// fresh empty journal when even the header is damaged. The findings
/// explain what was cut.
pub fn repair_journal(data: &[u8]) -> (Vec<u8>, JournalFsck) {
    let fsck = fsck_journal(data);
    let repaired = if fsck.header_ok {
        data[..fsck.valid_prefix_len].to_vec()
    } else {
        JournalWriter::new().into_bytes()
    };
    (repaired, fsck)
}

/// Reads a journal tolerating a damaged tail: decodes the trusted
/// prefix and truncates at the first untrustworthy frame, the
/// "truncate-and-continue" recovery an append-only log admits. Only a
/// damaged *header* (the file is not a journal at all) is an error.
pub fn read_journal_recovering(
    data: &[u8],
) -> Result<(Vec<Vec<DeltaRecord>>, JournalFsck), GraphError> {
    let fsck = fsck_journal(data);
    if !fsck.header_ok {
        return Err(GraphError::Corrupt(format!(
            "journal unreadable: {}",
            fsck.tail_error.as_deref().unwrap_or("bad header")
        )));
    }
    // The prefix just passed fsck; a strict read of it cannot fail.
    let batches = read_journal(&data[..fsck.valid_prefix_len])?;
    Ok((batches, fsck))
}

/// Durably appends `batches` to the journal file at `path`, creating it
/// (with a header) when absent. The write sequence is failpointed
/// (`journal.append.*`) so the crash-torture suite can tear it at every
/// syscall boundary; a torn append is exactly what
/// [`read_journal_recovering`] repairs.
///
/// Returns the number of bytes appended.
pub fn append_to_file(path: &Path, batches: &[Vec<DeltaRecord>]) -> Result<usize, GraphError> {
    let mut span = obs::span("delta.journal.append");
    failpoint::hit("journal.append.open")?;
    let existing_len = match fs_metadata_len(path)? {
        Some(len) if len >= HEADER_LEN as u64 => {
            // Sanity-check the header so appends to a non-journal file
            // fail before damaging it further.
            let mut head = [0u8; HEADER_LEN];
            let mut f = retry_io("journal.append.sniff", || std::fs::File::open(path))?;
            std::io::Read::read_exact(&mut f, &mut head)?;
            if !is_journal(&head) || get_u32(&head, 8) != VERSION {
                return Err(GraphError::Corrupt(format!(
                    "refusing to append: {} is not a v{VERSION} journal",
                    path.display()
                )));
            }
            len
        }
        _ => 0,
    };

    let mut tail = JournalWriter::new();
    for batch in batches {
        tail.append_batch(batch);
    }
    let tail_bytes = tail.into_bytes();
    // A fresh or empty file needs the header; an existing journal only
    // the frames.
    let new_bytes = if existing_len == 0 { &tail_bytes[..] } else { &tail_bytes[HEADER_LEN..] };

    let mut file = retry_io("journal.append.open", || {
        std::fs::OpenOptions::new().create(true).append(true).open(path)
    })?;
    if let Err(e) = failpoint::hit("journal.append.torn") {
        // Simulate a crash mid-append: half the new bytes land.
        let _ = file.write_all(&new_bytes[..new_bytes.len() / 2]);
        let _ = file.sync_all();
        return Err(GraphError::Io(e));
    }
    file.write_all(new_bytes)?;
    failpoint::hit("journal.append.fsync")?;
    retry_io("journal.append.fsync", || file.sync_all())?;
    span.record("bytes", new_bytes.len() as f64);
    obs::counter(obs::names::DELTA_JOURNAL_APPENDED_BYTES, new_bytes.len() as f64);
    Ok(new_bytes.len())
}

fn fs_metadata_len(path: &Path) -> Result<Option<u64>, GraphError> {
    match std::fs::metadata(path) {
        Ok(m) => Ok(Some(m.len())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batches() -> Vec<Vec<DeltaRecord>> {
        vec![
            vec![
                DeltaRecord::AddNode { node: NodeId(5) },
                DeltaRecord::AddEdge { from: NodeId(5), to: NodeId(0) },
                DeltaRecord::CoreAdd { node: NodeId(2) },
            ],
            vec![
                DeltaRecord::RemoveEdge { from: NodeId(1), to: NodeId(0) },
                DeltaRecord::CoreRemove { node: NodeId(2) },
            ],
        ]
    }

    #[test]
    fn round_trip_preserves_batches() {
        let batches = sample_batches();
        let bytes = journal_to_bytes(&batches);
        assert!(is_journal(&bytes));
        let back = read_journal(&bytes).unwrap();
        assert_eq!(back, batches);
    }

    #[test]
    fn empty_journal_round_trips() {
        let bytes = journal_to_bytes(&[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        let (batches, report) = read_journal_with(&bytes, &ReadOptions::default()).unwrap();
        assert!(batches.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.batches_total, 0);
    }

    #[test]
    fn empty_batches_are_elided() {
        let mut w = JournalWriter::new();
        w.append_batch(&[]);
        w.append_batch(&[DeltaRecord::AddNode { node: NodeId(1) }]);
        w.append_batch(&[]);
        let back = read_journal(&w.into_bytes()).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn record_count_tallies_every_appended_record() {
        let mut w = JournalWriter::new();
        assert_eq!(w.record_count(), 0);
        for batch in sample_batches() {
            w.append_batch(&batch);
        }
        w.append_batch(&[]);
        assert_eq!(w.record_count(), 5);
        let back = read_journal(&w.into_bytes()).unwrap();
        assert_eq!(back.iter().map(Vec::len).sum::<usize>(), 5);
    }

    #[test]
    fn appending_after_serialization_is_seamless() {
        // The append-only promise: an existing image plus freshly framed
        // batches is itself a valid image.
        let mut bytes = journal_to_bytes(&sample_batches()[..1]);
        let mut tail = JournalWriter::new();
        tail.append_batch(&sample_batches()[1]);
        bytes.extend_from_slice(&tail.into_bytes()[HEADER_LEN..]);
        let back = read_journal(&bytes).unwrap();
        assert_eq!(back, sample_batches());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let bytes = journal_to_bytes(&sample_batches());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_journal(&bad), Err(GraphError::Corrupt(_))));
        let mut bad = bytes.clone();
        bad[8] = 9;
        assert!(matches!(read_journal(&bad), Err(GraphError::Corrupt(_))));
        assert!(matches!(read_journal(&bytes[..5]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn strict_read_rejects_any_bit_flip() {
        let clean = journal_to_bytes(&sample_batches());
        for i in HEADER_LEN..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(read_journal(&bytes).is_err(), "bit flip at byte {i} went undetected");
        }
    }

    #[test]
    fn lenient_read_skips_corrupt_batch_and_keeps_the_rest() {
        let batches = sample_batches();
        let bytes = journal_to_bytes(&batches);
        let mut bytes = bytes;
        // Flip a payload byte inside the first batch.
        bytes[HEADER_LEN + 9] ^= 0xFF;
        let (back, report) = read_journal_with(&bytes, &ReadOptions::lenient(2)).unwrap();
        assert_eq!(back, &batches[1..]);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.batches_total, 2);
        assert_eq!(report.samples[0].batch, 1);
        assert!(report.samples[0].message.contains("crc32"), "{}", report.samples[0].message);
        assert!(report.to_string().contains("1 skipped"));
    }

    #[test]
    fn lenient_read_enforces_budget() {
        let mut bytes = journal_to_bytes(&sample_batches());
        bytes[HEADER_LEN + 9] ^= 0xFF;
        let err = read_journal_with(&bytes, &ReadOptions::lenient(0)).unwrap_err();
        assert!(matches!(err, GraphError::BudgetExhausted { budget: 0, line: 1, .. }));
    }

    #[test]
    fn torn_tail_is_detected_and_intact_prefix_survives() {
        let batches = sample_batches();
        let bytes = journal_to_bytes(&batches);
        let truncated = &bytes[..bytes.len() - 3];
        assert!(read_journal(truncated).is_err());
        let (back, report) = read_journal_with(truncated, &ReadOptions::lenient(1)).unwrap();
        assert_eq!(back, &batches[..1]);
        assert_eq!(report.skipped, 1);
        assert!(report.samples[0].message.contains("torn tail"));
    }

    #[test]
    fn unknown_tag_is_a_producer_error() {
        let mut w = JournalWriter::new();
        w.append_batch(&[DeltaRecord::AddNode { node: NodeId(1) }]);
        let mut bytes = w.into_bytes();
        // Rewrite the tag and re-seal the CRC: decodable frame, bad record.
        bytes[HEADER_LEN + 8] = 99;
        let end = bytes.len();
        let crc = crc32(&bytes[HEADER_LEN..end - 4]);
        bytes[end - 4..].copy_from_slice(&crc.to_le_bytes());
        match read_journal(&bytes).unwrap_err() {
            GraphError::Corrupt(msg) => assert!(msg.contains("unknown record tag"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let (back, report) = read_journal_with(&bytes, &ReadOptions::lenient(1)).unwrap();
        assert!(back.is_empty());
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn lenient_report_accounts_skipped_bytes() {
        let batches = sample_batches();
        let mut bytes = journal_to_bytes(&batches);
        bytes[HEADER_LEN + 9] ^= 0xFF;
        let (_, report) = read_journal_with(&bytes, &ReadOptions::lenient(2)).unwrap();
        let first_frame_len =
            BATCH_OVERHEAD + batches[0].iter().map(|r| r.wire_len()).sum::<usize>();
        assert_eq!(report.skipped_bytes, first_frame_len);
        assert_eq!(report.samples[0].offset, HEADER_LEN);
        assert_eq!(report.samples[0].bytes, first_frame_len);
        assert!(report.to_string().contains("bytes"), "{report}");
    }

    #[test]
    fn fsck_passes_clean_journal() {
        let bytes = journal_to_bytes(&sample_batches());
        let fsck = fsck_journal(&bytes);
        assert!(fsck.is_clean(), "{fsck}");
        assert!(fsck.header_ok);
        assert_eq!(fsck.frames_scanned, 2);
        assert_eq!(fsck.frames_valid, 2);
        assert_eq!(fsck.records_valid, 5);
        assert_eq!(fsck.valid_prefix_len, bytes.len());
        assert_eq!(fsck.quarantined_bytes, 0);
        assert!(fsck.tail_error.is_none());
    }

    #[test]
    fn fsck_quarantines_from_first_bad_frame() {
        // Damage the FIRST frame: nothing after it can be trusted, even
        // though the second frame is byte-for-byte intact.
        let bytes = journal_to_bytes(&sample_batches());
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 9] ^= 0xFF;
        let fsck = fsck_journal(&bad);
        assert!(!fsck.is_clean());
        assert!(fsck.header_ok);
        assert_eq!(fsck.frames_valid, 0);
        assert_eq!(fsck.valid_prefix_len, HEADER_LEN);
        assert_eq!(fsck.quarantined_bytes, bytes.len() - HEADER_LEN);
        assert!(fsck.tail_error.as_deref().unwrap().contains("crc32"));
    }

    #[test]
    fn fsck_detects_torn_tail() {
        let bytes = journal_to_bytes(&sample_batches());
        let torn = &bytes[..bytes.len() - 3];
        let fsck = fsck_journal(torn);
        assert!(!fsck.is_clean());
        assert_eq!(fsck.frames_valid, 1);
        assert!(fsck.tail_error.as_deref().unwrap().contains("torn tail"), "{fsck}");
        assert_eq!(fsck.valid_prefix_len + fsck.quarantined_bytes, torn.len());
    }

    #[test]
    fn fsck_handles_zero_length_and_garbage() {
        let fsck = fsck_journal(&[]);
        assert!(!fsck.is_clean());
        assert!(!fsck.header_ok);
        assert_eq!(fsck.tail_error.as_deref(), Some("empty file"));

        let fsck = fsck_journal(b"not a journal at all");
        assert!(!fsck.header_ok);
        assert_eq!(fsck.quarantined_bytes, 20);
        assert!(fsck.to_string().contains("header damaged"));
    }

    #[test]
    fn repair_truncates_to_trusted_prefix() {
        let batches = sample_batches();
        let bytes = journal_to_bytes(&batches);
        let torn = &bytes[..bytes.len() - 3];
        let (repaired, fsck) = repair_journal(torn);
        assert!(!fsck.is_clean());
        assert_eq!(read_journal(&repaired).unwrap(), &batches[..1]);
        // Repairing a repaired journal is a no-op.
        let (again, fsck2) = repair_journal(&repaired);
        assert!(fsck2.is_clean());
        assert_eq!(again, repaired);
    }

    #[test]
    fn repair_of_headerless_garbage_yields_empty_journal() {
        let (repaired, fsck) = repair_journal(b"junk");
        assert!(!fsck.header_ok);
        assert!(read_journal(&repaired).unwrap().is_empty());
    }

    #[test]
    fn recovering_read_salvages_prefix_but_rejects_non_journal() {
        let batches = sample_batches();
        let bytes = journal_to_bytes(&batches);
        let torn = &bytes[..bytes.len() - 1];
        let (back, fsck) = read_journal_recovering(torn).unwrap();
        assert_eq!(back, &batches[..1]);
        assert!(!fsck.is_clean());

        let (back, fsck) = read_journal_recovering(&bytes).unwrap();
        assert_eq!(back, batches);
        assert!(fsck.is_clean());

        let err = read_journal_recovering(b"not a journal").unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn append_to_file_creates_then_extends() {
        let dir = std::env::temp_dir().join(format!("spamdlt-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.spamdlt");
        let _ = std::fs::remove_file(&path);
        let batches = sample_batches();

        let n1 = append_to_file(&path, &batches[..1]).unwrap();
        assert!(n1 > HEADER_LEN, "first append writes header + frame");
        let n2 = append_to_file(&path, &batches[1..]).unwrap();
        assert!(n2 < n1, "second append writes the frame only");
        let data = std::fs::read(&path).unwrap();
        assert_eq!(read_journal(&data).unwrap(), batches);
        // Appending nothing is durable but writes no frames.
        assert_eq!(append_to_file(&path, &[]).unwrap(), 0);

        // Refuse to append to a file that is not a journal.
        let bogus = dir.join("scores.bin");
        std::fs::write(&bogus, b"SPAMSCRS-NOT-A-JOURNAL").unwrap();
        let err = append_to_file(&bogus, &batches).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_is_recoverable() {
        // Arms the process-global failpoint registry: serialize with the
        // other registry-touching tests in this crate.
        let _serial = failpoint::test_lock();
        let dir = std::env::temp_dir().join(format!("spamdlt-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.spamdlt");
        let _ = std::fs::remove_file(&path);
        let batches = sample_batches();
        append_to_file(&path, &batches[..1]).unwrap();

        failpoint::arm("journal.append.torn", 0);
        let err = append_to_file(&path, &batches[1..]).unwrap_err();
        match &err {
            GraphError::Io(e) => assert!(failpoint::is_injected(e), "{e}"),
            other => panic!("expected injected Io error, got {other:?}"),
        }
        failpoint::disarm_all();

        // The file now has an intact first batch and a torn tail; the
        // recovering read salvages the prefix, repair truncates it, and
        // the retried append lands cleanly.
        let data = std::fs::read(&path).unwrap();
        assert!(read_journal(&data).is_err(), "torn tail must fail a strict read");
        let (salvaged, fsck) = read_journal_recovering(&data).unwrap();
        assert_eq!(salvaged, &batches[..1]);
        assert!(fsck.quarantined_bytes > 0);
        let (repaired, _) = repair_journal(&data);
        std::fs::write(&path, &repaired).unwrap();
        append_to_file(&path, &batches[1..]).unwrap();
        assert_eq!(read_journal(&std::fs::read(&path).unwrap()).unwrap(), batches);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
