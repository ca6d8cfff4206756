//! The durable segment-log ledger store.
//!
//! One run ledger per JSON file does not survive fleet scale (thousands
//! of CI runs, daemon checkpoints) and, worse, does not survive *faults*:
//! a torn write leaves a half-manifest that poisons every downstream
//! trajectory query. This module is the durability layer underneath
//! [`Ledger::finish`](crate::Ledger::finish)'s `--store` mode and
//! `iotax-report scan`/`trajectory`: an append-only, CRC-checked,
//! little-endian segment log with the same salvage discipline
//! `iotax-darshan` applies to dirty telemetry.
//!
//! # Record layout (v1)
//!
//! A record is a fixed 24-byte header followed by the payload; all
//! multi-byte integers are little-endian:
//!
//! ```text
//! offset  size  field        notes
//! 0       4     magic        0x444C4F47 ("DLOG")
//! 4       1     version      1
//! 5       1     flags        0 in v1
//! 6       2     reserved     0 in v1
//! 8       8     offset       logical offset, monotonic per store
//! 16      4     payload_len  bytes of payload that follow
//! 20      4     checksum     CRC-32 (IEEE) of the payload only
//! ```
//!
//! # Durability rules
//!
//! * [`SegmentStore::append`] returns — *acknowledges* — an offset only
//!   after the record bytes are written **and fsynced**. An acknowledged
//!   record survives any later crash.
//! * Segment creation and rotation fsync the new file *and* the store
//!   directory, so the directory entry itself is durable.
//! * The writer never overwrites bytes: segments are append-only, and a
//!   damaged tail segment is sealed (left for quarantine) rather than
//!   truncated, with writes continuing in a fresh segment. When the
//!   damaged tail made no plausible offset claim (e.g. torn before its
//!   first header finished), the fresh segment's base is bumped past the
//!   sealed file's name so the two never collide on disk; the skipped
//!   offsets were never acknowledged.
//! * A store admits one writer at a time: opening takes an exclusive
//!   advisory lock on `<dir>/.lock` (blocking until any other writer
//!   releases it) and holds it until the [`SegmentStore`] drops, so two
//!   tools pointed at the same `--store` serialize instead of
//!   interleaving appends into duplicate logical offsets. The lock dies
//!   with its process — a crashed writer never wedges the store.
//!
//! # Recovery rules
//!
//! [`scan_store`] is *total*: any byte soup produces a [`StoreScan`],
//! never a panic and never an allocation larger than the configured
//! payload cap. Each record is validated (magic, version, reserved bits,
//! length bound, CRC); on damage the scanner records a [`Damage`] entry
//! and resyncs by scanning forward (bounded by a resync window) for the
//! next position where a complete record validates end-to-end. Logical
//! offsets must grow monotonically; duplicates and implausible jumps are
//! quarantined, and gaps are reported as [`DamageKind::MissingRecords`].

use crate::{Error, ErrorKind, Result};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic word opening every record header (spells "DLOG" as a u32).
pub const MAGIC: u32 = 0x444C_4F47;

/// The only defined format version.
pub(crate) const FORMAT_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub(crate) const HEADER_LEN: usize = 24;

/// File-name prefix of a segment (`seg-<first offset, hex>.dlog`).
pub(crate) const SEGMENT_PREFIX: &str = "seg-";

/// File-name suffix of a segment.
pub(crate) const SEGMENT_SUFFIX: &str = ".dlog";

/// Suffix of a quarantine sidecar report (`<segment>.corrupt`).
pub(crate) const QUARANTINE_SUFFIX: &str = ".corrupt";

/// File whose advisory lock serializes writers on one store.
pub(crate) const LOCK_FILE: &str = ".lock";

/// A logical-offset jump larger than this is treated as header
/// corruption, not as a real gap: quarantining the jumping record keeps
/// one flipped bit in the offset field from cascading into every record
/// after it being declared stale.
const MAX_OFFSET_JUMP: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, init and xorout 0xFFFFFFFF), slicing-by-8.
// The workspace's one CRC: `iotax-darshan` checks its log trailer with it
// too, since iotax-obs sits below every other workspace crate.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the CRC by eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of a byte slice; the checksum field of every record and
/// the trailer of every Darshan log.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let mut eight = [0u8; 8];
        eight.copy_from_slice(word);
        let word = u64::from_le_bytes(eight);
        let lo = c ^ word as u32;
        let hi = (word >> 32) as u32;
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Serializes one record (header + payload) into `out`.
fn encode_record_into(out: &mut Vec<u8>, offset: u64, payload: &[u8]) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(FORMAT_VERSION);
    out.push(0); // flags
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes one record to fresh bytes (the golden-pin test target).
pub(crate) fn encode_record(offset: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_record_into(&mut out, offset, payload);
    out
}

fn read_u32_le(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64_le(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// A validated header (checksum already verified against the payload).
struct Header {
    offset: u64,
    payload_len: u32,
}

/// Why a header (or the record under it) was rejected at one position.
enum Reject {
    /// Fewer than 24 bytes remain.
    ShortHeader,
    Magic,
    Version(u8),
    Reserved,
    Oversized(u32),
    /// Header claims more payload than the segment holds.
    TornPayload(u32),
    Crc {
        expected: u32,
        actual: u32,
    },
}

/// Validates the record at `pos`. On success returns the header and the
/// total record length; allocation has not happened yet — the caller
/// slices the payload out of `bytes` directly.
fn check_record(bytes: &[u8], pos: usize, max_payload: u32) -> std::result::Result<Header, Reject> {
    if bytes.len() - pos < HEADER_LEN {
        return Err(Reject::ShortHeader);
    }
    if read_u32_le(bytes, pos) != MAGIC {
        return Err(Reject::Magic);
    }
    let version = bytes[pos + 4];
    if version != FORMAT_VERSION {
        return Err(Reject::Version(version));
    }
    if bytes[pos + 5] != 0 || bytes[pos + 6] != 0 || bytes[pos + 7] != 0 {
        return Err(Reject::Reserved);
    }
    let offset = read_u64_le(bytes, pos + 8);
    let payload_len = read_u32_le(bytes, pos + 16);
    let checksum = read_u32_le(bytes, pos + 20);
    if payload_len > max_payload {
        return Err(Reject::Oversized(payload_len));
    }
    let available = bytes.len() - pos - HEADER_LEN;
    if payload_len as usize > available {
        return Err(Reject::TornPayload(payload_len));
    }
    let payload = &bytes[pos + HEADER_LEN..pos + HEADER_LEN + payload_len as usize];
    let actual = crc32(payload);
    if actual != checksum {
        return Err(Reject::Crc { expected: checksum, actual });
    }
    Ok(Header { offset, payload_len })
}

// ---------------------------------------------------------------------------
// Scanning (the recovery reader).
// ---------------------------------------------------------------------------

/// Reader limits. The defaults suit run-ledger payloads (tens of KiB);
/// raise `max_payload` only for stores that legitimately hold bigger
/// records — the cap is what keeps a corrupt header from driving a
/// multi-GiB allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanOptions {
    /// Largest `payload_len` the reader will honor (and allocate).
    pub(crate) max_payload: u32,
    /// How far past a damaged position the resync scan looks for the
    /// next valid record before declaring the rest of the segment lost.
    pub(crate) resync_window: usize,
}

impl Default for ScanOptions {
    fn default() -> Self {
        Self { max_payload: 64 << 20, resync_window: 1 << 20 }
    }
}

/// What went wrong at one position of one segment. Unit variants only:
/// the human detail travels in [`Damage::detail`], so the kind stays a
/// stable machine-readable tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- type of Damage's public `kind` field; iotax-report reads the Damage entries of a StoreScan
pub enum DamageKind {
    /// Magic word missing where a record should start.
    BadMagic,
    /// Unknown format version.
    BadVersion,
    /// Flags / reserved bits set in a v1 record.
    BadReserved,
    /// `payload_len` above the configured cap — a forged or corrupt
    /// length that must not reach the allocator.
    OversizedLength,
    /// Header or payload extends past the end of the segment (torn
    /// write).
    TornTail,
    /// Payload bytes do not match the header checksum.
    CrcMismatch,
    /// Logical offset at or below an already-accepted offset (e.g. a
    /// replayed or duplicated tail).
    DuplicateOffset,
    /// Logical offset implausibly far ahead (corrupt offset field).
    ImplausibleOffset,
    /// Offsets that should exist in the store but were never found.
    MissingRecords,
    /// Bytes skipped by the resync scan between two valid records.
    GarbageSkipped,
    /// Resync found no further valid record within its window.
    Unrecoverable,
}

/// One detected integrity violation, attributed to a byte position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Damage {
    /// Segment file name (not the full path).
    pub segment: String,
    /// Byte position within the segment where the damage was detected.
    pub pos: u64,
    /// Machine-readable classification.
    pub kind: DamageKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of StoreScan's public `records` field; iotax-report scans stores
pub struct ScannedRecord {
    /// Logical offset from the record header.
    pub offset: u64,
    /// Segment file name the record was read from.
    pub segment: String,
    /// Byte position of the header within the segment.
    pub pos: u64,
    /// Payload bytes (CRC-verified).
    pub payload: Vec<u8>,
}

/// Integrity summary of one segment file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentStatus {
    /// File name.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Records recovered from this segment.
    pub records: u64,
    /// Damage entries attributed to this segment.
    pub damage: u64,
}

/// The result of scanning one segment's bytes.
pub(crate) struct SegmentScan {
    /// Recovered records in on-disk order.
    pub(crate) records: Vec<ScannedRecord>,
    /// Everything that failed validation.
    pub(crate) damage: Vec<Damage>,
    /// The offset a writer reopening this segment must continue at:
    /// one past the highest accepted *or plausibly claimed* offset, so a
    /// record whose payload rotted (acked, then damaged) never has its
    /// logical offset silently reused.
    pub(crate) next_offset: u64,
}

/// The result of scanning a whole store directory.
pub struct StoreScan {
    /// Recovered records across all segments, in scan order.
    pub records: Vec<ScannedRecord>,
    /// Every detected integrity violation across all segments.
    pub damage: Vec<Damage>,
    /// Per-segment summaries, in segment order.
    pub segments: Vec<SegmentStatus>,
    /// First offset a new append would receive.
    pub next_offset: u64,
}

impl StoreScan {
    /// Whether every byte of the store validated.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }
}

/// Scans one segment's bytes. Total: never panics, never errors, never
/// allocates more than `opts.max_payload` per record. `segment` names the
/// file for attribution; `expected` is the logical offset the first
/// record should carry.
///
/// Offset discipline: because segments are contiguous and the base
/// offset is in the file name, every record's logical offset is fully
/// determined by its position — so a CRC-valid record claiming the
/// *wrong* offset is itself corruption (a flipped offset bit), and only
/// *that* record is quarantined; the strict-equality rule keeps one bad
/// offset field from cascading into good records behind it looking like
/// duplicates. Forward gaps are tolerated only immediately after a
/// damage event (the records destroyed by the damage are the gap).
pub(crate) fn scan_segment(
    segment: &str,
    bytes: &[u8],
    expected: u64,
    opts: &ScanOptions,
) -> SegmentScan {
    let mut records = Vec::new();
    let mut damage: Vec<Damage> = Vec::new();
    let mut accepted_max: Option<u64> = None;
    // The offset the next accepted record must carry.
    let mut expected = expected;
    // One past the highest offset any plausible header has claimed —
    // what a reopening writer must not reuse (an acked-then-rotted
    // record's offset must never be reissued).
    let mut watermark = expected;
    // Set after a damage event: the next record may sit past a gap.
    let mut tolerant = false;
    let mut pos = 0usize;
    let bad = |pos: usize, kind: DamageKind, detail: String| Damage {
        segment: segment.to_owned(),
        pos: pos as u64,
        kind,
        detail,
    };
    while pos < bytes.len() {
        match check_record(bytes, pos, opts.max_payload) {
            Ok(h) => {
                let gap_ok =
                    tolerant && h.offset > expected && h.offset - expected <= MAX_OFFSET_JUMP;
                if h.offset == expected || gap_ok {
                    if gap_ok {
                        damage.push(bad(
                            pos,
                            DamageKind::MissingRecords,
                            format!(
                                "offsets {}..{} are missing from the store",
                                expected, h.offset
                            ),
                        ));
                    }
                    let payload =
                        bytes[pos + HEADER_LEN..pos + HEADER_LEN + h.payload_len as usize].to_vec();
                    records.push(ScannedRecord {
                        offset: h.offset,
                        segment: segment.to_owned(),
                        pos: pos as u64,
                        payload,
                    });
                    accepted_max = Some(h.offset);
                    expected = h.offset + 1;
                    watermark = watermark.max(expected);
                    tolerant = false;
                } else if h.offset < expected {
                    // At or below an already-accounted-for offset: a
                    // replayed tail or a stale record.
                    damage.push(bad(
                        pos,
                        DamageKind::DuplicateOffset,
                        format!(
                            "record claims offset {} but {} was expected \
                             (at or below already-accounted offsets{})",
                            h.offset,
                            expected,
                            accepted_max
                                .map(|m| format!("; highest accepted is {m}"))
                                .unwrap_or_default()
                        ),
                    ));
                    tolerant = true;
                } else {
                    // Forward mismatch without a preceding damage event,
                    // or a jump beyond plausibility: a corrupt offset
                    // field. Quarantine this record only.
                    damage.push(bad(
                        pos,
                        DamageKind::ImplausibleOffset,
                        format!(
                            "record claims offset {} but {} was expected \
                             (corrupt offset field suspected)",
                            h.offset, expected
                        ),
                    ));
                    if h.offset - expected <= MAX_OFFSET_JUMP {
                        watermark = watermark.max(h.offset + 1);
                    }
                    tolerant = true;
                }
                pos += HEADER_LEN + h.payload_len as usize;
                continue;
            }
            Err(reject) => {
                // Classify the failure, then resync.
                let (kind, detail) = classify(&reject, bytes.len() - pos);
                // A failed record with an otherwise-sane header still
                // "claims" its offset: advance the reopen watermark.
                if matches!(reject, Reject::Crc { .. } | Reject::TornPayload(_)) {
                    let claimed = read_u64_le(bytes, pos + 8);
                    if claimed >= expected && claimed - expected <= MAX_OFFSET_JUMP {
                        watermark = watermark.max(claimed + 1);
                    }
                }
                let torn_tail = matches!(kind, DamageKind::TornTail);
                damage.push(bad(pos, kind, detail));
                tolerant = true;
                match resync(bytes, pos + 1, opts) {
                    Some(found) => {
                        if found > pos + 1 {
                            damage.push(bad(
                                pos,
                                DamageKind::GarbageSkipped,
                                format!(
                                    "skipped {} unrecognizable bytes during resync",
                                    found - pos
                                ),
                            ));
                        }
                        pos = found;
                    }
                    None => {
                        // A torn tail IS the expected crash shape; only
                        // mid-file damage with no recovery point gets the
                        // extra unrecoverable marker.
                        if !torn_tail {
                            damage.push(bad(
                                pos,
                                DamageKind::Unrecoverable,
                                format!(
                                    "no valid record within the {}-byte resync window; \
                                     {} trailing bytes abandoned",
                                    opts.resync_window,
                                    bytes.len() - pos
                                ),
                            ));
                        }
                        break;
                    }
                }
            }
        }
    }
    SegmentScan { records, damage, next_offset: watermark.max(expected) }
}

fn classify(reject: &Reject, remaining: usize) -> (DamageKind, String) {
    match reject {
        Reject::ShortHeader => (
            DamageKind::TornTail,
            format!("{remaining} trailing bytes are shorter than a {HEADER_LEN}-byte header"),
        ),
        Reject::Magic => {
            (DamageKind::BadMagic, format!("expected magic {MAGIC:#010x} at record start"))
        }
        Reject::Version(v) => (
            DamageKind::BadVersion,
            format!("unknown format version {v} (only {FORMAT_VERSION} is defined)"),
        ),
        Reject::Reserved => {
            (DamageKind::BadReserved, "flags/reserved bits set in a v1 record".to_owned())
        }
        Reject::Oversized(len) => (
            DamageKind::OversizedLength,
            format!("header claims a {len}-byte payload, above the allocation cap"),
        ),
        Reject::TornPayload(len) => (
            DamageKind::TornTail,
            format!("header claims {len} payload bytes but the segment ends first"),
        ),
        Reject::Crc { expected, actual } => (
            DamageKind::CrcMismatch,
            format!("payload CRC {actual:#010x} does not match header checksum {expected:#010x}"),
        ),
    }
}

/// Scans forward from `from` for the next position where a complete
/// record validates, bounded by the resync window.
fn resync(bytes: &[u8], from: usize, opts: &ScanOptions) -> Option<usize> {
    let limit = bytes.len().min(from.saturating_add(opts.resync_window));
    let magic0 = MAGIC.to_le_bytes()[0];
    for candidate in from..limit {
        if bytes[candidate] != magic0 {
            continue;
        }
        if check_record(bytes, candidate, opts.max_payload).is_ok() {
            return Some(candidate);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Store directory layout.
// ---------------------------------------------------------------------------

/// Formats a segment file name from its first logical offset.
fn segment_name(first_offset: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_offset:016x}{SEGMENT_SUFFIX}")
}

/// Parses a segment file name back into its first logical offset.
fn segment_base(name: &str) -> Option<u64> {
    let hex = name.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Lists segment file names in a store directory, sorted by base offset
/// (the zero-padded hex name makes that the lexicographic order too).
pub fn list_segments(dir: &Path) -> Result<Vec<String>> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| Error::io(format!("listing store directory {}", dir.display()), e))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| Error::io(format!("listing store directory {}", dir.display()), e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if segment_base(&name).is_some() {
            // audit:allow(unbounded-corpus-materialization) -- out-of-core: the segment index must be complete and sorted for recovery; bounded by compaction, not job count
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Deletes the segment store at `dir`, if there is one: its segments,
/// their quarantine sidecars and its lock file, then the directory.
/// Deletes nothing and fails when `dir` holds any other entry, which no
/// store writes: the first pass over the listing checks, the second
/// deletes.
pub(crate) fn remove_store(dir: &Path) -> Result<()> {
    let listing = |e| Error::io(format!("listing store directory {}", dir.display()), e);
    for remove in [false, true] {
        let entries = match std::fs::read_dir(dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            entries => entries.map_err(listing)?,
        };
        for entry in entries {
            let name = entry.map_err(listing)?.file_name().to_string_lossy().into_owned();
            let segment = name.strip_suffix(QUARANTINE_SUFFIX).unwrap_or(&name);
            if name != LOCK_FILE && segment_base(segment).is_none() {
                let why =
                    format!("not removing {}: it holds {name}, not a store file", dir.display());
                return Err(Error::new(ErrorKind::Io, why));
            }
            if remove {
                let path = dir.join(name);
                std::fs::remove_file(&path)
                    .map_err(|e| Error::io(format!("removing {}", path.display()), e))?;
            }
        }
    }
    std::fs::remove_dir(dir).map_err(|e| Error::io(format!("removing {}", dir.display()), e))
}

/// Scans a whole store directory with default limits: every segment in
/// offset order, with cross-segment offset continuity checked. I/O errors
/// (unreadable directory or segment) are hard errors; *content* damage
/// never is.
pub fn scan_store(dir: &Path) -> Result<StoreScan> {
    let opts = ScanOptions::default();
    let names = list_segments(dir)?;
    let mut records = Vec::new();
    let mut damage = Vec::new();
    let mut segments = Vec::new();
    let mut expected = 0u64;
    for (i, name) in names.iter().enumerate() {
        let path = dir.join(name);
        let bytes = std::fs::read(&path)
            .map_err(|e| Error::io(format!("reading segment {}", path.display()), e))?;
        if let Some(base) = segment_base(name) {
            if i == 0 {
                expected = base;
            } else if base > expected {
                // audit:allow(unbounded-corpus-materialization) -- out-of-core: the damage list is O(torn regions) and recovery reporting needs all of them
                damage.push(Damage {
                    segment: name.clone(),
                    pos: 0,
                    kind: DamageKind::MissingRecords,
                    detail: format!(
                        "segment starts at offset {base} but {expected} was expected \
                         (a whole segment is missing or was renamed)"
                    ),
                });
                expected = base;
            }
        }
        let scan = scan_segment(name, &bytes, expected, &opts);
        // audit:allow(unbounded-corpus-materialization) -- out-of-core: per-segment status feeds the recovery report; bounded by retention
        segments.push(SegmentStatus {
            name: name.clone(),
            bytes: bytes.len() as u64,
            records: scan.records.len() as u64,
            damage: scan.damage.len() as u64,
        });
        expected = expected.max(scan.next_offset);
        // audit:allow(unbounded-corpus-materialization) -- out-of-core: scan_store returns the full record set by contract; stream via a visitor API when ledgers outgrow memory
        records.extend(scan.records);
        // audit:allow(unbounded-corpus-materialization) -- out-of-core: scan_store returns the full damage set by contract; stream via a visitor API when ledgers outgrow memory
        damage.extend(scan.damage);
    }
    Ok(StoreScan { records, damage, segments, next_offset: expected })
}

// ---------------------------------------------------------------------------
// Quarantine sidecars.
// ---------------------------------------------------------------------------

/// The persisted quarantine report: `<segment>.corrupt`, one per damaged
/// segment. Deliberately timestamp-free so repeated scans of the same
/// damage are byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QuarantineReport {
    /// Damaged segment file name.
    segment: String,
    /// Segment size at scan time.
    bytes: u64,
    /// Records still recovered from the segment.
    records_recovered: u64,
    /// Every damage entry attributed to the segment.
    damage: Vec<Damage>,
}

/// Writes one `<segment>.corrupt` sidecar per damaged segment and
/// returns the paths written. Clean segments get none; a stale sidecar
/// from an earlier scan of a since-repaired segment is removed.
pub fn write_quarantine(dir: &Path, scan: &StoreScan) -> Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for seg in &scan.segments {
        let sidecar = dir.join(format!("{}{QUARANTINE_SUFFIX}", seg.name));
        let entries: Vec<Damage> =
            scan.damage.iter().filter(|d| d.segment == seg.name).cloned().collect();
        if entries.is_empty() {
            if sidecar.exists() {
                std::fs::remove_file(&sidecar).map_err(|e| {
                    Error::io(format!("removing stale sidecar {}", sidecar.display()), e)
                })?;
            }
            continue;
        }
        let report = QuarantineReport {
            segment: seg.name.clone(),
            bytes: seg.bytes,
            records_recovered: seg.records,
            damage: entries,
        };
        let mut text = serde_json::to_string_pretty(&report)
            .map_err(|e| Error::parse("encoding quarantine report", e))?;
        text.push('\n');
        write_atomic(dir, &sidecar, text.as_bytes())?;
        written.push(sidecar);
    }
    Ok(written)
}

// ---------------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------------

/// Writer tuning. `segment_bytes` is the rotation threshold: a segment
/// that has reached it is sealed and a new one opened (a single record
/// larger than the threshold still lands whole in one segment).
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Largest payload the writer accepts (mirrors the read-side cap).
    pub max_payload: u32,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { segment_bytes: 8 << 20, max_payload: 64 << 20 }
    }
}

/// Fsyncs a directory so a just-created/renamed entry is durable.
pub(crate) fn fsync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| Error::io(format!("fsyncing directory {}", dir.display()), e))
}

/// Writes `bytes` to `path` durably and atomically: a unique tmp file in
/// the same directory, fsynced, renamed over the target, then the parent
/// directory fsynced so the rename itself survives a crash. Readers see
/// either the complete old file or the complete new one, never a torn
/// mix. The dotted tmp name never collides with a segment name, so a
/// crash mid-publish leaves nothing a scan would misread.
pub(crate) fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> Result<()> {
    let name =
        path.file_name().map_or_else(|| "file".to_owned(), |n| n.to_string_lossy().into_owned());
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let mut file = File::create(&tmp)
        .map_err(|e| Error::io(format!("creating tmp file {}", tmp.display()), e))?;
    let result = file
        .write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| Error::io(format!("writing tmp file {}", tmp.display()), e))
        .and_then(|()| {
            std::fs::rename(&tmp, path)
                .map_err(|e| Error::io(format!("renaming into {}", path.display()), e))
        });
    if result.is_err() {
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort cleanup of the tmp file; the write error is what matters"
        )]
        std::fs::remove_file(&tmp).ok();
        return result;
    }
    fsync_dir(dir)
}

/// Takes the store's exclusive writer lock: an advisory, blocking lock
/// on `<dir>/.lock`, released when the returned handle drops (including
/// on process death). Holding it for the [`SegmentStore`]'s lifetime
/// makes the scan-then-append sequence atomic against other writers.
fn lock_store(dir: &Path) -> Result<File> {
    let path = dir.join(LOCK_FILE);
    let file = OpenOptions::new()
        .create(true)
        .truncate(false) // the lock file is an empty sentinel; never rewrite it
        .write(true)
        .open(&path)
        .map_err(|e| Error::io(format!("opening store lock {}", path.display()), e))?;
    file.lock().map_err(|e| Error::io(format!("locking store {}", path.display()), e))?;
    Ok(file)
}

/// An open, append-only segment-log store.
pub struct SegmentStore {
    dir: PathBuf,
    opts: StoreOptions,
    seg_name: String,
    file: File,
    seg_len: u64,
    next_offset: u64,
    /// Holds the `<dir>/.lock` advisory lock for the store's lifetime;
    /// dropping the store releases it.
    _lock: File,
}

impl SegmentStore {
    /// Opens (creating if needed) the store at `dir` with default
    /// options.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (creating if needed) the store at `dir`, blocking until the
    /// store's exclusive writer lock is available — a store admits one
    /// writer at a time, so concurrent tools serialize rather than
    /// interleave appends.
    ///
    /// Reopening scans the tail segment: a clean tail is appended to; a
    /// damaged one (torn tail from a crash, bit rot) is *sealed* — left
    /// byte-for-byte intact for `scan`'s quarantine — and writing
    /// continues in a fresh segment whose base skips every offset the
    /// damaged tail plausibly claimed. A tail torn before its first
    /// record claimed anything scans to its own base offset; the fresh
    /// segment then bumps past the sealed file's name (the skipped
    /// offsets were never acknowledged), so reopening never collides.
    pub fn open_with(dir: impl Into<PathBuf>, opts: StoreOptions) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating store directory {}", dir.display()), e))?;
        let lock = lock_store(&dir)?;
        let names = list_segments(&dir)?;
        let scan_opts = ScanOptions { max_payload: opts.max_payload, ..ScanOptions::default() };
        let (seg_name, file, seg_len, next_offset) = match names.last() {
            None => {
                let seg_name = segment_name(0);
                let file = Self::create_segment(&dir, &seg_name)?;
                (seg_name, file, 0, 0)
            }
            Some(tail) => {
                let path = dir.join(tail);
                let bytes = std::fs::read(&path)
                    .map_err(|e| Error::io(format!("reading segment {}", path.display()), e))?;
                let base = segment_base(tail).unwrap_or(0);
                let scan = scan_segment(tail, &bytes, base, &scan_opts);
                if scan.damage.is_empty() {
                    let file = OpenOptions::new()
                        .append(true)
                        .open(&path)
                        .map_err(|e| Error::io(format!("opening segment {}", path.display()), e))?;
                    (tail.clone(), file, bytes.len() as u64, scan.next_offset)
                } else {
                    // Seal the damaged tail; never write after
                    // corruption. The replacement's base may collide
                    // with an existing (sealed) segment's name when the
                    // scan surfaced no plausible offset claim — bump
                    // past every taken name; those offsets were never
                    // acknowledged.
                    let mut first = scan.next_offset;
                    while dir.join(segment_name(first)).exists() {
                        first += 1;
                    }
                    let seg_name = segment_name(first);
                    let file = Self::create_segment(&dir, &seg_name)?;
                    (seg_name, file, 0, first)
                }
            }
        };
        Ok(Self { dir, opts, seg_name, file, seg_len, next_offset, _lock: lock })
    }

    /// Creates a fresh, empty segment file, fsyncing the file and the
    /// directory entry.
    fn create_segment(dir: &Path, seg_name: &str) -> Result<File> {
        let path = dir.join(seg_name);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::io(format!("creating segment {}", path.display()), e))?;
        file.sync_all()
            .map_err(|e| Error::io(format!("fsyncing new segment {}", path.display()), e))?;
        fsync_dir(dir)?;
        Ok(file)
    }

    /// The logical offset the next append will receive.
    #[cfg(test)]
    pub(crate) fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// File name of the segment currently being appended to.
    pub fn segment(&self) -> &str {
        &self.seg_name
    }

    /// Appends one record. Returns its logical offset only after the
    /// bytes are written **and fsynced** — the returned offset is the
    /// durability acknowledgment.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() as u64 > u64::from(self.opts.max_payload) {
            return Err(Error::new(
                ErrorKind::Usage,
                format!(
                    "payload of {} bytes exceeds the store's {}-byte cap",
                    payload.len(),
                    self.opts.max_payload
                ),
            ));
        }
        if self.seg_len >= self.opts.segment_bytes && self.seg_len > 0 {
            self.rotate()?;
        }
        let offset = self.next_offset;
        let record = encode_record(offset, payload);
        let path = self.dir.join(&self.seg_name);
        self.file
            .write_all(&record)
            .map_err(|e| Error::io(format!("appending to segment {}", path.display()), e))?;
        self.file
            .sync_data()
            .map_err(|e| Error::io(format!("fsyncing segment {}", path.display()), e))?;
        self.seg_len += record.len() as u64;
        self.next_offset = offset + 1;
        crate::counter!("obs.store.appends").incr(1);
        Ok(offset)
    }

    /// Seals the current segment and starts the next one.
    fn rotate(&mut self) -> Result<()> {
        let seg_name = segment_name(self.next_offset);
        self.file = Self::create_segment(&self.dir, &seg_name)?;
        self.seg_name = seg_name;
        self.seg_len = 0;
        crate::counter!("obs.store.rotations").incr(1);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crash injection.
// ---------------------------------------------------------------------------

/// The corruption modes the crash harness exercises — each maps to a real
/// failure: a crash mid-write, bit rot on disk, a replayed tail, a
/// half-overwritten region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreFaultKind {
    /// Cut the segment at byte K (crash during the last write).
    TruncateTail,
    /// Flip one bit inside a record payload (bit rot; CRC must catch it).
    BitFlipPayload,
    /// Flip one bit inside a record header (magic/version/offset/length
    /// corruption; the reader must detect it and resync past it).
    BitFlipHeader,
    /// Append a byte-exact copy of the last record (replayed tail; the
    /// duplicate logical offset must be quarantined).
    DuplicateTail,
    /// Insert garbage bytes at a record boundary (half-overwritten
    /// region; the reader must skip it via resync and lose nothing).
    GarbageInterleave,
}

impl StoreFaultKind {
    /// All kinds, in matrix order.
    pub const ALL: [StoreFaultKind; 5] = [
        StoreFaultKind::TruncateTail,
        StoreFaultKind::BitFlipPayload,
        StoreFaultKind::BitFlipHeader,
        StoreFaultKind::DuplicateTail,
        StoreFaultKind::GarbageInterleave,
    ];

    /// Stable slug for file names and reports.
    pub fn slug(self) -> &'static str {
        match self {
            StoreFaultKind::TruncateTail => "truncate-tail",
            StoreFaultKind::BitFlipPayload => "bit-flip-payload",
            StoreFaultKind::BitFlipHeader => "bit-flip-header",
            StoreFaultKind::DuplicateTail => "duplicate-tail",
            StoreFaultKind::GarbageInterleave => "garbage-interleave",
        }
    }
}

/// Ground truth for one injected store fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- part of the public StoreFaultPlan::apply's return, which iotax-report's crash matrix calls
pub struct StoreFault {
    /// What was done.
    pub kind: StoreFaultKind,
    /// Primary byte position of the damage.
    pub pos: u64,
    /// Length of the damaged/inserted/cut region.
    pub len: u64,
    /// Logical offsets whose records the fault destroyed or made
    /// untrustworthy — the *only* records a correct scan may fail to
    /// recover. Everything else must come back bit-identical.
    pub lost: Vec<u64>,
}

/// Deterministic splitmix64 stream; `iotax-obs` sits below
/// `iotax-stats`, so the store carries its own tiny generator rather
/// than importing the substream machinery.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A deterministic, seeded corruption policy for segment bytes — the
/// store-level sibling of `iotax-sim`'s `FaultPlan`: the same
/// `(seed, kind)` pair always produces byte-identical damage, so the
/// crash matrix is reproducible without storing its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFaultPlan {
    /// Base seed; each fault kind draws from its own substream.
    pub seed: u64,
}

impl StoreFaultPlan {
    /// A plan for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Applies `kind` to a clean segment image. Returns the damaged
    /// bytes plus ground truth, or `None` when the segment holds no
    /// complete record to damage.
    pub fn apply(&self, kind: StoreFaultKind, clean: &[u8]) -> Option<(Vec<u8>, StoreFault)> {
        // Strict layout walk; a fault plan only makes sense on a clean
        // segment.
        let mut layout: Vec<(usize, usize, u64)> = Vec::new(); // (start, end, offset)
        let mut pos = 0usize;
        while pos < clean.len() {
            let h = check_record(clean, pos, u32::MAX).ok()?;
            let end = pos + HEADER_LEN + h.payload_len as usize;
            layout.push((pos, end, h.offset));
            pos = end;
        }
        if layout.is_empty() {
            return None;
        }
        // Substream per kind: adding kinds never perturbs the others.
        let mut rng = SplitMix(self.seed ^ (0xD106_0000 + kind as u64));
        let out = match kind {
            StoreFaultKind::TruncateTail => {
                // Cut strictly *inside* a record: a cut landing exactly
                // on a record boundary just shortens the log, which is
                // indistinguishable from a shorter clean log and so not
                // a detectable-corruption case.
                let idx = rng.below(layout.len() as u64) as usize;
                let (start, end, _) = layout[idx];
                let cut = start as u64 + 1 + rng.below((end - start - 1) as u64);
                let lost = layout
                    .iter()
                    .filter(|&&(_, rec_end, _)| rec_end as u64 > cut)
                    .map(|&(_, _, off)| off)
                    .collect();
                let fault = StoreFault { kind, pos: cut, len: clean.len() as u64 - cut, lost };
                (clean[..cut as usize].to_vec(), fault)
            }
            StoreFaultKind::BitFlipPayload => {
                // Pick a record with a non-empty payload, if any.
                let with_payload: Vec<&(usize, usize, u64)> =
                    layout.iter().filter(|&&(s, e, _)| e - s > HEADER_LEN).collect();
                let &&(start, end, off) =
                    with_payload.get(rng.below(with_payload.len() as u64) as usize)?;
                let body = start + HEADER_LEN;
                let target = body as u64 + rng.below((end - body) as u64);
                let bit = rng.below(8) as u32;
                let mut bytes = clean.to_vec();
                bytes[target as usize] ^= 1 << bit;
                (bytes, StoreFault { kind, pos: target, len: 1, lost: vec![off] })
            }
            StoreFaultKind::BitFlipHeader => {
                let idx = rng.below(layout.len() as u64) as usize;
                let (start, _, off) = layout[idx];
                let target = start as u64 + rng.below(HEADER_LEN as u64);
                let bit = rng.below(8) as u32;
                let mut bytes = clean.to_vec();
                bytes[target as usize] ^= 1 << bit;
                (bytes, StoreFault { kind, pos: target, len: 1, lost: vec![off] })
            }
            StoreFaultKind::DuplicateTail => {
                let &(start, end, _) = layout.last()?;
                let mut bytes = clean.to_vec();
                bytes.extend_from_slice(&clean[start..end]);
                let fault = StoreFault {
                    kind,
                    pos: clean.len() as u64,
                    len: (end - start) as u64,
                    lost: Vec::new(),
                };
                (bytes, fault)
            }
            StoreFaultKind::GarbageInterleave => {
                // Insert at a record boundary after at least one record.
                let idx = rng.below(layout.len() as u64) as usize;
                let at = layout[idx].1;
                let len = 1 + rng.below(255) as usize;
                let mut garbage = Vec::with_capacity(len);
                for _ in 0..len {
                    // Avoid fabricating a magic byte run: mask to non-'G'.
                    let b = (rng.next() & 0xFF) as u8;
                    garbage.push(if b == MAGIC.to_le_bytes()[0] { b ^ 0xFF } else { b });
                }
                let mut bytes = Vec::with_capacity(clean.len() + len);
                bytes.extend_from_slice(&clean[..at]);
                bytes.extend_from_slice(&garbage);
                bytes.extend_from_slice(&clean[at..]);
                let fault = StoreFault { kind, pos: at as u64, len: len as u64, lost: Vec::new() };
                (bytes, fault)
            }
        };
        Some(out)
    }
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iotax-store-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear tmp store");
        }
        dir
    }

    #[test]
    fn crc32_matches_the_published_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_round_trip_and_ack_offsets() {
        let dir = tmp("roundtrip");
        let mut store = SegmentStore::open(&dir).expect("open");
        for i in 0..20u64 {
            let payload = format!("record-{i}");
            assert_eq!(store.append(payload.as_bytes()).expect("append"), i);
        }
        let scan = scan_store(&dir).expect("scan");
        assert!(scan.is_clean(), "{:?}", scan.damage);
        assert_eq!(scan.records.len(), 20);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
            assert_eq!(r.payload, format!("record-{i}").into_bytes());
        }
        assert_eq!(scan.next_offset, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_keeps_offsets_monotonic() {
        let dir = tmp("rotate");
        let opts = StoreOptions { segment_bytes: 256, ..StoreOptions::default() };
        let mut store = SegmentStore::open_with(&dir, opts).expect("open");
        for i in 0..40u64 {
            store.append(format!("payload-{i:04}").as_bytes()).expect("append");
        }
        let scan = scan_store(&dir).expect("scan");
        assert!(scan.is_clean(), "{:?}", scan.damage);
        assert!(scan.segments.len() > 1, "expected rotation, got {:?}", scan.segments);
        let offsets: Vec<u64> = scan.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, (0..40).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_after_clean_shutdown() {
        let dir = tmp("reopen");
        {
            let mut store = SegmentStore::open(&dir).expect("open");
            store.append(b"first").expect("append");
        }
        {
            let mut store = SegmentStore::open(&dir).expect("reopen");
            assert_eq!(store.next_offset(), 1);
            assert_eq!(store.append(b"second").expect("append"), 1);
        }
        let scan = scan_store(&dir).expect("scan");
        assert!(scan.is_clean());
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_seals_a_torn_tail_and_never_reuses_offsets() {
        let dir = tmp("torn");
        let seg_path;
        {
            let mut store = SegmentStore::open(&dir).expect("open");
            for i in 0..5u64 {
                store.append(format!("acked-{i}").as_bytes()).expect("append");
            }
            seg_path = dir.join(store.segment());
        }
        // Crash mid-write: chop the last record in half.
        let bytes = std::fs::read(&seg_path).expect("read segment");
        std::fs::write(&seg_path, &bytes[..bytes.len() - 4]).expect("tear");
        let mut store = SegmentStore::open(&dir).expect("reopen");
        // Offset 4 was torn (unacknowledged in the crash model) but its
        // header survived, so the watermark skips it.
        assert_eq!(store.next_offset(), 5);
        store.append(b"after-crash").expect("append");
        let scan = scan_store(&dir).expect("scan");
        assert_eq!(scan.segments.len(), 2, "damaged tail must be sealed, not truncated");
        assert!(scan.damage.iter().any(|d| d.kind == DamageKind::TornTail), "{:?}", scan.damage);
        let offsets: Vec<u64> = scan.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_mid_header_tear_bumps_past_the_sealed_tail() {
        let dir = tmp("midheader");
        let seg_path;
        {
            let mut store = SegmentStore::open(&dir).expect("open");
            store.append(b"only-record").expect("append");
            seg_path = dir.join(store.segment());
        }
        // Crash before the first record's 24-byte header finished: the
        // tail claims no offset, so its scan ends at its own base.
        let bytes = std::fs::read(&seg_path).expect("read segment");
        std::fs::write(&seg_path, &bytes[..10]).expect("tear");
        let mut store =
            SegmentStore::open(&dir).expect("reopen must not collide with the sealed tail");
        // The replacement bumps past the sealed file's name; offset 0
        // was torn before acknowledgment, so skipping it loses nothing.
        assert_eq!(store.next_offset(), 1);
        store.append(b"after-crash").expect("append");
        drop(store);
        let scan = scan_store(&dir).expect("scan");
        assert_eq!(scan.segments.len(), 2, "damaged tail must be sealed, not replaced");
        assert!(scan.damage.iter().any(|d| d.kind == DamageKind::TornTail), "{:?}", scan.damage);
        let offsets: Vec<u64> = scan.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![1]);
        // A second mid-header crash on the fresh tail bumps again.
        let tail = dir.join(segment_name(1));
        let bytes = std::fs::read(&tail).expect("read tail");
        std::fs::write(&tail, &bytes[..HEADER_LEN - 1]).expect("tear tail");
        let mut store = SegmentStore::open(&dir).expect("reopen after second tear");
        assert_eq!(store.next_offset(), 2);
        assert_eq!(store.append(b"after-second-crash").expect("append"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_serialize_through_the_store_lock() {
        let dir = tmp("writer-lock");
        let writers = 4;
        let per_writer = 8u64;
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let mut store = SegmentStore::open(&dir).expect("open");
                    for i in 0..per_writer {
                        store.append(format!("w{w}-{i}").as_bytes()).expect("append");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        let scan = scan_store(&dir).expect("scan");
        assert!(scan.is_clean(), "interleaved writers corrupted the store: {:?}", scan.damage);
        let offsets: Vec<u64> = scan.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, (0..writers as u64 * per_writer).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_length_is_damage_not_allocation() {
        let mut bytes = encode_record(0, b"ok");
        // Forge a header claiming a 4 GiB payload.
        let mut forged = encode_record(1, b"x");
        forged[16..20].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        bytes.extend_from_slice(&forged);
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        assert_eq!(scan.records.len(), 1);
        assert!(
            scan.damage.iter().any(|d| d.kind == DamageKind::OversizedLength),
            "{:?}",
            scan.damage
        );
    }

    #[test]
    fn duplicate_offset_is_quarantined_keeping_the_first() {
        let mut bytes = encode_record(0, b"a");
        bytes.extend_from_slice(&encode_record(1, b"b"));
        bytes.extend_from_slice(&encode_record(1, b"b"));
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        assert_eq!(scan.records.len(), 2);
        assert!(scan.damage.iter().any(|d| d.kind == DamageKind::DuplicateOffset));
    }

    #[test]
    fn corrupt_offset_field_quarantines_only_that_record() {
        let mut bytes = Vec::new();
        for i in 0..10u64 {
            encode_record_into(&mut bytes, i, format!("p{i}").as_bytes());
        }
        // Flip record 3's offset field to 7; CRC covers the payload only,
        // so the record still checksums — the offset rule must catch it
        // without dragging records 4..7 down as "duplicates".
        let pos3 = 3 * (HEADER_LEN + 2);
        bytes[pos3 + 8..pos3 + 16].copy_from_slice(&7u64.to_le_bytes());
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        let offsets: Vec<u64> = scan.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
        assert!(
            scan.damage.iter().any(|d| d.kind == DamageKind::ImplausibleOffset),
            "{:?}",
            scan.damage
        );
    }

    #[test]
    fn fault_plan_is_deterministic_and_covers_all_kinds() {
        let mut clean = Vec::new();
        for i in 0..8u64 {
            encode_record_into(&mut clean, i, format!("payload-{i}").as_bytes());
        }
        let plan = StoreFaultPlan::new(20220914);
        for kind in StoreFaultKind::ALL {
            let a = plan.apply(kind, &clean).expect("fault applies");
            let b = plan.apply(kind, &clean).expect("fault applies");
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert_ne!(a.0, clean, "{kind:?} must change the bytes");
        }
    }

    #[test]
    fn every_fault_kind_is_detected_and_spares_unharmed_records() {
        let mut clean = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..10u64)
            .map(|i| format!("payload-{i}-{}", "z".repeat(i as usize)).into_bytes())
            .collect();
        for (i, p) in payloads.iter().enumerate() {
            encode_record_into(&mut clean, i as u64, p);
        }
        let plan = StoreFaultPlan::new(7);
        for kind in StoreFaultKind::ALL {
            let (dirty, fault) = plan.apply(kind, &clean).expect("fault applies");
            let scan = scan_segment("seg", &dirty, 0, &ScanOptions::default());
            assert!(!scan.damage.is_empty(), "{kind:?}: damage undetected");
            for (i, p) in payloads.iter().enumerate() {
                if fault.lost.contains(&(i as u64)) {
                    continue;
                }
                let got = scan
                    .records
                    .iter()
                    .find(|r| r.offset == i as u64)
                    .unwrap_or_else(|| panic!("{kind:?}: acked record {i} lost"));
                assert_eq!(&got.payload, p, "{kind:?}: record {i} not bit-identical");
            }
        }
    }

    #[test]
    fn quarantine_sidecars_are_written_and_cleaned_up() {
        let dir = tmp("quarantine");
        let mut store = SegmentStore::open(&dir).expect("open");
        for i in 0..4u64 {
            store.append(format!("r{i}").as_bytes()).expect("append");
        }
        let seg = dir.join(store.segment());
        drop(store);
        let clean_scan = scan_store(&dir).expect("scan");
        assert!(write_quarantine(&dir, &clean_scan).expect("quarantine").is_empty());
        // Corrupt one payload byte, scan, quarantine.
        let mut bytes = std::fs::read(&seg).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).expect("write corruption");
        let scan = scan_store(&dir).expect("scan");
        let sidecars = write_quarantine(&dir, &scan).expect("quarantine");
        assert_eq!(sidecars.len(), 1);
        let text = std::fs::read_to_string(&sidecars[0]).expect("read sidecar");
        let report: QuarantineReport = serde_json::from_str(&text).expect("decode sidecar");
        assert_eq!(report.records_recovered, 3);
        assert!(report.damage.iter().any(|d| d.kind == DamageKind::CrcMismatch));
        // Sidecars are not segments; a rescan must ignore them.
        let rescan = scan_store(&dir).expect("rescan");
        assert_eq!(rescan.segments.len(), 1);
        // Repair (restore the byte) removes the stale sidecar.
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).expect("repair");
        let repaired = scan_store(&dir).expect("scan repaired");
        assert!(write_quarantine(&dir, &repaired).expect("quarantine").is_empty());
        assert!(!sidecars[0].exists(), "stale sidecar must be removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_append_is_rejected_loudly() {
        let dir = tmp("cap");
        let opts = StoreOptions { max_payload: 16, ..StoreOptions::default() };
        let mut store = SegmentStore::open_with(&dir, opts).expect("open");
        let err = store.append(&[0u8; 64]).expect_err("must reject");
        assert_eq!(err.kind(), ErrorKind::Usage);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Property tests for the segment log: the reader is *total* (no panic,
/// no over-allocation) on any bytes, acknowledged records survive any
/// crash point bit-identical, and the v1 wire format is pinned
/// byte-for-byte so it can never drift silently. Too slow to interpret
/// under Miri, which checks the unit tests above.
#[cfg(test)]
#[cfg(not(miri))]
mod prop {
    use super::{
        crc32, encode_record, scan_segment, DamageKind, ScanOptions, StoreFaultKind,
        StoreFaultPlan, HEADER_LEN,
    };
    use proptest::prelude::*;

    /// The v1 record layout, pinned as exact bytes (little-endian):
    /// magic "DLOG" (`0x444C4F47`), version 1, flags 0, reserved 0,
    /// offset 3, payload_len 8, CRC-32("taxonomy") = 0xFD12B83D, payload.
    /// If this test fails, the on-disk format changed: that requires a new
    /// version byte, not an edit to this pin.
    #[test]
    fn golden_v1_record_bytes() {
        let expected = "474f4c44010000000300000000000000080000003db812fd7461786f6e6f6d79";
        let bytes = encode_record(3, b"taxonomy");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
        assert_eq!(crc32(b"taxonomy"), 0xFD12_B83D);
        assert_eq!(bytes.len(), HEADER_LEN + 8);
    }

    /// A forged header claiming a multi-GiB payload must surface as
    /// [`DamageKind::OversizedLength`] without the reader ever allocating
    /// anything near the claimed size.
    #[test]
    fn forged_huge_length_header_is_rejected_not_allocated() {
        let mut bytes = encode_record(0, b"legitimate");
        let mut forged = encode_record(1, b"x");
        forged[16..20].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        bytes.extend_from_slice(&forged);
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        assert_eq!(scan.records.len(), 1);
        assert!(
            scan.damage.iter().any(|d| d.kind == DamageKind::OversizedLength),
            "{:?}",
            scan.damage
        );
        let recovered: usize = scan.records.iter().map(|r| r.payload.len()).sum();
        assert!(recovered <= bytes.len());
    }

    /// The bytewise, bit-at-a-time CRC-32 (IEEE) that the slicing-by-8
    /// kernel must reproduce exactly.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Builds a clean segment image of `payloads` starting at offset 0.
    fn clean_segment(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64, p));
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slicing-by-8 CRC equals the bytewise reference on any bytes,
        /// whatever the length mod 8 and wherever the slice starts.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
            skip in 0usize..8,
        ) {
            let data = bytes.get(skip..).unwrap_or(&[]);
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }

        /// Totality: arbitrary byte soup never panics the scanner, and the
        /// sum of recovered payload bytes can never exceed the input (the
        /// allocation-cap property: a scan of N bytes allocates O(N)).
        #[test]
        fn scanner_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
            let recovered: usize = scan.records.iter().map(|r| r.payload.len()).sum();
            prop_assert!(recovered <= bytes.len());
            prop_assert!(scan.records.len() <= bytes.len() / HEADER_LEN + 1);
        }

        /// Adversarial totality: a valid magic + version prefix commits the
        /// scanner to reading attacker-controlled header fields.
        #[test]
        fn scanner_is_total_on_magic_prefixed_bytes(tail in prop::collection::vec(any::<u8>(), 0..2048)) {
            let mut bytes = 0x444C_4F47u32.to_le_bytes().to_vec();
            bytes.push(1); // version
            bytes.extend_from_slice(&tail);
            let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
            let recovered: usize = scan.records.iter().map(|r| r.payload.len()).sum();
            prop_assert!(recovered <= bytes.len());
        }

        /// Round trip: a clean segment scans to exactly its records, with no
        /// damage and the correct continuation offset.
        #[test]
        fn clean_segments_round_trip(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..20)
        ) {
            let bytes = clean_segment(&payloads);
            let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
            prop_assert!(scan.damage.is_empty(), "{:?}", scan.damage);
            prop_assert_eq!(scan.records.len(), payloads.len());
            for (i, p) in payloads.iter().enumerate() {
                prop_assert_eq!(scan.records[i].offset, i as u64);
                prop_assert_eq!(&scan.records[i].payload, p);
            }
            prop_assert_eq!(scan.next_offset, payloads.len() as u64);
        }

        /// Write-ahead durability: for ANY crash point K, every record whose
        /// bytes lie entirely below K (i.e. whose append was acknowledged
        /// before the crash) is recovered bit-identical.
        #[test]
        fn crash_point_preserves_every_acknowledged_record(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..16),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = clean_segment(&payloads);
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let scan = scan_segment("seg", &bytes[..cut], 0, &ScanOptions::default());
            let mut end = 0usize;
            for (i, p) in payloads.iter().enumerate() {
                end += HEADER_LEN + p.len();
                if end > cut {
                    break; // this record and everything after was in flight
                }
                let got = scan.records.iter().find(|r| r.offset == i as u64);
                match got {
                    Some(r) => prop_assert!(&r.payload == p, "record {} altered at cut {}", i, cut),
                    None => prop_assert!(false, "acked record {} lost at cut {}", i, cut),
                }
            }
        }

        /// The seeded fault plan upholds its ground truth for every kind and
        /// any seed: damage is detected, and only the records the fault
        /// names as lost may be missing from the rescan.
        #[test]
        fn fault_plan_ground_truth_holds_for_any_seed(
            seed in any::<u64>(),
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..100), 2..12),
        ) {
            let bytes = clean_segment(&payloads);
            let plan = StoreFaultPlan::new(seed);
            for kind in StoreFaultKind::ALL {
                let Some((dirty, fault)) = plan.apply(kind, &bytes) else {
                    prop_assert!(false, "{:?}: plan refused a clean segment", kind);
                    continue;
                };
                prop_assert!(dirty != bytes, "{:?}: no damage applied", kind);
                let scan = scan_segment("seg", &dirty, 0, &ScanOptions::default());
                prop_assert!(!scan.damage.is_empty(), "{:?}: corruption undetected", kind);
                for (i, p) in payloads.iter().enumerate() {
                    if fault.lost.contains(&(i as u64)) {
                        continue;
                    }
                    let intact = scan.records.iter().any(|r| r.offset == i as u64 && &r.payload == p);
                    prop_assert!(intact, "{:?} seed {}: acked record {} lost outside ground truth",
                        kind, seed, i);
                }
            }
        }
    }
}
