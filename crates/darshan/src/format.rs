//! Binary log format: writer and strict parser.
//!
//! Layout (all integers little-endian unless varint-coded):
//!
//! ```text
//! magic        8 bytes   b"IOTAXDRN"
//! version      u16       format version (currently 1)
//! job_id       varint u64
//! uid          varint u64
//! nprocs       varint u64
//! start_time   zigzag varint i64
//! end_time     zigzag varint i64
//! exe          varint len + utf8 bytes
//! module_count varint u64
//!   per module:
//!     module_id    u8 (1 = POSIX, 2 = MPI-IO)
//!     record_count varint u64
//!       per record:
//!         file_hash   u64 (fixed 8 bytes)
//!         rank_count  varint u64
//!         counters    counter_count(module) × f64 (raw LE bits)
//! crc32        u32       CRC-32 (IEEE) of everything before it
//! ```
//!
//! The parser validates the magic, version, module tags, counter widths,
//! string UTF-8, and the trailing checksum, and rejects truncated input —
//! the same failure modes `darshan-parser` guards against.

use crate::record::{FileRecord, JobLog, ModuleData, ModuleId};
use iotax_obs::store::crc32;

/// Errors the parser can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input shorter than a minimal valid log.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown module tag byte.
    BadModule(u8),
    /// The same module appeared twice.
    DuplicateModule(u8),
    /// Executable name was not valid UTF-8.
    BadString,
    /// A varint ran past 10 bytes or past the end of input.
    BadVarint {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// CRC32 trailer mismatch.
    BadChecksum {
        /// Checksum stored in the log.
        expected: u32,
        /// Checksum computed over the payload.
        actual: u32,
    },
    /// Trailing garbage after the checksum.
    TrailingBytes {
        /// Number of unexpected extra bytes.
        extra: usize,
    },
    /// A counter value was not finite.
    NonFiniteCounter,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated { offset } => write!(f, "truncated log at byte {offset}"),
            ParseError::BadMagic => write!(f, "bad magic bytes"),
            ParseError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            ParseError::BadModule(b) => write!(f, "unknown module tag {b}"),
            ParseError::DuplicateModule(b) => write!(f, "module tag {b} repeated"),
            ParseError::BadString => write!(f, "executable name is not valid UTF-8"),
            ParseError::BadVarint { offset } => write!(f, "malformed varint at byte {offset}"),
            ParseError::BadChecksum { expected, actual } => {
                write!(f, "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}")
            }
            ParseError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after checksum")
            }
            ParseError::NonFiniteCounter => write!(f, "non-finite counter value"),
        }
    }
}

impl std::error::Error for ParseError {}

pub(crate) const MAGIC: &[u8; 8] = b"IOTAXDRN";
pub(crate) const VERSION: u16 = 1;

// ---------------------------------------------------------------------------
// Varint encoding (LEB128 for u64, zigzag for i64).
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// A reader positioned at `pos` (used by the salvage resync scan).
    pub(crate) fn at(data: &'a [u8], pos: usize) -> Self {
        Self { data, pos }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        // `n` can be attacker-controlled (e.g. a length varint up to
        // u64::MAX), so `self.pos + n` may overflow; compare against the
        // remaining byte count instead.
        if n > self.remaining() {
            return Err(ParseError::Truncated { offset: self.pos });
        }
        let s = self
            .data
            .get(self.pos..self.pos + n)
            .ok_or(ParseError::Truncated { offset: self.pos })?;
        self.pos += n;
        Ok(s)
    }

    /// Bytes consumed so far (the CRC payload). The fallback to the full
    /// slice is unreachable — `pos <= data.len()` is a `take` invariant —
    /// and harmless if ever hit (it can only make the CRC check fail).
    pub(crate) fn consumed(&self) -> &'a [u8] {
        self.data.get(..self.pos).unwrap_or(self.data)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ParseError> {
        Ok(u8::from_le_bytes(arr(self.take(1)?)))
    }

    pub(crate) fn u16_le(&mut self) -> Result<u16, ParseError> {
        Ok(u16::from_le_bytes(arr(self.take(2)?)))
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32, ParseError> {
        Ok(u32::from_le_bytes(arr(self.take(4)?)))
    }

    pub(crate) fn u64_le(&mut self) -> Result<u64, ParseError> {
        Ok(u64::from_le_bytes(arr(self.take(8)?)))
    }

    pub(crate) fn f64_le(&mut self) -> Result<f64, ParseError> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    pub(crate) fn varint(&mut self) -> Result<u64, ParseError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            if shift >= 70 {
                return Err(ParseError::BadVarint { offset: start });
            }
            let byte = self.u8().map_err(|_| ParseError::BadVarint { offset: start })?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint used as an in-memory length or element count. A value
    /// that cannot fit in `usize` can never be satisfied by the input,
    /// so it reports as truncation at the varint's offset.
    pub(crate) fn varint_len(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| ParseError::Truncated { offset: start })
    }

    /// A varint for a field stored as `u32` (uid, nprocs, rank counts).
    /// Out-of-range values are malformed input, not silent truncation.
    pub(crate) fn varint_u32(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| ParseError::BadVarint { offset: start })
    }

    pub(crate) fn zigzag(&mut self) -> Result<i64, ParseError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

/// Copy the head of `b` into a fixed array, zero-padding any shortfall.
/// Callers pass `take(N)?` output, so the lengths always match; the
/// zero-pad keeps the helper total without a panic path.
fn arr<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = *src;
    }
    a
}

/// Conversion into the unified workspace error: a malformed log is a data
/// error ([`iotax_obs::ErrorKind::Parse`], process exit code 65 =
/// `EX_DATAERR`), with the typed [`ParseError`] preserved as the source so
/// callers can still downcast and match on the exact failure.
impl From<ParseError> for iotax_obs::Error {
    fn from(e: ParseError) -> Self {
        iotax_obs::Error::parse("malformed darshan log", e)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_module(out: &mut Vec<u8>, m: &ModuleData) {
    out.push(m.module.tag());
    put_varint(out, m.records.len() as u64);
    for r in &m.records {
        debug_assert_eq!(r.counters.len(), m.module.counter_count());
        out.extend_from_slice(&r.file_hash.to_le_bytes());
        put_varint(out, r.rank_count as u64);
        for &c in &r.counters {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
}

/// Serialize a [`JobLog`] to the binary format.
pub fn write_log(log: &JobLog) -> Vec<u8> {
    iotax_obs::counter!("darshan.logs_encoded").incr(1);
    // Rough pre-size: header + 8 bytes/counter.
    let n_counters: usize =
        log.posix.records.len() * 48 + log.mpiio.as_ref().map_or(0, |m| m.records.len() * 48);
    let mut out = Vec::with_capacity(64 + log.exe.len() + n_counters * 8 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_varint(&mut out, log.job_id);
    put_varint(&mut out, log.uid as u64);
    put_varint(&mut out, log.nprocs as u64);
    put_zigzag(&mut out, log.start_time);
    put_zigzag(&mut out, log.end_time);
    put_varint(&mut out, log.exe.len() as u64);
    out.extend_from_slice(log.exe.as_bytes());
    let module_count = 1 + log.mpiio.is_some() as u64;
    put_varint(&mut out, module_count);
    write_module(&mut out, &log.posix);
    if let Some(m) = &log.mpiio {
        write_module(&mut out, m);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    iotax_obs::histogram!("darshan.encoded_log_bytes").record(out.len() as u64);
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn parse_module(r: &mut Reader<'_>) -> Result<ModuleData, ParseError> {
    let tag = r.u8()?;
    let module = ModuleId::from_u8(tag).ok_or(ParseError::BadModule(tag))?;
    let record_count = r.varint_len()?;
    let mut records = Vec::with_capacity(record_count.min(1 << 20));
    for _ in 0..record_count {
        let file_hash = r.u64_le()?;
        let rank_count = r.varint_u32()?;
        let width = module.counter_count();
        // audit:allow(untrusted-length-allocation) -- width is counter_count(), a fixed 48-entry table keyed by the already-validated ModuleId enum, not wire data
        let mut counters = Vec::with_capacity(width);
        for _ in 0..width {
            let v = r.f64_le()?;
            if !v.is_finite() {
                return Err(ParseError::NonFiniteCounter);
            }
            counters.push(v);
        }
        records.push(FileRecord { file_hash, rank_count, counters });
    }
    Ok(ModuleData { module, records })
}

/// Parse a binary log produced by [`write_log`].
///
/// Strict: validates magic, version, module tags, UTF-8, CRC32, and rejects
/// trailing bytes.
pub fn parse_log(data: &[u8]) -> Result<JobLog, ParseError> {
    iotax_obs::counter!("darshan.logs_parsed").incr(1);
    iotax_obs::histogram!("darshan.log_bytes").record(data.len() as u64);
    let mut r = Reader::new(data);
    if r.take(8).map_err(|_| ParseError::BadMagic)? != MAGIC {
        return Err(ParseError::BadMagic);
    }
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(ParseError::BadVersion(version));
    }
    let job_id = r.varint()?;
    let uid = r.varint_u32()?;
    let nprocs = r.varint_u32()?;
    let start_time = r.zigzag()?;
    let end_time = r.zigzag()?;
    let exe_len = r.varint_len()?;
    // audit:allow(untrusted-length-allocation) -- Reader::take rejects n > remaining() before slicing; a forged exe_len fails as Truncated and never allocates
    let exe = std::str::from_utf8(r.take(exe_len)?).map_err(|_| ParseError::BadString)?.to_owned();
    let module_count = r.varint()?;
    let mut posix: Option<ModuleData> = None;
    let mut mpiio: Option<ModuleData> = None;
    for _ in 0..module_count {
        let m = parse_module(&mut r)?;
        let slot = match m.module {
            ModuleId::Posix => &mut posix,
            ModuleId::Mpiio => &mut mpiio,
        };
        if slot.is_some() {
            return Err(ParseError::DuplicateModule(m.module.tag()));
        }
        *slot = Some(m);
    }
    let payload = r.consumed();
    let stored = r.u32_le()?;
    let actual = crc32(payload);
    if stored != actual {
        return Err(ParseError::BadChecksum { expected: stored, actual });
    }
    if r.pos != data.len() {
        return Err(ParseError::TrailingBytes { extra: data.len() - r.pos });
    }
    Ok(JobLog {
        job_id,
        uid,
        nprocs,
        start_time,
        end_time,
        exe,
        posix: posix.unwrap_or_else(|| ModuleData::new(ModuleId::Posix)),
        mpiio,
    })
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// Byte span of one record inside a serialized log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit:allow(dead-public-api) -- element type of LogLayout's public `records` field; layout() is called by iotax-sim's fault injector
pub struct RecordSpan {
    /// Module the record belongs to.
    pub module: ModuleId,
    /// Record index within its module section.
    pub index: usize,
    /// First byte of the record (the file-hash field).
    pub start: usize,
    /// One past the last byte of the record.
    pub end: usize,
}

/// Byte-offset map of a serialized log: where the header ends, where each
/// record begins and ends, and where the CRC trailer starts.
///
/// Used by the fault injector to compute ground truth (how many whole
/// records precede a truncation point) and by tests asserting that
/// [`ParseError::Truncated`] offsets are byte-accurate at every boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
// audit:allow(dead-public-api) -- return type of the public layout(), which iotax-sim's fault injector calls
pub struct LogLayout {
    /// End of the fixed+varint job header (one past the module-count
    /// varint; the first module tag byte sits here).
    pub header_end: usize,
    /// `(module, tag_offset, first_record_offset)` per module section.
    pub modules: Vec<(ModuleId, usize, usize)>,
    /// Every record's byte span, in on-disk order.
    pub records: Vec<RecordSpan>,
    /// First byte of the CRC-32 trailer.
    pub crc_start: usize,
}

impl LogLayout {
    /// Number of records that lie entirely before byte offset `cut` —
    /// the most any salvage pass can recover from a truncation at `cut`.
    pub fn records_before(&self, cut: usize) -> usize {
        self.records.iter().filter(|r| r.end <= cut).count()
    }
}

/// Map the byte layout of a serialized log without materializing records.
/// Fails with the same [`ParseError`]s as [`parse_log`] on structurally
/// invalid input (the CRC is *not* checked — layout is structure only).
pub fn layout(data: &[u8]) -> Result<LogLayout, ParseError> {
    let mut r = Reader::new(data);
    if r.take(8).map_err(|_| ParseError::BadMagic)? != MAGIC {
        return Err(ParseError::BadMagic);
    }
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(ParseError::BadVersion(version));
    }
    r.varint()?; // job_id
    r.varint()?; // uid
    r.varint()?; // nprocs
    r.zigzag()?; // start_time
    r.zigzag()?; // end_time
    let exe_len = r.varint_len()?;
    // audit:allow(untrusted-length-allocation) -- Reader::take rejects n > remaining() before slicing; a forged exe_len fails as Truncated and never allocates
    r.take(exe_len)?;
    let module_count = r.varint()?;
    let header_end = r.pos;
    let mut modules = Vec::new();
    let mut records = Vec::new();
    for _ in 0..module_count {
        let tag_offset = r.pos;
        let tag = r.u8()?;
        let module = ModuleId::from_u8(tag).ok_or(ParseError::BadModule(tag))?;
        let record_count = r.varint_len()?;
        modules.push((module, tag_offset, r.pos));
        for index in 0..record_count {
            let start = r.pos;
            r.take(8)?; // file_hash
            r.varint()?; // rank_count
                         // audit:allow(untrusted-length-allocation) -- counter_count() is a fixed 48-entry table keyed by the validated ModuleId enum, and take() bounds-checks before slicing
            r.take(8 * module.counter_count())?;
            records.push(RecordSpan { module, index, start, end: r.pos });
        }
    }
    Ok(LogLayout { header_end, modules, records, crc_start: r.pos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PosixCounter;

    fn sample_log() -> JobLog {
        let mut log = JobLog::new(42, 1001, 128, 86_400, 90_000, "hacc_io");
        let mut rec = FileRecord::zeroed(ModuleId::Posix, 0xABCD_EF01_2345_6789, 128);
        rec.counters[PosixCounter::PosixOpens.index()] = 128.0;
        rec.counters[PosixCounter::PosixBytesWritten.index()] = 2.5e11;
        log.posix.records.push(rec);
        let mut m = ModuleData::new(ModuleId::Mpiio);
        m.records.push(FileRecord::zeroed(ModuleId::Mpiio, 0x1111, 128));
        log.mpiio = Some(m);
        log
    }

    #[test]
    fn round_trip_preserves_everything() {
        let log = sample_log();
        let bytes = write_log(&log);
        let parsed = parse_log(&bytes).expect("round trip");
        assert_eq!(parsed, log);
    }

    #[test]
    fn round_trip_without_mpiio() {
        let mut log = sample_log();
        log.mpiio = None;
        let parsed = parse_log(&write_log(&log)).expect("round trip");
        assert_eq!(parsed, log);
    }

    #[test]
    fn negative_timestamps_round_trip() {
        let mut log = sample_log();
        log.start_time = -12345;
        log.end_time = -1;
        let parsed = parse_log(&write_log(&log)).expect("round trip");
        assert_eq!(parsed.start_time, -12345);
        assert_eq!(parsed.end_time, -1);
    }

    #[test]
    fn huge_length_varint_is_truncation_not_overflow() {
        // A crafted header whose exe-length varint decodes to u64::MAX used
        // to overflow the bounds check in Reader::take (panic in debug,
        // inverted slice range in release). It must be a clean error.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]); // five 1-byte header varints
        bytes.extend_from_slice(&[0xFF; 9]); // exe_len varint = u64::MAX...
        bytes.push(0x01); // ...terminated
        assert!(matches!(parse_log(&bytes), Err(ParseError::Truncated { .. })));
        assert!(crate::salvage::parse_log_lenient(&bytes).is_err());
    }

    #[test]
    fn layout_rejects_huge_length_varint_without_allocating() {
        // layout() walks the same framing as parse_log; a forged exe-length
        // or record-count varint must fail as Truncated, never size a buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]); // five 1-byte header varints
        bytes.extend_from_slice(&[0xFF; 9]); // exe_len varint = u64::MAX...
        bytes.push(0x01); // ...terminated
        assert!(matches!(layout(&bytes), Err(ParseError::Truncated { .. })));

        // Same attack via the record-count varint of a module section.
        let mut bytes = write_log(&sample_log());
        let header = layout(&bytes).expect("pristine log maps");
        let (_, tag_offset, count_end) = header.modules[0];
        bytes.splice(tag_offset + 1..count_end, [0xFF; 9].into_iter().chain([0x01]));
        assert!(matches!(layout(&bytes), Err(ParseError::Truncated { .. })));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = write_log(&sample_log());
        bytes[0] ^= 0xFF;
        assert_eq!(parse_log(&bytes), Err(ParseError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = write_log(&sample_log());
        bytes[8] = 99;
        assert_eq!(parse_log(&bytes), Err(ParseError::BadVersion(99)));
    }

    #[test]
    fn rejects_flipped_payload_bit() {
        let mut bytes = write_log(&sample_log());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        match parse_log(&bytes) {
            // Most flips surface as a checksum failure; flips inside
            // structural fields may fail structurally first. Both are
            // acceptable rejections.
            Err(_) => {}
            Ok(parsed) => panic!("corrupted log parsed successfully: {parsed:?}"),
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = write_log(&sample_log());
        for cut in 0..bytes.len() {
            assert!(
                parse_log(&bytes[..cut]).is_err(),
                "truncation at {cut} of {} accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = write_log(&sample_log());
        bytes.push(0);
        assert_eq!(parse_log(&bytes), Err(ParseError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn rejects_nan_counter() {
        let mut log = sample_log();
        log.posix.records[0].counters[3] = f64::NAN;
        let bytes = write_log(&log);
        assert_eq!(parse_log(&bytes), Err(ParseError::NonFiniteCounter));
    }

    #[test]
    fn crc32_known_value() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_published_ieee_vectors() {
        // Published CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF)
        // check vectors beyond the canonical one.
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"message digest"), 0x2015_9D7F);
        assert_eq!(crc32(b"abcdefghijklmnopqrstuvwxyz"), 0x4C27_50BD);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // A CRC of a message followed by its little-endian CRC is the
        // fixed "residue" value — the property the trailer check relies on.
        let mut buf = b"123456789".to_vec();
        let c = crc32(&buf);
        buf.extend_from_slice(&c.to_le_bytes());
        assert_eq!(crc32(&buf) ^ 0xFFFF_FFFF, 0xDEBB_20E3);
    }

    #[test]
    fn parse_error_converts_to_unified_error_with_dataerr_exit() {
        let err: iotax_obs::Error = ParseError::BadMagic.into();
        assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse);
        assert_eq!(err.exit_code(), 65, "Parse must map to EX_DATAERR");
        let source = std::error::Error::source(&err).expect("typed source kept");
        assert_eq!(source.downcast_ref::<ParseError>(), Some(&ParseError::BadMagic));
    }

    #[test]
    fn layout_matches_parse() {
        let log = sample_log();
        let bytes = write_log(&log);
        let lay = layout(&bytes).expect("layout");
        // One POSIX + one MPI-IO record, spans ordered and within bounds.
        assert_eq!(lay.records.len(), 2);
        assert_eq!(lay.modules.len(), 2);
        assert!(lay.header_end < lay.records[0].start);
        assert!(lay.records.windows(2).all(|w| w[0].end <= w[1].start));
        assert_eq!(lay.crc_start, bytes.len() - 4);
        assert_eq!(lay.records_before(bytes.len()), 2);
        assert_eq!(lay.records_before(lay.records[0].end), 1);
        assert_eq!(lay.records_before(lay.records[0].end - 1), 0);
    }

    #[test]
    fn truncation_offsets_are_byte_accurate_at_boundaries() {
        // Build a log with several records so there are many boundaries.
        let mut log = sample_log();
        for f in 0..4u64 {
            log.posix.records.push(FileRecord::zeroed(ModuleId::Posix, 0x1000 + f, 4));
        }
        let bytes = write_log(&log);
        let lay = layout(&bytes).expect("layout");

        // Cut exactly at a record start: the next read is the 8-byte file
        // hash, so the parser must report `Truncated` at exactly the cut.
        for span in &lay.records {
            assert_eq!(
                parse_log(&bytes[..span.start]),
                Err(ParseError::Truncated { offset: span.start }),
                "cut at record start {}",
                span.start
            );
            // Cut mid-hash: same offset (the read that needed more bytes
            // started at the record boundary).
            assert_eq!(
                parse_log(&bytes[..span.start + 4]),
                Err(ParseError::Truncated { offset: span.start }),
                "cut inside hash of record at {}",
                span.start
            );
            // Cut right after the hash: the rank-count varint fails at the
            // byte where it starts.
            assert_eq!(
                parse_log(&bytes[..span.start + 8]),
                Err(ParseError::BadVarint { offset: span.start + 8 }),
                "cut after hash of record at {}",
                span.start
            );
        }
        // Cut at the CRC trailer: truncated exactly at crc_start.
        assert_eq!(
            parse_log(&bytes[..lay.crc_start]),
            Err(ParseError::Truncated { offset: lay.crc_start }),
        );
        assert_eq!(
            parse_log(&bytes[..lay.crc_start + 2]),
            Err(ParseError::Truncated { offset: lay.crc_start }),
        );
        // Cut inside the magic: reported as BadMagic, and at the version
        // field as Truncated at the version offset (byte 8).
        assert_eq!(parse_log(&bytes[..5]), Err(ParseError::BadMagic));
        assert_eq!(parse_log(&bytes[..9]), Err(ParseError::Truncated { offset: 8 }));
        // Every other cut still fails with an offset no further than the
        // cut itself (the parser never claims to need bytes it already had).
        for cut in 0..bytes.len() {
            match parse_log(&bytes[..cut]) {
                Err(ParseError::Truncated { offset }) | Err(ParseError::BadVarint { offset }) => {
                    assert!(offset <= cut, "cut {cut}: reported offset {offset} past the cut")
                }
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} accepted"),
            }
        }
    }

    #[test]
    fn empty_exe_and_zero_records_round_trip() {
        let log = JobLog::new(0, 0, 1, 0, 1, "");
        let parsed = parse_log(&write_log(&log)).expect("round trip");
        assert_eq!(parsed, log);
    }
}

/// Property-based tests for the Darshan log format: arbitrary logs must
/// round-trip bit-exactly, and any single-byte corruption must be rejected.
/// The salvage parser adds its own guarantees: neither parser ever panics
/// on arbitrary bytes, and on clean logs lenient == strict exactly.
#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "cut points are fractions in [0, 1) of a log's length"
)]
mod prop {
    use super::{layout, parse_log, write_log, ParseError};
    use crate::record::{FileRecord, JobLog, ModuleData, ModuleId};
    use crate::salvage::parse_log_lenient;
    use proptest::prelude::*;

    fn arb_counters(module: ModuleId) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1e15f64..1e15, module.counter_count()..=module.counter_count())
    }

    fn arb_record(module: ModuleId) -> impl Strategy<Value = FileRecord> {
        (any::<u64>(), 1u32..100_000, arb_counters(module)).prop_map(
            move |(hash, ranks, counters)| FileRecord {
                file_hash: hash,
                rank_count: ranks,
                counters,
            },
        )
    }

    fn arb_module(module: ModuleId) -> impl Strategy<Value = ModuleData> {
        prop::collection::vec(arb_record(module), 0..12)
            .prop_map(move |records| ModuleData { module, records })
    }

    prop_compose! {
        fn arb_log()(
            job_id in any::<u64>(),
            uid in any::<u32>(),
            nprocs in 1u32..1_000_000,
            start in -1_000_000_000i64..4_000_000_000,
            duration in 0i64..10_000_000,
            exe in "[a-zA-Z0-9_./-]{0,64}",
            posix in arb_module(ModuleId::Posix),
            mpiio in prop::option::of(arb_module(ModuleId::Mpiio)),
        ) -> JobLog {
            JobLog {
                job_id,
                uid,
                nprocs,
                start_time: start,
                end_time: start + duration,
                exe,
                posix,
                mpiio,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn round_trip_is_identity(log in arb_log()) {
            let bytes = write_log(&log);
            let parsed = parse_log(&bytes).expect("round trip");
            prop_assert_eq!(parsed, log);
        }

        #[test]
        fn truncation_is_always_rejected(log in arb_log(), frac in 0.0f64..1.0) {
            let bytes = write_log(&log);
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(cut < bytes.len());
            prop_assert!(parse_log(&bytes[..cut]).is_err());
        }

        #[test]
        fn single_byte_corruption_is_detected_or_changes_content(log in arb_log(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
            let bytes = write_log(&log);
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= flip;
            match parse_log(&corrupted) {
                // Detected: structural failure or checksum mismatch.
                Err(_) => {}
                // A parse that *succeeds* would mean a CRC32 collision from a
                // single-byte flip — impossible for CRC32.
                Ok(parsed) => prop_assert!(false, "corruption at {pos} accepted: {parsed:?}"),
            }
        }

        #[test]
        fn trailing_garbage_is_rejected(log in arb_log(), extra in 1usize..16) {
            let mut bytes = write_log(&log);
            bytes.extend(std::iter::repeat_n(0xAB, extra));
            prop_assert_eq!(parse_log(&bytes), Err(ParseError::TrailingBytes { extra }));
        }

        #[test]
        fn parsers_never_panic_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
            // Neither parser may panic, loop, or over-allocate on garbage.
            let _ = parse_log(&bytes);
            let _ = parse_log_lenient(&bytes);
        }

        #[test]
        fn parsers_never_panic_on_magic_prefixed_garbage(tail in prop::collection::vec(any::<u8>(), 0..1024)) {
            // Adversarial case: a valid magic + version so the parsers commit
            // to reading deep into attacker-controlled bytes.
            let mut bytes = b"IOTAXDRN".to_vec();
            bytes.extend_from_slice(&1u16.to_le_bytes());
            bytes.extend_from_slice(&tail);
            let _ = parse_log(&bytes);
            if let Ok((salvaged, _)) = parse_log_lenient(&bytes) {
                prop_assert!(salvaged.records_recovered < 1 << 20);
            }
        }

        #[test]
        fn lenient_equals_strict_on_clean_logs(log in arb_log()) {
            let bytes = write_log(&log);
            let strict = parse_log(&bytes).expect("strict parse");
            let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("lenient parse");
            prop_assert!(anomalies.is_empty(), "clean log produced {anomalies:?}");
            prop_assert!(salvaged.complete);
            prop_assert_eq!(salvaged.log, strict);
        }

        #[test]
        fn lenient_recovers_every_record_before_a_cut(log in arb_log(), frac in 0.0f64..1.0) {
            let bytes = write_log(&log);
            let lay = layout(&bytes).expect("layout");
            let cut = ((bytes.len() as f64) * frac) as usize;
            let expect = lay.records_before(cut);
            match parse_log_lenient(&bytes[..cut]) {
                Ok((salvaged, _)) => prop_assert!(
                    salvaged.records_recovered >= expect,
                    "cut {cut}: recovered {} < {expect}", salvaged.records_recovered
                ),
                // Unsalvageable is only legal while the cut is inside the header.
                Err(_) => prop_assert!(cut < lay.header_end, "cut {cut} past header unsalvageable"),
            }
        }

        #[test]
        fn lenient_survives_single_byte_corruption(log in arb_log(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
            let bytes = write_log(&log);
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= flip;
            // Must not panic; when it salvages, the anomaly list explains any
            // structural loss.
            if let Ok((salvaged, anomalies)) = parse_log_lenient(&corrupted) {
                if corrupted != bytes && salvaged.complete {
                    prop_assert!(
                        !anomalies.is_empty(),
                        "undetected corruption at {pos}: {salvaged:?}"
                    );
                }
            }
        }

        #[test]
        fn serialized_size_is_linear_in_records(log in arb_log()) {
            let n_counters = log.posix.records.len() * 48
                + log.mpiio.as_ref().map_or(0, |m| m.records.len() * 48);
            let bytes = write_log(&log);
            // Counters dominate: 8 bytes each plus bounded header overhead.
            prop_assert!(bytes.len() >= n_counters * 8);
            prop_assert!(bytes.len() <= n_counters * 8 + 200 + log.exe.len()
                + 20 * (log.posix.records.len() + log.mpiio.as_ref().map_or(0, |m| m.records.len())));
        }
    }
}
