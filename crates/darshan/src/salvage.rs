//! Lenient "salvage" parsing of damaged binary logs.
//!
//! Production Darshan corpora are dirty: truncated transfers, flipped bits
//! on failing disks, half-written files from killed jobs. The strict
//! [`parse_log`](crate::format::parse_log) rejects all of it, which is the
//! right default for a library — but an ingestion pipeline that throws away
//! a 100K-job trace because one log lost its tail is measuring its own
//! fragility, not the system's. This module adds the second mode:
//!
//! * [`parse_log_lenient`] — recover **every intact record before the
//!   damage point**, impute obviously-bad scalar values, resync past
//!   corrupted module tags, and report a classified [`Anomaly`] list
//!   describing exactly what was lost and why.
//!
//! Guarantees (asserted by unit + property tests):
//!
//! 1. On an **uncorrupted** log, the salvaged log equals the strict parse
//!    bit-for-bit and the anomaly list is empty.
//! 2. On a log truncated at byte `b`, every record whose span lies fully
//!    before `b` is recovered.
//! 3. The function never panics, for *any* byte input.
//! 4. `Err` is returned only when nothing is salvageable: unrecognizable
//!    magic, unsupported version, or a header too damaged to locate the
//!    record region. Such files are quarantine candidates.

use crate::format::{ParseError, Reader, MAGIC, VERSION};
use crate::record::{FileRecord, JobLog, ModuleData, ModuleId};
use iotax_obs::store::crc32;
use std::collections::BTreeSet;

/// How far past a corrupted module tag the resync scan will look for the
/// next parseable module section.
const RESYNC_WINDOW: usize = 64 * 1024;

/// Size of the CRC-32 trailer at the end of a log.
const CRC_LEN: usize = 4;

/// How many bytes past the trailer a resynced parse may land and still be
/// considered plausible (tolerated trailing garbage).
const TRAILER_SLACK: usize = 64;

/// One classified defect found while salvaging a log.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of the public parse_log_lenient's return, which iotax-cli's ingest calls
pub enum Anomaly {
    /// Input ended inside record `index` of `module`; the partial record
    /// was dropped, everything before it was kept.
    TruncatedRecord {
        /// Module the lost record belonged to.
        module: ModuleId,
        /// Index of the first unrecoverable record.
        index: usize,
        /// Byte offset where the damage was detected.
        offset: usize,
    },
    /// Input ended (or degenerated) at a module header, before any of the
    /// module's records.
    TruncatedModule {
        /// Byte offset where the damage was detected.
        offset: usize,
    },
    /// The CRC-32 trailer did not match: structure parsed, but one or more
    /// retained values may be silently wrong.
    ChecksumMismatch {
        /// Checksum stored in the log.
        expected: u32,
        /// Checksum computed over the payload.
        actual: u32,
    },
    /// Input ended before the 4-byte CRC trailer; integrity unverifiable.
    MissingChecksum {
        /// Offset where the trailer should have started.
        offset: usize,
    },
    /// Extra bytes after the checksum (tolerated and ignored).
    TrailingBytes {
        /// Number of extra bytes.
        extra: usize,
    },
    /// A NaN/infinite counter was imputed to 0.0.
    NonFiniteCounter {
        /// Module of the affected record.
        module: ModuleId,
        /// Record index within the module.
        index: usize,
        /// Counter index within the record.
        counter: usize,
    },
    /// An unknown module tag byte; the salvager scanned forward for the
    /// next parseable module section.
    BadModuleTag {
        /// The offending tag byte.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// The resync scan found a parseable module section again.
    Resynced {
        /// Offset where parsing resumed.
        offset: usize,
        /// Bytes skipped (and therefore lost) to get there.
        skipped: usize,
    },
    /// A module section appeared twice; its records were merged into the
    /// first occurrence.
    DuplicateModule {
        /// The repeated module.
        module: ModuleId,
    },
    /// Two records in one module share a file hash — double-reported data
    /// (both copies are kept; downstream deduplication can decide).
    DuplicateRecordId {
        /// Module containing the collision.
        module: ModuleId,
        /// The repeated record id.
        file_hash: u64,
    },
    /// The executable name was not valid UTF-8 and was decoded lossily.
    BadExe {
        /// Byte offset of the string region.
        offset: usize,
    },
    /// The module-count field claimed more sections than the format allows;
    /// parsing stopped after the plausible ones.
    ImplausibleModuleCount {
        /// The claimed count.
        claimed: u64,
    },
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anomaly::TruncatedRecord { module, index, offset } => {
                write!(f, "record {index} of {module:?} truncated at byte {offset}")
            }
            Anomaly::TruncatedModule { offset } => {
                write!(f, "module section truncated at byte {offset}")
            }
            Anomaly::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}")
            }
            Anomaly::MissingChecksum { offset } => {
                write!(f, "input ended before the checksum trailer at byte {offset}")
            }
            Anomaly::TrailingBytes { extra } => write!(f, "{extra} trailing bytes ignored"),
            Anomaly::NonFiniteCounter { module, index, counter } => {
                write!(f, "non-finite counter {counter} in {module:?} record {index} imputed to 0")
            }
            Anomaly::BadModuleTag { tag, offset } => {
                write!(f, "unknown module tag {tag} at byte {offset}")
            }
            Anomaly::Resynced { offset, skipped } => {
                write!(f, "resynced at byte {offset} after skipping {skipped} bytes")
            }
            Anomaly::DuplicateModule { module } => {
                write!(f, "{module:?} module repeated; records merged")
            }
            Anomaly::DuplicateRecordId { module, file_hash } => {
                write!(f, "duplicate record id {file_hash:#018x} in {module:?}")
            }
            Anomaly::BadExe { offset } => {
                write!(f, "executable name at byte {offset} lossily decoded")
            }
            Anomaly::ImplausibleModuleCount { claimed } => {
                write!(f, "module count {claimed} is implausible")
            }
        }
    }
}

/// The result of a lenient parse: whatever could be recovered.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- return type of the public parse_log_lenient, which iotax-cli's ingest calls
pub struct SalvagedLog {
    /// The recovered log (possibly with fewer records than were written).
    pub log: JobLog,
    /// Whether the whole structure — every claimed record plus the CRC
    /// trailer — was present. `false` means data was physically lost.
    /// (`true` with a `ChecksumMismatch` anomaly means the structure is
    /// complete but integrity is unverified.)
    pub complete: bool,
    /// Total records recovered across all modules.
    pub records_recovered: usize,
}

/// Why a module-section parse stopped.
enum ModuleEnd {
    /// All claimed records were read.
    Complete(ModuleData),
    /// Damage mid-section; whatever was recovered comes back.
    Damaged(ModuleData),
}

/// Parse one module section leniently. `anomalies` receives per-record
/// classifications; non-finite counters are imputed to 0.0.
fn parse_module_lenient(r: &mut Reader<'_>, anomalies: &mut Vec<Anomaly>) -> Option<ModuleEnd> {
    let tag_offset = r.pos;
    let tag = match r.u8() {
        Ok(t) => t,
        Err(_) => {
            anomalies.push(Anomaly::TruncatedModule { offset: tag_offset });
            return None;
        }
    };
    let module = match ModuleId::from_u8(tag) {
        Some(m) => m,
        None => {
            anomalies.push(Anomaly::BadModuleTag { tag, offset: tag_offset });
            return None;
        }
    };
    let record_count = match r.varint() {
        // Saturate an impossible claimed count; the plausibility cap
        // below bounds what actually gets parsed.
        Ok(n) => usize::try_from(n).unwrap_or(usize::MAX),
        Err(_) => {
            anomalies.push(Anomaly::TruncatedModule { offset: r.pos });
            return Some(ModuleEnd::Damaged(ModuleData::new(module)));
        }
    };
    let width = module.counter_count();
    // A record needs ≥ 8 (hash) + 1 (rank varint) + 8·width bytes; cap the
    // claimed count by what the remaining input could physically hold so a
    // corrupted count cannot drive allocation or looping.
    let max_possible = r.remaining() / (9 + 8 * width);
    let plausible = record_count.min(max_possible.max(1));
    let mut data = ModuleData::new(module);
    data.records.reserve(plausible.min(1 << 16));
    let mut seen_hashes: BTreeSet<u64> = BTreeSet::new();
    for index in 0..record_count {
        let record_start = r.pos;
        let parsed: Result<FileRecord, ParseError> = (|| {
            let file_hash = r.u64_le()?;
            // Lenient path: an impossible rank count saturates rather
            // than discarding an otherwise readable record.
            let rank_count = u32::try_from(r.varint()?).unwrap_or(u32::MAX);
            // audit:allow(untrusted-length-allocation) -- width is counter_count(), a fixed 48-entry table keyed by the already-validated ModuleId enum, not wire data
            let mut counters = Vec::with_capacity(width);
            for _ in 0..width {
                counters.push(r.f64_le()?);
            }
            Ok(FileRecord { file_hash, rank_count, counters })
        })();
        match parsed {
            Ok(mut rec) => {
                for (ci, v) in rec.counters.iter_mut().enumerate() {
                    if !v.is_finite() {
                        *v = 0.0;
                        anomalies.push(Anomaly::NonFiniteCounter { module, index, counter: ci });
                    }
                }
                if !seen_hashes.insert(rec.file_hash) {
                    anomalies.push(Anomaly::DuplicateRecordId { module, file_hash: rec.file_hash });
                }
                data.records.push(rec);
            }
            Err(_) => {
                anomalies.push(Anomaly::TruncatedRecord { module, index, offset: record_start });
                return Some(ModuleEnd::Damaged(data));
            }
        }
    }
    Some(ModuleEnd::Complete(data))
}

/// Scan forward from `from` for the next offset where a module section
/// parses structurally to completion; returns the offset if found.
fn resync_scan(data: &[u8], from: usize) -> Option<usize> {
    let limit = data.len().min(from.saturating_add(RESYNC_WINDOW));
    for (candidate, &byte) in data.iter().enumerate().take(limit).skip(from) {
        if !matches!(byte, 1 | 2) {
            continue;
        }
        let mut probe = Reader::at(data, candidate);
        let mut scratch = Vec::new();
        if let Some(ModuleEnd::Complete(m)) = parse_module_lenient(&mut probe, &mut scratch) {
            // Require the module to carry data and to land the reader at a
            // believable position — either at (or near, allowing for a lost
            // trailer / modest trailing garbage) the CRC trailer, or at the
            // tag byte of another module section — so a stray 0x01 byte in
            // counter noise does not fake a section.
            let rest = data.len() - probe.pos;
            let at_trailer = rest <= CRC_LEN + TRAILER_SLACK;
            let at_next_module = data.get(probe.pos).is_some_and(|&b| matches!(b, 1 | 2));
            if !m.records.is_empty() && (at_trailer || at_next_module) {
                return Some(candidate);
            }
        }
    }
    None
}

/// Parse a damaged (or pristine) binary log, recovering what can be
/// recovered and classifying what cannot.
///
/// Returns `Err` only when the input is unsalvageable: wrong magic, wrong
/// version, or a job header too broken to reach the record region. See the
/// module docs for the exact guarantees.
pub fn parse_log_lenient(data: &[u8]) -> Result<(SalvagedLog, Vec<Anomaly>), ParseError> {
    iotax_obs::counter!("darshan.logs_salvage_attempted").incr(1);
    let mut anomalies = Vec::new();
    let mut r = Reader::new(data);
    if r.take(8).map_err(|_| ParseError::BadMagic)? != MAGIC {
        return Err(ParseError::BadMagic);
    }
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(ParseError::BadVersion(version));
    }
    // The header fields are load-bearing: without them the records cannot
    // be attributed to a job, so header damage is unsalvageable.
    let job_id = r.varint()?;
    // Lenient path: impossible uid/nprocs values saturate instead of
    // killing an otherwise attributable log.
    let uid = u32::try_from(r.varint()?).unwrap_or(u32::MAX);
    let nprocs = u32::try_from(r.varint()?).unwrap_or(u32::MAX);
    let start_time = r.zigzag()?;
    let end_time = r.zigzag()?;
    let exe_len = usize::try_from(r.varint()?).unwrap_or(usize::MAX);
    let exe_offset = r.pos;
    // audit:allow(untrusted-length-allocation) -- Reader::take rejects n > remaining() before slicing; a forged exe_len fails as Truncated and never allocates
    let exe_bytes = r.take(exe_len)?;
    let exe = match std::str::from_utf8(exe_bytes) {
        Ok(s) => s.to_owned(),
        Err(_) => {
            anomalies.push(Anomaly::BadExe { offset: exe_offset });
            String::from_utf8_lossy(exe_bytes).into_owned()
        }
    };

    let mut log = JobLog::new(job_id, uid, nprocs, start_time, end_time, &exe);
    let mut complete = true;

    let module_count = match r.varint() {
        Ok(n) => n,
        Err(_) => {
            // Header recovered, record region gone.
            anomalies.push(Anomaly::TruncatedModule { offset: r.pos });
            let salvaged = SalvagedLog { log, complete: false, records_recovered: 0 };
            return Ok((salvaged, anomalies));
        }
    };
    // The format writes at most one section per module id; tolerate a few
    // extra claimed sections, flag anything wilder.
    let effective_modules = if module_count > 4 {
        anomalies.push(Anomaly::ImplausibleModuleCount { claimed: module_count });
        4
    } else {
        module_count
    };

    let mut posix: Option<ModuleData> = None;
    let mut mpiio: Option<ModuleData> = None;
    let mut store = |m: ModuleData, anomalies: &mut Vec<Anomaly>| {
        let slot = match m.module {
            ModuleId::Posix => &mut posix,
            ModuleId::Mpiio => &mut mpiio,
        };
        match slot {
            Some(existing) => {
                anomalies.push(Anomaly::DuplicateModule { module: m.module });
                existing.records.extend(m.records);
            }
            None => *slot = Some(m),
        }
    };

    let mut sections_read = 0u64;
    while sections_read < effective_modules {
        match parse_module_lenient(&mut r, &mut anomalies) {
            Some(ModuleEnd::Complete(m)) => {
                store(m, &mut anomalies);
                sections_read += 1;
            }
            Some(ModuleEnd::Damaged(m)) => {
                store(m, &mut anomalies);
                complete = false;
                break;
            }
            None => {
                complete = false;
                // The last anomaly tells us whether this was truncation
                // (nothing follows) or a corrupted tag (resync may help).
                if let Some(Anomaly::BadModuleTag { offset, .. }) = anomalies.last().copied_tag() {
                    if let Some(found) = resync_scan(data, offset + 1) {
                        anomalies
                            .push(Anomaly::Resynced { offset: found, skipped: found - offset });
                        r = Reader::at(data, found);
                        // Consume the recovered section on the real reader.
                        if let Some(ModuleEnd::Complete(m)) =
                            parse_module_lenient(&mut r, &mut anomalies)
                        {
                            store(m, &mut anomalies);
                            sections_read += 1;
                            continue;
                        }
                    }
                }
                break;
            }
        }
    }

    if complete {
        let payload = r.consumed();
        let payload_end = r.pos;
        match r.u32_le() {
            Ok(stored) => {
                let actual = crc32(payload);
                if stored != actual {
                    anomalies.push(Anomaly::ChecksumMismatch { expected: stored, actual });
                }
                let extra = data.len() - r.pos;
                if extra > 0 {
                    anomalies.push(Anomaly::TrailingBytes { extra });
                }
            }
            Err(_) => {
                complete = false;
                anomalies.push(Anomaly::MissingChecksum { offset: payload_end });
            }
        }
    }

    log.posix = posix.unwrap_or_else(|| ModuleData::new(ModuleId::Posix));
    log.mpiio = mpiio;
    let records_recovered =
        log.posix.records.len() + log.mpiio.as_ref().map_or(0, |m| m.records.len());
    iotax_obs::counter!("darshan.records_salvaged").incr(records_recovered as u64);
    if !anomalies.is_empty() {
        iotax_obs::counter!("darshan.logs_with_anomalies").incr(1);
    }
    Ok((SalvagedLog { log, complete, records_recovered }, anomalies))
}

/// Helper trait: peek the last anomaly if it is a `BadModuleTag` without
/// cloning the whole list.
trait CopiedTag {
    fn copied_tag(&self) -> Option<Anomaly>;
}

impl CopiedTag for Option<&Anomaly> {
    fn copied_tag(&self) -> Option<Anomaly> {
        match self {
            Some(a @ Anomaly::BadModuleTag { .. }) => Some((*a).clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PosixCounter;
    use crate::format::{layout, parse_log, write_log};

    fn sample_log() -> JobLog {
        let mut log = JobLog::new(7, 1001, 64, 1_000, 2_000, "vpic_io");
        for f in 0..5u64 {
            let mut rec = FileRecord::zeroed(ModuleId::Posix, 0xA000 + f, 64);
            rec.counters[PosixCounter::PosixOpens.index()] = 64.0;
            rec.counters[PosixCounter::PosixBytesWritten.index()] = 1e9 + f as f64;
            log.posix.records.push(rec);
        }
        let mut m = ModuleData::new(ModuleId::Mpiio);
        m.records.push(FileRecord::zeroed(ModuleId::Mpiio, 0xB000, 64));
        log.mpiio = Some(m);
        log
    }

    #[test]
    fn clean_log_salvages_identically_to_strict() {
        let log = sample_log();
        let bytes = write_log(&log);
        let strict = parse_log(&bytes).expect("strict");
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("lenient");
        assert!(anomalies.is_empty(), "{anomalies:?}");
        assert!(salvaged.complete);
        assert_eq!(salvaged.log, strict);
        assert_eq!(salvaged.records_recovered, 6);
    }

    #[test]
    fn truncation_recovers_all_whole_records_before_the_cut() {
        let log = sample_log();
        let bytes = write_log(&log);
        let lay = layout(&bytes).expect("layout");
        for cut in lay.records[0].end..bytes.len() {
            let expect = lay.records_before(cut);
            let (salvaged, anomalies) = parse_log_lenient(&bytes[..cut]).expect("salvage");
            assert!(
                salvaged.records_recovered >= expect,
                "cut {cut}: recovered {} < {} whole records before the cut",
                salvaged.records_recovered,
                expect
            );
            if cut < bytes.len() {
                assert!(!salvaged.complete || !anomalies.is_empty(), "cut {cut} looked clean");
            }
        }
    }

    #[test]
    fn header_truncation_is_unsalvageable() {
        let bytes = write_log(&sample_log());
        // Cut inside the exe string region: header unusable.
        let lay = layout(&bytes).expect("layout");
        for cut in 10..lay.header_end.saturating_sub(2) {
            assert!(
                parse_log_lenient(&bytes[..cut]).is_err()
                    || parse_log_lenient(&bytes[..cut]).is_ok(),
                "must not panic"
            );
        }
        assert!(parse_log_lenient(&bytes[..12]).is_err(), "mid-header cut must be an error");
        assert_eq!(parse_log_lenient(&bytes[..4]), Err(ParseError::BadMagic));
    }

    #[test]
    fn flipped_payload_bit_is_salvaged_with_checksum_anomaly() {
        let log = sample_log();
        let mut bytes = write_log(&log);
        let lay = layout(&bytes).expect("layout");
        // Flip a bit inside the last record's counter region: structure
        // survives, CRC does not.
        let target = lay.records.last().unwrap().end - 3;
        bytes[target] ^= 0x10;
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("salvage");
        assert!(salvaged.complete);
        assert_eq!(salvaged.records_recovered, 6);
        assert!(
            anomalies.iter().any(|a| matches!(a, Anomaly::ChecksumMismatch { .. })),
            "{anomalies:?}"
        );
    }

    #[test]
    fn trailing_garbage_is_tolerated() {
        let bytes = write_log(&sample_log());
        let mut dirty = bytes.clone();
        dirty.extend_from_slice(&[0xAB; 17]);
        let (salvaged, anomalies) = parse_log_lenient(&dirty).expect("salvage");
        assert!(salvaged.complete);
        assert_eq!(salvaged.records_recovered, 6);
        assert_eq!(
            anomalies,
            vec![Anomaly::TrailingBytes { extra: 17 }],
            "garbage after the trailer loses nothing"
        );
    }

    #[test]
    fn non_finite_counters_are_imputed_to_zero() {
        let mut log = sample_log();
        log.posix.records[2].counters[5] = f64::NAN;
        log.posix.records[2].counters[9] = f64::INFINITY;
        let bytes = write_log(&log);
        assert!(parse_log(&bytes).is_err(), "strict rejects NaN");
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("salvage");
        assert_eq!(salvaged.records_recovered, 6);
        assert_eq!(salvaged.log.posix.records[2].counters[5], 0.0);
        assert_eq!(salvaged.log.posix.records[2].counters[9], 0.0);
        let n = anomalies.iter().filter(|a| matches!(a, Anomaly::NonFiniteCounter { .. })).count();
        assert_eq!(n, 2);
    }

    #[test]
    fn zeroed_counter_block_keeps_structure() {
        let log = sample_log();
        let mut bytes = write_log(&log);
        let lay = layout(&bytes).expect("layout");
        // Zero the entire counter region of record 1 (after hash+rank).
        let span = lay.records[1];
        for b in &mut bytes[span.start + 10..span.end] {
            *b = 0;
        }
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("salvage");
        assert!(salvaged.complete);
        assert_eq!(salvaged.records_recovered, 6);
        assert!(anomalies.iter().any(|a| matches!(a, Anomaly::ChecksumMismatch { .. })));
    }

    #[test]
    fn missing_mpiio_module_is_a_valid_posix_only_log() {
        let mut log = sample_log();
        log.mpiio = None;
        let bytes = write_log(&log);
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("salvage");
        assert!(anomalies.is_empty());
        assert!(salvaged.log.mpiio.is_none());
        assert_eq!(salvaged.records_recovered, 5);
    }

    #[test]
    fn duplicate_record_ids_are_flagged_but_kept() {
        let mut log = sample_log();
        let dup = log.posix.records[0].clone();
        log.posix.records.push(dup);
        let bytes = write_log(&log);
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("salvage");
        assert_eq!(salvaged.log.posix.records.len(), 6);
        assert!(
            anomalies.iter().any(|a| matches!(a, Anomaly::DuplicateRecordId { .. })),
            "{anomalies:?}"
        );
    }

    #[test]
    fn bad_exe_is_lossily_decoded() {
        let log = sample_log();
        let mut bytes = write_log(&log);
        // The exe string starts after magic(8)+version(2)+5 varints; find
        // it by searching for the name we wrote.
        let pos = bytes.windows(7).position(|w| w == b"vpic_io").expect("exe bytes");
        bytes[pos] = 0xFF; // not valid UTF-8 lead byte
        let (salvaged, anomalies) = parse_log_lenient(&bytes).expect("salvage");
        assert!(anomalies.iter().any(|a| matches!(a, Anomaly::BadExe { .. })));
        assert!(salvaged.log.exe.contains("pic_io"));
    }

    #[test]
    fn anomaly_classes_and_display_are_stable() {
        let a = Anomaly::TruncatedRecord { module: ModuleId::Posix, index: 3, offset: 812 };
        assert!(a.to_string().contains("812"));
    }

    #[test]
    fn lenient_never_reads_past_claimed_record_counts() {
        // A corrupted record count far larger than the input must neither
        // allocate unboundedly nor loop: it salvages what's there.
        let log = sample_log();
        let bytes = write_log(&log);
        let lay = layout(&bytes).expect("layout");
        let mut dirty = bytes.clone();
        // The record count varint sits right after the POSIX tag byte.
        let count_pos = lay.modules[0].1 + 1;
        dirty[count_pos] = 0xFF; // varint continuation → huge/invalid count
        let out = parse_log_lenient(&dirty);
        // Either salvage or clean error — but no panic and bounded work.
        if let Ok((s, _)) = out {
            assert!(s.records_recovered <= 6);
        }
    }
}
