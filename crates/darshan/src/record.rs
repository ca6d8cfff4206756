//! Per-file records and whole-job logs.
//!
//! A real Darshan log contains a job header (who ran what, where, when) and
//! one record per instrumented file per module. Shared files (accessed by
//! all ranks) are reduced into a single record, which is why Darshan scales;
//! we keep the same shape.

use crate::counters::{MPIIO_COUNTER_COUNT, POSIX_COUNTER_COUNT};
use serde::{Deserialize, Serialize};

/// Module identifiers in a log. Matches the on-disk module tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum ModuleId {
    /// POSIX-level instrumentation (always present).
    Posix = 1,
    /// MPI-IO-level instrumentation (present only for MPI-IO applications).
    Mpiio = 2,
}

impl ModuleId {
    /// Parse a module tag byte.
    pub(crate) fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ModuleId::Posix),
            2 => Some(ModuleId::Mpiio),
            _ => None,
        }
    }

    /// Number of counters a record of this module carries.
    pub(crate) fn counter_count(self) -> usize {
        match self {
            ModuleId::Posix => POSIX_COUNTER_COUNT,
            ModuleId::Mpiio => MPIIO_COUNTER_COUNT,
        }
    }

    /// The on-disk module tag byte (inverse of [`ModuleId::from_u8`]).
    pub fn tag(self) -> u8 {
        // audit:allow(unchecked-cast) -- unit-enum discriminants are 1 and 2 by declaration
        self as u8
    }
}

/// One instrumented file's counters within a module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileRecord {
    /// Hash of the file path (Darshan stores a 64-bit record id).
    pub file_hash: u64,
    /// Number of ranks that touched this file (1 = unique, nprocs = shared).
    pub rank_count: u32,
    /// Counter values, one per entry of [`crate::POSIX_COUNTERS`] or
    /// [`crate::MPIIO_COUNTERS`], by module.
    pub counters: Vec<f64>,
}

impl FileRecord {
    /// A zeroed record for `module`.
    pub fn zeroed(module: ModuleId, file_hash: u64, rank_count: u32) -> Self {
        Self { file_hash, rank_count, counters: vec![0.0; module.counter_count()] }
    }
}

/// All records for one module within a job log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleData {
    /// Which module these records belong to.
    pub module: ModuleId,
    /// One record per instrumented file.
    pub records: Vec<FileRecord>,
}

impl ModuleData {
    /// Empty module section.
    pub fn new(module: ModuleId) -> Self {
        Self { module, records: Vec::new() }
    }

    /// Sum of one counter across all file records. Indices come from the
    /// typed counter enums; an out-of-width index contributes nothing.
    pub fn total(&self, counter_index: usize) -> f64 {
        self.records.iter().filter_map(|r| r.counters.get(counter_index)).sum()
    }
}

/// A whole Darshan-like job log: header plus module sections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobLog {
    /// Scheduler job identifier.
    pub job_id: u64,
    /// Numeric user id.
    pub uid: u32,
    /// Number of MPI processes (what Darshan can see; the paper notes this
    /// is ≥ the core count Cobalt allots).
    pub nprocs: u32,
    /// Job start, seconds since the epoch of the trace.
    pub start_time: i64,
    /// Job end, seconds since the epoch of the trace.
    pub end_time: i64,
    /// Executable name (Darshan records the command line head).
    pub exe: String,
    /// POSIX module records (always present, possibly empty).
    pub posix: ModuleData,
    /// MPI-IO module records, if the application used MPI-IO.
    pub mpiio: Option<ModuleData>,
}

impl JobLog {
    /// A log with an empty POSIX section and no MPI-IO section.
    pub fn new(
        job_id: u64,
        uid: u32,
        nprocs: u32,
        start_time: i64,
        end_time: i64,
        exe: &str,
    ) -> Self {
        Self {
            job_id,
            uid,
            nprocs,
            start_time,
            end_time,
            exe: exe.to_owned(),
            posix: ModuleData::new(ModuleId::Posix),
            mpiio: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PosixCounter;

    fn sample_log() -> JobLog {
        let mut log = JobLog::new(101, 5000, 64, 1000, 1600, "ior");
        let mut rec = FileRecord::zeroed(ModuleId::Posix, 0xDEAD, 64);
        rec.counters[PosixCounter::PosixBytesRead.index()] = 1e9;
        rec.counters[PosixCounter::PosixBytesWritten.index()] = 3e9;
        rec.counters[PosixCounter::PosixFReadTime.index()] = 10.0;
        rec.counters[PosixCounter::PosixFWriteTime.index()] = 30.0;
        log.posix.records.push(rec);
        log
    }

    #[test]
    fn module_id_round_trips() {
        assert_eq!(ModuleId::from_u8(1), Some(ModuleId::Posix));
        assert_eq!(ModuleId::from_u8(2), Some(ModuleId::Mpiio));
        assert_eq!(ModuleId::from_u8(0), None);
        assert_eq!(ModuleId::from_u8(3), None);
    }

    #[test]
    fn zeroed_record_has_module_width() {
        let r = FileRecord::zeroed(ModuleId::Posix, 1, 1);
        assert_eq!(r.counters.len(), 48);
        let r = FileRecord::zeroed(ModuleId::Mpiio, 1, 1);
        assert_eq!(r.counters.len(), 48);
    }

    #[test]
    fn totals_sum_across_records() {
        let mut log = sample_log();
        let mut rec2 = FileRecord::zeroed(ModuleId::Posix, 0xBEEF, 1);
        rec2.counters[PosixCounter::PosixBytesRead.index()] = 5e8;
        log.posix.records.push(rec2);
        assert_eq!(log.posix.total(PosixCounter::PosixBytesRead.index()), 1.5e9);
    }
}
