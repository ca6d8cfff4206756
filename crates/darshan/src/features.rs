//! Job-level feature extraction.
//!
//! The paper's models consume fixed-width job-level aggregates: 48 POSIX and
//! 48 MPI-IO features (§V). Darshan stores per-file records; extraction
//! reduces them across files — summing count/byte/time counters and taking
//! the maximum of extent counters — which mirrors how `darshan-parser
//! --total` derives job totals.

use crate::counters::{
    MpiioCounter, PosixCounter, MPIIO_COUNTERS, MPIIO_COUNTER_COUNT, POSIX_COUNTERS,
    POSIX_COUNTER_COUNT,
};
use crate::record::{JobLog, ModuleData};

/// How a counter aggregates from per-file records to the job level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agg {
    Sum,
    Max,
}

fn posix_agg(c: PosixCounter) -> Agg {
    match c {
        PosixCounter::PosixMaxByteRead | PosixCounter::PosixMaxByteWritten => Agg::Max,
        _ => Agg::Sum,
    }
}

fn mpiio_agg(c: MpiioCounter) -> Agg {
    match c {
        MpiioCounter::MpiioMaxReadTimeSize | MpiioCounter::MpiioMaxWriteTimeSize => Agg::Max,
        _ => Agg::Sum,
    }
}

/// Reduce per-file records into `out`, one aggregation rule per slot.
/// Zipping (rather than indexing) makes the reduction total: a record
/// with fewer counters than the module width contributes what it has.
fn aggregate_into(module: &ModuleData, out: &mut [f64], aggs: &[Agg]) {
    for rec in &module.records {
        for ((slot, &agg), &v) in out.iter_mut().zip(aggs).zip(&rec.counters) {
            match agg {
                Agg::Sum => *slot += v,
                Agg::Max => *slot = slot.max(v),
            }
        }
    }
}

/// Names of the 48 POSIX job-level features, in feature order.
pub static POSIX_FEATURE_NAMES: [&str; POSIX_COUNTER_COUNT] = {
    let mut names = [""; POSIX_COUNTER_COUNT];
    let mut i = 0;
    while i < POSIX_COUNTER_COUNT {
        // audit:allow(panic-in-parser) -- const-eval loop bounded by the array length
        names[i] = POSIX_COUNTERS[i].name();
        i += 1;
    }
    names
};

/// Names of the 48 MPI-IO job-level features, in feature order.
pub static MPIIO_FEATURE_NAMES: [&str; MPIIO_COUNTER_COUNT] = {
    let mut names = [""; MPIIO_COUNTER_COUNT];
    let mut i = 0;
    while i < MPIIO_COUNTER_COUNT {
        // audit:allow(panic-in-parser) -- const-eval loop bounded by the array length
        names[i] = MPIIO_COUNTERS[i].name();
        i += 1;
    }
    names
};

/// Extract the 48 POSIX job-level features from a log.
pub fn extract_posix_features(log: &JobLog) -> [f64; POSIX_COUNTER_COUNT] {
    let aggs: [Agg; POSIX_COUNTER_COUNT] = POSIX_COUNTERS.map(posix_agg);
    let mut out = [0.0f64; POSIX_COUNTER_COUNT];
    aggregate_into(&log.posix, &mut out, &aggs);
    out
}

/// Extract the 48 MPI-IO job-level features from a log; zeros when the job
/// did not use MPI-IO (the paper's datasets do the same — MPI-IO columns are
/// zero for POSIX-only jobs).
pub fn extract_mpiio_features(log: &JobLog) -> [f64; MPIIO_COUNTER_COUNT] {
    let mut out = [0.0f64; MPIIO_COUNTER_COUNT];
    if let Some(m) = &log.mpiio {
        let aggs: [Agg; MPIIO_COUNTER_COUNT] = MPIIO_COUNTERS.map(mpiio_agg);
        aggregate_into(m, &mut out, &aggs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileRecord, ModuleData, ModuleId};

    fn log_with_two_files() -> JobLog {
        let mut log = JobLog::new(7, 1, 32, 0, 100, "app");
        let mut a = FileRecord::zeroed(ModuleId::Posix, 1, 32);
        a.counters[PosixCounter::PosixBytesRead.index()] = 100.0;
        a.counters[PosixCounter::PosixMaxByteRead.index()] = 4096.0;
        let mut b = FileRecord::zeroed(ModuleId::Posix, 2, 1);
        b.counters[PosixCounter::PosixBytesRead.index()] = 50.0;
        b.counters[PosixCounter::PosixMaxByteRead.index()] = 9999.0;
        log.posix.records.extend([a, b]);
        log
    }

    #[test]
    fn sums_and_maxes_aggregate_correctly() {
        let f = extract_posix_features(&log_with_two_files());
        assert_eq!(f[PosixCounter::PosixBytesRead.index()], 150.0);
        assert_eq!(f[PosixCounter::PosixMaxByteRead.index()], 9999.0);
    }

    #[test]
    fn missing_mpiio_yields_zeros() {
        let f = extract_mpiio_features(&log_with_two_files());
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn names_align_with_values() {
        let f = extract_posix_features(&log_with_two_files());
        let i = POSIX_FEATURE_NAMES.iter().position(|&n| n == "PosixBytesRead").expect("name");
        assert_eq!(f[i], 150.0);
    }

    #[test]
    fn mpiio_features_extracted_when_present() {
        let mut log = log_with_two_files();
        let mut m = ModuleData::new(ModuleId::Mpiio);
        let mut r = FileRecord::zeroed(ModuleId::Mpiio, 5, 32);
        r.counters[MpiioCounter::MpiioBytesWritten.index()] = 777.0;
        m.records.push(r);
        log.mpiio = Some(m);
        let f = extract_mpiio_features(&log);
        let i = MPIIO_FEATURE_NAMES.iter().position(|&n| n == "MpiioBytesWritten").expect("name");
        assert_eq!(f[i], 777.0);
    }

    #[test]
    fn extraction_is_deterministic() {
        let log = log_with_two_files();
        assert_eq!(extract_posix_features(&log), extract_posix_features(&log));
        assert_eq!(extract_mpiio_features(&log), extract_mpiio_features(&log));
    }
}
