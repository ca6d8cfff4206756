//! Counter definitions for the POSIX and MPI-IO modules.
//!
//! Darshan stores one fixed-width counter array per (module, file) record.
//! The paper's models consume 48 POSIX and 48 MPI-IO job-level aggregates
//! (§V); the counters below mirror the real Darshan counter sets those
//! aggregates come from — operation counts, byte totals, sequentiality and
//! alignment counters, ten-bin access-size histograms, and floating-point
//! time accumulators.

/// Number of counters in the POSIX module.
pub(crate) const POSIX_COUNTER_COUNT: usize = 48;
/// Number of counters in the MPI-IO module.
pub(crate) const MPIIO_COUNTER_COUNT: usize = 48;

macro_rules! counters {
    ($(#[$meta:meta])* $enum_name:ident, $const_name:ident, $count:expr, [ $($variant:ident),+ $(,)? ]) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        #[allow(missing_docs, non_camel_case_types, reason = "variant names mirror Darshan counter names")]
        pub enum $enum_name {
            $($variant),+
        }

        /// All counters of this module, in storage order.
        pub const $const_name: [$enum_name; $count] = [
            $($enum_name::$variant),+
        ];

        impl $enum_name {
            /// Storage index of this counter in a record's counter array.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// The Darshan-style counter name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => stringify!($variant)),+
                }
            }
        }
    };
}

counters!(
    /// POSIX-module counters (one array per file record).
    ///
    /// Layout groups: operation counts (0-7), byte totals and extents (8-11),
    /// access-pattern counters (12-17), alignment (18-19), read-size
    /// histogram (20-29), write-size histogram (30-39), file-role counts
    /// (40-44), and time accumulators (45-47).
    PosixCounter,
    POSIX_COUNTERS,
    48,
    [
        PosixOpens,
        PosixReads,
        PosixWrites,
        PosixSeeks,
        PosixStats,
        PosixMmaps,
        PosixFsyncs,
        PosixFdsyncs,
        PosixBytesRead,
        PosixBytesWritten,
        PosixMaxByteRead,
        PosixMaxByteWritten,
        PosixConsecReads,
        PosixConsecWrites,
        PosixSeqReads,
        PosixSeqWrites,
        PosixRwSwitches,
        PosixStrideOps,
        PosixMemNotAligned,
        PosixFileNotAligned,
        PosixSizeRead0_100,
        PosixSizeRead100_1K,
        PosixSizeRead1K_10K,
        PosixSizeRead10K_100K,
        PosixSizeRead100K_1M,
        PosixSizeRead1M_4M,
        PosixSizeRead4M_10M,
        PosixSizeRead10M_100M,
        PosixSizeRead100M_1G,
        PosixSizeRead1GPlus,
        PosixSizeWrite0_100,
        PosixSizeWrite100_1K,
        PosixSizeWrite1K_10K,
        PosixSizeWrite10K_100K,
        PosixSizeWrite100K_1M,
        PosixSizeWrite1M_4M,
        PosixSizeWrite4M_10M,
        PosixSizeWrite10M_100M,
        PosixSizeWrite100M_1G,
        PosixSizeWrite1GPlus,
        PosixSharedFiles,
        PosixUniqueFiles,
        PosixReadOnlyFiles,
        PosixWriteOnlyFiles,
        PosixReadWriteFiles,
        PosixFReadTime,
        PosixFWriteTime,
        PosixFMetaTime,
    ]
);

counters!(
    /// MPI-IO-module counters (one array per file record).
    ///
    /// Layout groups: open/read/write variants (0-11), bytes and switches
    /// (12-15), aggregate read-size histogram (16-25), aggregate write-size
    /// histogram (26-35), collective/view/hint bookkeeping (36-42), file
    /// roles (43-44), and time accumulators (45-47).
    MpiioCounter,
    MPIIO_COUNTERS,
    48,
    [
        MpiioIndepOpens,
        MpiioCollOpens,
        MpiioIndepReads,
        MpiioIndepWrites,
        MpiioCollReads,
        MpiioCollWrites,
        MpiioSplitReads,
        MpiioSplitWrites,
        MpiioNbReads,
        MpiioNbWrites,
        MpiioSyncs,
        MpiioRwSwitches,
        MpiioBytesRead,
        MpiioBytesWritten,
        MpiioMaxReadTimeSize,
        MpiioMaxWriteTimeSize,
        MpiioSizeReadAgg0_100,
        MpiioSizeReadAgg100_1K,
        MpiioSizeReadAgg1K_10K,
        MpiioSizeReadAgg10K_100K,
        MpiioSizeReadAgg100K_1M,
        MpiioSizeReadAgg1M_4M,
        MpiioSizeReadAgg4M_10M,
        MpiioSizeReadAgg10M_100M,
        MpiioSizeReadAgg100M_1G,
        MpiioSizeReadAgg1GPlus,
        MpiioSizeWriteAgg0_100,
        MpiioSizeWriteAgg100_1K,
        MpiioSizeWriteAgg1K_10K,
        MpiioSizeWriteAgg10K_100K,
        MpiioSizeWriteAgg100K_1M,
        MpiioSizeWriteAgg1M_4M,
        MpiioSizeWriteAgg4M_10M,
        MpiioSizeWriteAgg10M_100M,
        MpiioSizeWriteAgg100M_1G,
        MpiioSizeWriteAgg1GPlus,
        MpiioViews,
        MpiioHints,
        MpiioCollRatio,
        MpiioAccess1Count,
        MpiioAccess2Count,
        MpiioAccess3Count,
        MpiioAccess4Count,
        MpiioSharedFiles,
        MpiioUniqueFiles,
        MpiioFReadTime,
        MpiioFWriteTime,
        MpiioFMetaTime,
    ]
);

/// Upper edges (bytes) of the ten Darshan access-size histogram bins; the
/// last bin is open-ended.
pub(crate) const SIZE_BIN_EDGES: [u64; 9] =
    [100, 1_000, 10_000, 100_000, 1_000_000, 4_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Index (0..10) of the access-size histogram bin containing `size` bytes.
pub fn size_bin(size: u64) -> usize {
    SIZE_BIN_EDGES.iter().position(|&e| size < e).unwrap_or(9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_match_paper() {
        assert_eq!(POSIX_COUNTERS.len(), 48);
        assert_eq!(MPIIO_COUNTERS.len(), 48);
        assert_eq!(POSIX_COUNTER_COUNT, 48);
        assert_eq!(MPIIO_COUNTER_COUNT, 48);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in POSIX_COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in MPIIO_COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = POSIX_COUNTERS.iter().map(|c| c.name()).collect();
        names.extend(MPIIO_COUNTERS.iter().map(|c| c.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn size_bins_cover_the_line() {
        assert_eq!(size_bin(0), 0);
        assert_eq!(size_bin(99), 0);
        assert_eq!(size_bin(100), 1);
        assert_eq!(size_bin(999_999), 4);
        assert_eq!(size_bin(1_000_000), 5);
        assert_eq!(size_bin(5_000_000), 6);
        assert_eq!(size_bin(1_000_000_000), 9);
        assert_eq!(size_bin(u64::MAX), 9);
    }
}
