//! Scheduler log records and their ML features.
//!
//! Cobalt logs "number of nodes and cores assigned to a job, job start and
//! end times, job placement" (§V). The paper exposes five Cobalt features to
//! the models; `SchedRecord::features` reproduces them. §VI's finding that
//! *timing features let models memorize duplicates* comes straight out of
//! the start/end-time columns here.

#[cfg(test)]
use crate::pool::NodeRange;
use serde::{Deserialize, Serialize};

/// Names of the five scheduler features, in feature order.
pub static COBALT_FEATURE_NAMES: [&str; 5] =
    ["CobaltNodes", "CobaltCores", "CobaltStartTime", "CobaltEndTime", "CobaltPlacementFirstNode"];

/// One completed job as the scheduler saw it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of the public Scheduler::schedule's return, which iotax-sim's platform model calls
pub struct SchedRecord {
    /// Scheduler job id.
    pub job_id: u64,
    /// Nodes allocated.
    pub nodes: u32,
    /// Total cores allocated (nodes × cores/node).
    pub cores: u32,
    /// Time the job arrived in the queue (seconds).
    pub arrival_time: i64,
    /// Time the job started running (seconds).
    pub start_time: i64,
    /// Time the job finished (seconds).
    pub end_time: i64,
    /// First node of the contiguous placement.
    pub placement_first: u32,
    /// Number of placed nodes (equals `nodes`).
    pub placement_count: u32,
}

impl SchedRecord {
    /// The placed node range.
    #[cfg(test)]
    pub(crate) fn placement(&self) -> NodeRange {
        NodeRange { first: self.placement_first, count: self.placement_count }
    }

    /// Runtime in seconds.
    pub fn runtime(&self) -> i64 {
        self.end_time - self.start_time
    }

    /// Whether two records ran at the same time for any interval.
    #[cfg(test)]
    pub(crate) fn overlaps_in_time(&self, other: &SchedRecord) -> bool {
        self.start_time < other.end_time && other.start_time < self.end_time
    }

    /// The five Cobalt ML features, ordered as [`COBALT_FEATURE_NAMES`].
    pub fn features(&self) -> [f64; 5] {
        [
            self.nodes as f64,
            self.cores as f64,
            self.start_time as f64,
            self.end_time as f64,
            self.placement_first as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: i64, end: i64) -> SchedRecord {
        SchedRecord {
            job_id: 1,
            nodes: 16,
            cores: 16 * 64,
            arrival_time: start - 30,
            start_time: start,
            end_time: end,
            placement_first: 8,
            placement_count: 16,
        }
    }

    #[test]
    fn derived_times() {
        let r = rec(100, 400);
        assert_eq!(r.start_time - r.arrival_time, 30);
        assert_eq!(r.runtime(), 300);
    }

    #[test]
    fn overlap_detection() {
        let a = rec(0, 100);
        let b = rec(50, 150);
        let c = rec(100, 200); // touches a's end: half-open → no overlap
        assert!(a.overlaps_in_time(&b));
        assert!(!a.overlaps_in_time(&c));
        assert!(b.overlaps_in_time(&c));
    }

    #[test]
    fn features_align_with_names() {
        let r = rec(100, 400);
        let f = r.features();
        assert_eq!(f.len(), COBALT_FEATURE_NAMES.len());
        assert_eq!(f[0], 16.0);
        assert_eq!(f[1], 1024.0);
        assert_eq!(f[2], 100.0);
        assert_eq!(f[3], 400.0);
        assert_eq!(f[4], 8.0);
    }

    #[test]
    fn placement_round_trip() {
        let r = rec(0, 1);
        assert_eq!(r.placement(), NodeRange { first: 8, count: 16 });
    }
}
