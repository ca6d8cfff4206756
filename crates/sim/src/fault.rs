//! Deterministic fault injection for emitted Darshan logs.
//!
//! Production telemetry is dirty — Isakov et al. had to *filter out*
//! malformed logs and module-less jobs before any analysis could start.
//! The simulator's advantage is that corruption can be injected with a
//! known ground truth, the same trick the hidden error components play for
//! the litmus tests: a [`FaultPlan`] decides per job, purely from
//! `(seed, job_id)`, whether and how its serialized log gets damaged, and
//! a [`FaultManifest`] records exactly what was done so downstream
//! recovery (the salvage parser, quarantine logic, retry loops) can be
//! *scored* rather than merely survived.
//!
//! Faults operate on the **encoded bytes**, after `write_log`, because
//! that is where real corruption lives: torn writes, bit rot, half-copied
//! files. Two kinds ([`FaultKind::DropMpiio`], [`FaultKind::DuplicateRecord`])
//! instead decode-modify-reencode, producing logs that are *structurally
//! valid but semantically wrong* — the hardest class to catch.

use iotax_darshan::format::{layout, parse_log, write_log};
use iotax_darshan::salvage::parse_log_lenient;
use iotax_stats::rng::substream;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The kinds of damage the injector can apply to one log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- type of FaultRecord's public `kind` field; iotax-cli reads FaultManifest records
pub enum FaultKind {
    /// Cut the file at a random offset (torn write / killed transfer).
    Truncate,
    /// Flip one random bit (bit rot; breaks the CRC, maybe the structure).
    BitFlip,
    /// Zero a whole counter block inside one record (sparse-file hole).
    ZeroBlock,
    /// Re-encode without the MPI-IO module (POSIX-only job).
    DropMpiio,
    /// Append random garbage after the CRC trailer (log appended-to).
    TrailingGarbage,
    /// Re-encode with one record duplicated (double-reported data).
    DuplicateRecord,
    /// Leave the bytes alone but mark the file transiently unreadable for
    /// the first N read attempts (flaky network filesystem).
    TransientUnreadable,
}

impl FaultKind {
    /// All kinds, in the order the plan samples them.
    pub(crate) const ALL: [FaultKind; 7] = [
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::ZeroBlock,
        FaultKind::DropMpiio,
        FaultKind::TrailingGarbage,
        FaultKind::DuplicateRecord,
        FaultKind::TransientUnreadable,
    ];
}

/// Ground truth for one injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The job whose log was damaged.
    pub job_id: u64,
    /// What was done.
    pub kind: FaultKind,
    /// Primary byte offset of the damage, when meaningful (truncation cut,
    /// flipped bit, start of zeroed block).
    pub offset: Option<u64>,
    /// Length of the damaged region, when meaningful.
    pub len: Option<u64>,
    /// For truncation: how many whole records lie entirely before the cut
    /// — the number a perfect salvage parser recovers.
    pub records_before_cut: Option<u64>,
    /// Records in the log before the fault was applied.
    pub records_total: u64,
    /// Whether the damage makes the file unsalvageable even by the
    /// lenient parser (checked against it at injection time), so
    /// quarantine is the *correct* outcome.
    pub header_destroyed: bool,
    /// For transient faults: how many leading read attempts must fail
    /// before a read succeeds.
    pub retry_failures: Option<u32>,
}

/// The full ground-truth manifest written alongside a corrupted trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultManifest {
    /// Seed the plan ran with.
    pub seed: u64,
    /// Target corruption rate in `[0, 1]`.
    pub rate: f64,
    /// Jobs considered.
    pub jobs_seen: u64,
    /// One entry per job actually damaged.
    pub faults: Vec<FaultRecord>,
}

impl FaultManifest {
    /// Ground truth lookup by job id.
    pub fn fault_for(&self, job_id: u64) -> Option<&FaultRecord> {
        self.faults.iter().find(|f| f.job_id == job_id)
    }
}

/// A deterministic, seed-driven corruption policy.
///
/// Whether job `j` is corrupted — and how — depends only on
/// `(plan.seed, j)`, so a trace regenerated with the same plan carries
/// byte-identical damage, and the manifest can be reproduced without
/// storing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Base seed; per-job decisions come from `substream(seed, job_id)`.
    pub seed: u64,
    /// Fraction of jobs to corrupt, clamped to `[0, 1]`.
    pub rate: f64,
}

impl FaultPlan {
    /// Build a plan, clamping the rate into `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0) }
    }

    /// The fault this plan assigns to `job_id`, if any. Pure function of
    /// the plan and the id.
    pub fn fault_for(&self, job_id: u64) -> Option<FaultKind> {
        let mut rng = substream(self.seed ^ 0xFA01_7000, job_id);
        if !rng.random_bool(self.rate) {
            return None;
        }
        Some(FaultKind::ALL[rng.random_range(0..FaultKind::ALL.len())])
    }

    /// Apply this plan to one serialized log. Returns `None` when the job
    /// is spared (or the sampled fault does not apply, e.g. `DropMpiio` on
    /// a POSIX-only log); otherwise the corrupted bytes plus the
    /// ground-truth record.
    pub fn corrupt(&self, job_id: u64, bytes: &[u8]) -> Option<(Vec<u8>, FaultRecord)> {
        let kind = self.fault_for(job_id)?;
        // Separate stream for damage parameters so adding kinds never
        // perturbs the corrupted-or-not decision.
        let mut rng = substream(self.seed ^ 0xFA01_7001, job_id);
        let lay = layout(bytes).ok()?;
        let records_total = lay.records.len() as u64;
        let mut rec = FaultRecord {
            job_id,
            kind,
            offset: None,
            len: None,
            records_before_cut: None,
            records_total,
            header_destroyed: false,
            retry_failures: None,
        };
        let out = match kind {
            FaultKind::Truncate => {
                if bytes.len() <= 1 {
                    return None;
                }
                let cut = rng.random_range(1..bytes.len());
                rec.offset = Some(cut as u64);
                rec.records_before_cut = Some(lay.records_before(cut) as u64);
                bytes[..cut].to_vec()
            }
            FaultKind::BitFlip => {
                let pos = rng.random_range(0..bytes.len());
                let bit = rng.random_range(0..8u32);
                rec.offset = Some(pos as u64);
                rec.len = Some(1);
                let mut out = bytes.to_vec();
                out[pos] ^= 1 << bit;
                out
            }
            FaultKind::ZeroBlock => {
                let span = lay.records[rng.random_range(0..lay.records.len())];
                // Skip the 8-byte hash + ≥1-byte rank varint: zero only the
                // counter region so the structure stays parseable.
                let from = (span.start + 10).min(span.end);
                rec.offset = Some(from as u64);
                rec.len = Some((span.end - from) as u64);
                let mut out = bytes.to_vec();
                for b in &mut out[from..span.end] {
                    *b = 0;
                }
                out
            }
            FaultKind::DropMpiio => {
                let mut log = parse_log(bytes).ok()?;
                log.mpiio.take()?; // POSIX-only already → spare the job
                write_log(&log)
            }
            FaultKind::TrailingGarbage => {
                let extra = rng.random_range(1..256usize);
                rec.offset = Some(bytes.len() as u64);
                rec.len = Some(extra as u64);
                let mut out = bytes.to_vec();
                for _ in 0..extra {
                    out.push(rng.random::<u8>());
                }
                out
            }
            FaultKind::DuplicateRecord => {
                let mut log = parse_log(bytes).ok()?;
                let dup = log.posix.records.first()?.clone();
                log.posix.records.push(dup);
                write_log(&log)
            }
            FaultKind::TransientUnreadable => {
                rec.retry_failures = Some(rng.random_range(1..3u32));
                bytes.to_vec()
            }
        };
        // Ground truth for the quarantine decision: is the damaged file
        // beyond even the lenient parser? (Header damage, mostly.)
        rec.header_destroyed = parse_log_lenient(&out).is_err();
        Some((out, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_darshan::record::{FileRecord, JobLog, ModuleData, ModuleId};
    use iotax_darshan::salvage::parse_log_lenient;

    fn sample_bytes(job_id: u64) -> Vec<u8> {
        let mut log = JobLog::new(job_id, 1000, 128, 10, 20, "hacc_io_3");
        for f in 0..4u64 {
            log.posix.records.push(FileRecord::zeroed(ModuleId::Posix, 0x10 + f, 128));
        }
        let mut m = ModuleData::new(ModuleId::Mpiio);
        m.records.push(FileRecord::zeroed(ModuleId::Mpiio, 0x99, 128));
        log.mpiio = Some(m);
        write_log(&log)
    }

    #[test]
    fn plan_is_deterministic_per_job() {
        let plan = FaultPlan::new(7, 0.5);
        for job_id in 0..200 {
            assert_eq!(plan.fault_for(job_id), plan.fault_for(job_id));
            let bytes = sample_bytes(job_id);
            let a = plan.corrupt(job_id, &bytes);
            let b = plan.corrupt(job_id, &bytes);
            assert_eq!(a, b, "job {job_id} not deterministic");
        }
    }

    #[test]
    fn rate_zero_spares_everything_rate_one_spares_nothing() {
        let never = FaultPlan::new(3, 0.0);
        let always = FaultPlan::new(3, 1.0);
        let mut hit = 0;
        for job_id in 0..100 {
            assert_eq!(never.fault_for(job_id), None);
            if always.fault_for(job_id).is_some() {
                hit += 1;
            }
        }
        assert_eq!(hit, 100);
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::new(11, 0.2);
        let hits = (0..5_000).filter(|&j| plan.fault_for(j).is_some()).count();
        let observed = hits as f64 / 5_000.0;
        assert!((observed - 0.2).abs() < 0.03, "observed rate {observed}");
    }

    #[test]
    fn all_fault_kinds_are_reachable() {
        let plan = FaultPlan::new(5, 1.0);
        let mut seen = std::collections::BTreeSet::new();
        for job_id in 0..500 {
            if let Some(k) = plan.fault_for(job_id) {
                seen.insert(format!("{k:?}"));
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len(), "{seen:?}");
    }

    #[test]
    fn truncation_ground_truth_matches_salvage_recovery() {
        let plan = FaultPlan::new(17, 1.0);
        let mut checked = 0;
        for job_id in 0..300 {
            if plan.fault_for(job_id) != Some(FaultKind::Truncate) {
                continue;
            }
            let bytes = sample_bytes(job_id);
            let (dirty, rec) = plan.corrupt(job_id, &bytes).expect("truncate");
            assert!(dirty.len() < bytes.len());
            if rec.header_destroyed {
                assert!(parse_log_lenient(&dirty).is_err(), "header cut must be unsalvageable");
            } else {
                let (salvaged, _) = parse_log_lenient(&dirty).expect("salvage");
                assert!(
                    salvaged.records_recovered as u64 >= rec.records_before_cut.unwrap(),
                    "job {job_id}: recovered {} < ground truth {}",
                    salvaged.records_recovered,
                    rec.records_before_cut.unwrap()
                );
            }
            checked += 1;
        }
        assert!(checked > 10, "too few truncations sampled: {checked}");
    }

    #[test]
    fn semantic_faults_still_parse_strictly() {
        let plan = FaultPlan::new(23, 1.0);
        let mut dropped = 0;
        let mut duplicated = 0;
        for job_id in 0..400 {
            let bytes = sample_bytes(job_id);
            match plan.fault_for(job_id) {
                Some(FaultKind::DropMpiio) => {
                    let (dirty, _) = plan.corrupt(job_id, &bytes).expect("drop");
                    let log = parse_log(&dirty).expect("valid CRC after re-encode");
                    assert!(log.mpiio.is_none());
                    dropped += 1;
                }
                Some(FaultKind::DuplicateRecord) => {
                    let (dirty, _) = plan.corrupt(job_id, &bytes).expect("dup");
                    let log = parse_log(&dirty).expect("valid CRC after re-encode");
                    assert_eq!(log.posix.records.len(), 5);
                    duplicated += 1;
                }
                _ => {}
            }
        }
        assert!(dropped > 5 && duplicated > 5, "{dropped} dropped, {duplicated} duplicated");
    }

    #[test]
    fn transient_fault_leaves_bytes_intact() {
        let plan = FaultPlan::new(29, 1.0);
        for job_id in 0..400 {
            if plan.fault_for(job_id) == Some(FaultKind::TransientUnreadable) {
                let bytes = sample_bytes(job_id);
                let (dirty, rec) = plan.corrupt(job_id, &bytes).expect("transient");
                assert_eq!(dirty, bytes);
                let failures = rec.retry_failures.expect("retry count");
                assert!((1..=2).contains(&failures));
                return;
            }
        }
        panic!("no transient fault sampled in 400 jobs");
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let plan = FaultPlan::new(31, 0.4);
        let mut manifest =
            FaultManifest { seed: plan.seed, rate: plan.rate, jobs_seen: 0, faults: Vec::new() };
        for job_id in 0..60 {
            manifest.jobs_seen += 1;
            let bytes = sample_bytes(job_id);
            if let Some((_, rec)) = plan.corrupt(job_id, &bytes) {
                manifest.faults.push(rec);
            }
        }
        assert!(!manifest.faults.is_empty());
        let json = serde_json::to_string(&manifest).expect("serialize");
        let back: FaultManifest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, manifest);
        assert!(back.fault_for(manifest.faults[0].job_id).is_some());
    }
}
