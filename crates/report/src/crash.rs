//! The seeded crash-injection matrix: `iotax-report crash-matrix`.
//!
//! For every [`StoreFaultKind`], the harness builds a fresh multi-segment
//! store of deterministic records, damages the tail segment exactly as
//! [`StoreFaultPlan`] dictates for the seed, rescans, and checks the two
//! promises the store makes:
//!
//! 1. **Detection** — every corruption mode leaves at least one damage
//!    entry, and the damaged segment gets a `.corrupt` quarantine
//!    sidecar.
//! 2. **Durability** — every record that was *acknowledged* (its append
//!    returned, i.e. the bytes were fsynced) and that the fault's ground
//!    truth does not name as destroyed is recovered bit-identical.
//!
//! The plan is a pure function of the seed, so a failing case reproduces
//! exactly from `--seed` alone — the same discipline as `iotax-sim`'s
//! FaultPlan.

use iotax_obs::store::{
    scan_store, write_quarantine, SegmentStore, StoreFaultKind, StoreFaultPlan, StoreOptions,
};
use iotax_obs::{Error, Result};
use std::path::Path;

/// Outcome of one fault kind's injection round.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of CrashMatrix's public `cases` field; the iotax-report bin renders it
pub struct CrashCase {
    /// The injected corruption mode.
    pub kind: StoreFaultKind,
    /// Records acknowledged before the fault.
    pub acked: usize,
    /// Records the fault's ground truth destroyed (allowed losses).
    pub expected_lost: usize,
    /// Records the rescan recovered.
    pub recovered: usize,
    /// Whether the rescan flagged any damage.
    pub detected: bool,
    /// Quarantine sidecars written.
    pub quarantined: usize,
    /// Acked offsets that were lost or altered *without* the ground
    /// truth naming them — any entry here is a durability bug.
    pub unexpected_lost: Vec<u64>,
}

impl CrashCase {
    /// Whether this case upholds both store promises.
    pub fn passed(&self) -> bool {
        self.detected && self.quarantined > 0 && self.unexpected_lost.is_empty()
    }
}

/// The whole matrix: one case per fault kind.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- return type of the public run_crash_matrix, which the iotax-report bin calls
pub struct CrashMatrix {
    /// The seed the fault plan ran under.
    pub seed: u64,
    /// One outcome per kind, in [`StoreFaultKind::ALL`] order.
    pub cases: Vec<CrashCase>,
}

impl CrashMatrix {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(CrashCase::passed)
    }
}

/// Deterministic record payload `i` of a matrix store: valid JSON (so
/// scans treat it as a run-shaped record), length varying with `i` and
/// `seed` so records straddle segment boundaries differently per seed.
fn matrix_payload(seed: u64, i: usize) -> Vec<u8> {
    let fill = "x".repeat(((seed as usize).wrapping_add(i * 37)) % 120);
    format!("{{\"rec\":{i},\"seed\":{seed},\"fill\":\"{fill}\"}}").into_bytes()
}

/// Runs the full matrix under `dir` (one subdirectory per fault kind,
/// wiped and rebuilt). `records` must be at least 2 so the tail segment
/// always holds something to damage.
pub fn run_crash_matrix(dir: &Path, seed: u64, records: usize) -> Result<CrashMatrix> {
    if records < 2 {
        return Err(Error::usage("crash-matrix needs --records >= 2"));
    }
    let plan = StoreFaultPlan::new(seed);
    let mut cases = Vec::new();
    for kind in StoreFaultKind::ALL {
        let case_dir = dir.join(kind.slug());
        if case_dir.exists() {
            std::fs::remove_dir_all(&case_dir).map_err(|e| {
                Error::io(format!("clearing crash case dir {}", case_dir.display()), e)
            })?;
        }
        // Small segments force rotation, so the fault lands on a tail
        // segment with real history before it.
        let opts = StoreOptions { segment_bytes: 1024, ..StoreOptions::default() };
        let mut store = SegmentStore::open_with(&case_dir, opts)?;
        let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..records {
            let payload = matrix_payload(seed, i);
            let offset = store.append(&payload)?;
            acked.push((offset, payload));
        }
        let tail = case_dir.join(store.segment());
        drop(store);
        let clean = std::fs::read(&tail)
            .map_err(|e| Error::io(format!("reading tail segment {}", tail.display()), e))?;
        let (dirty, fault) = plan.apply(kind, &clean).ok_or_else(|| {
            Error::new(
                iotax_obs::ErrorKind::Internal,
                format!("fault plan produced no damage for {}", kind.slug()),
            )
        })?;
        std::fs::write(&tail, &dirty)
            .map_err(|e| Error::io(format!("injecting fault into {}", tail.display()), e))?;
        let scan = scan_store(&case_dir)?;
        let sidecars = write_quarantine(&case_dir, &scan)?;
        let mut unexpected_lost = Vec::new();
        for (offset, payload) in &acked {
            if fault.lost.contains(offset) {
                continue;
            }
            let intact = scan.records.iter().any(|r| r.offset == *offset && &r.payload == payload);
            if !intact {
                unexpected_lost.push(*offset);
            }
        }
        cases.push(CrashCase {
            kind,
            acked: acked.len(),
            expected_lost: fault.lost.len(),
            recovered: scan.records.len(),
            detected: !scan.is_clean(),
            quarantined: sidecars.len(),
            unexpected_lost,
        });
    }
    Ok(CrashMatrix { seed, cases })
}

/// Renders the matrix as a pass/fail table.
pub fn render_crash_matrix(matrix: &CrashMatrix) -> String {
    let mut out = String::new();
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String is infallible")]
    let _ = render_crash_matrix_into(&mut out, matrix);
    out
}

fn render_crash_matrix_into(out: &mut String, matrix: &CrashMatrix) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(out, "crash matrix (seed {})", matrix.seed)?;
    writeln!(
        out,
        "  {:<18} {:>6} {:>9} {:>10} {:>9} {:>11}  verdict",
        "fault", "acked", "destroyed", "recovered", "detected", "quarantined"
    )?;
    for c in &matrix.cases {
        let verdict = if c.passed() {
            "PASS".to_owned()
        } else if !c.unexpected_lost.is_empty() {
            format!("FAIL (lost acked offsets {:?})", c.unexpected_lost)
        } else {
            "FAIL (corruption undetected)".to_owned()
        };
        writeln!(
            out,
            "  {:<18} {:>6} {:>9} {:>10} {:>9} {:>11}  {verdict}",
            c.kind.slug(),
            c.acked,
            c.expected_lost,
            c.recovered,
            if c.detected { "yes" } else { "NO" },
            c.quarantined,
        )?;
    }
    let passed = matrix.cases.iter().filter(|c| c.passed()).count();
    writeln!(
        out,
        "crash matrix: {} ({passed}/{} kinds)",
        if matrix.passed() { "PASS" } else { "FAIL" },
        matrix.cases.len()
    )?;
    Ok(())
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iotax-crashmod-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear tmp dir");
        }
        dir
    }

    #[test]
    fn matrix_passes_for_the_ci_seed_and_is_deterministic() {
        let dir = tmp("ci-seed");
        let a = run_crash_matrix(&dir, 20220914, 40).expect("matrix");
        assert!(a.passed(), "{}", render_crash_matrix(&a));
        assert_eq!(a.cases.len(), StoreFaultKind::ALL.len());
        let b = run_crash_matrix(&dir, 20220914, 40).expect("matrix rerun");
        assert_eq!(a, b, "matrix must be a pure function of (seed, records)");
        let text = render_crash_matrix(&a);
        assert!(text.contains("crash matrix: PASS"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_passes_across_several_seeds() {
        let dir = tmp("seeds");
        for seed in [1u64, 7, 301, 99991] {
            let m = run_crash_matrix(&dir, seed, 25).expect("matrix");
            assert!(m.passed(), "seed {seed}:\n{}", render_crash_matrix(&m));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn too_few_records_is_a_usage_error() {
        let dir = tmp("usage");
        let err = run_crash_matrix(&dir, 1, 1).expect_err("must reject");
        assert_eq!(err.exit_code(), 64);
    }
}
