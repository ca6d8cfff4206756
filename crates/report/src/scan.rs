//! `iotax-report scan` and store-aware RUN resolution.
//!
//! A ledger *store* (written by `--store`, see [`iotax_obs::store`]) holds
//! many runs as CRC-checked records. [`scan_ledger_store`] walks one,
//! reporting every run with its per-record integrity status plus all
//! store-level damage, and [`write_quarantine`] persists `.corrupt`
//! sidecars for damaged segments. [`resolve_run`] lets every other
//! subcommand accept `STORE@last` / `STORE@<run-id-prefix>` (or a bare
//! store directory, meaning the newest run) wherever a RUN directory is
//! accepted today.

use iotax_obs::store::{scan_store, Damage, SegmentStatus, StoreScan};
use iotax_obs::{load_run, Error, ErrorKind, Result, RunFile};
use std::path::Path;

/// Integrity status of one store record, as a ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit:allow(dead-public-api) -- type of RunEntry's public `status` field; iotax-report's scan command renders it
pub enum RecordStatus {
    /// CRC-valid and decodes as a run ledger.
    Ok,
    /// CRC-valid bytes that do not decode as a run ledger.
    Undecodable,
}

/// One record of a ledger store, decoded as far as possible.
// audit:allow(dead-public-api) -- element type of StoreReport's public `entries` field; iotax-report's scan command renders it
pub struct RunEntry {
    /// Logical offset of the record in the store.
    pub offset: u64,
    /// Segment file the record lives in.
    pub segment: String,
    /// Integrity status of the entry.
    pub status: RecordStatus,
    /// The decoded run, when `status` is [`RecordStatus::Ok`].
    pub run: Option<RunFile>,
}

/// Everything `scan` learned about one ledger store.
// audit:allow(dead-public-api) -- return type of the public scan_ledger_store, which the iotax-report bin calls
pub struct StoreReport {
    /// One entry per recovered record, in store order.
    pub entries: Vec<RunEntry>,
    /// Store-level damage (CRC failures, torn tails, offset anomalies).
    pub damage: Vec<Damage>,
    /// Per-segment integrity summaries.
    pub segments: Vec<SegmentStatus>,
}

impl StoreReport {
    /// Whether the store is fully intact: no damaged bytes and every
    /// record decodes as a run ledger.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && self.entries.iter().all(|e| e.status == RecordStatus::Ok)
    }
}

/// Whether `path` looks like a segment-log store directory (holds at
/// least one `seg-*.dlog`), as opposed to a `--ledger` run directory.
/// Segments are decisive: a stray `run.json` inside a store directory
/// does not silently flip resolution into directory mode (which would
/// turn `STORE@last` into a confusing missing-file error).
pub(crate) fn is_store_dir(path: &Path) -> bool {
    path.is_dir() && iotax_obs::store::list_segments(path).map(|s| !s.is_empty()).unwrap_or(false)
}

/// Scans the store at `dir` and decodes every recovered record as a run
/// ledger. Returns the report plus the raw [`StoreScan`] (needed for
/// quarantine writing).
pub fn scan_ledger_store(dir: &Path) -> Result<(StoreReport, StoreScan)> {
    let scan = scan_store(dir)?;
    let mut entries = Vec::with_capacity(scan.records.len());
    for record in &scan.records {
        let decoded = std::str::from_utf8(&record.payload)
            .ok()
            .and_then(|text| serde_json::from_str::<RunFile>(text).ok());
        entries.push(RunEntry {
            offset: record.offset,
            segment: record.segment.clone(),
            status: if decoded.is_some() { RecordStatus::Ok } else { RecordStatus::Undecodable },
            run: decoded,
        });
    }
    let report =
        StoreReport { entries, damage: scan.damage.clone(), segments: scan.segments.clone() };
    Ok((report, scan))
}

/// Renders the `scan` view: per-run rows with integrity status, then
/// segment summaries, then damage details.
pub fn render_scan(report: &StoreReport) -> String {
    let mut out = String::new();
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String is infallible")]
    let _ = render_scan_into(&mut out, report);
    out
}

fn render_scan_into(out: &mut String, report: &StoreReport) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(
        out,
        "store: {} segment(s), {} record(s), {} damage entr{}",
        report.segments.len(),
        report.entries.len(),
        report.damage.len(),
        if report.damage.len() == 1 { "y" } else { "ies" },
    )?;
    if !report.entries.is_empty() {
        writeln!(out, "runs:")?;
        writeln!(
            out,
            "  {:>6}  {:<34} {:<14} {:>10} {:>5}  status",
            "offset", "run_id", "tool", "wall", "exit"
        )?;
        for e in &report.entries {
            match (&e.status, &e.run) {
                (RecordStatus::Ok, Some(run)) => {
                    writeln!(
                        out,
                        "  {:>6}  {:<34} {:<14} {:>10} {:>5}  ok",
                        e.offset,
                        run.manifest.run_id,
                        run.manifest.tool,
                        crate::fmt_us(run.manifest.wall_us),
                        run.manifest.exit_status,
                    )?;
                }
                _ => {
                    writeln!(
                        out,
                        "  {:>6}  {:<34} {:<14} {:>10} {:>5}  UNDECODABLE",
                        e.offset, "-", "-", "-", "-"
                    )?;
                }
            }
        }
    }
    writeln!(out, "segments:")?;
    for s in &report.segments {
        writeln!(
            out,
            "  {:<28} {:>10} bytes  {:>5} record(s)  {:>3} damage",
            s.name, s.bytes, s.records, s.damage
        )?;
    }
    if !report.damage.is_empty() {
        writeln!(out, "damage:")?;
        for d in &report.damage {
            writeln!(out, "  {} @{}  {:?}: {}", d.segment, d.pos, d.kind, d.detail)?;
        }
    }
    Ok(())
}

/// Decoded runs of a store in offset order — the trajectory input.
pub fn store_runs(dir: &Path) -> Result<Vec<RunFile>> {
    let (report, _) = scan_ledger_store(dir)?;
    Ok(report.entries.into_iter().filter_map(|e| e.run).collect())
}

/// Resolves a RUN argument: a `--ledger` run directory (or direct
/// `run.json` path) as before, a bare store directory (meaning its
/// newest run), or `STORE@SELECTOR` where SELECTOR is `last` or a
/// run-id prefix.
pub fn resolve_run(spec: &str) -> Result<RunFile> {
    if let Some((dir, selector)) = spec.rsplit_once('@') {
        let dir = Path::new(dir);
        if is_store_dir(dir) {
            return select_from_store(dir, selector);
        }
    }
    let path = Path::new(spec);
    if is_store_dir(path) {
        return select_from_store(path, "last");
    }
    load_run(path)
}

fn select_from_store(dir: &Path, selector: &str) -> Result<RunFile> {
    let (report, _) = scan_ledger_store(dir)?;
    let runs: Vec<RunFile> = report.entries.into_iter().filter_map(|e| e.run).collect();
    if selector == "last" {
        return runs.into_iter().next_back().ok_or_else(|| {
            Error::new(ErrorKind::Parse, format!("store {} holds no decodable runs", dir.display()))
        });
    }
    let mut matches: Vec<RunFile> =
        runs.into_iter().filter(|r| r.manifest.run_id.starts_with(selector)).collect();
    match matches.len() {
        0 => Err(Error::usage(format!(
            "no run in store {} matches id prefix {selector:?}",
            dir.display()
        ))),
        1 => Ok(matches.remove(0)),
        n => Err(Error::usage(format!(
            "run id prefix {selector:?} is ambiguous in store {} ({n} matches)",
            dir.display()
        ))),
    }
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;
    use iotax_obs::store::SegmentStore;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iotax-scanmod-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear tmp store");
        }
        dir
    }

    fn run_json(tool: &str, run_id: &str, wall_us: u64) -> String {
        let mut run = crate::testutil::synthetic_run(tool, 100);
        run.manifest.run_id = run_id.to_owned();
        run.manifest.wall_us = wall_us;
        serde_json::to_string(&run).expect("encode synthetic run")
    }

    #[test]
    fn scan_decodes_runs_and_flags_undecodable_records() {
        let dir = tmp("decode");
        let mut store = SegmentStore::open(&dir).expect("open");
        store.append(run_json("iotax-analyze", "iotax-analyze-aaa", 10).as_bytes()).unwrap();
        store.append(b"not json at all").unwrap();
        drop(store);
        let (report, _) = scan_ledger_store(&dir).expect("scan");
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.entries[0].status, RecordStatus::Ok);
        assert_eq!(report.entries[1].status, RecordStatus::Undecodable);
        assert!(!report.is_clean(), "undecodable record must not count as clean");
        let text = render_scan(&report);
        assert!(text.contains("iotax-analyze-aaa"), "{text}");
        assert!(text.contains("UNDECODABLE"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_run_json_does_not_stop_a_store_resolving_as_a_store() {
        let dir = tmp("stray");
        let mut store = SegmentStore::open(&dir).expect("open");
        store.append(run_json("iotax-analyze", "iotax-analyze-real", 5).as_bytes()).unwrap();
        drop(store);
        std::fs::write(dir.join("run.json"), b"{ not a ledger }").expect("plant stray run.json");
        assert!(is_store_dir(&dir), "segments must be decisive over a stray run.json");
        let spec = dir.display().to_string();
        let last = resolve_run(&format!("{spec}@last")).expect("STORE@last must still resolve");
        assert_eq!(last.manifest.run_id, "iotax-analyze-real");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_selects_last_and_by_prefix() {
        let dir = tmp("resolve");
        let mut store = SegmentStore::open(&dir).expect("open");
        store.append(run_json("iotax-analyze", "iotax-analyze-one", 1).as_bytes()).unwrap();
        store.append(run_json("iotax-analyze", "iotax-analyze-two", 2).as_bytes()).unwrap();
        drop(store);
        let spec = dir.display().to_string();
        let last = resolve_run(&format!("{spec}@last")).expect("last");
        assert_eq!(last.manifest.run_id, "iotax-analyze-two");
        let bare = resolve_run(&spec).expect("bare store dir means last");
        assert_eq!(bare.manifest.run_id, "iotax-analyze-two");
        let one = resolve_run(&format!("{spec}@iotax-analyze-o")).expect("prefix");
        assert_eq!(one.manifest.run_id, "iotax-analyze-one");
        let ambiguous = resolve_run(&format!("{spec}@iotax-analyze-"));
        assert!(ambiguous.is_err());
        let missing = resolve_run(&format!("{spec}@nope"));
        assert!(missing.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
