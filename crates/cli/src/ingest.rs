//! Resilient trace ingestion: retry, salvage, quarantine, report.
//!
//! A strict import aborts a whole directory on the first bad file — one
//! flipped bit kills a 100K-job analysis, and every previously parsed job
//! is discarded. [`IngestOptions::strict`] keeps that fail-fast contract;
//! the default options give the behavior a production ingest pipeline
//! needs:
//!
//! * **Retry with exponential backoff** for transient read errors
//!   (interrupted/timed-out reads from flaky network filesystems).
//! * **Salvage** for corrupt logs: the strict parser runs first; on
//!   failure the lenient parser ([`iotax_darshan::salvage`]) recovers
//!   every intact record before the damage point.
//! * **Quarantine-and-continue** for unsalvageable files: the file is
//!   recorded (and optionally moved aside), the rest of the trace still
//!   loads.
//! * An [`IngestReport`] accounting for every file — parsed clean,
//!   salvaged, quarantined, retried — threaded through `iotax-obs`
//!   counters and exportable as JSON lines for CI artifacts.
//! * **A parallel read path whose result does not depend on the thread
//!   count**: files are read, parsed, salvaged and reduced to job rows
//!   (features and duplicate signature) on every available core in fixed
//!   chunks that idle workers claim, then merged in manifest order (see
//!   [`ingest_trace_with_reader`]).
//!
//! Strict mode ([`IngestOptions::strict`]) restores the old fail-fast
//! contract exactly: first unreadable or unparseable file aborts with the
//! same typed error the legacy path produced.

use crate::{TraceJob, FEATURES, POSIX_FEATURES};
use iotax_darshan::features::{extract_mpiio_features, extract_posix_features};
use iotax_darshan::format::{parse_log, ParseError};
use iotax_darshan::record::JobLog;
use iotax_darshan::salvage::parse_log_lenient;
use iotax_obs::{Error, ErrorKind, Result};
use iotax_sim::{FaultManifest, FaultPlan};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ffi::OsString;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Knobs for [`ingest_trace`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Fail fast on the first bad file (legacy behavior) instead of
    /// salvaging and quarantining.
    pub strict: bool,
    /// Read attempts per file beyond the first (transient errors only).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base_ms << min(n, 10)`
    /// milliseconds (the exponent is capped so large retry counts cannot
    /// overflow or stall for days).
    pub backoff_base_ms: u64,
    /// When set, unsalvageable files are *moved* here instead of merely
    /// recorded, so a re-run skips them and an operator can inspect them.
    pub quarantine_dir: Option<PathBuf>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self { strict: false, max_retries: 3, backoff_base_ms: 10, quarantine_dir: None }
    }
}

impl IngestOptions {
    /// Legacy fail-fast contract: abort on the first bad file.
    pub fn strict() -> Self {
        Self { strict: true, ..Self::default() }
    }
}

/// One file the pipeline gave up on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of IngestReport's public `quarantined` field; iotax-analyze prints the report
pub struct QuarantinedFile {
    /// Job id from the manifest.
    pub job_id: u64,
    /// Path of the offending file (original location).
    pub path: String,
    /// Why it was unsalvageable.
    pub reason: String,
}

/// One file that parsed only leniently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of IngestReport's public `salvage_notes` field; iotax-analyze prints the report
pub struct SalvageNote {
    /// Job id from the manifest.
    pub job_id: u64,
    /// Records recovered from the damaged log.
    pub records_recovered: u64,
    /// Whether the log's structure was complete (damage was value-level
    /// only) or records were physically lost.
    pub complete: bool,
    /// Human-readable anomaly classifications, one per defect.
    pub anomalies: Vec<String>,
}

/// Full accounting for one ingestion pass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IngestReport {
    /// Log files the manifest referenced.
    pub total_files: u64,
    /// Files the strict parser accepted unchanged.
    pub parsed_clean: u64,
    /// Files recovered by the lenient parser.
    pub salvaged: u64,
    /// Records recovered across all salvaged files.
    pub records_salvaged: u64,
    /// Manifest lines skipped as unreadable or unparseable, a throughput
    /// that is not a positive finite number included (lenient mode only).
    pub manifest_rejects: u64,
    /// Total retry attempts across all files.
    pub retries: u64,
    /// Files that needed at least one retry but were eventually read.
    pub transient_recovered: u64,
    /// Files given up on.
    pub quarantined: Vec<QuarantinedFile>,
    /// Per-file salvage details.
    pub salvage_notes: Vec<SalvageNote>,
}

impl IngestReport {
    /// One-line operator summary.
    pub fn summary(&self) -> String {
        format!(
            "{} files: {} clean, {} salvaged ({} records), {} quarantined, \
             {} retries ({} files recovered after transient errors)",
            self.total_files,
            self.parsed_clean,
            self.salvaged,
            self.records_salvaged,
            self.quarantined.len(),
            self.retries,
            self.transient_recovered
        )
    }

    /// Write the report as JSON lines: a `summary` record, then one
    /// `salvaged` record per lenient parse and one `quarantined` record
    /// per abandoned file. The flat-line format is what CI uploads.
    pub fn write_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        // The summary line carries the counts, in field order, and not the
        // per-file vectors: they get lines of their own.
        let counts = [
            ("total_files", self.total_files),
            ("parsed_clean", self.parsed_clean),
            ("salvaged", self.salvaged),
            ("records_salvaged", self.records_salvaged),
            ("manifest_rejects", self.manifest_rejects),
            ("retries", self.retries),
            ("transient_recovered", self.transient_recovered),
        ];
        let summary = counts.iter().map(|&(k, v)| (k.to_owned(), v.to_value())).collect();
        writeln!(w, "{}", tagged("summary", serde::Value::Object(summary))?)?;
        for note in &self.salvage_notes {
            writeln!(w, "{}", tagged("salvaged", note.to_value())?)?;
        }
        for q in &self.quarantined {
            writeln!(w, "{}", tagged("quarantined", q.to_value())?)?;
        }
        Ok(())
    }
}

/// Render an object `value` as a single JSON object line with a
/// `"record": tag` discriminator field prepended.
fn tagged(tag: &str, value: serde::Value) -> io::Result<String> {
    let mut fields = vec![("record".to_owned(), serde::Value::Str(tag.to_owned()))];
    if let serde::Value::Object(rest) = value {
        fields.extend(rest);
    }
    serde_json::to_string(&serde::Value::Object(fields))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A pluggable file reader: `(path, attempt, buf)` reads the whole file
/// into the front of `buf`, growing `buf` when the file does not fit, and
/// returns the file's length (what lies past it is left over from earlier
/// files). The attempt number (0-based) lets tests simulate transient
/// failures deterministically. It is called from every ingest worker
/// thread at once, hence `Sync`.
pub(crate) type ReadAttemptFn<'a> =
    dyn Fn(&Path, u32, &mut Vec<u8>) -> io::Result<usize> + Sync + 'a;

/// The length a read buffer starts at; it doubles whenever a file fills it.
const FIRST_SCRATCH: usize = 4096;

/// The default reader: one `open` and a plain read loop into the front of
/// `buf`, with no `metadata` call. `buf` stays initialized to its full
/// length, so a buffer reused across files allocates only when a file
/// outgrows it. Returns the file's length.
pub(crate) fn read_log(path: &Path, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut file = std::fs::File::open(path)?;
    let mut len = 0;
    loop {
        if len == buf.len() {
            buf.resize((2 * len).max(FIRST_SCRATCH), 0);
        }
        match file.read(buf.get_mut(len..).unwrap_or_default()) {
            Ok(0) => return Ok(len),
            Ok(n) => len += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Is this I/O error worth retrying?
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read into `buf` with retry/backoff. Returns the file's length plus the
/// number of failed attempts that preceded success.
fn read_with_retry(
    reader: &ReadAttemptFn<'_>,
    path: &Path,
    opts: &IngestOptions,
    buf: &mut Vec<u8>,
) -> (io::Result<usize>, u64) {
    let mut failures = 0u64;
    let mut attempt = 0;
    loop {
        match reader(path, attempt, buf) {
            Ok(len) => return (Ok(len), failures),
            Err(e) if is_transient(&e) && attempt < opts.max_retries => {
                failures += 1;
                if opts.backoff_base_ms > 0 {
                    // Cap the exponent so a large --retries cannot overflow
                    // the shift (UB at attempt >= 64) or sleep for days.
                    let delay = opts.backoff_base_ms.saturating_mul(1u64 << attempt.min(10));
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                attempt += 1;
            }
            Err(e) => return (Err(e), failures),
        }
    }
}

/// The lines of the manifest's bytes as `BufRead::lines` yields them:
/// split at LF, with one CR stripped before an LF and a last line without
/// LF kept; a line that is not UTF-8 is an `InvalidData` error. After a
/// failed read (`failure`), the error stands in for the partial line the
/// read broke off.
fn manifest_lines(
    text: &[u8],
    failure: Option<io::Error>,
) -> impl Iterator<Item = io::Result<&str>> + '_ {
    let whole = match failure {
        Some(_) => text.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1),
        None => text.len(),
    };
    let (whole, _partial) = text.split_at(whole);
    // One validation for the whole text: the lines before the first byte
    // that is not UTF-8 are valid, and the line holding it is the first
    // invalid line.
    let (valid, invalid) = match std::str::from_utf8(whole) {
        Ok(valid) => (valid, None),
        Err(e) => {
            let prefix = std::str::from_utf8(whole.split_at(e.valid_up_to()).0).unwrap_or_default();
            let bad_line = prefix.rfind('\n').map_or(0, |end| end + 1);
            let error =
                io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8");
            (prefix.split_at(bad_line).0, Some(error))
        }
    };
    valid
        .split_inclusive('\n')
        .map(|line| match line.strip_suffix('\n') {
            Some(line) => Ok(line.strip_suffix('\r').unwrap_or(line)),
            None => Ok(line),
        })
        .chain(invalid.map(Err))
        .chain(failure.map(Err))
}

/// Parsed manifest row (scheduler-visible fields).
#[derive(Clone, Copy)]
struct ManifestRow {
    job_id: u64,
    arrival_time: i64,
    start_time: i64,
    end_time: i64,
    nodes: u32,
    cores: u32,
    nprocs: u32,
    throughput: f64,
}

fn parse_manifest_row(line: &str, line_no: usize) -> Result<ManifestRow> {
    let mut fields = [""; 8];
    let mut n = 0;
    for field in line.split(',') {
        if let Some(slot) = fields.get_mut(n) {
            *slot = field;
        }
        n += 1;
    }
    if n != fields.len() {
        return Err(Error::new(
            ErrorKind::Parse,
            format!("manifest line {}: expected 8 fields, got {n}", line_no + 1),
        ));
    }
    let [job_id, arrival, start, end, nodes, cores, nprocs, throughput] = fields;
    // Integers parse as integers: a detour through f64 would round job
    // ids above 2^53 and saturate out-of-range counts without an error.
    fn field<T: std::str::FromStr>(text: &str, i: usize, line_no: usize) -> Result<T>
    where
        T::Err: std::fmt::Display,
    {
        text.parse().map_err(|e| {
            Error::new(ErrorKind::Parse, format!("manifest line {}: field {i}: {e}", line_no + 1))
        })
    }
    let row = ManifestRow {
        job_id: field(job_id, 0, line_no)?,
        arrival_time: field(arrival, 1, line_no)?,
        start_time: field(start, 2, line_no)?,
        end_time: field(end, 3, line_no)?,
        nodes: field(nodes, 4, line_no)?,
        cores: field(cores, 5, line_no)?,
        nprocs: field(nprocs, 6, line_no)?,
        throughput: field(throughput, 7, line_no)?,
    };
    // The target is log10(throughput): zero, negative, NaN or infinite
    // rows would reach the models as -inf or NaN.
    if !(row.throughput.is_finite() && row.throughput > 0.0) {
        return Err(Error::new(
            ErrorKind::Parse,
            format!(
                "manifest line {}: field 7: throughput {throughput} is not a positive finite \
                 number",
                line_no + 1
            ),
        ));
    }
    Ok(row)
}

/// The part of a [`TraceJob`] its Darshan log gives.
struct LogRow {
    exe: String,
    uses_mpiio: bool,
    features: Box<[f64; FEATURES]>,
    signature: u64,
}

impl LogRow {
    /// Reduces a parsed log to the row the pipeline uses; the per-file
    /// records go with the log.
    fn new(log: JobLog) -> Self {
        let mut features = Box::new([0.0; FEATURES]);
        let (posix, mpiio) = features.split_at_mut(POSIX_FEATURES);
        posix.copy_from_slice(&extract_posix_features(&log));
        mpiio.copy_from_slice(&extract_mpiio_features(&log));
        let uses_mpiio = log.mpiio.is_some();
        let signature = iotax_core::feature_signature(log.nprocs, uses_mpiio, features.iter());
        Self { exe: log.exe, uses_mpiio, features, signature }
    }
}

/// What the strict and lenient parsers made of one log file.
enum Parsed {
    /// The strict parser accepted it.
    Clean(LogRow),
    /// Only the lenient parser could use it (the note is boxed to keep
    /// the per-file outcome small).
    Salvaged(LogRow, Box<SalvageNote>),
    /// Strict mode: the strict parser's error (salvage is not tried).
    Rejected(ParseError),
    /// Lenient mode: neither parser could use it; the reason.
    Unsalvageable(String),
}

/// One log file after read-with-retry and parsing: the failed read
/// attempts, then the parse outcome or the read error.
struct FileOutcome {
    failures: u64,
    parsed: io::Result<Parsed>,
}

/// `<logs>/<job_id>.drn`, built in one allocation.
pub(crate) fn log_path(logs: &Path, job_id: u64) -> PathBuf {
    use std::fmt::Write as _;
    let mut path = OsString::with_capacity(logs.as_os_str().len() + 32);
    path.push(logs);
    #[expect(clippy::let_underscore_must_use, reason = "formatting into an OsString cannot fail")]
    let _ = write!(path, "{}{job_id}.drn", std::path::MAIN_SEPARATOR);
    PathBuf::from(path)
}

/// Read one log into `buf`, parse and (leniently) salvage it, and reduce
/// it to its row. Pure apart from the reader and the darshan parse
/// counters, so any thread may run it; the parsed log is dropped before
/// it returns.
fn read_and_parse(
    reader: &ReadAttemptFn<'_>,
    logs: &Path,
    job_id: u64,
    opts: &IngestOptions,
    buf: &mut Vec<u8>,
) -> FileOutcome {
    let (read, failures) = read_with_retry(reader, &log_path(logs, job_id), opts, buf);
    let parsed = read.map(|len| {
        let bytes = buf.get(..len).unwrap_or_default();
        match parse_log(bytes) {
            Ok(log) => Parsed::Clean(LogRow::new(log)),
            Err(source) if opts.strict => Parsed::Rejected(source),
            Err(_) => match parse_log_lenient(bytes) {
                Ok((salvaged, anomalies)) => {
                    let note = SalvageNote {
                        job_id,
                        records_recovered: salvaged.records_recovered as u64,
                        complete: salvaged.complete,
                        anomalies: anomalies.iter().map(|a| a.to_string()).collect(),
                    };
                    Parsed::Salvaged(LogRow::new(salvaged.log), Box::new(note))
                }
                Err(e) => Parsed::Unsalvageable(e.to_string()),
            },
        }
    });
    FileOutcome { failures, parsed }
}

/// Ingest a trace directory with the default filesystem reader.
pub fn ingest_trace(dir: &Path, opts: &IngestOptions) -> Result<(Vec<TraceJob>, IngestReport)> {
    ingest_trace_with_reader(dir, opts, &|path, _attempt, buf| read_log(path, buf))
}

/// Ingest a trace directory through a custom reader (tests inject
/// transient failures here; production uses [`ingest_trace`]), on every
/// available core.
// audit:allow(dead-public-api) -- fake-injection seam: tests/chaos.rs substitutes a faulty reader through it
pub fn ingest_trace_with_reader(
    dir: &Path,
    opts: &IngestOptions,
    reader: &ReadAttemptFn<'_>,
) -> Result<(Vec<TraceJob>, IngestReport)> {
    let _span = iotax_obs::span!("cli.ingest");
    ingest_on(dir, opts, reader, iotax_stats::fanout::current_num_threads())
}

/// Ingest on `threads` threads, in three phases, so the result is the
/// same at any thread count:
///
/// 1. one sequential pass reads `manifest.csv` once and splits it into
///    borrowed lines;
/// 2. the rows are cut into the executor's fixed chunks, and each worker
///    parses the rows of each chunk it claims and reads, parses, salvages
///    and reduces their files, one at a time, into one read buffer of its
///    own;
/// 3. one sequential merge walks the outcomes in manifest order, filling
///    the [`IngestReport`], bumping the `cli.ingest.*` counters, moving
///    quarantined files and picking the strict-mode error (the one at
///    the lowest manifest position), exactly as a single loop would.
fn ingest_on(
    dir: &Path,
    opts: &IngestOptions,
    reader: &ReadAttemptFn<'_>,
    threads: usize,
) -> Result<(Vec<TraceJob>, IngestReport)> {
    let manifest_path = dir.join("manifest.csv");
    let mut manifest = std::fs::File::open(&manifest_path)
        .map_err(|e| Error::io(format!("opening {}", manifest_path.display()), e))?;
    if let Some(qdir) = &opts.quarantine_dir {
        std::fs::create_dir_all(qdir)
            .map_err(|e| Error::io(format!("creating {}", qdir.display()), e))?;
    }
    let logs = dir.join("logs");

    // Phase 1: the manifest's lines. A line that cannot be delivered (the
    // read broke off in it, or it is not UTF-8) ends the pass: in lenient
    // mode as one reject, in strict mode as an error returned only if no
    // earlier row fails.
    let mut text = Vec::new();
    let read_failure = manifest.read_to_end(&mut text).err();
    let mut report = IngestReport::default();
    let mut lines = Vec::new();
    let mut line_error = None;
    for (line_no, line) in manifest_lines(&text, read_failure).enumerate() {
        match line {
            Ok(_) if line_no == 0 => {} // header
            Ok(line) => lines.push(line),
            Err(e) if opts.strict => {
                let context = format!("reading {} line {}", manifest_path.display(), line_no + 1);
                line_error = Some(Error::io(context, e));
                break;
            }
            Err(_) => {
                // Further lines would likely fail too, so stop here and
                // report a partial ingest instead of aborting the pass.
                report.manifest_rejects += 1;
                iotax_obs::counter!("cli.ingest.manifest_rejects").incr(1);
                break;
            }
        }
    }

    // Phase 2: the fan-out. Row `i` is manifest line `i + 1`. In strict
    // mode a worker skips the rows after the lowest failing row any
    // worker has seen (in strict mode every outcome but a clean parse is
    // a failure). The watermark publishes no other data, and it only
    // ever holds real failures, so every row up to the first failure is
    // always ingested.
    let ingest_row =
        |buf: &mut Vec<u8>, i: usize, line: &str| -> Result<(ManifestRow, FileOutcome)> {
            let row = parse_manifest_row(line, i + 1)?;
            Ok((row, read_and_parse(reader, &logs, row.job_id, opts, buf)))
        };
    let first_failure = AtomicUsize::new(usize::MAX);
    let outcomes = iotax_stats::fanout::map_in_order(&lines, threads, &|buf, i, line: &&str| {
        if opts.strict && i > first_failure.load(Ordering::Relaxed) {
            return None;
        }
        let outcome = ingest_row(buf, i, line);
        if opts.strict
            && !matches!(&outcome, Ok((_, FileOutcome { parsed: Ok(Parsed::Clean(_)), .. })))
        {
            first_failure.fetch_min(i, Ordering::Relaxed);
        }
        Some(outcome)
    });

    // Phase 3: the merge, in manifest order.
    let mut jobs = Vec::with_capacity(lines.len());
    let mut moved = BTreeSet::new();
    let mut buf = Vec::new();
    for (i, (line, outcome)) in lines.iter().zip(outcomes).enumerate() {
        // Skipped rows lie past the first strict failure, where this loop
        // returns; ingesting one here only keeps the merge total.
        let (row, outcome) = match outcome.unwrap_or_else(|| ingest_row(&mut buf, i, line)) {
            Ok(pair) => pair,
            Err(e) if opts.strict => return Err(e),
            Err(_) => {
                report.manifest_rejects += 1;
                iotax_obs::counter!("cli.ingest.manifest_rejects").incr(1);
                continue;
            }
        };
        report.total_files += 1;
        iotax_obs::counter!("cli.ingest.files").incr(1);
        // If an earlier row with the same job id moved this file to
        // quarantine, read it again now, as a single loop would.
        let outcome = if moved.contains(&row.job_id) {
            read_and_parse(reader, &logs, row.job_id, opts, &mut buf)
        } else {
            outcome
        };
        report.retries += outcome.failures;
        if outcome.failures > 0 {
            iotax_obs::counter!("cli.ingest.retries").incr(outcome.failures);
        }
        let parsed = match outcome.parsed {
            Ok(parsed) => {
                if outcome.failures > 0 {
                    report.transient_recovered += 1;
                    iotax_obs::counter!("cli.ingest.transient_recovered").incr(1);
                }
                parsed
            }
            Err(e) if opts.strict => {
                let path = log_path(&logs, row.job_id);
                let context =
                    format!("reading darshan log {} for job {}", path.display(), row.job_id);
                return Err(Error::io(context, e));
            }
            Err(e) => {
                let reason = format!("read failed: {e}");
                if quarantine(&mut report, opts, &logs, row.job_id, &reason) {
                    moved.insert(row.job_id);
                }
                continue;
            }
        };
        let log = match parsed {
            Parsed::Clean(log) => {
                report.parsed_clean += 1;
                iotax_obs::counter!("cli.ingest.parsed_clean").incr(1);
                log
            }
            Parsed::Rejected(source) => {
                return Err(Error::parse(format!("darshan log for job {}", row.job_id), source));
            }
            Parsed::Salvaged(log, note) => {
                report.salvaged += 1;
                report.records_salvaged += note.records_recovered;
                iotax_obs::counter!("cli.ingest.salvaged").incr(1);
                report.salvage_notes.push(*note);
                log
            }
            Parsed::Unsalvageable(reason) => {
                if quarantine(&mut report, opts, &logs, row.job_id, &reason) {
                    moved.insert(row.job_id);
                }
                continue;
            }
        };

        jobs.push(TraceJob {
            job_id: row.job_id,
            arrival_time: row.arrival_time,
            start_time: row.start_time,
            end_time: row.end_time,
            nodes: row.nodes,
            cores: row.cores,
            nprocs: row.nprocs,
            throughput: row.throughput,
            exe: log.exe,
            uses_mpiio: log.uses_mpiio,
            features: log.features,
            signature: log.signature,
        });
    }
    if let Some(e) = line_error {
        return Err(e);
    }
    jobs.sort_by_key(|j| (j.start_time, j.job_id));
    Ok((jobs, report))
}

/// Record (and optionally move) an unsalvageable file. Returns whether
/// the file was moved.
fn quarantine(
    report: &mut IngestReport,
    opts: &IngestOptions,
    logs: &Path,
    job_id: u64,
    reason: &str,
) -> bool {
    iotax_obs::counter!("cli.ingest.quarantined").incr(1);
    let path = log_path(logs, job_id);
    let moved = match (&opts.quarantine_dir, path.file_name()) {
        // Best effort: the file may be unreadable or already gone.
        (Some(qdir), Some(name)) => std::fs::rename(&path, qdir.join(name)).is_ok(),
        _ => false,
    };
    report.quarantined.push(QuarantinedFile {
        job_id,
        path: path.display().to_string(),
        reason: reason.to_owned(),
    });
    moved
}

/// Apply a [`FaultPlan`] to every log in an exported trace directory,
/// one file at a time in file-name order, rewriting damaged files in
/// place and writing the ground-truth `faults.json` manifest next to
/// `manifest.csv`. Returns the manifest. [`crate::export_trace_with_faults`]
/// writes the same bytes in one pass.
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, injects the workload's faults through this; tests/chaos.rs and the fused writer's byte-identity test compare against it
pub fn inject_faults(dir: &Path, plan: &FaultPlan) -> Result<FaultManifest> {
    let _span = iotax_obs::span!("cli.inject_faults");
    let logs_dir = dir.join("logs");
    let mut manifest =
        FaultManifest { seed: plan.seed, rate: plan.rate, jobs_seen: 0, faults: Vec::new() };
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&logs_dir)
        .map_err(|e| Error::io(format!("reading {}", logs_dir.display()), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "drn"))
        // out-of-core: deterministic ingest needs the sorted listing; switch to an external sorted merge if log dirs outgrow memory
        .collect();
    entries.sort();
    for path in entries {
        let Some(job_id) =
            path.file_stem().and_then(|s| s.to_str()).and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        manifest.jobs_seen += 1;
        let bytes = std::fs::read(&path)
            .map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
        if let Some((dirty, rec)) = plan.corrupt(job_id, &bytes) {
            std::fs::write(&path, dirty)
                .map_err(|e| Error::io(format!("writing {}", path.display()), e))?;
            iotax_obs::counter!("sim.faults_injected").incr(1);
            manifest.faults.push(rec);
        }
    }
    write_fault_manifest(dir, &manifest)?;
    Ok(manifest)
}

/// Write the ground-truth fault manifest to `<dir>/faults.json`.
pub(crate) fn write_fault_manifest(dir: &Path, manifest: &FaultManifest) -> Result<()> {
    let path = dir.join("faults.json");
    let text = serde_json::to_string_pretty(manifest).map_err(|e| {
        Error::new(ErrorKind::Internal, format!("encoding {}: {e}", path.display()))
    })?;
    std::fs::write(&path, text).map_err(|e| Error::io(format!("writing {}", path.display()), e))
}

/// Load the ground-truth fault manifest written by [`inject_faults`] or
/// [`crate::export_trace_with_faults`].
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, reads the fault manifest through this
pub fn load_fault_manifest(dir: &Path) -> Result<FaultManifest> {
    let path = dir.join("faults.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
    serde_json::from_str(&text)
        .map_err(|e| Error::new(ErrorKind::Parse, format!("decoding {}: {e}", path.display())))
}

/// A reader that consults a fault manifest to simulate transiently
/// unreadable files: for a job marked `TransientUnreadable` with
/// `retry_failures = n`, the first `n` attempts fail with
/// [`io::ErrorKind::Interrupted`], then reads succeed. All other files
/// read normally.
// audit:allow(dead-public-api) -- fake-injection seam: the faulty reader tests/chaos.rs substitutes through ingest_trace_with_reader
pub fn simulated_transient_reader(
    manifest: FaultManifest,
) -> impl Fn(&Path, u32, &mut Vec<u8>) -> io::Result<usize> + Sync {
    move |path: &Path, attempt: u32, buf: &mut Vec<u8>| {
        let job_id = path.file_stem().and_then(|s| s.to_str()).and_then(|s| s.parse::<u64>().ok());
        if let Some(rec) = job_id.and_then(|id| manifest.fault_for(id)) {
            if let Some(failures) = rec.retry_failures {
                if attempt < failures {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "simulated transient read failure",
                    ));
                }
            }
        }
        read_log(path, buf)
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;
    use crate::export_trace;
    use iotax_sim::{FaultKind, Platform, SimConfig};
    use iotax_stats::Fnv1aHasher;
    use std::hash::Hasher;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iotax-ingest-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn exported_trace(tag: &str, n: usize, seed: u64) -> PathBuf {
        let ds = Platform::new(SimConfig::theta().with_jobs(n).with_seed(seed)).generate();
        let dir = temp_dir(tag);
        export_trace(&ds, &dir).expect("export");
        dir
    }

    /// The log of job `job_id` in trace `dir`.
    fn log_of(dir: &Path, job_id: u64) -> PathBuf {
        log_path(&dir.join("logs"), job_id)
    }

    /// The default reader as a [`ReadAttemptFn`].
    fn plain_reader(path: &Path, _attempt: u32, buf: &mut Vec<u8>) -> io::Result<usize> {
        read_log(path, buf)
    }

    #[test]
    fn clean_trace_ingests_with_empty_report() {
        let dir = exported_trace("clean", 120, 91);
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert_eq!(jobs.len(), 120);
        assert_eq!(report.parsed_clean, 120);
        assert_eq!(report.salvaged, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.retries, 0);
        // Lenient ingest of a clean trace equals the strict one.
        let (strict, _) = ingest_trace(&dir, &IngestOptions::strict()).expect("strict ingest");
        assert_eq!(jobs, strict);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_salvaged_not_fatal() {
        let dir = exported_trace("salvage", 80, 92);
        let (clean_jobs, _) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        let victim = clean_jobs[40].job_id;
        let path = dir.join("logs").join(format!("{victim}.drn"));
        let bytes = std::fs::read(&path).expect("read");
        // Chop the CRC trailer off: strict fails, salvage keeps all records.
        std::fs::write(&path, &bytes[..bytes.len() - 2]).expect("write");

        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert_eq!(jobs.len(), 80, "no job lost");
        assert_eq!(report.salvaged, 1);
        assert_eq!(report.salvage_notes[0].job_id, victim);
        assert!(report.salvage_notes[0].records_recovered > 0);
        assert!(report.quarantined.is_empty());

        // Strict mode still fails fast on the same trace.
        let err = ingest_trace(&dir, &IngestOptions::strict()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert!(err.context().contains(&victim.to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroyed_header_is_quarantined_and_moved() {
        let dir = exported_trace("quarantine", 60, 93);
        let (clean_jobs, _) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        let victim = clean_jobs[10].job_id;
        let path = dir.join("logs").join(format!("{victim}.drn"));
        std::fs::write(&path, b"not a darshan log at all").expect("write");

        let qdir = dir.join("quarantine");
        let opts = IngestOptions { quarantine_dir: Some(qdir.clone()), ..Default::default() };
        let (jobs, report) = ingest_trace(&dir, &opts).expect("ingest");
        assert_eq!(jobs.len(), 59, "only the destroyed file is missing");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].job_id, victim);
        assert!(qdir.join(format!("{victim}.drn")).exists(), "file moved aside");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_errors_are_retried() {
        let dir = exported_trace("transient", 40, 94);
        let (clean_jobs, _) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        let flaky = clean_jobs[5].job_id;
        let opts = IngestOptions { backoff_base_ms: 0, ..Default::default() };
        let reader = move |path: &Path, attempt: u32, buf: &mut Vec<u8>| {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if stem == flaky.to_string() && attempt < 2 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"));
            }
            read_log(path, buf)
        };
        let (jobs, report) = ingest_trace_with_reader(&dir, &opts, &reader).expect("ingest");
        assert_eq!(jobs.len(), 40, "flaky file recovered");
        assert_eq!(report.retries, 2);
        assert_eq!(report.transient_recovered, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_transient_errors_exhaust_retries_into_quarantine() {
        let dir = exported_trace("exhaust", 30, 95);
        let (clean_jobs, _) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        let dead = clean_jobs[0].job_id;
        let opts = IngestOptions { backoff_base_ms: 0, max_retries: 2, ..Default::default() };
        let reader = move |path: &Path, _attempt: u32, buf: &mut Vec<u8>| {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if stem == dead.to_string() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "always down"));
            }
            read_log(path, buf)
        };
        let (jobs, report) = ingest_trace_with_reader(&dir, &opts, &reader).expect("ingest");
        assert_eq!(jobs.len(), 29);
        assert_eq!(report.retries, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].job_id, dead);
        assert!(report.quarantined[0].reason.contains("read failed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inject_faults_writes_ground_truth_manifest() {
        let dir = exported_trace("inject", 150, 96);
        let plan = FaultPlan::new(1234, 0.25);
        let manifest = inject_faults(&dir, &plan).expect("inject");
        assert_eq!(manifest.jobs_seen, 150);
        assert!(!manifest.faults.is_empty(), "25% of 150 jobs should hit");
        // The manifest on disk round-trips.
        let loaded = load_fault_manifest(&dir).expect("load");
        assert_eq!(loaded, manifest);
        // Injection is idempotent in *selection*: same plan, same job set.
        for f in &manifest.faults {
            assert_eq!(plan.fault_for(f.job_id), Some(f.kind), "manifest matches plan");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_trace_ingests_leniently_and_scores_against_manifest() {
        let dir = exported_trace("score", 200, 97);
        let plan = FaultPlan::new(777, 0.3);
        let manifest = inject_faults(&dir, &plan).expect("inject");
        let reader = simulated_transient_reader(manifest.clone());
        let opts = IngestOptions { backoff_base_ms: 0, ..Default::default() };
        let (jobs, report) = ingest_trace_with_reader(&dir, &opts, &reader).expect("ingest");
        assert_eq!(report.total_files, 200);
        // Every header-destroyed file is quarantined; nothing else is.
        let destroyed: Vec<u64> =
            manifest.faults.iter().filter(|f| f.header_destroyed).map(|f| f.job_id).collect();
        let quarantined: Vec<u64> = report.quarantined.iter().map(|q| q.job_id).collect();
        for id in &destroyed {
            assert!(quarantined.contains(id), "job {id} header destroyed but not quarantined");
        }
        assert_eq!(jobs.len() + quarantined.len(), 200);
        // Transient files were retried, not quarantined.
        let transient: Vec<u64> = manifest
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::TransientUnreadable)
            .map(|f| f.job_id)
            .collect();
        if !transient.is_empty() {
            assert!(report.transient_recovered >= transient.len() as u64);
            for id in &transient {
                assert!(!quarantined.contains(id), "transient job {id} wrongly quarantined");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_renders_as_json_lines() {
        let report = IngestReport {
            total_files: 3,
            parsed_clean: 1,
            salvaged: 1,
            records_salvaged: 4,
            manifest_rejects: 0,
            retries: 2,
            transient_recovered: 1,
            quarantined: vec![QuarantinedFile {
                job_id: 9,
                path: "logs/9.drn".into(),
                reason: "bad magic".into(),
            }],
            salvage_notes: vec![SalvageNote {
                job_id: 5,
                records_recovered: 4,
                complete: false,
                anomalies: vec!["record 4 of Posix truncated at byte 900".into()],
            }],
        };
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"record\": \"summary\"")
                || lines[0].contains("\"record\":\"summary\"")
        );
        assert!(lines[1].contains("\"job_id\""));
        assert!(lines[2].contains("bad magic"));
        assert!(report.summary().contains("3 files"));
    }

    /// Rewrites line `line_no` (0 = header) of the trace's manifest.
    fn edit_manifest_line(dir: &Path, line_no: usize, edit: impl FnOnce(&str) -> String) {
        let path = dir.join("manifest.csv");
        let text = std::fs::read_to_string(&path).expect("read manifest");
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[line_no] = edit(&lines[line_no]);
        std::fs::write(&path, lines.join("\n") + "\n").expect("write manifest");
    }

    /// Line `line_no` (0 = header) of the trace's manifest.
    fn manifest_line(dir: &Path, line_no: usize) -> String {
        let text = std::fs::read_to_string(dir.join("manifest.csv")).expect("read manifest");
        text.lines().nth(line_no).expect("line exists").to_owned()
    }

    /// The job id on manifest line `line_no`.
    fn manifest_job_id(dir: &Path, line_no: usize) -> u64 {
        let line = manifest_line(dir, line_no);
        line.split(',').next().and_then(|id| id.parse().ok()).expect("integer job id")
    }

    #[test]
    fn job_ids_above_2_pow_53_ingest_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot hold; a detour
        // through f64 would look for 9007199254740992.drn instead.
        let dir = exported_trace("bigid", 6, 98);
        let big: u64 = (1 << 53) + 1;
        let old = manifest_job_id(&dir, 2);
        std::fs::rename(log_of(&dir, old), log_of(&dir, big)).expect("rename log");
        edit_manifest_line(&dir, 2, |line| line.replacen(&old.to_string(), &big.to_string(), 1));
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(report.parsed_clean, 6);
        assert!(jobs.iter().any(|j| j.job_id == big), "job {big} ingested under its own id");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replaces field `i` of a manifest line.
    fn with_field(line: &str, i: usize, value: &str) -> String {
        let mut fields: Vec<String> = line.split(',').map(str::to_owned).collect();
        fields[i] = value.to_owned();
        fields.join(",")
    }

    #[test]
    fn out_of_range_manifest_integers_are_rejected_not_saturated() {
        let dir = exported_trace("range", 8, 99);
        // A negative job id, and a node count one past u32::MAX.
        edit_manifest_line(&dir, 3, |line| format!("-{line}"));
        edit_manifest_line(&dir, 5, |line| {
            with_field(line, 4, &(u64::from(u32::MAX) + 1).to_string())
        });
        // Throughputs that are not positive finite numbers.
        let bad_throughputs = [(4, "0"), (6, "-1"), (7, "nan"), (8, "inf")];
        for (line_no, value) in bad_throughputs {
            edit_manifest_line(&dir, line_no, |line| with_field(line, 7, value));
            let line = manifest_line(&dir, line_no);
            let err = parse_manifest_row(&line, line_no).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Parse);
            let want = format!("manifest line {}: field 7", line_no + 1);
            assert!(err.to_string().contains(&want), "{value}: {err}");
        }
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert_eq!(report.manifest_rejects, 6);
        assert_eq!(jobs.len(), 2);
        let err = ingest_trace(&dir, &IngestOptions::strict()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert!(err.to_string().contains("manifest line 4: field 0"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_chaos_ingest_is_identical_at_1_2_and_3_threads() {
        // The pinned chaos trace (theta, 2 000 jobs, seed 301, 20 % of
        // the logs damaged with fault seed 20220914). Each thread count
        // hands the chunks out to a different number of workers.
        let dir = exported_trace("threads", 2_000, 301);
        let manifest = inject_faults(&dir, &FaultPlan::new(20_220_914, 0.20)).expect("inject");
        let reader = simulated_transient_reader(manifest);
        let lenient = |threads: usize| {
            let opts = IngestOptions { backoff_base_ms: 0, ..Default::default() };
            let (jobs, report) = ingest_on(&dir, &opts, &reader, threads).expect("ingest");
            let mut jsonl = Vec::new();
            report.write_jsonl(&mut jsonl).expect("jsonl");
            (jobs, report, jsonl)
        };
        let strict = |threads: usize| {
            let err = ingest_on(&dir, &IngestOptions::strict(), &reader, threads)
                .expect_err("strict ingest of a dirty trace fails");
            (err.kind(), err.to_string())
        };
        let (one, strict_one) = (lenient(1), strict(1));
        assert_eq!(one.1.total_files, 2_000);
        assert!(one.1.salvaged > 0 && !one.1.quarantined.is_empty() && one.1.retries > 0);
        for threads in [2, 3] {
            let other = lenient(threads);
            assert!(other.0 == one.0, "{threads} threads: jobs differ");
            assert_eq!(other.1, one.1, "{threads} threads: ingest report differs");
            assert!(other.2 == one.2, "{threads} threads: JSONL bytes differ");
            assert_eq!(strict(threads), strict_one, "{threads} threads: strict error differs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_error_is_the_lowest_manifest_position_at_any_thread_count() {
        let dir = exported_trace("strict-order", 120, 101);
        let early = manifest_job_id(&dir, 11);
        let late = manifest_job_id(&dir, 110);
        for id in [early, late] {
            std::fs::write(log_of(&dir, id), b"not a darshan log").expect("write");
        }
        let strict = |threads: usize| {
            ingest_on(&dir, &IngestOptions::strict(), &plain_reader, threads).unwrap_err()
        };
        for threads in [1, 2, 3] {
            let err = strict(threads);
            assert!(err.context().contains(&format!("job {early}")), "{threads}: {err}");
        }
        // A bad manifest line after the bad file loses to the file; one
        // before it wins.
        edit_manifest_line(&dir, 60, |_| "garbage".to_owned());
        assert!(strict(3).context().contains(&format!("job {early}")));
        edit_manifest_line(&dir, 5, |_| "garbage".to_owned());
        assert!(strict(3).to_string().contains("manifest line 6"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_repeated_job_id_sees_its_file_already_quarantined() {
        // Two manifest rows name the same destroyed log: the first moves
        // it to quarantine, so the second finds it gone.
        let dir = exported_trace("repeat", 20, 102);
        let victim = manifest_job_id(&dir, 4);
        std::fs::write(log_of(&dir, victim), b"not a darshan log").expect("write");
        let row = manifest_line(&dir, 4);
        edit_manifest_line(&dir, 15, |_| row);
        let qdir = dir.join("quarantine");
        let opts = IngestOptions { quarantine_dir: Some(qdir.clone()), ..Default::default() };
        let (_, report) = ingest_on(&dir, &opts, &plain_reader, 2).expect("ingest");
        assert_eq!(report.quarantined.len(), 2);
        assert!(!report.quarantined[0].reason.contains("read failed"));
        assert!(report.quarantined[1].reason.contains("read failed"));
        assert!(qdir.join(format!("{victim}.drn")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
    #[test]
    fn strict_read_error_names_the_log_and_its_job() {
        let dir = exported_trace("missing-log", 30, 103);
        let victim = manifest_job_id(&dir, 7);
        let path = log_of(&dir, victim);
        std::fs::remove_file(&path).expect("delete log");
        let err = ingest_trace(&dir, &IngestOptions::strict()).unwrap_err();
        assert_eq!((err.kind(), err.exit_code()), (ErrorKind::Io, 74));
        let text = err.to_string();
        assert!(text.contains(&path.display().to_string()), "{text}");
        assert!(text.contains(&format!("job {victim}")), "{text}");
        // Lenient mode quarantines the missing log and goes on.
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert_eq!((jobs.len(), report.quarantined.len()), (29, 1));
        assert_eq!(report.quarantined[0].path, path.display().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_manifest_line_is_named_in_strict_mode_and_one_reject_otherwise() {
        let dir = exported_trace("bad-utf8", 12, 104);
        let path = dir.join("manifest.csv");
        let mut text = std::fs::read(&path).expect("read manifest");
        // Line 6 (1-based) gets a byte that is not UTF-8.
        let at = text.iter().enumerate().filter(|&(_, &b)| b == b'\n').nth(4).expect("line 6").0;
        text.insert(at + 1, 0xFF);
        std::fs::write(&path, text).expect("write manifest");
        let err = ingest_trace(&dir, &IngestOptions::strict()).unwrap_err();
        assert_eq!((err.kind(), err.exit_code()), (ErrorKind::Io, 74));
        let expected =
            format!("reading {} line 6: stream did not contain valid UTF-8", path.display());
        assert_eq!(err.to_string(), expected);
        // Lenient mode keeps the four rows before it and stops there.
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert_eq!((jobs.len(), report.manifest_rejects), (4, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_lines_are_the_lines_bufread_yields() {
        let texts: [&[u8]; 10] = [
            b"",
            b"\n",
            b"a,b\nc,d\n",
            b"a,b\r\nc,d\r\n",
            b"a\nlast without newline",
            b"cr\rin\r\n\r\nthe middle\r",
            b"\n\nempty lines\n\n",
            b"ok\nbad \xff byte\nnever read\n",
            b"\xc3\n",
            b"caf\xc3\xa9\n",
        ];
        let render = |line: io::Result<String>| line.map_err(|e| (e.kind(), e.to_string()));
        for text in texts {
            let want: Vec<_> = io::BufRead::lines(text).map(render).collect();
            let got: Vec<_> =
                manifest_lines(text, None).map(|l| render(l.map(str::to_owned))).collect();
            // BufRead::lines goes on after a bad line; ingest stops at the first error.
            let stop = want.iter().position(|l| l.is_err()).map_or(want.len(), |i| i + 1);
            assert_eq!(
                got[..stop.min(got.len())],
                want[..stop],
                "{:?}",
                String::from_utf8_lossy(text)
            );
        }
        // A read that broke off: the whole lines before the break, then the error.
        let failure = || Some(io::Error::other("device gone"));
        let got: Vec<_> = manifest_lines(b"a\nb\npart", failure()).map(|l| l.is_ok()).collect();
        assert_eq!(got, [true, true, false]);
        let got: Vec<_> = manifest_lines(b"a\n", failure()).map(|l| l.is_ok()).collect();
        assert_eq!(got, [true, false]);
        assert_eq!(manifest_lines(b"", failure()).count(), 1);
    }

    #[test]
    fn reader_reads_empty_and_oversized_logs_through_one_buffer() {
        let dir = temp_dir("reader");
        let big: Vec<u8> =
            (0..3 * FIRST_SCRATCH + 7).map(|i| u8::try_from(i * 31 % 251).unwrap()).collect();
        let (empty, large, small) = (dir.join("empty"), dir.join("large"), dir.join("small"));
        std::fs::write(&empty, b"").expect("write");
        std::fs::write(&large, &big).expect("write");
        std::fs::write(&small, b"tiny").expect("write");
        let mut buf = Vec::new();
        assert_eq!(read_log(&empty, &mut buf).expect("read"), 0);
        assert_eq!(buf.len(), FIRST_SCRATCH);
        let len = read_log(&large, &mut buf).expect("read");
        assert_eq!(buf[..len], big[..]);
        assert_eq!(buf.len(), 4 * FIRST_SCRATCH, "doubled until the file fit");
        // A later, smaller file reuses the grown buffer.
        assert_eq!(read_log(&small, &mut buf).expect("read"), 4);
        assert_eq!((&buf[..4], buf.len()), (&b"tiny"[..], 4 * FIRST_SCRATCH));
        assert!(read_log(&dir.join("absent"), &mut buf).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_log_is_quarantined() {
        let dir = exported_trace("empty-log", 10, 105);
        let victim = manifest_job_id(&dir, 3);
        std::fs::write(log_of(&dir, victim), b"").expect("truncate");
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert_eq!(jobs.len(), 9);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].job_id, victim);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_path_is_the_joined_path() {
        let logs = Path::new("some/trace").join("logs");
        for id in [0, 7, u64::MAX] {
            assert_eq!(log_path(&logs, id), logs.join(format!("{id}.drn")));
        }
    }

    /// The duplicate signature as it was computed before ingest reduced
    /// logs to rows: byte-serial FNV-1a over the log's process count, its
    /// MPI-IO flag and the bits of its features.
    fn signature_of(log: &JobLog) -> u64 {
        let mut hasher = Fnv1aHasher::new();
        hasher.write(&log.nprocs.to_ne_bytes());
        hasher.write(&[u8::from(log.mpiio.is_some())]);
        let (posix, mpiio) = (extract_posix_features(log), extract_mpiio_features(log));
        for v in posix.iter().chain(&mpiio) {
            hasher.write(&v.to_bits().to_ne_bytes());
        }
        hasher.finish()
    }

    #[test]
    fn every_row_of_the_pinned_chaos_trace_is_its_log_reduced() {
        let dir = exported_trace("rows", 2_000, 301);
        inject_faults(&dir, &FaultPlan::new(20_220_914, 0.20)).expect("inject");
        let (jobs, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        let salvaged: BTreeSet<u64> = report.salvage_notes.iter().map(|n| n.job_id).collect();
        assert!(!salvaged.is_empty() && jobs.len() > salvaged.len());
        for job in &jobs {
            let bytes = std::fs::read(log_of(&dir, job.job_id)).expect("read log");
            let log = if salvaged.contains(&job.job_id) {
                parse_log_lenient(&bytes).expect("salvageable").0.log
            } else {
                parse_log(&bytes).expect("clean")
            };
            let posix = extract_posix_features(&log);
            let mpiio = extract_mpiio_features(&log);
            let (row_posix, row_mpiio) = job.features.split_at(POSIX_FEATURES);
            assert!(row_posix.iter().zip(&posix).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(row_mpiio.iter().zip(&mpiio).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(job.signature, signature_of(&log), "job {}", job.job_id);
            assert_eq!((&job.exe, job.uses_mpiio), (&log.exe, log.mpiio.is_some()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_line_is_the_report_without_its_per_file_vectors() {
        let dir = exported_trace("summary", 400, 106);
        inject_faults(&dir, &FaultPlan::new(20_220_914, 0.30)).expect("inject");
        let (_, report) = ingest_trace(&dir, &IngestOptions::default()).expect("ingest");
        assert!(!report.salvage_notes.is_empty() && !report.quarantined.is_empty());
        let mut jsonl = Vec::new();
        report.write_jsonl(&mut jsonl).expect("jsonl");
        let text = String::from_utf8(jsonl).expect("utf8");
        // The whole report's value, filtered, is what the line used to be.
        let mut fields = vec![("record".to_owned(), serde::Value::Str("summary".to_owned()))];
        if let serde::Value::Object(all) = report.to_value() {
            fields.extend(
                all.into_iter().filter(|(k, _)| k != "quarantined" && k != "salvage_notes"),
            );
        }
        let want = serde_json::to_string(&serde::Value::Object(fields)).expect("json");
        assert_eq!(text.lines().next(), Some(want.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
