//! The run ledger: a self-contained, comparable record of one tool
//! invocation.
//!
//! Every `iotax-gen` / `iotax-analyze` / `iotax-audit` run started with
//! `--ledger <dir>` writes `<dir>/run.json`: a [`RunManifest`] (tool and
//! version, args, config digest, seeds, input digests, wall time, exit
//! status), the full flat span stream (reassemble with
//! [`assemble_span_tree`]), final counter values, and p50/p95/p99
//! histogram digests. Tool-specific payloads (taxonomy stage health,
//! audit finding counts, …) ride along as named [`RunFile::sections`]
//! without this crate depending on the crates that produce them.
//!
//! `iotax-report` consumes these directories: `show` one run, `diff`
//! two, `export` a chrome-trace / flamegraph view, or `gate` a run
//! against a committed baseline in CI.
//!
//! [`assemble_span_tree`]: crate::assemble_span_tree

use crate::metrics::{
    snapshot_counters, snapshot_gauges, snapshot_histograms, CounterSnapshot, GaugeSnapshot,
    HistogramSummary,
};
use crate::recorder::{BLACKBOX_DIR, HEARTBEAT_FILE};
use crate::sink::Sink;
use crate::span::SpanRecord;
use crate::{Error, Result};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// 64-bit FNV-1a over a byte slice; the workspace's dependency-free
/// content digest (collision resistance is not a goal — drift detection
/// between two runs of the same pipeline is).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digests arbitrary bytes into the ledger's `fnv1a:…` notation.
pub fn digest_bytes(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x}", fnv1a(bytes))
}

/// Size and content digest of one input file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputDigest {
    /// Path as passed on the command line.
    pub path: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Content digest (see [`digest_bytes`]).
    pub digest: String,
}

/// Reads and digests one input file.
pub(crate) fn digest_file(path: impl AsRef<Path>) -> Result<InputDigest> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| Error::io(format!("digesting input {}", path.display()), e))?;
    Ok(InputDigest {
        path: path.display().to_string(),
        bytes: bytes.len() as u64,
        digest: digest_bytes(&bytes),
    })
}

/// The who/what/when of one run: everything needed to decide whether two
/// run directories are comparable before diffing them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Process-unique run id, e.g. `iotax-analyze-3f9c…`.
    pub run_id: String,
    /// Tool name (`iotax-gen`, `iotax-analyze`, `iotax-audit`).
    pub tool: String,
    /// The tool crate's version at build time.
    pub tool_version: String,
    /// Command-line arguments after the binary name.
    pub args: Vec<String>,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total wall time of the run, microseconds.
    pub wall_us: u64,
    /// Process exit status the run finished with.
    pub exit_status: i64,
    /// Digest of the effective configuration (tool-defined).
    pub config_digest: String,
    /// Named RNG seeds that influenced the run.
    pub seeds: Vec<(String, u64)>,
    /// Digests of the input files the run consumed.
    pub inputs: Vec<InputDigest>,
}

/// The complete persisted state of one run: `run.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFile {
    /// Run identity and provenance.
    pub manifest: RunManifest,
    /// Flat span stream in close order (all threads interleaved).
    pub spans: Vec<SpanRecord>,
    /// Final counter values, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Final histogram digests, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Tool-specific payloads, e.g. `("stages", …)` from iotax-analyze.
    pub sections: Vec<(String, Value)>,
    /// Final gauge values, sorted by name. Informational only: gauges
    /// (heap peaks, environment-dependent readings) are excluded from
    /// `metrics_identical` drift by contract. `None` when the ledger was
    /// written by a pre-gauge build, so old baselines keep decoding.
    pub gauges: Option<Vec<GaugeSnapshot>>,
}

impl RunFile {
    /// Decodes the named section, if present and well-formed.
    pub fn section<T: Deserialize>(&self, name: &str) -> Option<T> {
        self.sections.iter().find(|(n, _)| n == name).and_then(|(_, v)| T::from_value(v).ok())
    }
}

/// Largest `run.json` [`load_run`] reads without an explicit override.
/// Real ledgers are tens of KiB; the cap exists so a corrupt or hostile
/// file cannot drive a multi-GiB allocation through the reader.
pub(crate) const MAX_RUN_FILE_BYTES: u64 = 64 << 20;

/// Reads a run directory (or a direct path to a `run.json`) back into a
/// [`RunFile`], refusing files above 64 MiB.
pub fn load_run(path: impl AsRef<Path>) -> Result<RunFile> {
    load_run_with_limit(path, MAX_RUN_FILE_BYTES)
}

/// [`load_run`] with an explicit size cap. Oversized files are a *data*
/// error (sysexits 65), not an I/O error: the file exists and is
/// readable, its claimed contents are what we refuse to trust.
pub(crate) fn load_run_with_limit(path: impl AsRef<Path>, max_bytes: u64) -> Result<RunFile> {
    let path = path.as_ref();
    let file = if path.is_dir() { path.join("run.json") } else { path.to_path_buf() };
    let meta = std::fs::metadata(&file)
        .map_err(|e| Error::io(format!("reading run ledger {}", file.display()), e))?;
    if meta.len() > max_bytes {
        return Err(Error::new(
            crate::ErrorKind::Parse,
            format!(
                "run ledger {} is {} bytes, above the {} byte cap",
                file.display(),
                meta.len(),
                max_bytes
            ),
        ));
    }
    let text = std::fs::read_to_string(&file)
        .map_err(|e| Error::io(format!("reading run ledger {}", file.display()), e))?;
    serde_json::from_str(&text)
        .map_err(|e| Error::parse(format!("decoding run ledger {}", file.display()), e))
}

/// Whether the run directory `dir` holds a run that crashed: a black box
/// and no `run.json`. A panic never writes `run.json`, and a fatal exit
/// writes it before it flushes its black box, so a black box alone means
/// the run died unfinished. The black box is looked for first, so a run
/// that finishes between the two looks is seen with its `run.json`.
pub fn run_crashed(dir: &Path) -> bool {
    dir.join(BLACKBOX_DIR).is_dir() && !dir.join("run.json").exists()
}

/// The sink side of a ledger: buffers the span stream in memory until
/// [`Ledger::finish`] persists it. Counters and histograms are *not*
/// collected here — `finish` snapshots the live registry directly, so
/// the ledger always holds final values regardless of flush ordering.
#[derive(Default)]
pub(crate) struct LedgerSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl LedgerSink {
    /// All span records seen so far, in arrival order.
    pub(crate) fn span_records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("ledger sink poisoned").clone()
    }
}

impl Sink for LedgerSink {
    fn span_close(&self, record: &SpanRecord) {
        self.spans.lock().expect("ledger sink poisoned").push(record.clone());
    }
}

/// An in-progress run ledger. Create one at process start, install its
/// [`sink`](Ledger::sink), describe the run through the builder methods,
/// and [`finish`](Ledger::finish) on every exit path.
pub struct Ledger {
    dir: Option<PathBuf>,
    store: Option<PathBuf>,
    sink: Arc<LedgerSink>,
    start: Instant,
    manifest: RunManifest,
    sections: Vec<(String, Value)>,
}

impl Ledger {
    /// Creates the run directory (and parents) and an empty ledger for
    /// `tool`. `args` should be the command line after the binary name.
    ///
    /// A reused directory loses what an earlier run left in it — its
    /// `run.json`, heartbeat stream and black box — so no reader mixes
    /// two runs. Anything else stays: a `--store` pointed at the same
    /// directory keeps its segments. A `blackbox/` holding anything a
    /// black box does not is refused (an I/O error), not deleted.
    pub fn create(
        dir: impl Into<PathBuf>,
        tool: &str,
        tool_version: &str,
        args: Vec<String>,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating ledger dir {}", dir.display()), e))?;
        crate::store::remove_store(&dir.join(BLACKBOX_DIR))?;
        for name in ["run.json", HEARTBEAT_FILE] {
            let path = dir.join(name);
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(Error::io(format!("removing {}", path.display()), e));
                }
                _ => {}
            }
        }
        let mut ledger = Self::create_detached(tool, tool_version, args);
        ledger.dir = Some(dir);
        Ok(ledger)
    }

    /// An empty ledger with no sink directory yet: pair with
    /// [`set_store`](Ledger::set_store) (store-only runs have no run
    /// directory to create up front).
    #[expect(clippy::disallowed_methods, reason = "iotax-obs is the one sanctioned clock reader")]
    pub(crate) fn create_detached(tool: &str, tool_version: &str, args: Vec<String>) -> Self {
        let started_unix_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64);
        let mut seed = format!("{tool}\u{1f}{started_unix_ms}\u{1f}{}", std::process::id());
        for a in &args {
            seed.push('\u{1f}');
            seed.push_str(a);
        }
        let run_id = format!("{tool}-{:016x}", fnv1a(seed.as_bytes()));
        Self {
            dir: None,
            store: None,
            sink: Arc::default(),
            start: Instant::now(),
            manifest: RunManifest {
                run_id,
                tool: tool.to_owned(),
                tool_version: tool_version.to_owned(),
                args,
                started_unix_ms,
                wall_us: 0,
                exit_status: 0,
                config_digest: String::new(),
                seeds: Vec::new(),
                inputs: Vec::new(),
            },
            sections: Vec::new(),
        }
    }

    /// Additionally (or solely) appends the finished run to the durable
    /// segment-log store at `dir` — the `--store` sink.
    pub(crate) fn set_store(&mut self, dir: impl Into<PathBuf>) {
        self.store = Some(dir.into());
    }

    /// The span-collecting sink to install for this run.
    pub fn sink(&self) -> Arc<dyn Sink> {
        self.sink.clone()
    }

    /// The generated run id.
    pub fn run_id(&self) -> &str {
        &self.manifest.run_id
    }

    /// Records the digest of the effective configuration.
    pub fn set_config_digest(&mut self, digest: impl Into<String>) {
        self.manifest.config_digest = digest.into();
    }

    /// Records one named RNG seed.
    pub fn add_seed(&mut self, name: &str, value: u64) {
        self.manifest.seeds.push((name.to_owned(), value));
    }

    /// Digests and records one input file. Missing inputs are recorded
    /// with a `missing:` digest rather than failing the run.
    pub fn add_input(&mut self, path: impl AsRef<Path>) {
        let path = path.as_ref();
        let entry = digest_file(path).unwrap_or_else(|_| InputDigest {
            path: path.display().to_string(),
            bytes: 0,
            digest: "missing:unreadable".to_owned(),
        });
        self.manifest.inputs.push(entry);
    }

    /// Attaches a tool-specific payload under `name`.
    pub fn add_section<T: Serialize>(&mut self, name: &str, payload: &T) {
        self.sections.push((name.to_owned(), payload.to_value()));
    }

    /// Stamps wall time and exit status, snapshots the metric registry,
    /// and persists the run: `run.json` in the run directory (written
    /// crash-safely via tmp file + fsync + atomic rename + directory
    /// fsync, so a crash mid-finish can never leave a half-written
    /// manifest) and/or an appended record in the segment-log store.
    /// Returns the primary written path (`run.json` in directory mode,
    /// the store directory otherwise).
    pub fn finish(mut self, exit_status: i32) -> Result<PathBuf> {
        self.manifest.wall_us = self.start.elapsed().as_micros() as u64;
        self.manifest.exit_status = i64::from(exit_status);
        let run = RunFile {
            manifest: self.manifest,
            spans: self.sink.span_records(),
            counters: snapshot_counters(),
            histograms: snapshot_histograms().iter().map(|s| s.summary()).collect(),
            sections: self.sections,
            gauges: Some(snapshot_gauges()),
        };
        let mut text = serde_json::to_string_pretty(&run)
            .map_err(|e| Error::parse("encoding run ledger", e))?;
        text.push('\n');
        let mut primary: Option<PathBuf> = None;
        if let Some(dir) = &self.dir {
            let path = dir.join("run.json");
            crate::store::write_atomic(dir, &path, text.as_bytes())?;
            primary = Some(path);
        }
        if let Some(store_dir) = &self.store {
            let mut store = crate::store::SegmentStore::open(store_dir)
                .map_err(|e| e.wrap("opening ledger store"))?;
            store.append(text.as_bytes()).map_err(|e| e.wrap("appending run to ledger store"))?;
            primary.get_or_insert_with(|| store_dir.clone());
        }
        primary.ok_or_else(|| {
            Error::new(
                crate::ErrorKind::Internal,
                "ledger has neither a run directory nor a store sink",
            )
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest_bytes(b"abc"), digest_bytes(b"abc"));
        assert_ne!(digest_bytes(b"abc"), digest_bytes(b"abd"));
        assert_eq!(digest_bytes(b""), "fnv1a:cbf29ce484222325");
    }

    #[test]
    fn oversized_run_file_is_a_data_error_not_an_allocation() {
        let dir = std::env::temp_dir().join(format!("iotax-ledger-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.json");
        std::fs::write(&path, vec![b'{'; 4096]).expect("write");
        let err = load_run_with_limit(&dir, 100).expect_err("must refuse oversized ledger");
        assert_eq!(err.kind(), crate::ErrorKind::Parse);
        assert_eq!(err.exit_code(), 65);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn ledger_round_trips_through_run_json() {
        let _guard = crate::sink::test_sink_lock();
        let dir = std::env::temp_dir().join(format!("iotax-ledger-test-{}", std::process::id()));
        let mut ledger =
            Ledger::create(&dir, "iotax-test", "0.0.0", vec!["--flag".to_owned()]).expect("create");
        ledger.set_config_digest(digest_bytes(b"cfg"));
        ledger.add_seed("seed", 42);
        ledger.add_section("notes", &vec![("k".to_owned(), 1.5f64)]);
        let previous = crate::set_sink(ledger.sink());
        {
            let _root = crate::span!("ledger.root");
            let _inner = crate::span!("ledger.inner");
            crate::gauge!("ledger.test_gauge").set(11);
        }
        crate::restore_sink(previous);
        let path = ledger.finish(0).expect("finish");

        let run = load_run(&dir).expect("load");
        assert_eq!(run.manifest.tool, "iotax-test");
        assert_eq!(run.manifest.seeds, vec![("seed".to_owned(), 42)]);
        assert_eq!(run.manifest.exit_status, 0);
        assert!(run.manifest.run_id.starts_with("iotax-test-"));
        let names: Vec<_> = run.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["ledger.inner", "ledger.root"]);
        let forest = crate::assemble_span_tree(&run.spans);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].children[0].name, "ledger.inner");
        let notes: Vec<(String, f64)> = run.section("notes").expect("section decodes");
        assert_eq!(notes, vec![("k".to_owned(), 1.5)]);
        assert!(run.section::<Vec<(String, f64)>>("absent").is_none());
        let gauges = run.gauges.as_deref().expect("gauges snapshotted");
        assert!(
            gauges.iter().any(|g| g.name == "ledger.test_gauge" && g.value == 11),
            "gauge snapshot missing: {gauges:?}"
        );
        std::fs::remove_file(path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn create_refuses_a_blackbox_dir_that_is_no_black_box() {
        let dir = std::env::temp_dir().join(format!("iotax-ledger-reuse-{}", std::process::id()));
        let blackbox = dir.join(BLACKBOX_DIR);
        std::fs::create_dir_all(&blackbox).expect("mkdir");
        std::fs::write(blackbox.join("notes.txt"), "mine").expect("write");
        std::fs::write(dir.join("run.json"), "{}").expect("write");
        let err = Ledger::create(&dir, "iotax-test", "0.0.0", Vec::new())
            .err()
            .expect("a blackbox/ that is no black box is refused");
        assert_eq!(err.exit_code(), 74);
        assert!(err.context().contains(&blackbox.display().to_string()), "{err}");
        assert!(blackbox.join("notes.txt").exists() && dir.join("run.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
