//! # iotax-bench
//!
//! Reproduction harness. The `repro` binary runs the paper's figures and
//! in-text numbers ([`FIGURES`]) over a list of seeds. Each figure is a
//! function of one seed: it writes the series the paper plots as CSV or
//! JSON under `target/repro/<seed>/` and returns its [`Claim`]s, the
//! paper's findings with the measured value behind each and whether it
//! holds on that seed. `repro` prints every claim's pass rate over the
//! seeds, writes `target/repro/claims.json`, and gates the pass rates of
//! the committed seed matrix against floors (`repro --help`).
//!
//! Scale is the `IOTAX_JOBS` environment variable; without it each
//! figure runs at its own default size (8 000–20 000 jobs). The
//! `obs_overhead` binary gates the cost of the in-flight observability
//! layer.

use iotax_core::{Taxonomy, TaxonomyReport};
use iotax_obs::{Error, Result};
use iotax_sim::{Platform, SimConfig, SimDataset};
use serde::Serialize;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};

mod figures;

pub use figures::FIGURES;

/// One paper finding, measured on one seed.
#[derive(Debug)]
pub struct Claim {
    /// `<figure id>.<finding>`, e.g. `F3.mpiio_no_gain`.
    pub id: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// The measured value behind the finding (NaN when the seed's trace
    /// holds too little data to measure it).
    pub measured: f64,
    /// Whether the finding holds on this seed.
    pub holds: bool,
}

impl Claim {
    /// The claim `id` of the paper's finding `paper`, not yet measured.
    fn new(id: &'static str, paper: &'static str) -> Self {
        Self { id, paper, measured: f64::NAN, holds: false }
    }

    /// The claim with its measured value and whether it holds.
    fn measured(self, measured: f64, holds: bool) -> Self {
        Self { measured, holds, ..self }
    }
}

/// A figure: writes its series for one seed and returns its claims.
pub type Figure = fn(&Seed) -> Result<Vec<Claim>>;

/// One seed's run: both presets get the seed, and the Fig. 7 taxonomy
/// reports are computed once and shared by F4, F7 and T1.
pub struct Seed {
    seed: u64,
    n_jobs: Option<usize>,
    dir: PathBuf,
    taxonomy: OnceCell<[TaxonomyReport; 2]>,
}

impl Seed {
    /// A run of `seed` at `n_jobs` jobs per trace (`None`: each figure's
    /// default), writing under `target/repro/<seed>/`.
    pub fn new(seed: u64, n_jobs: Option<usize>) -> Result<Self> {
        let dir = PathBuf::from("target/repro").join(seed.to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("create {}", dir.display()), e))?;
        Ok(Self { seed, n_jobs, dir, taxonomy: OnceCell::new() })
    }

    fn n_jobs(&self, default: usize) -> usize {
        self.n_jobs.unwrap_or(default)
    }

    fn theta(&self, default_jobs: usize) -> SimDataset {
        let cfg = SimConfig::theta().with_jobs(self.n_jobs(default_jobs)).with_seed(self.seed);
        Platform::new(cfg).generate()
    }

    fn cori(&self, default_jobs: usize) -> SimDataset {
        let cfg = SimConfig::cori().with_jobs(self.n_jobs(default_jobs)).with_seed(self.seed);
        Platform::new(cfg).generate()
    }

    /// The full taxonomy on Theta and on Cori (12 000 jobs by default).
    fn taxonomy(&self) -> &[TaxonomyReport; 2] {
        self.taxonomy.get_or_init(|| {
            [Taxonomy::full().run(&self.theta(12_000)), Taxonomy::full().run(&self.cori(12_000))]
        })
    }

    fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> Result<()> {
        let body: String = rows.iter().map(|row| format!("{row}\n")).collect();
        write_file(&self.dir.join(name), &format!("{header}\n{body}"))
    }

    fn write_json<T: Serialize>(&self, name: &str, value: &T) -> Result<()> {
        write_file(&self.dir.join(name), &to_json(value)?)
    }
}

/// Pretty-printed JSON of `value`.
pub fn to_json<T: Serialize>(value: &T) -> Result<String> {
    serde_json::to_string_pretty(value).map_err(|e| Error::parse("serialize to JSON", e))
}

/// Write `contents` to `path`, replacing the file.
pub fn write_file(path: &Path, contents: &str) -> Result<()> {
    std::fs::write(path, contents).map_err(|e| Error::io(format!("write {}", path.display()), e))
}
