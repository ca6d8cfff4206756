//! # iotax-bench
//!
//! Reproduction harness: one binary per figure/table of the paper's
//! evaluation (run them with `cargo run --release -p iotax-bench --bin
//! fig…`).
//!
//! Every binary prints the series the corresponding figure plots and
//! writes a CSV next to it under `target/repro/` so EXPERIMENTS.md can
//! quote paper-vs-measured numbers. Scale is controlled by `IOTAX_JOBS`
//! (default per binary) and `IOTAX_SEED` environment variables.

use iotax_obs::{Error, Result};
use iotax_sim::{Platform, SimConfig, SimDataset};
use std::io::Write;
use std::path::PathBuf;

/// Read the job-count override from `IOTAX_JOBS`.
pub fn jobs_from_env(default: usize) -> usize {
    std::env::var("IOTAX_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read the seed override from `IOTAX_SEED`.
pub(crate) fn seed_from_env(default: u64) -> u64 {
    std::env::var("IOTAX_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Generate a Theta-like dataset at harness scale.
pub fn theta_dataset(default_jobs: usize) -> SimDataset {
    let cfg =
        SimConfig::theta().with_jobs(jobs_from_env(default_jobs)).with_seed(seed_from_env(0xA1CF));
    eprintln!(
        "[harness] theta: {} jobs over {:.0} days (seed {:#x})",
        cfg.n_jobs,
        cfg.horizon_seconds as f64 / 86_400.0,
        cfg.seed
    );
    Platform::new(cfg).generate()
}

/// Generate a Cori-like dataset at harness scale.
pub fn cori_dataset(default_jobs: usize) -> SimDataset {
    let cfg =
        SimConfig::cori().with_jobs(jobs_from_env(default_jobs)).with_seed(seed_from_env(0xC0B1));
    eprintln!(
        "[harness] cori: {} jobs over {:.0} days (seed {:#x})",
        cfg.n_jobs,
        cfg.horizon_seconds as f64 / 86_400.0,
        cfg.seed
    );
    Platform::new(cfg).generate()
}

/// Directory where harness outputs land (`target/repro/`).
pub(crate) fn repro_dir() -> Result<PathBuf> {
    let dir = PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir).map_err(|e| Error::io("create target/repro", e))?;
    Ok(dir)
}

/// Write a CSV file into the repro directory and announce it.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> Result<()> {
    let path = repro_dir()?.join(name);
    let mut f = std::fs::File::create(&path)
        .map_err(|e| Error::io(format!("create {}", path.display()), e))?;
    writeln!(f, "{header}").map_err(|e| Error::io(format!("write {}", path.display()), e))?;
    for row in rows {
        writeln!(f, "{row}").map_err(|e| Error::io(format!("write {}", path.display()), e))?;
    }
    eprintln!("[harness] wrote {} ({} rows)", path.display(), rows.len());
    Ok(())
}

/// Write a JSON value into the repro directory.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> Result<()> {
    let path = repro_dir()?.join(name);
    let f = std::fs::File::create(&path)
        .map_err(|e| Error::io(format!("create {}", path.display()), e))?;
    serde_json::to_writer_pretty(f, value)
        .map_err(|e| Error::parse(format!("serialize {}", path.display()), e))?;
    eprintln!("[harness] wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_apply() {
        // Not set in the test environment.
        assert_eq!(jobs_from_env(123), 123);
        assert_eq!(seed_from_env(9), 9);
    }

    #[test]
    fn repro_dir_is_creatable() {
        let d = repro_dir().expect("target/repro must be creatable");
        assert!(d.exists());
    }
}
