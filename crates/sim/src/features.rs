//! Feature-matrix assembly: the bridge from logs to models.
//!
//! The paper's experiments vary *which* log sources the model sees (POSIX,
//! +MPI-IO, +Cobalt, +start time, +LMT — Figures 3 and 4). [`FeatureSet`]
//! names those combinations and [`SimDataset::feature_matrix`] materializes
//! the corresponding design matrix with log10 throughput targets.

use crate::platform::{SimDataset, SimJob};
use iotax_darshan::features::{MPIIO_FEATURE_NAMES, POSIX_FEATURE_NAMES};
use iotax_lmt::recorder::lmt_feature_names;
use iotax_sched::COBALT_FEATURE_NAMES;
use serde::{Deserialize, Serialize};

/// Which observable log sources a model is exposed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSet {
    /// 48 POSIX Darshan features (always on — every experiment includes them).
    pub posix: bool,
    /// 48 MPI-IO Darshan features.
    pub mpiio: bool,
    /// 5 Cobalt scheduler features (includes start/end times!).
    pub cobalt: bool,
    /// Just the job start time (the §VII golden-model feature).
    pub start_time: bool,
    /// 37 LMT features.
    pub lmt: bool,
}

impl FeatureSet {
    /// POSIX only — the baseline of Figures 3 and 4.
    pub fn posix() -> Self {
        Self { posix: true, mpiio: false, cobalt: false, start_time: false, lmt: false }
    }

    /// POSIX + MPI-IO (Figure 3).
    pub fn posix_mpiio() -> Self {
        Self { mpiio: true, ..Self::posix() }
    }

    /// POSIX + Cobalt (Figure 3) — lets models memorize duplicates.
    pub fn posix_cobalt() -> Self {
        Self { cobalt: true, ..Self::posix() }
    }

    /// POSIX + start time — the §VII golden model.
    pub fn posix_start_time() -> Self {
        Self { start_time: true, ..Self::posix() }
    }

    /// POSIX + LMT (Figure 4's Lustre-enriched model).
    pub fn posix_lmt() -> Self {
        Self { lmt: true, ..Self::posix() }
    }

    /// Everything the system collects.
    pub fn all() -> Self {
        Self { posix: true, mpiio: true, cobalt: true, start_time: false, lmt: true }
    }

    /// Number of columns this set produces.
    pub fn width(&self) -> usize {
        let mut w = 0;
        if self.posix {
            w += 48;
        }
        if self.mpiio {
            w += 48;
        }
        if self.cobalt {
            w += 5;
        }
        if self.start_time {
            w += 1;
        }
        if self.lmt {
            w += 37;
        }
        w
    }

    /// Column names, in matrix order.
    pub fn names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.width());
        if self.posix {
            names.extend(POSIX_FEATURE_NAMES.iter().map(|s| s.to_string()));
        }
        if self.mpiio {
            names.extend(MPIIO_FEATURE_NAMES.iter().map(|s| s.to_string()));
        }
        if self.cobalt {
            names.extend(COBALT_FEATURE_NAMES.iter().map(|s| s.to_string()));
        }
        if self.start_time {
            names.push("JobStartTime".to_owned());
        }
        if self.lmt {
            names.extend(lmt_feature_names().iter().cloned());
        }
        names
    }

    fn fill_row(&self, job: &SimJob, out: &mut Vec<f64>) {
        if self.posix {
            out.extend_from_slice(&job.posix);
        }
        if self.mpiio {
            out.extend_from_slice(&job.mpiio);
        }
        if self.cobalt {
            out.extend_from_slice(&[
                job.nodes as f64,
                job.cores as f64,
                job.start_time as f64,
                job.end_time as f64,
                job.placement_first as f64,
            ]);
        }
        if self.start_time {
            out.push(job.start_time as f64);
        }
        if self.lmt {
            out.extend_from_slice(
                job.lmt
                    .as_deref()
                    .expect("LMT features requested but the system does not collect LMT"),
            );
        }
    }
}

/// A dense row-major design matrix with log10-throughput targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- return type of the public SimDataset::feature_matrix, which iotax-core's golden model calls
pub struct FeatureMatrix {
    /// Column names.
    pub names: Vec<String>,
    /// Row-major values, `n_rows × n_cols`.
    pub data: Vec<f64>,
    /// Number of rows (jobs).
    pub n_rows: usize,
    /// Number of columns (features).
    pub n_cols: usize,
    /// Targets: log10 throughput per row.
    pub y: Vec<f64>,
    /// Source job index in the dataset per row.
    pub job_index: Vec<usize>,
}

impl FeatureMatrix {
    /// A view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }
}

impl SimDataset {
    /// Materialize the design matrix for a feature set over all jobs.
    pub fn feature_matrix(&self, set: FeatureSet) -> FeatureMatrix {
        // out-of-core: index permutation for the deterministic split; replace with a streaming reservoir split if corpora outgrow memory
        let indices: Vec<usize> = (0..self.jobs.len()).collect();
        self.feature_matrix_for(set, &indices)
    }

    /// Materialize the design matrix for a subset of job indices.
    pub(crate) fn feature_matrix_for(&self, set: FeatureSet, indices: &[usize]) -> FeatureMatrix {
        let n_cols = set.width();
        assert!(n_cols > 0, "empty feature set");
        let mut data = Vec::with_capacity(indices.len() * n_cols);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            let job = &self.jobs[i];
            set.fill_row(job, &mut data);
            y.push(job.log10_throughput());
        }
        FeatureMatrix {
            names: set.names(),
            data,
            n_rows: indices.len(),
            n_cols,
            y,
            job_index: indices.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::platform::Platform;

    fn theta() -> SimDataset {
        Platform::new(SimConfig::theta().with_jobs(300).with_seed(2)).generate()
    }

    #[test]
    fn widths_match_the_paper() {
        assert_eq!(FeatureSet::posix().width(), 48);
        assert_eq!(FeatureSet::posix_mpiio().width(), 96);
        assert_eq!(FeatureSet::posix_cobalt().width(), 53);
        assert_eq!(FeatureSet::posix_start_time().width(), 49);
        assert_eq!(FeatureSet::posix_lmt().width(), 85);
    }

    #[test]
    fn names_match_width_and_are_unique() {
        for set in [
            FeatureSet::posix(),
            FeatureSet::posix_mpiio(),
            FeatureSet::posix_cobalt(),
            FeatureSet::posix_start_time(),
            FeatureSet::all(),
        ] {
            let names = set.names();
            assert_eq!(names.len(), set.width());
            let mut sorted = names.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len());
        }
    }

    #[test]
    fn matrix_dimensions_and_targets() {
        let ds = theta();
        let m = ds.feature_matrix(FeatureSet::posix_cobalt());
        assert_eq!(m.n_rows, ds.jobs.len());
        assert_eq!(m.n_cols, 53);
        assert_eq!(m.data.len(), m.n_rows * m.n_cols);
        assert_eq!(m.y.len(), m.n_rows);
        for (row, job) in m.job_index.iter().enumerate() {
            assert!((m.y[row] - ds.jobs[*job].log10_throughput()).abs() < 1e-12);
        }
    }

    #[test]
    fn subset_selection_picks_right_rows() {
        let ds = theta();
        let idx = vec![3usize, 17, 42];
        let m = ds.feature_matrix_for(FeatureSet::posix(), &idx);
        assert_eq!(m.n_rows, 3);
        for (row, &job) in idx.iter().enumerate() {
            assert_eq!(m.row(row), &ds.jobs[job].posix[..]);
        }
    }

    #[test]
    fn start_time_column_is_job_start() {
        let ds = theta();
        let m = ds.feature_matrix(FeatureSet::posix_start_time());
        let col = m.names.iter().position(|n| n == "JobStartTime").expect("column");
        for row in 0..m.n_rows {
            assert_eq!(m.row(row)[col], ds.jobs[m.job_index[row]].start_time as f64);
        }
    }

    #[test]
    #[should_panic(expected = "does not collect LMT")]
    fn requesting_lmt_on_theta_panics() {
        let ds = theta();
        ds.feature_matrix(FeatureSet::posix_lmt());
    }
}
