//! Application archetypes and the ideal-throughput model `f_a(j)`.
//!
//! The paper's application modeling error concerns how well models learn
//! *application behaviour* — the mapping from access patterns to achievable
//! throughput. Here that mapping is explicit: each archetype draws a job
//! configuration (volume, transfer size, process count, file layout,
//! sequentiality, metadata intensity), and `ideal_throughput` computes the
//! clean-machine throughput as a product of efficiency terms, **every one of
//! which is a function of quantities visible in the Darshan counters** — so
//! a sufficiently good model can drive `e_app` to zero, exactly the premise
//! of the §VI litmus test.

use iotax_stats::dist::{LogNormal, Pareto, Uniform};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// How a job lays its data across files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- type of Archetype's public `layout` field; the fig1b bench and an example read ARCHETYPES
pub enum AccessLayout {
    /// All ranks write one shared file (N-1).
    SharedFile,
    /// One file per process (N-N).
    FilePerProcess,
    /// A small fixed number of files.
    FewFiles,
}

/// A behavioural class of applications.
#[derive(Debug, Clone, Copy, PartialEq)]
// audit:allow(dead-public-api) -- element type of the public ARCHETYPES table, which the fig1b bench and an example read
pub struct Archetype {
    /// Human-readable name (becomes the executable-name prefix).
    pub name: &'static str,
    /// Workload mix weight.
    pub weight: f64,
    /// Fraction of peak this class can reach under perfect conditions.
    pub base_efficiency: f64,
    /// Contention sensitivity β_l (Fig. 1(b): classes differ).
    pub contention_sensitivity: f64,
    /// Noise sensitivity multiplier on the system σ.
    pub noise_sensitivity: f64,
    /// Range of the read fraction.
    pub read_fraction: (f64, f64),
    /// Range of log10(transfer size in bytes).
    pub transfer_log10: (f64, f64),
    /// Range of log2(nprocs).
    pub nprocs_log2: (u32, u32),
    /// Pareto tail index of the I/O volume (≥ 1 GiB floor).
    pub volume_alpha: f64,
    /// File layout.
    pub layout: AccessLayout,
    /// Range of the sequential-access fraction.
    pub seq_fraction: (f64, f64),
    /// Probability the app uses MPI-IO.
    pub mpiio_prob: f64,
    /// Range of metadata operations per file.
    pub meta_ops_per_file: (f64, f64),
    /// Range of log10(non-I/O compute seconds).
    pub compute_log10: (f64, f64),
}

/// The archetype population. Weights sum to ~1; contention sensitivities
/// span ~8× so Fig. 1(b)'s per-application spread reproduces.
pub const ARCHETYPES: [Archetype; 8] = [
    Archetype {
        name: "ckpt_writer",
        weight: 0.20,
        base_efficiency: 0.55,
        contention_sensitivity: 1.0,
        noise_sensitivity: 1.0,
        read_fraction: (0.0, 0.15),
        transfer_log10: (5.8, 7.3), // ~640 KiB .. 20 MiB
        nprocs_log2: (6, 13),
        volume_alpha: 1.15,
        layout: AccessLayout::FilePerProcess,
        seq_fraction: (0.85, 1.0),
        mpiio_prob: 0.35,
        meta_ops_per_file: (2.0, 6.0),
        compute_log10: (2.3, 4.3),
    },
    Archetype {
        name: "shared_writer",
        weight: 0.12,
        base_efficiency: 0.40,
        contention_sensitivity: 2.2,
        noise_sensitivity: 1.3,
        read_fraction: (0.0, 0.2),
        transfer_log10: (5.0, 6.8),
        nprocs_log2: (7, 14),
        volume_alpha: 1.3,
        layout: AccessLayout::SharedFile,
        seq_fraction: (0.5, 0.95),
        mpiio_prob: 0.85,
        meta_ops_per_file: (1.0, 3.0),
        compute_log10: (2.0, 4.0),
    },
    Archetype {
        name: "analysis_reader",
        weight: 0.16,
        base_efficiency: 0.6,
        contention_sensitivity: 0.7,
        noise_sensitivity: 0.8,
        read_fraction: (0.85, 1.0),
        transfer_log10: (6.0, 7.6),
        nprocs_log2: (4, 10),
        volume_alpha: 1.25,
        layout: AccessLayout::FewFiles,
        seq_fraction: (0.8, 1.0),
        mpiio_prob: 0.2,
        meta_ops_per_file: (1.0, 4.0),
        compute_log10: (2.0, 3.8),
    },
    Archetype {
        name: "ml_random_reader",
        weight: 0.10,
        base_efficiency: 0.25,
        contention_sensitivity: 1.6,
        noise_sensitivity: 1.8,
        read_fraction: (0.9, 1.0),
        transfer_log10: (3.5, 5.5), // 3 KiB .. 300 KiB
        nprocs_log2: (3, 9),
        volume_alpha: 1.4,
        layout: AccessLayout::FewFiles,
        seq_fraction: (0.0, 0.35),
        mpiio_prob: 0.05,
        meta_ops_per_file: (2.0, 8.0),
        compute_log10: (2.5, 4.5),
    },
    Archetype {
        name: "metadata_heavy",
        weight: 0.08,
        base_efficiency: 0.15,
        contention_sensitivity: 1.2,
        noise_sensitivity: 2.2,
        read_fraction: (0.3, 0.7),
        transfer_log10: (3.0, 4.8),
        nprocs_log2: (4, 10),
        volume_alpha: 1.6,
        layout: AccessLayout::FilePerProcess,
        seq_fraction: (0.2, 0.6),
        mpiio_prob: 0.05,
        meta_ops_per_file: (10.0, 60.0),
        compute_log10: (2.0, 3.5),
    },
    Archetype {
        name: "ior_benchmark",
        weight: 0.06,
        base_efficiency: 0.75,
        contention_sensitivity: 0.9,
        noise_sensitivity: 1.0,
        read_fraction: (0.45, 0.55),
        transfer_log10: (6.6, 7.1), // ~4 MiB .. 12 MiB
        nprocs_log2: (7, 11),
        volume_alpha: 2.0,
        layout: AccessLayout::FilePerProcess,
        seq_fraction: (0.95, 1.0),
        mpiio_prob: 0.5,
        meta_ops_per_file: (1.0, 2.0),
        compute_log10: (1.0, 2.0),
    },
    Archetype {
        name: "climate_output",
        weight: 0.15,
        base_efficiency: 0.45,
        contention_sensitivity: 1.4,
        noise_sensitivity: 1.1,
        read_fraction: (0.1, 0.35),
        transfer_log10: (5.5, 7.0),
        nprocs_log2: (8, 13),
        volume_alpha: 1.2,
        layout: AccessLayout::SharedFile,
        seq_fraction: (0.6, 0.95),
        mpiio_prob: 0.9,
        meta_ops_per_file: (1.0, 4.0),
        compute_log10: (3.0, 4.6),
    },
    Archetype {
        name: "small_io_sim",
        weight: 0.13,
        base_efficiency: 0.2,
        contention_sensitivity: 0.4,
        noise_sensitivity: 1.4,
        read_fraction: (0.2, 0.6),
        transfer_log10: (4.0, 5.8),
        nprocs_log2: (5, 11),
        volume_alpha: 1.7,
        layout: AccessLayout::FewFiles,
        seq_fraction: (0.3, 0.8),
        mpiio_prob: 0.15,
        meta_ops_per_file: (3.0, 12.0),
        compute_log10: (2.5, 4.2),
    },
];

/// One concrete job configuration — the "same code, same data" identity of
/// a duplicate set. Two jobs with equal `JobConfig` are observational
/// duplicates: their Darshan features are identical by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct JobConfig {
    /// Index into [`ARCHETYPES`].
    pub archetype: usize,
    /// Total I/O volume in bytes (≥ 1 GiB: the paper filters smaller jobs).
    pub volume_bytes: f64,
    /// Fraction of the volume that is read (vs written).
    pub read_fraction: f64,
    /// Dominant transfer (access) size, bytes.
    pub transfer_size: f64,
    /// MPI process count (power of two).
    pub nprocs: u32,
    /// Number of files touched.
    pub n_files: u32,
    /// Whether the dominant file is rank-shared.
    pub shared: bool,
    /// Fraction of sequential accesses.
    pub seq_fraction: f64,
    /// Whether the job performs I/O through MPI-IO.
    pub uses_mpiio: bool,
    /// Metadata operations issued per file.
    pub meta_ops_per_file: f64,
    /// Non-I/O runtime component, seconds.
    pub compute_seconds: f64,
    /// Contention sensitivity β_l inherited from the archetype.
    pub contention_sensitivity: f64,
    /// Noise sensitivity multiplier inherited from the archetype.
    pub noise_sensitivity: f64,
}

impl JobConfig {
    /// Draw a configuration from an archetype. `widen` > 1 stretches the
    /// parameter ranges (rare/novel apps live in thinner parts of the
    /// space); 1.0 is the nominal distribution.
    pub fn sample<R: Rng + ?Sized>(arch_idx: usize, rng: &mut R, widen: f64) -> Self {
        let a = &ARCHETYPES[arch_idx];
        let stretch = |(lo, hi): (f64, f64)| -> (f64, f64) {
            let mid = 0.5 * (lo + hi);
            let half = 0.5 * (hi - lo) * widen;
            (mid - half, mid + half)
        };
        let u = |rng: &mut R, (lo, hi): (f64, f64)| Uniform::new(lo, hi.max(lo + 1e-9)).sample(rng);
        let read_fraction = u(rng, stretch(a.read_fraction)).clamp(0.0, 1.0);
        let transfer_log10 = u(rng, stretch(a.transfer_log10)).clamp(2.0, 8.5);
        let (np_lo, np_hi) = a.nprocs_log2;
        let nprocs_log2 = rng.random_range(np_lo..=np_hi.max(np_lo));
        let nprocs = 1u32 << nprocs_log2;
        // Volume: heavy-tailed above the 1 GiB floor, capped at 0.5 PB.
        let volume = Pareto::new(1.0, a.volume_alpha).sample(rng).min(500_000.0) * 1.074e9;
        let seq_fraction = u(rng, stretch(a.seq_fraction)).clamp(0.0, 1.0);
        let (shared, n_files) = match a.layout {
            AccessLayout::SharedFile => (true, 1 + rng.random_range(0..3)),
            AccessLayout::FilePerProcess => (false, nprocs),
            AccessLayout::FewFiles => (false, 1 + rng.random_range(0..8)),
        };
        let meta = u(rng, stretch(a.meta_ops_per_file)).max(1.0);
        let compute = 10f64.powf(u(rng, stretch(a.compute_log10)).clamp(0.5, 5.2));
        Self {
            archetype: arch_idx,
            volume_bytes: volume,
            read_fraction,
            transfer_size: 10f64.powf(transfer_log10),
            nprocs,
            n_files,
            shared,
            seq_fraction,
            uses_mpiio: rng.random::<f64>() < a.mpiio_prob,
            meta_ops_per_file: meta,
            compute_seconds: compute,
            contention_sensitivity: a.contention_sensitivity,
            noise_sensitivity: a.noise_sensitivity,
        }
    }

    /// Total metadata operations the job issues.
    pub(crate) fn total_meta_ops(&self) -> f64 {
        self.meta_ops_per_file * self.n_files as f64
    }

    /// Nominal I/O time (seconds) at the archetype's ideal throughput on a
    /// machine with the given peak bandwidth. Used for runtimes and for the
    /// *nominal* Darshan time counters (see `darshan_gen`).
    pub(crate) fn nominal_io_seconds(&self, peak_bandwidth: f64) -> f64 {
        self.volume_bytes / ideal_throughput(self, peak_bandwidth)
    }
}

/// Ideal clean-machine throughput `f_a(j)` in bytes/s.
///
/// A product of efficiency terms, each tied to a Darshan-observable:
///
/// * transfer-size efficiency (the access-size histograms),
/// * sequentiality (seq/consec counters),
/// * shared-file penalty growing with process count (shared-file counter,
///   nprocs),
/// * parallel saturation (nprocs),
/// * metadata penalty (opens/stats vs volume),
/// * a read/write asymmetry (bytes read vs written).
pub(crate) fn ideal_throughput(cfg: &JobConfig, peak_bandwidth: f64) -> f64 {
    let a = &ARCHETYPES[cfg.archetype];
    // Small transfers cannot amortize per-op latency.
    let eff_size = cfg.transfer_size / (cfg.transfer_size + 262_144.0);
    // Random access pays seek-equivalent costs.
    let eff_pattern = 0.35 + 0.65 * cfg.seq_fraction;
    // N-1 shared files serialize on extent locks as ranks grow.
    let eff_share = if cfg.shared { 1.0 / (1.0 + 0.004 * cfg.nprocs as f64) } else { 1.0 };
    // More writers/readers saturate more of the machine's bandwidth.
    let saturation = 1.0 - (-(cfg.nprocs as f64) / 384.0).exp();
    // Metadata-bound jobs spend ops, not bytes.
    let meta_intensity = cfg.total_meta_ops() / (cfg.volume_bytes / 1e6 + 1.0);
    let eff_meta = 1.0 / (1.0 + 0.5 * meta_intensity);
    // Writes are a little more expensive than reads.
    let eff_rw = 0.82 + 0.18 * cfg.read_fraction;
    let phi = peak_bandwidth
        * a.base_efficiency
        * eff_size
        * eff_pattern
        * eff_share
        * (0.08 + 0.92 * saturation)
        * eff_meta
        * eff_rw;
    phi.clamp(1e5, peak_bandwidth * 0.9)
}

/// Deterministic log-normal sample used for app popularity, exposed for the
/// population generator.
pub(crate) fn popularity_weight<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    LogNormal::new(0.0, 1.4).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = ARCHETYPES.iter().map(|a| a.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn sampled_configs_respect_invariants() {
        let mut rng = rng_from_seed(1);
        for i in 0..ARCHETYPES.len() {
            for _ in 0..200 {
                let c = JobConfig::sample(i, &mut rng, 1.0);
                assert!(c.volume_bytes >= 1.0e9, "volume {}", c.volume_bytes);
                assert!((0.0..=1.0).contains(&c.read_fraction));
                assert!((0.0..=1.0).contains(&c.seq_fraction));
                assert!(c.nprocs.is_power_of_two());
                assert!(c.n_files >= 1);
                assert!(c.transfer_size >= 100.0);
                assert!(c.compute_seconds > 0.0);
            }
        }
    }

    #[test]
    fn file_per_process_layout_matches_nprocs() {
        let mut rng = rng_from_seed(2);
        let idx = ARCHETYPES.iter().position(|a| a.name == "ckpt_writer").expect("exists");
        let c = JobConfig::sample(idx, &mut rng, 1.0);
        assert!(!c.shared);
        assert_eq!(c.n_files, c.nprocs);
    }

    #[test]
    fn ideal_throughput_is_bounded_and_positive() {
        let mut rng = rng_from_seed(3);
        for i in 0..ARCHETYPES.len() {
            for _ in 0..100 {
                let c = JobConfig::sample(i, &mut rng, 1.0);
                let phi = ideal_throughput(&c, 200e9);
                assert!((1e5..=180e9).contains(&phi), "phi {phi}");
            }
        }
    }

    #[test]
    fn larger_transfers_are_faster() {
        let mut rng = rng_from_seed(4);
        let mut c = JobConfig::sample(0, &mut rng, 1.0);
        c.transfer_size = 4e6;
        let fast = ideal_throughput(&c, 200e9);
        c.transfer_size = 4e3;
        let slow = ideal_throughput(&c, 200e9);
        assert!(fast > 2.0 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn shared_files_pay_at_scale() {
        let mut rng = rng_from_seed(5);
        let mut c = JobConfig::sample(1, &mut rng, 1.0);
        c.nprocs = 8192;
        c.shared = true;
        let shared = ideal_throughput(&c, 200e9);
        c.shared = false;
        let unshared = ideal_throughput(&c, 200e9);
        assert!(unshared > 3.0 * shared);
    }

    #[test]
    fn sequential_beats_random() {
        let mut rng = rng_from_seed(6);
        let mut c = JobConfig::sample(2, &mut rng, 1.0);
        c.seq_fraction = 1.0;
        let seq = ideal_throughput(&c, 200e9);
        c.seq_fraction = 0.0;
        let rnd = ideal_throughput(&c, 200e9);
        assert!(seq > 1.5 * rnd);
    }

    #[test]
    fn duplicate_configs_have_identical_ideal_throughput() {
        let mut rng = rng_from_seed(7);
        let c = JobConfig::sample(3, &mut rng, 1.0);
        let d = c.clone();
        assert_eq!(ideal_throughput(&c, 500e9), ideal_throughput(&d, 500e9));
    }

    #[test]
    fn widening_expands_the_support() {
        // With widen = 2, some draws must exceed the nominal range.
        let mut rng = rng_from_seed(8);
        let a = &ARCHETYPES[0];
        let mut outside = 0;
        for _ in 0..500 {
            let c = JobConfig::sample(0, &mut rng, 2.0);
            let t = c.transfer_size.log10();
            if t < a.transfer_log10.0 || t > a.transfer_log10.1 {
                outside += 1;
            }
        }
        assert!(outside > 50, "only {outside} outside nominal range");
    }
}
