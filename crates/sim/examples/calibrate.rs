//! Calibration diagnostics: print the duplicate census and the magnitudes
//! of each hidden throughput component (contention, noise, weather) for
//! both presets. Use this when retuning `SimConfig` knobs against the
//! paper's bands (see DESIGN.md's calibration notes).
//!
//! ```sh
//! cargo run --release -p iotax-sim --example calibrate
//! ```
use iotax_sim::{Platform, SimConfig};
use std::collections::BTreeMap;

fn stats(name: &str, xs: &[f64]) {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| s[iotax_stats::cast::f64_to_usize((s.len() - 1) as f64 * p)];
    println!(
        "{name}: mean {:.4} p50 {:.4} p90 {:.4} p99 {:.4} max {:.4}",
        xs.iter().sum::<f64>() / xs.len() as f64,
        q(0.5),
        q(0.9),
        q(0.99),
        q(1.0)
    );
}

fn probe(label: &str, cfg: SimConfig) {
    let ds = Platform::new(cfg).generate();
    let n = ds.jobs.len() as f64;
    let mut sets: BTreeMap<u64, usize> = BTreeMap::new();
    for j in &ds.jobs {
        *sets.entry(j.config_id).or_default() += 1;
    }
    let dups: usize = sets.values().filter(|&&c| c >= 2).sum();
    let nsets = sets.values().filter(|&&c| c >= 2).count();
    println!(
        "== {label}: {} jobs, dup frac {:.3} over {} sets",
        ds.jobs.len(),
        dups as f64 / n,
        nsets
    );
    // audit:allow(unbounded-corpus-materialization) -- out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let cont: Vec<f64> = ds.jobs.iter().map(|j| -j.truth.log10_contention).collect();
    // audit:allow(unbounded-corpus-materialization) -- out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let noise: Vec<f64> = ds.jobs.iter().map(|j| j.truth.log10_noise.abs()).collect();
    // audit:allow(unbounded-corpus-materialization) -- out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let weather: Vec<f64> = ds.jobs.iter().map(|j| -j.truth.log10_weather).collect();
    stats("  |contention|", &cont);
    stats("  |noise|     ", &noise);
    stats("  weather(-)  ", &weather);
    let contended = cont.iter().filter(|&&c| c > 0.001).count();
    println!("  contended(>0.001): {:.3}", contended as f64 / n);
    // audit:allow(unbounded-corpus-materialization) -- out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let y: Vec<f64> = ds.jobs.iter().map(|j| j.log10_throughput()).collect();
    stats("  log10(y)    ", &y);
}

fn main() {
    probe("theta-10k", SimConfig::theta().with_jobs(10_000).with_seed(5));
    probe("cori-10k", SimConfig::cori().with_jobs(10_000).with_seed(5));
}
