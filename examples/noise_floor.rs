//! Measure a system's inherent I/O noise level from concurrent duplicate
//! jobs (§IX of the paper) — the litmus test an I/O practitioner would run
//! on their own site's logs to answer "how much throughput variance should
//! my users expect?"
//!
//! ```sh
//! cargo run --release --example noise_floor
//! ```

use iotax::core::{concurrent_noise_floor, find_duplicate_sets};
use iotax::sim::{Platform, SimConfig};

fn measure(label: &str, config: SimConfig) {
    let dataset = Platform::new(config).generate();
    let dup = find_duplicate_sets(&dataset.jobs);
    // out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let y: Vec<f64> = dataset.jobs.iter().map(|j| j.log10_throughput()).collect();
    // out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let starts: Vec<i64> = dataset.jobs.iter().map(|j| j.start_time).collect();

    let floor = concurrent_noise_floor(&y, &starts, &dup, &[], 1, 30)
        .expect("trace has concurrent duplicates");

    println!("── {label} ──────────────────────────────────────");
    println!(
        "  concurrent duplicates: {} jobs in {} sets ({}% of sets have ≤6 members)",
        floor.n_concurrent,
        floor.n_sets,
        (floor.small_set_fraction * 100.0).round()
    );
    println!(
        "  expected I/O throughput band: ±{:.2} % (68 % of runs), ±{:.2} % (95 %)",
        floor.pct_68, floor.pct_95
    );
    println!(
        "  distribution: Student-t preferred over normal: {} (ν = {:.1}, normal KS p = {:.3})",
        floor.t_preferred, floor.t_df, floor.normal_ks_p
    );
    println!(
        "  robust scale {:.4} vs raw std {:.4} (log10) — the gap is the contention tail\n",
        floor.sigma_log10, floor.std_log10
    );
}

fn main() {
    // Paper reference points: Theta ±5.71 % / ±10.56 %, Cori ±7.21 % / ±14.99 %.
    measure("Theta-like system", SimConfig::theta().with_jobs(10_000).with_seed(7));
    measure("Cori-like system", SimConfig::cori().with_jobs(10_000).with_seed(7));
    println!("paper reference: Theta ±5.71 % @68 / ±10.56 % @95; Cori ±7.21 % / ±14.99 %");
}
