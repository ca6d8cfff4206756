//! Per-application contention sensitivity from duplicate sets — the
//! Fig. 1(b) analysis: identical runs of different applications spread
//! differently because some application classes are more sensitive to
//! resource contention than others.
//!
//! Everything here uses observables only: the executable name (Darshan
//! records it) and the measured throughputs of duplicate jobs.
//!
//! ```sh
//! cargo run --release --example duplicate_sensitivity
//! ```

use iotax::core::{find_duplicate_sets, litmus::duplicate_errors};
use iotax::sim::archetype::ARCHETYPES;
use iotax::sim::{Platform, SimConfig};
use iotax::stats::describe::Summary;
use std::collections::BTreeMap;

fn main() {
    let dataset = Platform::new(SimConfig::theta().with_jobs(12_000).with_seed(17)).generate();
    let dup = find_duplicate_sets(&dataset.jobs);
    // out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let y: Vec<f64> = dataset.jobs.iter().map(|j| j.log10_throughput()).collect();

    // Group duplicate-set errors by application *class*, recovered from the
    // executable-name prefix (e.g. "ckpt_writer_0042" → "ckpt_writer").
    let mut by_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for set in &dup.sets {
        let exe = &dataset.jobs[set[0]].exe;
        let class = exe.rsplit_once('_').map(|(p, _)| p).unwrap_or(exe);
        let errors = duplicate_errors(&y, std::slice::from_ref(set));
        by_class.entry(class.to_owned()).or_default().extend(errors.iter().map(|e| e.abs()));
    }

    println!("duplicate-error spread per application class (Fig. 1(b) analysis)\n");
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>10} {:>6}",
        "class", "n dups", "median", "p75", "p95", "β_l"
    );
    let mut rows: Vec<(String, Summary)> = by_class
        .into_iter()
        .filter(|(_, e)| e.len() >= 20)
        .map(|(c, e)| (c, Summary::of(&e)))
        .collect();
    rows.sort_by(|a, b| a.1.median.partial_cmp(&b.1.median).expect("finite"));
    for (class, s) in rows {
        let beta = ARCHETYPES
            .iter()
            .find(|a| a.name == class)
            .map(|a| a.contention_sensitivity)
            .unwrap_or(f64::NAN);
        println!(
            "{:<18} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>6.1}",
            class, s.n, s.median, s.p75, s.p95, beta
        );
    }
    println!("\nhigher contention sensitivity (β_l) tends to produce a wider duplicate");
    println!("spread — variance that application features alone can never explain,");
    println!("which is the taxonomy's contention error class.");
}
