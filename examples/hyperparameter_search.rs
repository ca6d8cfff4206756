//! Hyperparameter search toward the duplicate bound (Fig. 1(a), §VI.B):
//! sweep tree count × depth, print the heatmap, and show that the best
//! model approaches — but does not beat — the duplicate litmus bound.
//!
//! ```sh
//! cargo run --release --example hyperparameter_search
//! ```

use iotax::core::{app_modeling_bound, find_duplicate_sets};
use iotax::ml::data::Dataset;
use iotax::ml::gbm::GbmParams;
use iotax::ml::metrics::log10_error_to_pct;
use iotax::ml::prepared::PreparedDataset;
use iotax::ml::search::grid_search;
use iotax::sim::{FeatureSet, Platform, SimConfig};

fn main() -> iotax::Result<()> {
    let sim = Platform::new(SimConfig::theta().with_jobs(6_000).with_seed(3)).generate();
    let m = sim.feature_matrix(FeatureSet::posix());
    let data = Dataset::new(m.data, m.n_rows, m.n_cols, m.y, m.names);
    let (train, val, _test) = data.split_random(0.70, 0.15, 99);

    // The litmus bound any model should approach.
    let dup = find_duplicate_sets(&sim.jobs);
    // out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
    let y: Vec<f64> = sim.jobs.iter().map(|j| j.log10_throughput()).collect();
    let bound = app_modeling_bound(&y, &dup);
    println!(
        "duplicate litmus bound: {:.2} % ({} duplicates in {} sets)\n",
        bound.median_abs_pct, bound.n_duplicates, bound.n_sets
    );

    let trees = [8, 16, 32, 64, 128];
    let depths = [2, 4, 6, 9, 12];
    println!("validation median error (%) over n_trees × depth:");
    // Bin the training fold once; all 25 grid candidates train against the
    // shared context. `grid_search` checks each candidate before any fit
    // and returns a usage error naming an out-of-range knob, so a bad axis
    // fails up front instead of mid-sweep.
    let base = GbmParams { learning_rate: 0.1, max_bins: 256, ..GbmParams::default() };
    let prepared = PreparedDataset::fit(&train, base.max_bins);
    let points = grid_search(&prepared, &val, &trees, &depths, &[1.0], &[1.0], base)?;

    // Render the heatmap.
    print!("{:>8}", "");
    for d in depths {
        print!("{:>8}", format!("d={d}"));
    }
    println!();
    for t in trees {
        print!("{:>8}", format!("t={t}"));
        for d in depths {
            let p = points
                .iter()
                .find(|p| p.params.n_trees == t && p.params.max_depth == d)
                .expect("grid point");
            print!("{:>8.2}", log10_error_to_pct(p.val_error));
        }
        println!();
    }

    let best = &points[0];
    println!(
        "\nbest: {} trees, depth {} → {:.2} % (XGBoost-default 100×6 would be mid-grid)",
        best.params.n_trees,
        best.params.max_depth,
        log10_error_to_pct(best.val_error)
    );
    println!(
        "gap to the bound: {:.2} % — the paper's point: tuning approaches the bound\n\
         and the rest of the error lives elsewhere in the taxonomy.",
        log10_error_to_pct(best.val_error) - bound.median_abs_pct
    );
    Ok(())
}
