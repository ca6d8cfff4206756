//! Dataflow fixture: the sanctioned idioms — reduce a slice in order;
//! iterate a BTreeMap so the order is fixed.

fn total_gb(samples: &[f64]) -> f64 {
    samples.iter().map(|x| x / 1.0e9).sum()
}

fn mean_latency(by_server: &BTreeMap<u64, f64>) -> f64 {
    by_server.values().sum::<f64>() / by_server.len() as f64
}
