//! Dataflow fixture: the same order-dependent reduction, waived with a
//! reason.

fn mean_latency(by_server: &HashMap<u64, f64>) -> f64 {
    // audit:allow(unordered-float-reduction) -- fixture: diagnostic print, never compared bitwise
    by_server.values().sum::<f64>() / by_server.len() as f64
}
