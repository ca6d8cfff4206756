//! Dataflow fixture: a float reduction whose grouping depends on hash
//! iteration order, which differs every process — it breaks bit-identical
//! metric replay.

fn mean_latency(by_server: &HashMap<u64, f64>) -> f64 {
    by_server.values().sum::<f64>() / by_server.len() as f64
}
