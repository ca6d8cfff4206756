//! Deterministic RNG construction and substream derivation.
//!
//! The simulator fans work out across the [`crate::fanout`] workers; to
//! keep experiments bit-for-bit reproducible regardless of thread
//! scheduling, each logical unit of work (a job, a model in an ensemble, a
//! bootstrap replicate) gets its own RNG derived from
//! `(master_seed, stream_id)` via SplitMix64 rather than sharing a mutable
//! generator.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Create a [`StdRng`] from a 64-bit seed.
#[expect(
    clippy::disallowed_methods,
    reason = "this is the sanctioned constructor the lint points to"
)]
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer: a high-quality 64-bit mix used to derive
/// independent substream seeds.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a deterministic substream RNG for logical stream `stream` under
/// master seed `seed`.
///
/// Distinct `(seed, stream)` pairs yield statistically independent streams;
/// the same pair always yields the same stream, independent of thread
/// interleaving.
#[expect(
    clippy::disallowed_methods,
    reason = "substream derivation itself; the seed is already mixed"
)]
pub fn substream(seed: u64, stream: u64) -> StdRng {
    // Mix twice so that (seed, stream) and (stream, seed) collide with
    // negligible probability.
    let mixed = splitmix64(splitmix64(seed) ^ stream.rotate_left(32));
    StdRng::seed_from_u64(mixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut ra = substream(42, 7);
        let mut rb = substream(42, 7);
        let a: Vec<u64> = (0..16).map(|_| ra.random()).collect();
        let b: Vec<u64> = (0..16).map(|_| rb.random()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_differ() {
        let a: u64 = substream(42, 1).random();
        let b: u64 = substream(42, 2).random();
        assert_ne!(a, b);
    }

    #[test]
    fn swapped_seed_and_stream_differ() {
        let a: u64 = substream(1, 2).random();
        let b: u64 = substream(2, 1).random();
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_is_a_bijection_spot_check() {
        // Distinct inputs map to distinct outputs on a sample.
        let outs: std::collections::BTreeSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn substream_uniformity_smoke() {
        // Rough uniformity of the first double from many streams.
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| substream(99, i).random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
