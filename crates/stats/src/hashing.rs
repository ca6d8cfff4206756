//! Stable hashing for duplicate-set signatures.
//!
//! `std::collections::hash_map::DefaultHasher` makes no cross-version
//! stability promise — its algorithm is explicitly allowed to change
//! between Rust releases, which would silently re-key every persisted
//! duplicate signature. Signatures that may outlive a single process
//! (trace caches, golden tests, cross-run comparisons) therefore go
//! through FNV-1a, a fixed, well-known 64-bit hash with good dispersion
//! on the short, structured keys the workspace feeds it.

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`: the whole effect of
/// hashing a run of `k` zero bytes, since xoring a zero byte is a no-op.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Incremental FNV-1a implementing [`std::hash::Hasher`], so existing
/// `value.hash(&mut hasher)` call sites keep working with a stable
/// algorithm underneath.
#[derive(Debug, Clone)]
pub struct Fnv1aHasher {
    state: u64,
}

impl Fnv1aHasher {
    /// Start from the standard offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET_BASIS }
    }
}

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Bit-identical to `write(&v.to_ne_bytes())`, but each run of zero
    /// bytes costs one multiply by the matching power of the prime, folded
    /// into the multiply of the non-zero byte before it. The `f64` bits of
    /// Darshan features are mostly zero bytes, so duplicate signatures
    /// hash in about half the time.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        // Byte i of the hashed stream sits in bits 8i..8i+8 of `bytes`.
        let bytes = u64::from_le_bytes(v.to_ne_bytes());
        // The top bit of every non-zero byte (no carry crosses a byte).
        let mut nonzero = (((bytes & LOW7) + LOW7) | bytes) & !LOW7;
        // Position of the lowest non-zero byte left; 8 when none is.
        let first = |nonzero: u64| ((nonzero.trailing_zeros() / 8) & 15) as usize;
        let mut at = first(nonzero);
        let mut state = self.state.wrapping_mul(PRIME_POWERS[at]);
        while nonzero != 0 {
            nonzero &= nonzero - 1;
            let next = first(nonzero);
            let byte = (bytes >> (8 * at)) & 0xff;
            state = (state ^ byte).wrapping_mul(PRIME_POWERS[next - at]);
            at = next;
        }
        self.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    /// One-shot FNV-1a, the published reference form.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = FNV_OFFSET_BASIS;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Reference vectors from the FNV specification (Noll's test suite).
    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// `write_u64` must hash exactly the bytes `write` would.
    fn assert_write_u64_is_bytewise(prefix: &[u8], v: u64) {
        let (mut fast, mut bytewise) = (Fnv1aHasher::new(), Fnv1aHasher::new());
        fast.write(prefix);
        bytewise.write(prefix);
        fast.write_u64(v);
        bytewise.write(&v.to_ne_bytes());
        assert_eq!(fast.finish(), bytewise.finish(), "{v:#018x} after {prefix:?}");
    }

    #[test]
    fn write_u64_edge_cases_match_bytewise_write() {
        let mut cases = vec![0, u64::MAX, 1, 1 << 63];
        // One non-zero byte at every position.
        for byte in [0x01, 0x80, 0xff] {
            cases.extend((0..8).map(|i| byte << (8 * i)));
        }
        // The bits of ±0.0, ±1.0 and of subnormals: the smallest, one
        // between and the largest.
        for x in [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, f64::MIN_POSITIVE / 2.0] {
            cases.push(f64::to_bits(x));
        }
        cases.push(0x000f_ffff_ffff_ffff);
        for v in cases {
            assert_write_u64_is_bytewise(b"", v);
            assert_write_u64_is_bytewise(b"foobar", v);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]
        #[test]
        fn write_u64_matches_bytewise_write(
            v in proptest::any::<u64>(),
            keep in proptest::any::<u8>(),
            prefix in proptest::any::<u64>(),
        ) {
            // Zero the bytes `keep` leaves out, so zero runs of every
            // length and position occur; start from a random state.
            let v = (0..8)
                .filter(|i| (keep >> i) & 1 == 1)
                .fold(0, |acc, i| acc | (v & (0xff << (8 * i))));
            assert_write_u64_is_bytewise(&prefix.to_ne_bytes(), v);
        }
    }

    #[test]
    fn hasher_agrees_with_one_shot() {
        let mut h = Fnv1aHasher::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn hash_trait_integration_is_stable() {
        let mut h = Fnv1aHasher::new();
        42u32.hash(&mut h);
        true.hash(&mut h);
        // Pinned: u32 hashes as 4 LE bytes, bool as one byte. If this
        // value ever changes, persisted signatures change with it.
        assert_eq!(h.finish(), 0xcdb4_c932_6058_c31a);
    }
}
