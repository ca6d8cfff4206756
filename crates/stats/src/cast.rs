//! Saturating numeric casts with one audited home.
//!
//! Rust's float→int `as` casts already saturate (and send NaN to zero),
//! but a bare `as` at a call site cannot be told apart from an accidental
//! truncation. These helpers give the saturating intent a name, so the
//! workspace `clippy::cast_possible_truncation` surface shrinks to a single
//! reviewed site per shape and every caller documents what it wants.

/// Saturating `f64` → `usize`: NaN and negatives → 0, overflow → `MAX`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "float `as` int saturates by definition; sanctioned site"
)]
pub fn f64_to_usize(v: f64) -> usize {
    v as usize
}

/// Saturating `f64` → `u32`: NaN and negatives → 0, overflow → `MAX`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "float `as` int saturates by definition; sanctioned site"
)]
pub fn f64_to_u32(v: f64) -> u32 {
    v as u32
}

/// `i64` → `usize` clamping negatives to zero (overflow on 32-bit hosts
/// also saturates to zero — the value was never representable).
#[inline]
pub fn i64_to_usize(v: i64) -> usize {
    usize::try_from(v).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_casts_saturate_and_zero_nan() {
        assert_eq!(f64_to_usize(-1.5), 0);
        assert_eq!(f64_to_usize(f64::NAN), 0);
        assert_eq!(f64_to_usize(1e300), usize::MAX);
        assert_eq!(f64_to_usize(42.9), 42);
        assert_eq!(f64_to_u32(4.0e9 * 2.0), u32::MAX);
    }

    #[test]
    fn i64_to_usize_clamps_negatives() {
        assert_eq!(i64_to_usize(-7), 0);
        assert_eq!(i64_to_usize(7), 7);
    }
}
