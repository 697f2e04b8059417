//! Seeded non-linear query streams, as `f64` values or as fixed-point
//! words, for driving a serving engine with concrete inputs.

use nova_fixed::rng::StdRng;
use nova_fixed::{Fixed, QFormat, Rounding};

/// Draws `count` raw non-linear query values uniformly from `[lo, hi)`,
/// deterministically from `seed` — the functional face of a request
/// stream, for driving a serving engine with concrete inputs.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is non-finite.
#[must_use]
pub fn query_values(seed: u64, count: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Draws the same seeded query stream as [`query_values`] but quantizes
/// each draw straight into `format` and writes the words into a
/// caller-recycled buffer — the flat extraction path the serving tests,
/// examples and benchmark drive. `out` is cleared first; the draws are
/// bit-identical to quantizing [`query_values`]' output (same PRNG
/// sequence), with no intermediate `f64` vector allocated.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is non-finite.
pub fn query_words_into(
    seed: u64,
    count: usize,
    lo: f64,
    hi: f64,
    format: QFormat,
    rounding: Rounding,
    out: &mut Vec<Fixed>,
) {
    assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
    let mut rng = StdRng::seed_from_u64(seed);
    out.clear();
    out.reserve(count);
    out.extend((0..count).map(|_| Fixed::from_f64(rng.gen_range(lo..hi), format, rounding)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_values_deterministic_and_in_range() {
        let a = query_values(9, 1000, -8.0, 0.0);
        let b = query_values(9, 1000, -8.0, 0.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (-8.0..0.0).contains(&x)));
        assert_ne!(a, query_values(10, 1000, -8.0, 0.0));
    }

    #[test]
    fn query_words_into_matches_quantized_query_values_and_recycles() {
        use nova_fixed::Q4_12;
        let expect: Vec<Fixed> = query_values(9, 500, -6.0, 6.0)
            .into_iter()
            .map(|x| Fixed::from_f64(x, Q4_12, Rounding::NearestEven))
            .collect();
        let mut words = Vec::new();
        query_words_into(9, 500, -6.0, 6.0, Q4_12, Rounding::NearestEven, &mut words);
        assert_eq!(words, expect, "same seed, same draws, same words");
        // A second extraction reuses the buffer's allocation.
        let cap = words.capacity();
        query_words_into(10, 100, -6.0, 6.0, Q4_12, Rounding::NearestEven, &mut words);
        assert_eq!(words.len(), 100);
        assert_eq!(words.capacity(), cap, "steady-state extraction reallocated");
    }
}
