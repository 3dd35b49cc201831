//! 4-wise independent hashing via random degree-3 polynomials over a
//! Mersenne prime field.

use rand::prelude::*;

/// The Mersenne prime `2^61 − 1`.
const P: u128 = (1u128 << 61) - 1;

/// A hash function drawn from a 4-wise independent family.
///
/// `h(x) = a₃x³ + a₂x² + a₁x + a₀ mod (2^61 − 1)`, with the coefficients
/// drawn uniformly at random. Any degree-(k−1) polynomial over a field is
/// k-wise independent, so this family is exactly 4-wise independent — the
/// property Lemma 3 and Lemma 4 of the paper rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FourWise {
    coeffs: [u64; 4],
}

fn reduce(x: u128) -> u64 {
    // Fast reduction modulo the Mersenne prime 2^61 - 1.
    let lo = x & P;
    let hi = x >> 61;
    let mut r = lo + hi;
    if r >= P {
        r -= P;
    }
    r as u64
}

/// The top-mixed bit of a hash value that [`FourWise::eval_bit`] returns.
pub(crate) fn bit_of(h: u64) -> bool {
    (h >> 33) & 1 == 1
}

/// `x`, `x²` and `x³` modulo `2^61 − 1`: the powers every polynomial of a
/// family shares at one point.
pub(crate) fn powers(x: u64) -> [u64; 3] {
    let x = x % P as u64;
    let x2 = reduce(x as u128 * x as u128);
    [x, x2, reduce(x2 as u128 * x as u128)]
}

impl FourWise {
    /// In-core footprint in words: the four coefficients.
    pub const WORDS: u64 = 4;

    /// Draws a function from the family using `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coeffs = [0u64; 4];
        for c in &mut coeffs {
            *c = rng.random_range(0..(P as u64));
        }
        // Ensure the polynomial is non-constant so distinct inputs can map to
        // distinct outputs (constant polynomials are valid members of the
        // family but useless as colourings).
        if coeffs[1] == 0 && coeffs[2] == 0 && coeffs[3] == 0 {
            coeffs[1] = 1;
        }
        Self { coeffs }
    }

    /// Evaluates the hash on `x`, returning a value in `[0, 2^61 − 1)`.
    pub fn eval(&self, x: u64) -> u64 {
        self.eval_at(powers(x))
    }

    /// Evaluates the hash and reduces it to `[0, range)`.
    pub fn eval_range(&self, x: u64, range: u64) -> u64 {
        debug_assert!(range > 0);
        self.eval(x) % range
    }

    /// Evaluates the hash as a single unbiased-ish bit (the parity of the
    /// top bits, which are well mixed by the polynomial).
    pub fn eval_bit(&self, x: u64) -> bool {
        bit_of(self.eval(x))
    }

    /// [`Self::eval`] at the point whose [`powers`] are `[x, x², x³]`, so
    /// the polynomials of a family can share them: one `u128`
    /// multiply-accumulate (below `2^124`), which one fold brings below
    /// `2^64`, where `reduce` is exact.
    pub(crate) fn eval_at(&self, [x, x2, x3]: [u64; 3]) -> u64 {
        let [a0, a1, a2, a3] = self.coeffs.map(u128::from);
        let s = a1 * x as u128 + a2 * x2 as u128 + a3 * x3 as u128 + a0;
        reduce((s & P) + (s >> 61))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = FourWise::new(7);
        let b = FourWise::new(7);
        let c = FourWise::new(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.eval(123), b.eval(123));
    }

    #[test]
    fn outputs_are_in_field_range() {
        let h = FourWise::new(3);
        for x in [0u64, 1, 2, 1 << 40, u64::MAX] {
            assert!(h.eval(x) < (1 << 61) - 1);
        }
    }

    #[test]
    fn eval_is_the_polynomial_modulo_p() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = P as u64;
        let mut xs = vec![0, 1, p - 1, p, p + 1, u64::from(u32::MAX), u64::MAX];
        xs.extend((0..200).map(|_| rng.random::<u64>()));
        // Random polynomials plus the all-maximal one, whose sum of products
        // comes closest to the u128 bound the reduction relies on.
        let mut hs: Vec<FourWise> = (0..20).map(FourWise::new).collect();
        hs.push(FourWise { coeffs: [p - 1; 4] });
        for h in hs {
            for &x in &xs {
                // Textbook Horner with a `%` after every step.
                let x128 = u128::from(x) % P;
                let want = h.coeffs[..3]
                    .iter()
                    .rev()
                    .fold(u128::from(h.coeffs[3]), |acc, &c| {
                        (acc * x128 + u128::from(c)) % P
                    });
                assert_eq!(u128::from(h.eval(x)), want, "{h:?} at {x}");
            }
        }
    }

    #[test]
    fn range_reduction_respects_bound() {
        let h = FourWise::new(5);
        for x in 0..1000u64 {
            assert!(h.eval_range(x, 7) < 7);
        }
    }

    #[test]
    fn colors_are_roughly_uniform() {
        // Chi-square style sanity check: 10 colours over 20k keys; each
        // bucket should be within 15% of the mean.
        let h = FourWise::new(42);
        let c = 10u64;
        let n = 20_000u64;
        let mut counts = HashMap::new();
        for x in 0..n {
            *counts.entry(h.eval_range(x, c)).or_insert(0u64) += 1;
        }
        let mean = n as f64 / c as f64;
        for (_, cnt) in counts {
            assert!(
                (cnt as f64 - mean).abs() < 0.15 * mean,
                "bucket count {cnt} vs mean {mean}"
            );
        }
    }

    #[test]
    fn pairwise_collision_probability_close_to_one_over_c() {
        // For 4-wise (hence 2-wise) independent colourings, two fixed keys
        // collide with probability 1/c. Estimate over many seeds.
        let c = 8u64;
        let trials = 4000;
        let mut collisions = 0;
        for seed in 0..trials {
            let h = FourWise::new(seed);
            if h.eval_range(17, c) == h.eval_range(91, c) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / trials as f64;
        assert!(
            (p - 1.0 / c as f64).abs() < 0.03,
            "empirical collision prob {p}"
        );
    }

    #[test]
    fn bit_function_is_roughly_balanced() {
        let h = FourWise::new(1234);
        let ones = (0..10_000u64).filter(|&x| h.eval_bit(x)).count();
        assert!((4_000..=6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn quadruple_collision_statistics_match_independence() {
        // 4-wise independence: for 4 fixed distinct keys the probability that
        // all four get colour 0 (out of 2) is 1/16. Check empirically.
        let keys = [3u64, 7, 1000, 65_537];
        let trials = 8000;
        let mut all_zero = 0;
        for seed in 0..trials {
            let h = FourWise::new(seed);
            if keys.iter().all(|&k| h.eval_range(k, 2) == 0) {
                all_zero += 1;
            }
        }
        let p = all_zero as f64 / trials as f64;
        assert!((p - 1.0 / 16.0).abs() < 0.02, "empirical all-zero prob {p}");
    }
}
