//! Randomness for the simulator — zero external dependencies.
//!
//! Everything stochastic in the workspace takes an explicit [`Rng`] so
//! experiments are reproducible from a single seed. The generator is
//! **xoshiro256++** (Blackman & Vigna), seeded through SplitMix64 so that
//! any `u64` seed — including 0 — expands into a well-mixed 256-bit state.
//! Uniform doubles come from the top 53 bits.
//!
//! Gaussian deviates use the Box–Muller transform
//! `z = √(−2·ln u₁)·cos(2π·u₂)` through one private kernel with no libm
//! call: `ln u₁` splits off the binary exponent and sums the `atanh`
//! series in `s = (m−1)/(m+1)` for the mantissa `m ∈ [√½, √2)`, and
//! `cos(2π·u₂)` reduces `u₂` exactly to a quadrant and an angle in
//! `[−π/4, π/4]`, where short Taylor polynomials for sine and cosine
//! apply. [`standard_normal`] feeds it one `(u₁, u₂)` pair;
//! [`fill_standard_normal`] draws the pairs for a whole slice in the same
//! order, then transforms them in a branch-free loop the compiler
//! vectorizes, so the two agree to the bit. The kernel stays within
//! `ε·(11·r + 6·|z|)` of the libm formula (`r = √(−2·ln u₁)`; derivation
//! in the tests), far below anything the simulated channel resolves.
//!
//! The API mirrors the subset of `rand` 0.8 the workspace used
//! (`seed_from_u64`, `gen::<f64>()`, `gen_range`), so call sites read the
//! same while the build stays registry-free.

/// A seedable pseudo-random number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// Types that can be drawn uniformly from an [`Rng`] via [`Rng::gen`].
pub trait Sample {
    /// Draws one value.
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn sample(rng: &mut Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut Rng) -> u64 {
        rng.next_u64()
    }
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws a uniform value of type `T` (for `f64`: uniform in `[0, 1)`).
    #[inline]
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform `f64` in `[range.start, range.end)`.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<f64>) -> f64 {
        let u = self.gen::<f64>();
        scale_unit(range, u)
    }
}

/// Maps a uniform `u ∈ [0, 1)` onto `[range.start, range.end)`. The
/// product can round up to `range.end` (`1.0..2.0` at `u = 1 − 2⁻⁵³`);
/// such a result becomes the largest `f64` below `range.end`.
#[inline]
fn scale_unit(range: std::ops::Range<f64>, u: f64) -> f64 {
    let x = range.start + (range.end - range.start) * u;
    if x < range.end {
        x
    } else {
        range.start.max(range.end.next_down())
    }
}

/// `1/n!` for odd `n ≤ 15`, signed: `sin x = x·Σ_k SIN[k]·x^{2k}`.
const SIN: [f64; 8] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];

/// `1/n!` for even `n ≤ 14`, signed: `cos x = Σ_k COS[k]·x^{2k}`.
const COS: [f64; 8] = [
    1.0,
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
];

/// `1/(2k+1)` for `k ≤ 8`: `ln m = 2s·Σ_k LN[k]·s^{2k}` with
/// `s = (m−1)/(m+1)`.
const LN: [f64; 9] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
];

/// `ln 2` split so that `e·LN2_HI` is exact for every binary exponent `e`
/// of an `f64` (the low 21 bits of its mantissa are zero).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `2⁵²`: for an integer `0 ≤ k < 2⁵²`, the `f64` with bits
/// `TWO_52.to_bits() | k` is exactly `2⁵² + k`.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `1.5·2⁵²`: adding it rounds any `|w| < 2⁵¹` to the nearest integer
/// (ties to even), which then sits in the sum's low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `Σ_k c[k]·x^k` by Horner's rule.
#[inline(always)]
fn horner<const N: usize>(c: &[f64; N], x: f64) -> f64 {
    c[..N - 1]
        .iter()
        .rev()
        .fold(c[N - 1], |acc, &k| acc * x + k)
}

/// The Box–Muller transform `√(−2·ln u₁)·cos(2π·u₂)` for `u₁ ∈ (0, 1]`,
/// `u₂ ∈ [0, 1)`, branch-free so that a loop over it vectorizes.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    // ln u₁ = e·ln 2 + ln m with m ∈ [√½, √2). u₁ is a positive normal
    // number (at least 2⁻⁵³): its top bits are the biased exponent.
    let bits = u1.to_bits();
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 1f64.to_bits());
    let e = f64::from_bits(TWO_52.to_bits() | (bits >> 52)) - (TWO_52 + 1023.0);
    let big = m > std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m } else { m };
    let e = if big { e + 1.0 } else { e };
    let s = (m - 1.0) / (m + 1.0);
    let ln_m = 2.0 * s * horner(&LN, s * s);
    let ln_u1 = e * LN2_HI + (e * LN2_LO + ln_m);

    // cos(2π·u₂) = cos(q·π/2 + x): 4·u₂ is exact, and so are its nearest
    // integer q and the remainder t = 4·u₂ − q ∈ [−½, ½].
    let w = 4.0 * u2;
    let y = w + ROUND_MAGIC;
    let q = y.to_bits() & 3;
    let x = (w - (y - ROUND_MAGIC)) * std::f64::consts::FRAC_PI_2;
    let x2 = x * x;
    let cos_x = horner(&COS, x2);
    let sin_x = x * horner(&SIN, x2);
    // Quadrants 0–3 give cos x, −sin x, −cos x, sin x.
    let v = if q & 1 == 0 { cos_x } else { sin_x };
    let cos = f64::from_bits(v.to_bits() ^ (((q + 1) & 2) << 62));
    (-2.0 * ln_u1).sqrt() * cos
}

/// A standard normal deviate (mean 0, variance 1) via Box–Muller.
#[inline]
pub fn standard_normal(rng: &mut Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    box_muller(u1, u2)
}

/// Fills `out` with standard normal deviates: the values, bit for bit and
/// in order, that `out.len()` calls of [`standard_normal`] would return,
/// leaving `rng` in the same state. The uniforms are drawn into a stack
/// chunk first so that the transform runs as one vectorizable loop.
pub fn fill_standard_normal(rng: &mut Rng, out: &mut [f64]) {
    const CHUNK: usize = 64;
    let mut u1 = [0.0; CHUNK];
    let mut u2 = [0.0; CHUNK];
    for block in out.chunks_mut(CHUNK) {
        for (a, b) in u1.iter_mut().zip(u2.iter_mut()).take(block.len()) {
            *a = 1.0 - rng.gen::<f64>();
            *b = rng.gen::<f64>();
        }
        for ((z, a), b) in block.iter_mut().zip(&u1).zip(&u2) {
            *z = box_muller(*a, *b);
        }
    }
}

/// A normal deviate with the given mean and standard deviation.
pub fn normal(rng: &mut Rng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// A uniform phase in `[0, 2π)`.
pub fn uniform_phase(rng: &mut Rng) -> f64 {
    rng.gen::<f64>() * 2.0 * std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {}", mean);
        assert!((var - 1.0).abs() < 0.02, "variance {}", var);
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = Rng::seed_from_u64(8);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.1);
    }

    #[test]
    fn phases_cover_circle() {
        let mut rng = Rng::seed_from_u64(9);
        let mut quadrant = [0usize; 4];
        for _ in 0..4000 {
            let p = uniform_phase(&mut rng);
            assert!((0.0..2.0 * std::f64::consts::PI).contains(&p));
            quadrant[(p / std::f64::consts::FRAC_PI_2) as usize % 4] += 1;
        }
        for q in quadrant {
            assert!(q > 800, "quadrant count {}", q);
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }

    #[test]
    fn uniform_is_in_unit_interval_and_spreads() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {}", mean);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.gen_range(-3.0..5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        // SplitMix64 expansion must keep the all-zero seed off the
        // degenerate all-zero xoshiro state.
        let mut rng = Rng::seed_from_u64(0);
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
        let mut sum = 0.0;
        for _ in 0..10_000 {
            sum += rng.gen::<f64>();
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn distinct_seeds_decorrelate() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    /// The libm formula the kernel replaced: the oracle it is held to.
    fn libm_box_muller(u1: f64, u2: f64) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// `|box_muller − libm| ≤ ε·(11·r + 6·|z|)` with `r = √(−2·ln u₁)`
    /// and `z` the oracle's value; `r ≤ √(106·ln 2) ≈ 8.57`.
    ///
    /// The first term collects absolute errors in the cosine, which the
    /// radius multiplies:
    /// * the oracle rounds `2π·u₂` before `cos` reduces it: half an ulp
    ///   of an argument below 8 (2ε) plus `u₂·|TAU − 2π|` for the `f64`
    ///   constant `TAU` (1.1ε), then libm's own ≤ 1 ulp (ε);
    /// * the kernel's quadrant reduction is exact; `x = t·π/2` rounds by
    ///   ≤ 0.7ε relative at `|x| ≤ π/4` (0.6ε absolute); the dropped
    ///   Taylor terms are at most `(π/4)¹⁶/16! = 4.52ε` (cosine) and
    ///   `(π/4)¹⁷/17! = 0.21ε` (sine); Horner's rule adds ≤ 1.5ε.
    ///
    /// Sum 10.72ε, rounded up to 11. The second term collects relative errors in the
    /// radius, which `|z|` multiplies:
    /// * the oracle's `ln` (≤ 1 ulp) is halved by the square root, which
    ///   rounds once more, as does the final product: 1.5ε;
    /// * the kernel's `s` carries ≤ ε, the product `2s·P(s²)` and its
    ///   sum with `e·ln 2` ≤ 2ε, and the series dropped after `s¹⁷` at
    ///   most `4.0ε` relative to `ln u₁` (`|ln u₁| ≥ |ln m|` always):
    ///   ≤ 7ε in `ln u₁`, halved by the root, plus the root's and the
    ///   product's roundings: 4.5ε.
    ///
    /// Sum 6ε. Each polynomial's top term is far above its share of
    /// the bound (cosine's `x¹⁴/14!` is 1756ε at `|x| = π/4`, sine's
    /// `x¹⁵/15!` 92ε, the logarithm's `2s¹⁷/17` 148ε of `ln u₁` at
    /// `m = √2`), so dropping any of them fails this test.
    fn normal_bound(u1: f64, z: f64) -> f64 {
        let r = (-2.0 * u1.ln()).sqrt();
        f64::EPSILON * (11.0 * r + 6.0 * z.abs())
    }

    /// `|box_muller − libm| / bound` at one input.
    fn bound_ratio(u1: f64, u2: f64) -> f64 {
        let oracle = libm_box_muller(u1, u2);
        let got = box_muller(u1, u2);
        let ratio = (got - oracle).abs() / normal_bound(u1, oracle);
        // At u₁ = 1 both sides are ±0 and the bound is 0.
        if ratio.is_nan() {
            assert_eq!(got.abs(), oracle.abs(), "u1 {u1:e}, u2 {u2:e}");
            0.0
        } else {
            ratio
        }
    }

    #[test]
    fn box_muller_kernel_matches_libm_within_derived_bound() {
        let two_m53 = 1.0 / (1u64 << 53) as f64;
        let edge_u1 = [
            two_m53,
            0.5,
            std::f64::consts::FRAC_1_SQRT_2.next_down(),
            std::f64::consts::FRAC_1_SQRT_2,
            std::f64::consts::FRAC_1_SQRT_2.next_up(),
            1.0 - two_m53,
            1.0,
        ];
        let edge_u2: Vec<f64> = (0..8)
            .map(|k| k as f64 / 8.0)
            .chain([1.0 - two_m53])
            .collect();
        let mut worst = 0.0f64;
        for &u1 in &edge_u1 {
            for &u2 in &edge_u2 {
                let ratio = bound_ratio(u1, u2);
                assert!(ratio <= 1.0, "u1 {u1:e}, u2 {u2}: {ratio} × bound");
                worst = worst.max(ratio);
            }
        }
        let mut rng = Rng::seed_from_u64(0xB0C5_1A11);
        for _ in 0..1_000_000 {
            let u1 = 1.0 - rng.gen::<f64>();
            let u2 = rng.gen::<f64>();
            let ratio = bound_ratio(u1, u2);
            assert!(ratio <= 1.0, "u1 {u1:e}, u2 {u2}: {ratio} × bound");
            worst = worst.max(ratio);
        }
        println!("worst |box_muller − libm| = {worst:.3} × bound");
    }

    #[test]
    fn standard_normal_draws_u1_then_u2() {
        let mut rng = Rng::seed_from_u64(0x0DE5);
        let mut uniforms = rng.clone();
        for i in 0..1000 {
            let u1 = 1.0 - uniforms.gen::<f64>();
            let u2 = uniforms.gen::<f64>();
            let z = standard_normal(&mut rng);
            let oracle = libm_box_muller(u1, u2);
            assert!(
                (z - oracle).abs() <= normal_bound(u1, oracle),
                "draw {i}: {z} vs {oracle}"
            );
        }
    }

    #[test]
    fn fill_standard_normal_matches_repeated_scalar_draws_bit_for_bit() {
        for len in [0, 1, 63, 64, 65, 180, 181] {
            let mut batch_rng = Rng::seed_from_u64(0xF111 + len as u64);
            let mut scalar_rng = batch_rng.clone();
            let mut batch = vec![0.0; len];
            fill_standard_normal(&mut batch_rng, &mut batch);
            for (i, z) in batch.iter().enumerate() {
                let expected = standard_normal(&mut scalar_rng);
                assert_eq!(z.to_bits(), expected.to_bits(), "len {len}, draw {i}");
            }
            // Both generators consumed the same uniforms.
            assert_eq!(batch_rng.next_u64(), scalar_rng.next_u64(), "len {len}");
        }
    }

    #[test]
    fn gen_range_never_returns_its_end() {
        let top = 1.0 - 1.0 / (1u64 << 53) as f64;
        for (start, end) in [(1.0, 2.0), (100.0, 101.0)] {
            // The unclamped product rounds up to `end` at the top draw.
            assert_eq!(start + (end - start) * top, end);
            assert_eq!(scale_unit(start..end, top), f64::next_down(end));
        }
        assert_eq!(scale_unit(-3.0..5.0, 0.5), 1.0);
        assert_eq!(scale_unit(-3.0..5.0, 0.0), -3.0);
        assert_eq!(scale_unit(2.0..2.0, 0.5), 2.0);
    }
}
