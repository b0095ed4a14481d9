//! Deterministic seed derivation and the repository's only PRNG.
//!
//! The studies in the paper run 300 independent network configurations; each
//! configuration, trace, workload and algorithm needs its own random stream
//! that is (a) reproducible and (b) uncorrelated with the others. We derive
//! child seeds from a master seed with SplitMix64, the standard generator
//! for seeding PRNG families, and draw values from [`Rng64`], a
//! xoshiro256++ generator owned by this crate so that every random bit in
//! the system comes from one auditable, platform-independent source.

/// One step of the SplitMix64 sequence: returns the output for state `x`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from `master` for the given `stream` label.
///
/// Distinct `stream` values yield statistically independent seeds; the same
/// inputs always yield the same output.
///
/// # Examples
///
/// ```
/// use wadc_sim::rng::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0));
/// ```
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    // Two rounds decorrelate master and stream contributions.
    splitmix64(splitmix64(master) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Derives a child seed from `master`, a `stream` label and an `index`
/// within the stream (e.g. configuration number within a study).
pub fn derive_seed2(master: u64, stream: u64, index: u64) -> u64 {
    derive_seed(derive_seed(master, stream), index)
}

/// A seeded xoshiro256++ pseudo-random generator.
///
/// This is the only source of randomness in the workspace: simulations,
/// trace synthesis and randomized tests all draw from it, so results are
/// bit-identical across platforms and across runs with the same seed.
/// The four-word state is expanded from the seed with SplitMix64, as the
/// xoshiro authors recommend.
///
/// # Examples
///
/// ```
/// use wadc_sim::rng::Rng64;
///
/// let mut a = Rng64::seed_from_u64(9);
/// let mut b = Rng64::seed_from_u64(9);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator whose state is expanded from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = [0u64; 4];
        let mut x = seed;
        for w in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(x);
        }
        // xoshiro's all-zero state is a fixed point; splitmix64 over four
        // consecutive states cannot produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng64 { s }
    }

    /// Returns the next 64 uniformly random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `0..n`. Panics if `n == 0`.
    ///
    /// Uses rejection sampling on the top bits so every index is exactly
    /// equally likely (no modulo bias).
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "range_usize(0)");
        let n = n as u64;
        // Lemire-style bounded generation with rejection.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % n) as usize;
            }
        }
    }

    /// A uniform `u64` in `lo..=hi`. Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let n = span + 1;
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % n;
            }
        }
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A normal deviate with the given mean and standard deviation
    /// (Box-Muller; the second deviate of each pair is discarded so the
    /// generator stays stateless beyond its word stream).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        // u1 in (0, 1] so ln(u1) is finite.
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + sd * r * (core::f64::consts::TAU * u2).cos()
    }

    /// An exponential deviate with the given rate (mean `1 / rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exp: rate must be positive");
        let u = 1.0 - self.f64(); // (0, 1]
        -u.ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_eq!(derive_seed2(7, 3, 9), derive_seed2(7, 3, 9));
    }

    #[test]
    fn distinct_streams_distinct_seeds() {
        let seeds: HashSet<u64> = (0..1000).map(|s| derive_seed(123, s)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn distinct_masters_distinct_seeds() {
        let seeds: HashSet<u64> = (0..1000).map(|m| derive_seed(m, 0)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn index_varies_within_stream() {
        let seeds: HashSet<u64> = (0..300).map(|i| derive_seed2(1, 2, i)).collect();
        assert_eq!(seeds.len(), 300);
    }

    #[test]
    fn rng_reproducible_and_well_spread() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: HashSet<u64> = xs.into_iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn uniform_unit_interval() {
        let mut r = Rng64::seed_from_u64(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_usize_covers_and_bounds() {
        let mut r = Rng64::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.range_usize(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_u64_inclusive_bounds() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.range_u64(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(r.range_u64(5, 5), 5);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng64::seed_from_u64(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng64::seed_from_u64(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn bits_look_mixed() {
        // Every output bit position should flip at least once over a small scan.
        let mut or_acc = 0u64;
        let mut and_acc = u64::MAX;
        for i in 0..64 {
            let s = derive_seed(0, i);
            or_acc |= s;
            and_acc &= s;
        }
        assert_eq!(or_acc, u64::MAX);
        assert_eq!(and_acc, 0);
    }
}
