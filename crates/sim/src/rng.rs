//! Deterministic pseudo-random number generation for workload models.
//!
//! The simulator must be reproducible from a single seed, so we embed a
//! small, well-understood generator rather than pulling entropy from the
//! host: **xoshiro256++** seeded through **SplitMix64** (the combination
//! recommended by the xoshiro authors). On top of the raw generator we
//! provide only the distributions the workload models actually use.
//!
//! The `rand` crate is still used in *tests and workload configuration*
//! of higher crates; the hot simulation path uses this generator so a
//! `rand` version bump can never change experiment results.


/// SplitMix64 step, used for seeding.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of the deterministic seed stream rooted at
/// `base`.
///
/// Replicated experiments derive one scenario seed per replicate from
/// a single base seed; the mapping must be (a) injective in `index`
/// for a fixed base, so replicates never silently collide, and
/// (b) frozen, because cached run artifacts are keyed by the scenario
/// seed. The odd multiplier makes `index → base ^ C·(index+1)`
/// injective; the SplitMix64 finalizer scrambles the affine structure
/// away so neighbouring indices land far apart.
pub fn seed_stream(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_add(1).wrapping_mul(0xB5AD_4ECE_DA1C_E2A9);
    splitmix64(&mut s)
}

/// A lognormal distribution parameterized by the *target* mean and sd
/// of its variates (not of the underlying normal). Used for I/O service
/// times and compute segments, which are right-skewed.
///
/// Building it does the `ln`/`sqrt` work; [`sample`](Self::sample)
/// does one normal draw and one `exp`. A model whose parameters are
/// fixed builds its sampler once and reuses it for every draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
    /// `sd == 0`: every variate is exactly the mean, and sampling draws
    /// nothing from the generator.
    point: Option<f64>,
}

impl LogNormal {
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(mean > 0.0, "lognormal: non-positive mean");
        if sd == 0.0 {
            return LogNormal {
                mu: 0.0,
                sigma: 0.0,
                point: Some(mean),
            };
        }
        let cv2 = (sd / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        LogNormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
            point: None,
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self.point {
            Some(mean) => mean,
            None => (self.mu + self.sigma * rng.standard_normal()).exp(),
        }
    }
}

/// xoshiro256++ deterministic PRNG.
#[derive(Clone, Debug, PartialEq)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal variate from Box-Muller.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; SplitMix64 expansion guarantees a non-degenerate state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator; used to give each vCPU /
    /// thread / device its own stream so adding one component does not
    /// perturb the others' draws.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. Uses Lemire's multiply-shift rejection method
    /// for unbiased results. Panics on `n == 0`.
    #[inline]
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below(0)");
        // Lemire's algorithm.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range [{lo}, {hi})");
        lo + self.gen_below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponential variate with the given mean (> 0).
    ///
    /// Used for inter-arrival times (Poisson processes) in the workload
    /// models.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential: non-positive mean");
        // Avoid ln(0) by nudging the uniform away from zero.
        let u = (1.0 - self.gen_f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard normal variate via Box-Muller (with caching of the
    /// second variate).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = (1.0 - self.gen_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "normal: negative sd");
        mean + sd * self.standard_normal()
    }

    /// Lognormal variate parameterized by the *target* mean and sd of the
    /// resulting distribution (not of the underlying normal). Models that
    /// draw with fixed parameters build a [`LogNormal`] once instead.
    pub fn lognormal(&mut self, mean: f64, sd: f64) -> f64 {
        LogNormal::new(mean, sd).sample(self)
    }

    /// Bounded Pareto variate with shape `alpha` on `[lo, hi]`. Used for
    /// heavy-tailed compute segment lengths.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo, "bounded_pareto: bad params");
        let u = self.gen_f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        let x = (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / alpha);
        x.clamp(lo, hi)
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.gen_below(items.len() as u64) as usize]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::prelude::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = SimRng::new(0);
        let v: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn fork_independence() {
        let mut parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seed_stream_injective_and_deterministic() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let s = seed_stream(0x5EED, i);
            assert_eq!(s, seed_stream(0x5EED, i), "pure function of (base, index)");
            assert!(seen.insert(s), "collision at index {i}");
        }
    }

    #[test]
    fn seed_stream_bases_independent() {
        let same = (0..100)
            .filter(|&i| seed_stream(1, i) == seed_stream(2, i))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seed_stream_scrambles_neighbours() {
        // Derived seeds of adjacent indices must not be adjacent; their
        // SimRng streams must diverge immediately.
        let a = seed_stream(7, 0);
        let b = seed_stream(7, 1);
        assert!(a.abs_diff(b) > 1 << 32);
        let mut ra = SimRng::new(a);
        let mut rb = SimRng::new(b);
        let same = (0..100).filter(|_| ra.next_u64() == rb.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_below_in_range_and_covers() {
        let mut r = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of small range hit");
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SimRng::new(4);
        for _ in 0..1000 {
            let v = r.gen_range(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        SimRng::new(0).gen_range(5, 5);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(6);
        let n = 200_000;
        let mean = 50.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() / mean < 0.02, "estimated mean {est}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(7);
        let n = 200_000;
        let (mu, sd) = (10.0, 3.0);
        let xs: Vec<f64> = (0..n).map(|_| r.normal(mu, sd)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - mu).abs() < 0.05, "mean {m}");
        assert!((v.sqrt() - sd).abs() < 0.05, "sd {}", v.sqrt());
    }

    #[test]
    fn lognormal_mean_close_and_positive() {
        let mut r = SimRng::new(8);
        let n = 300_000;
        let (mu, sd) = (80.0, 40.0);
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal(mu, sd)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let m = xs.iter().sum::<f64>() / n as f64;
        assert!((m - mu).abs() / mu < 0.03, "mean {m}");
    }

    #[test]
    fn lognormal_zero_sd_degenerate() {
        let mut r = SimRng::new(9);
        assert_eq!(r.lognormal(5.0, 0.0), 5.0);
        let before = r.clone();
        assert_eq!(LogNormal::new(5.0, 0.0).sample(&mut r), 5.0);
        assert_eq!(r, before, "a point mass draws nothing");
    }

    /// The per-draw formula `LogNormal` replaced, frozen here as the
    /// reference its samples must reproduce bit for bit.
    fn lognormal_reference(rng: &mut SimRng, mean: f64, sd: f64) -> f64 {
        if sd == 0.0 {
            return mean;
        }
        let cv2 = (sd / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * rng.standard_normal()).exp()
    }

    fn lognormal_params() -> impl Strategy<Value = (f64, f64)> {
        prop_oneof![
            (1e-3f64..1e9, 0.0f64..4.0).prop_map(|(m, cv)| (m, m * cv)),
            (1e-3f64..1e9).prop_map(|m| (m, 0.0)),
            (1e-3f64..1e9, 0.0f64..1e-9).prop_map(|(m, cv)| (m, m * cv)),
        ]
    }

    propcheck! {
        /// A prebuilt `LogNormal` returns exactly the reference formula's
        /// variates and leaves the generator at the same stream position
        /// (spare normal included), for any parameters and draw count.
        fn prop_lognormal_matches_reference(
            params in collection::vec(lognormal_params(), 1..6),
            seed in any::<u64>(),
            draws in 1usize..40,
        ) {
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            let dists: Vec<LogNormal> =
                params.iter().map(|&(m, sd)| LogNormal::new(m, sd)).collect();
            for i in 0..draws {
                let k = i % params.len();
                let (m, sd) = params[k];
                let got = dists[k].sample(&mut a);
                let want = lognormal_reference(&mut b, m, sd);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "draw {i} of {:?}", params[k]);
                prop_assert!(a == b, "stream position diverged at draw {i}");
                // The per-call wrapper is the same sampler.
                let (got, want) = (a.lognormal(m, sd), lognormal_reference(&mut b, m, sd));
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn bounded_pareto_in_bounds() {
        let mut r = SimRng::new(10);
        for _ in 0..10_000 {
            let x = r.bounded_pareto(1.3, 10.0, 1000.0);
            assert!((10.0..=1000.0).contains(&x));
        }
    }

    #[test]
    fn pick_and_shuffle() {
        let mut r = SimRng::new(11);
        let items = [1, 2, 3, 4];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        assert_ne!(v, orig, "shuffle changed order");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle is a permutation");
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = SimRng::new(12);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
