//! Order statistics for the benchmark's timings.
//!
//! A latency is reported as a median plus the highest requested
//! percentile that still has at least [`MIN_BEYOND`] samples above it,
//! so a tail figure never rests on a handful of outliers. Spreads and
//! shift verdicts follow the rules the benchmark is judged by.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Zero-based rank of the order statistic reported as the `q`-quantile
/// tail: the nearest-rank `ceil(q·n)`-th sample, pulled down until at
/// least [`MIN_BEYOND`] samples lie beyond it. `None` when `n` is too
/// small for any rank to have that many samples beyond it.
pub fn tail_rank(n: usize, q: f64) -> Option<usize> {
    if n <= MIN_BEYOND {
        return None;
    }
    let nearest = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(nearest.min(n - MIN_BEYOND) - 1)
}

/// The tail value at [`tail_rank`], with the quantile it actually
/// represents (`rank+1 / n`), or `None` for too few samples.
pub fn tail(xs: &[f64], q: f64) -> Option<(f64, f64)> {
    let rank = tail_rank(xs.len(), q)?;
    let v = sorted(xs);
    Some((v[rank], (rank + 1) as f64 / v.len() as f64))
}

/// The `q`-quantile tail of `xs`: the [`tail`] value when there are
/// enough samples for a true `q`-quantile with [`MIN_BEYOND`] beyond
/// it, else the plain nearest-rank value (for the few-sample case,
/// where pulling the rank down would report a body value as the tail).
/// Returns the value and the quantile it represents.
pub fn tail_or_nearest(xs: &[f64], q: f64) -> (f64, f64) {
    let n = xs.len();
    if n >= min_samples(q) {
        return tail(xs, q).expect("enough samples for the tail");
    }
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted(xs)[rank - 1], rank as f64 / n as f64)
}

/// Fewest samples for which the `q`-quantile needs no pulling down,
/// i.e. has [`MIN_BEYOND`] samples beyond its nearest rank.
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND + 1..)
        .find(|&n| ((q * n as f64).ceil() as usize) + MIN_BEYOND <= n)
        .expect("some sample count leaves ten beyond any q < 1")
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method).
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => f64::NAN,
    }
}

/// Does `cand` differ from `base` by a real shift? Runs are paired in
/// order. A shift is flagged when the candidate lands on the same side
/// of its partner in at least nine tenths of the pairs (ties count for
/// neither side) *and* the medians differ by more than the base's own
/// interquartile distance.
pub fn shift_flagged(base: &[f64], cand: &[f64]) -> bool {
    let pairs = base.len().min(cand.len());
    if pairs == 0 {
        return false;
    }
    let above = base.iter().zip(cand).filter(|(b, c)| c > b).count();
    let below = base.iter().zip(cand).filter(|(b, c)| c < b).count();
    let decisive = above.max(below) * 10 >= pairs * 9;
    let iqr = quartiles(base).map_or(f64::INFINITY, |(q1, _, q3)| q3 - q1);
    decisive && (median(cand) - median(base)).abs() > iqr
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratick_sim::SimRng;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Plenty of samples: plain nearest rank.
        let r = tail_rank(1000, 0.97).unwrap();
        assert_eq!(r, 969);
        assert_eq!(1000 - (r + 1), 30);
        // The grid's 478 samples: p97 still has 14 beyond it.
        let r = tail_rank(478, 0.97).unwrap();
        assert!(478 - (r + 1) >= MIN_BEYOND);
        assert_eq!(r + 1, 464);
        // Too few for p97: the rank is pulled down to exactly ten beyond.
        for n in MIN_BEYOND + 1..400 {
            let r = tail_rank(n, 0.97).unwrap();
            assert!(n - (r + 1) >= MIN_BEYOND, "n={n}");
            assert!(r < (0.97 * n as f64).ceil() as usize, "n={n}");
        }
        assert_eq!(tail_rank(156, 0.97).unwrap() + 1, 146);
        // The smallest sample count with a true p97.
        assert_eq!(min_samples(0.97), 334);
        assert_eq!(tail_rank(334, 0.97).unwrap() + 1, 324);
        assert_eq!(tail_rank(333, 0.97).unwrap() + 1, 323);
        // Ten or fewer samples: no tail at all.
        assert_eq!(tail_rank(MIN_BEYOND, 0.5), None);
        assert_eq!(tail(&[1.0; 5], 0.97), None);
        // The value and its effective quantile.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.97), Some((90.0, 0.90)));
        assert_eq!(tail(&xs, 0.5), Some((50.0, 0.50)));
    }

    #[test]
    fn few_samples_fall_back_to_nearest_rank() {
        // Twelve simulations: p97 is the slowest, p50 the sixth.
        let xs: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(tail_or_nearest(&xs, 0.97), (12.0, 1.0));
        assert_eq!(tail_or_nearest(&xs, 0.5), (6.0, 0.5));
        assert!(tail_or_nearest(&[], 0.97).0.is_nan());
        // From the smallest count with a true p97 on, the ten-beyond rule.
        for n in [334, 478, 1000] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert_eq!(
                tail_or_nearest(&xs, 0.97),
                tail(&xs, 0.97).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    fn noisy(rng: &mut SimRng, n: usize, center: f64) -> Vec<f64> {
        // ±2% uniform noise around the center.
        (0..n)
            .map(|_| {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                center * (1.0 + 0.04 * (u - 0.5))
            })
            .collect()
    }

    #[test]
    fn ten_percent_median_shift_is_flagged() {
        for seed in 0..50 {
            let mut rng = SimRng::new(seed);
            let base = noisy(&mut rng, 10, 100.0);
            let slower = noisy(&mut rng, 10, 110.0);
            let faster = noisy(&mut rng, 10, 90.0);
            assert!(shift_flagged(&base, &slower), "seed {seed}: +10% missed");
            assert!(shift_flagged(&base, &faster), "seed {seed}: -10% missed");
        }
    }

    #[test]
    fn identical_distributions_are_not_flagged() {
        for seed in 0..50 {
            let mut rng = SimRng::new(seed);
            let base = noisy(&mut rng, 10, 100.0);
            let same = noisy(&mut rng, 10, 100.0);
            assert!(!shift_flagged(&base, &same), "seed {seed}: false alarm");
            assert!(!shift_flagged(&base, &base), "seed {seed}: self-compare");
        }
    }
}
