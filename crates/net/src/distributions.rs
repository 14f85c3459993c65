//! Random samplers used across the reproduction.
//!
//! Implemented from first principles (inverse-CDF and classic algorithms) so
//! the workspace needs only the `rand` core crate and not `rand_distr`:
//!
//! * **Weibull** — per-link failure probabilities; the paper fits its
//!   measured failure distribution (Fig. 1(b)) with a Weibull and simulates
//!   links from Weibull(k = 8, λ = 0.6) (§5.2).
//! * **Exponential** — demand life durations.
//! * **Poisson** — number of demand arrivals per minute.
//! * **Normal / log-normal** — gravity-model node weights for synthetic
//!   traffic matrices.

use rand::Rng;

/// Weibull(shape k, scale λ) sample via inverse CDF:
/// `λ · (-ln(1-u))^(1/k)`.
pub fn weibull<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0 && scale > 0.0);
    let u: f64 = rng.gen_range(0.0..1.0);
    scale * (-(1.0 - u).ln()).powf(1.0 / shape)
}

/// Exponential sample with the given mean (inverse CDF).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0);
    let u: f64 = rng.gen_range(0.0f64..1.0);
    -mean * (1.0 - u).ln()
}

/// Poisson sample with rate `lambda` (Knuth's algorithm; fine for the
/// λ ≤ ~30 used by the workload generator).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            // Numerical safety valve for extreme λ; callers never get here
            // with the workloads we generate.
            return k;
        }
    }
}

/// Standard normal sample via Box-Muller.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal sample: `exp(mu + sigma · N(0,1))`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(rng)).exp()
}

/// The paper's link-failure-probability model: Weibull(k = 8, λ = 0.6)
/// samples scaled into absolute probabilities.
///
/// Fig. 1(b) plots empirical per-link failure probabilities between 1e-4 %
/// and 1e-2 % — i.e. 1e-6 to 1e-4 absolute — so the Weibull sample (which
/// concentrates around 0.6) is interpreted as a *percent of a percent*:
/// `prob = sample / 1000` percent, clamped to a sane range. The clamp also
/// keeps synthetic topologies usable when callers pick heavier tails.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    pub shape: f64,
    pub scale: f64,
    /// Multiplier mapping a raw Weibull sample to an absolute probability.
    pub prob_scale: f64,
}

impl FailureModel {
    /// The §5.2 parameters: Weibull(8, 0.6) scaled by 1e-3.
    pub fn paper() -> Self {
        FailureModel {
            shape: 8.0,
            scale: 0.6,
            prob_scale: 1e-3,
        }
    }

    /// A heavy-tailed variant (shape < 1) matching the *qualitative* claim
    /// of §2.1 that a small fraction of links contributes most failures and
    /// failure rates vary by over two orders of magnitude.
    pub fn heavy_tailed() -> Self {
        FailureModel {
            shape: 0.8,
            scale: 0.6,
            prob_scale: 1e-3,
        }
    }

    /// Sample one absolute failure probability.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = weibull(rng, self.shape, self.scale);
        (raw * self.prob_scale).clamp(1e-7, 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl FailureModel {
        /// Sample `n` failure probabilities.
        fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.sample(rng)).collect()
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn weibull_mean_matches_theory() {
        // Mean of Weibull(k, λ) is λ Γ(1 + 1/k); for k=1 it's exponential
        // with mean λ.
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| weibull(&mut r, 1.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.03, "{mean}");
    }

    #[test]
    fn weibull_high_shape_concentrates() {
        let mut r = rng();
        let xs: Vec<f64> = (0..10_000).map(|_| weibull(&mut r, 8.0, 0.6)).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        assert!(min > 0.1 && max < 1.0, "range [{min}, {max}]");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "{mean}");
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| poisson(&mut r, 4.0) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_zero_rate() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn failure_model_samples_in_clamped_range() {
        let mut r = rng();
        for model in [FailureModel::paper(), FailureModel::heavy_tailed()] {
            for p in model.sample_n(&mut r, 1000) {
                assert!((1e-7..=0.05).contains(&p), "{p}");
            }
        }
    }

    #[test]
    fn heavy_tail_spans_orders_of_magnitude() {
        let mut r = rng();
        let ps = FailureModel::heavy_tailed().sample_n(&mut r, 5000);
        let min = ps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ps.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 100.0, "ratio {}", max / min);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = FailureModel::paper().sample_n(&mut StdRng::seed_from_u64(7), 10);
        let b = FailureModel::paper().sample_n(&mut StdRng::seed_from_u64(7), 10);
        assert_eq!(a, b);
    }
}
