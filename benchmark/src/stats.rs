//! Order statistics over the samples of one run, and over runs.

/// The `q`-quantile of `samples` by nearest rank (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median and quartiles of one metric across repeated runs, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// the spread printed here is the spread the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Spread {
                n,
                median: x,
                q1: x,
                q3: x,
            };
        }
        let cut = |k: usize| {
            // Exclusive method: position k(n+1)/4, 1-based, interpolated.
            let pos = k as f64 * (n as f64 + 1.0) / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Spread {
            n,
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn relative(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
