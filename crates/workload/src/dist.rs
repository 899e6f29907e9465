//! Random distributions used by the paper's workload models: Normal
//! (Box–Muller), Zipf (rank-frequency) and Pareto interval lengths.
//!
//! These are implemented by hand rather than pulled from a distributions
//! crate so the formulas can be audited directly against the paper's
//! parameter tables.

use rand::Rng;

/// A normal distribution `N(mean, sd)` sampled with the Box–Muller
/// transform.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use workload::Normal;
///
/// let n = Normal::new(9.0, 2.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd)`.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is negative or either parameter is NaN.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(!mean.is_nan() && sd >= 0.0, "invalid normal parameters");
        Normal { mean, sd }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        // Box–Muller; u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.sd * z
    }

    /// Draws one sample, clamped to `[lo, hi]`.
    pub fn sample_clamped(&self, rng: &mut impl Rng, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }

    /// The cumulative distribution function `P(X <= x)`, via the
    /// Abramowitz–Stegun erf approximation (|error| < 1.5e-7 — far below
    /// the noise of any experiment here).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sd == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

/// Abramowitz–Stegun formula 7.1.26.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// A Zipf distribution over ranks `1..=n`: `P(k) ∝ 1 / k^alpha`.
///
/// The paper uses "Zipf-like" distributions for the number of
/// subscriptions per stub, per node, and for the popularity of stock
/// names. Sampling is by binary search over the precomputed CDF.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use workload::Zipf;
///
/// let z = Zipf::new(10, 1.0)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = z.sample(&mut rng);
/// assert!((1..=10).contains(&rank));
/// # Ok::<(), workload::DistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[k-1] = P(rank <= k)`.
    cdf: Vec<f64>,
    alpha: f64,
}

/// Error constructing a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistError {
    /// A Zipf distribution needs at least one rank.
    EmptySupport,
    /// A shape/exponent parameter was non-positive or NaN.
    InvalidShape,
    /// A scale parameter was non-positive or NaN.
    InvalidScale,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::EmptySupport => write!(f, "distribution support is empty"),
            DistError::InvalidShape => write!(f, "shape parameter must be positive"),
            DistError::InvalidScale => write!(f, "scale parameter must be positive"),
        }
    }
}

impl std::error::Error for DistError {}

impl Zipf {
    /// Creates a Zipf distribution over ranks `1..=n` with exponent
    /// `alpha > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptySupport`] when `n == 0` and
    /// [`DistError::InvalidShape`] when `alpha` is non-positive or NaN.
    pub fn new(n: usize, alpha: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::EmptySupport);
        }
        // `!(alpha > 0.0)` deliberately catches NaN as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(alpha > 0.0) {
            return Err(DistError::InvalidShape);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Zipf { cdf, alpha })
    }

    /// Number of ranks.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `1..=n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF has no NaN"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// A Pareto distribution with scale `c > 0` and shape `alpha > 0`:
/// `P(X > x) = (c / x)^alpha` for `x >= c`.
///
/// The paper draws subscription-interval *lengths* from a "Pareto-like
/// distribution with a given mean"; the Section 5.1 table gives
/// `(c, alpha)` pairs directly. Because interval lengths live inside a
/// bounded attribute domain, [`Pareto::sample_capped`] truncates the
/// unbounded tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidScale`] / [`DistError::InvalidShape`]
    /// for non-positive or NaN parameters.
    pub fn new(scale: f64, shape: f64) -> Result<Self, DistError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(scale > 0.0) {
            return Err(DistError::InvalidScale);
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(shape > 0.0) {
            return Err(DistError::InvalidShape);
        }
        Ok(Pareto { scale, shape })
    }

    /// A Pareto with shape 2 whose mean equals `mean` (the Section 3
    /// table specifies lengths by mean only). For shape 2 the mean is
    /// `2c`, so `c = mean / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidScale`] when `mean` is non-positive.
    pub fn with_mean(mean: f64) -> Result<Self, DistError> {
        Pareto::new(mean / 2.0, 2.0)
    }

    /// Draws a sample via inverse transform: `c / U^(1/alpha)`.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        self.scale / u.powf(1.0 / self.shape)
    }

    /// Draws a sample truncated to at most `cap` (attribute domains are
    /// bounded, e.g. 0..20).
    pub fn sample_capped(&self, rng: &mut impl Rng, cap: f64) -> f64 {
        self.sample(rng).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Probability of rank `k` (1-based): the step of the CDF at `k`.
    fn pmf(z: &Zipf, k: usize) -> f64 {
        z.cdf[k - 1] - if k == 1 { 0.0 } else { z.cdf[k - 2] }
    }

    #[test]
    fn normal_moments() {
        let n = Normal::new(9.0, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((mean - 9.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let n = Normal::new(0.0, 10.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            let x = n.sample_clamped(&mut rng, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "invalid normal")]
    fn normal_rejects_negative_sd() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn zipf_construction_errors() {
        assert_eq!(Zipf::new(0, 1.0), Err(DistError::EmptySupport));
        assert_eq!(Zipf::new(5, 0.0), Err(DistError::InvalidShape));
        assert_eq!(Zipf::new(5, f64::NAN), Err(DistError::InvalidShape));
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(20, 1.0).unwrap();
        let total: f64 = (1..=20).map(|k| pmf(&z, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..20 {
            assert!(pmf(&z, k) > pmf(&z, k + 1));
        }
    }

    #[test]
    fn zipf_empirical_frequencies_match_pmf() {
        let z = Zipf::new(10, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for k in 1..=10 {
            let emp = counts[k - 1] as f64 / n as f64;
            assert!(
                (emp - pmf(&z, k)).abs() < 0.01,
                "rank {k}: empirical {emp} vs pmf {}",
                pmf(&z, k)
            );
        }
    }

    #[test]
    fn zipf_rank1_most_frequent() {
        let z = Zipf::new(50, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut ones = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) == 1 {
                ones += 1;
            }
        }
        // P(rank 1) ≈ 0.22 at alpha = 1.2, n = 50.
        assert!(ones > 1500, "rank-1 count {ones}");
    }

    #[test]
    fn pareto_construction_errors() {
        assert_eq!(Pareto::new(0.0, 1.0), Err(DistError::InvalidScale));
        assert_eq!(Pareto::new(1.0, 0.0), Err(DistError::InvalidShape));
        assert_eq!(Pareto::with_mean(-4.0), Err(DistError::InvalidScale));
    }

    #[test]
    fn pareto_samples_at_least_scale() {
        let p = Pareto::new(4.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(p.sample(&mut rng) >= 4.0);
        }
    }

    #[test]
    fn pareto_with_mean_has_that_mean() {
        let p = Pareto::with_mean(4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let n = 200_000;
        let mean = (0..n).map(|_| p.sample(&mut rng)).sum::<f64>() / n as f64;
        // Shape-2 Pareto has finite mean but heavy tail; allow slack.
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn pareto_capped_respects_cap() {
        let p = Pareto::new(4.0, 0.5).unwrap(); // heavy tail
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(p.sample_capped(&mut rng, 20.0) <= 20.0);
        }
    }
}
