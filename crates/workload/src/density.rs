//! Analytic publication densities.
//!
//! The paper's publication models are products of per-dimension normal
//! mixtures, so the probability mass of any axis-aligned rectangle has
//! a closed form: the product over dimensions of the mixture-CDF
//! difference. The clustering framework weighs cells and regions by
//! `p_p`; using the analytic mass (rather than an empirical estimate
//! from a finite sample) matches the paper's setup and keeps popularity
//! rankings meaningful even on fine grids.

use geometry::Rect;
use rand::Rng;

use crate::dist::Normal;

/// A weighted mixture of normal distributions on one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalMixture {
    components: Vec<(f64, Normal)>,
}

impl NormalMixture {
    /// Creates a mixture; weights are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if the component list is empty or any weight is
    /// non-positive.
    pub fn new(components: Vec<(f64, Normal)>) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        let total: f64 = components.iter().map(|&(w, _)| w).sum();
        assert!(
            components.iter().all(|&(w, _)| w > 0.0) && total > 0.0,
            "mixture weights must be positive"
        );
        NormalMixture {
            components: components
                .into_iter()
                .map(|(w, n)| (w / total, n))
                .collect(),
        }
    }

    /// A single-component mixture.
    pub fn single(mean: f64, sd: f64) -> Self {
        NormalMixture::new(vec![(1.0, Normal::new(mean, sd))])
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let mut u = rng.gen::<f64>();
        for (w, n) in &self.components {
            if u < *w {
                return n.sample(rng);
            }
            u -= w;
        }
        self.components
            .last()
            .expect("mixture has at least one component")
            .1
            .sample(rng)
    }

    /// `P(lo < X <= hi)` under the mixture.
    pub fn mass(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        self.components
            .iter()
            .map(|(w, n)| w * (n.cdf(hi) - n.cdf(lo)))
            .sum::<f64>()
            .max(0.0)
    }
}

/// A product of independent per-dimension [`NormalMixture`]s: the
/// analytic publication density of the paper's 1/4/9-mode models.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicationDensity {
    dims: Vec<NormalMixture>,
}

impl PublicationDensity {
    /// Creates the product density.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty.
    pub fn new(dims: Vec<NormalMixture>) -> Self {
        assert!(!dims.is_empty(), "density needs at least one dimension");
        PublicationDensity { dims }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// The probability mass of a rectangle: the product of per-dimension
    /// interval masses.
    ///
    /// # Panics
    ///
    /// Panics if `rect.dim() != self.dim()`.
    pub fn mass(&self, rect: &Rect) -> f64 {
        assert_eq!(rect.dim(), self.dim(), "dimension mismatch");
        self.dims
            .iter()
            .zip(rect.intervals())
            .map(|(m, iv)| m.mass(iv.lo(), iv.hi()))
            .product()
    }

    /// Draws one event point.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        self.dims.iter().map(|m| m.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;
    use rand::prelude::*;

    #[test]
    fn normal_cdf_reference_values() {
        let n = Normal::new(0.0, 1.0);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((n.cdf(1.0) - 0.8413447).abs() < 1e-5);
        assert!((n.cdf(-1.96) - 0.0249979).abs() < 1e-5);
        // Degenerate sd.
        let d = Normal::new(3.0, 0.0);
        assert_eq!(d.cdf(2.9), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
    }

    #[test]
    fn mixture_mass_matches_sampling() {
        let m = NormalMixture::new(vec![
            (0.5, Normal::new(4.0, 2.0)),
            (0.5, Normal::new(16.0, 2.0)),
        ]);
        let analytic = m.mass(3.0, 5.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let hits = (0..n)
            .filter(|_| {
                let x = m.sample(&mut rng);
                x > 3.0 && x <= 5.0
            })
            .count();
        let empirical = hits as f64 / n as f64;
        assert!(
            (analytic - empirical).abs() < 0.005,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn mixture_weights_normalize() {
        let m = NormalMixture::new(vec![
            (2.0, Normal::new(0.0, 1.0)),
            (6.0, Normal::new(5.0, 1.0)),
        ]);
        assert!((m.components[0].0 - 0.25).abs() < 1e-12);
        assert!((m.components[1].0 - 0.75).abs() < 1e-12);
        // Total mass over the whole line is 1.
        assert!((m.mass(-1e6, 1e6) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn product_density_mass() {
        let d = PublicationDensity::new(vec![
            NormalMixture::single(0.0, 1.0),
            NormalMixture::single(0.0, 1.0),
        ]);
        // Central square: (Φ(1) - Φ(-1))² ≈ 0.683².
        let r = Rect::new(vec![
            Interval::new(-1.0, 1.0).unwrap(),
            Interval::new(-1.0, 1.0).unwrap(),
        ]);
        let mass = d.mass(&r);
        assert!((mass - 0.6827f64.powi(2)).abs() < 1e-3, "mass {mass}");
        // Empty rectangle: zero.
        let empty = Rect::new(vec![
            Interval::new(1.0, 1.0).unwrap(),
            Interval::new(-1.0, 1.0).unwrap(),
        ]);
        assert_eq!(d.mass(&empty), 0.0);
        // Unbounded rectangle: one.
        assert!((d.mass(&Rect::new(vec![Interval::all(); 2])) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn density_dimension_mismatch_panics() {
        let d = PublicationDensity::new(vec![NormalMixture::single(0.0, 1.0)]);
        let _ = d.mass(&Rect::new(vec![Interval::all(); 2]));
    }
}
