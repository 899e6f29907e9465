//! The Section 5.1 evaluation workload: a stock-market-like model on the
//! 600-node network.
//!
//! Subscriptions are `{bst, name, quote, volume}` rectangles:
//!
//! * `bst` (buy/sell/transaction) takes values B, S, T with
//!   probabilities 0.4 / 0.4 / 0.2 — an equality predicate;
//! * the `name` interval's center is normal around a *transit-block
//!   specific* mean (3, 10 or 17) with σ = 4, its length Zipf —
//!   regionalism of interest;
//! * `quote` and `volume` follow the four-shape parametric family
//!   (don't-care / left-ended / right-ended / two-sided with Pareto
//!   length) with the paper's parameter rows.
//!
//! Subscribers are spread 40/30/30% over the three transit blocks, then
//! Zipf over stubs, then Zipf over nodes. Publications are mixtures of
//! 1, 4 or 9 multivariate normals.

use geometry::{Interval, Point, Rect};
use netsim::Topology;
use rand::Rng;

use crate::density::{NormalMixture, PublicationDensity};
use crate::dist::{Normal, Pareto, Zipf};
use crate::placement::{uniform_stub_placement, zipf_placement};
use crate::types::{Event, Subscription, Workload};

/// Number of hot spots in the publication mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublicationModes {
    /// Single multivariate normal.
    One,
    /// 2 × 2 mixture on the middle dimensions.
    Four,
    /// 3 × 3 mixture on the middle dimensions.
    Nine,
}

/// Per-dimension sampling mixtures for the chosen mode count
/// (Section 5.1: dimensions 1 and 4 are fixed at `(1,1)` and `(9,6)`;
/// the middle dimensions carry the modes).
fn publication_mixture(modes: PublicationModes) -> PublicationDensity {
    let mix = |parts: &[(f64, f64, f64)]| {
        NormalMixture::new(
            parts
                .iter()
                .map(|&(w, m, sd)| (w, Normal::new(m, sd)))
                .collect(),
        )
    };
    let dims = match modes {
        PublicationModes::One => vec![
            NormalMixture::single(1.0, 1.0),
            NormalMixture::single(10.0, 6.0),
            NormalMixture::single(9.0, 2.0),
            NormalMixture::single(9.0, 6.0),
        ],
        PublicationModes::Four => vec![
            NormalMixture::single(1.0, 1.0),
            mix(&[(0.5, 12.0, 3.0), (0.5, 6.0, 2.0)]),
            mix(&[(0.5, 4.0, 2.0), (0.5, 16.0, 2.0)]),
            NormalMixture::single(9.0, 6.0),
        ],
        PublicationModes::Nine => vec![
            NormalMixture::single(1.0, 1.0),
            mix(&[(0.3, 4.0, 3.0), (0.4, 11.0, 3.0), (0.3, 18.0, 3.0)]),
            mix(&[(0.3, 4.0, 3.0), (0.4, 9.0, 3.0), (0.3, 16.0, 3.0)]),
            NormalMixture::single(9.0, 6.0),
        ],
    };
    PublicationDensity::new(dims)
}

/// One parametric row for the `quote` / `volume` predicate family.
#[derive(Debug, Clone, Copy)]
struct ParametricRow {
    q0: f64,
    q1: f64,
    q2: f64,
    left_end: Normal,
    right_end: Normal,
    center: Normal,
    length: Pareto,
}

impl ParametricRow {
    fn sample(&self, rng: &mut impl Rng, cap: f64) -> Interval {
        let u: f64 = rng.gen();
        if u < self.q0 {
            Interval::all()
        } else if u < self.q0 + self.q1 {
            Interval::greater_than(self.left_end.sample(rng))
        } else if u < self.q0 + self.q1 + self.q2 {
            Interval::at_most(self.right_end.sample(rng))
        } else {
            let c = self.center.sample(rng);
            let len = self.length.sample_capped(rng, cap);
            Interval::from_unordered(c - len / 2.0, c + len / 2.0)
        }
    }
}

/// The Section 5.1 stock-market workload model.
///
/// # Examples
///
/// ```
/// use netsim::{Topology, TransitStubParams};
/// use rand::{rngs::StdRng, SeedableRng};
/// use workload::{PublicationModes, StockModel};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let topo = Topology::generate(&TransitStubParams::paper_section51(), &mut rng);
/// let w = StockModel::default().with_sizes(200, 50).generate(&topo, &mut rng);
/// assert_eq!(w.subscriptions.len(), 200);
/// assert_eq!(w.events.len(), 50);
/// # let _ = PublicationModes::One;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StockModel {
    /// Number of subscriptions (1000 in the paper).
    pub num_subscriptions: usize,
    /// Number of publication events to generate.
    pub num_events: usize,
    /// Number of publication hot spots.
    pub modes: PublicationModes,
    /// Standard deviation of the name-interval center around the
    /// block-specific mean (4 in the paper). Larger values weaken the
    /// *regionalism of interest* — the assumption the paper's Section 3
    /// argues multicast benefits hinge on.
    pub name_sd: f64,
}

impl Default for StockModel {
    fn default() -> Self {
        StockModel {
            num_subscriptions: 1000,
            num_events: 500,
            modes: PublicationModes::One,
            name_sd: 4.0,
        }
    }
}

/// Name-mean per transit block (Section 5.1: "centered around the points
/// specific to transit block number (3, 10 and 17)").
const NAME_MEANS: [f64; 3] = [3.0, 10.0, 17.0];
/// Value domain maximum for name / quote / volume.
const VALUE_MAX: f64 = 20.0;
/// Zipf exponent for stub / node placement and name-interval length.
const ZIPF_ALPHA: f64 = 1.0;
/// Per-block subscription weights (40/30/30% in the paper).
const BLOCK_WEIGHTS: [f64; 3] = [0.4, 0.3, 0.3];

impl StockModel {
    /// Returns a copy with the given subscription and event counts.
    pub fn with_sizes(mut self, subscriptions: usize, events: usize) -> Self {
        self.num_subscriptions = subscriptions;
        self.num_events = events;
        self
    }

    /// Returns a copy with the given number of publication modes.
    pub fn with_modes(mut self, modes: PublicationModes) -> Self {
        self.modes = modes;
        self
    }

    /// Returns a copy with the given name-center spread (regionalism
    /// of interest: small = strongly regional, large = diffuse).
    ///
    /// # Panics
    ///
    /// Panics if `name_sd` is negative or NaN.
    pub fn with_name_sd(mut self, name_sd: f64) -> Self {
        assert!(name_sd >= 0.0, "name_sd must be non-negative");
        self.name_sd = name_sd;
        self
    }

    /// The analytic publication density this model samples events from.
    ///
    /// The paper's clustering framework weighs cells and regions by the
    /// publication probability `p_p`; because the models are products
    /// of per-dimension normal mixtures, the mass of any rectangle has
    /// a closed form — use this instead of an empirical estimate.
    pub fn publication_density(&self) -> PublicationDensity {
        publication_mixture(self.modes)
    }

    /// Generates the workload on `topo`.
    ///
    /// The 40/30/30 block weights are adapted to the topology:
    /// truncated when the topology has fewer transit blocks than
    /// weights, padded with the mean weight when it has more.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no stub nodes.
    pub fn generate(&self, topo: &Topology, rng: &mut impl Rng) -> Workload {
        let mut block_weights = BLOCK_WEIGHTS.to_vec();
        let mean = block_weights.iter().sum::<f64>() / block_weights.len() as f64;
        block_weights.resize(topo.num_blocks(), mean);
        let quote_row = ParametricRow {
            q0: 0.15,
            q1: 0.1,
            q2: 0.1,
            left_end: Normal::new(9.0, 1.0),
            right_end: Normal::new(9.0, 1.0),
            center: Normal::new(9.0, 2.0),
            length: Pareto::new(4.0, 1.0).expect("paper parameters are valid"),
        };
        let volume_row = ParametricRow {
            q0: 0.35,
            ..quote_row
        };
        let name_len_zipf = Zipf::new(VALUE_MAX as usize, ZIPF_ALPHA).expect("positive support");

        // Subscriber placement: blocks → stubs (Zipf) → nodes (Zipf).
        let nodes = zipf_placement(
            topo,
            self.num_subscriptions,
            &block_weights,
            ZIPF_ALPHA,
            rng,
        );
        let mut subscriptions = Vec::with_capacity(self.num_subscriptions);
        for node in nodes {
            let block = topo.block_of(node);
            // bst: equality on B/S/T with probabilities 0.4/0.4/0.2.
            let u: f64 = rng.gen();
            let bst = if u < 0.4 {
                0
            } else if u < 0.8 {
                1
            } else {
                2
            };
            // name: center normal around the block-specific mean,
            // Zipf length.
            let center =
                Normal::new(NAME_MEANS[block.min(NAME_MEANS.len() - 1)], self.name_sd).sample(rng);
            let len = name_len_zipf.sample(rng) as f64;
            let name = Interval::from_unordered(center - len / 2.0, center + len / 2.0);
            let rect = Rect::new(vec![
                Interval::equals_int(bst),
                name,
                quote_row.sample(rng, VALUE_MAX),
                volume_row.sample(rng, VALUE_MAX),
            ]);
            subscriptions.push(Subscription { node, rect });
        }

        // Publications: mixture of multivariate normals, published from
        // uniform random stub nodes, clamped into the grid bounds.
        let mixture = publication_mixture(self.modes);
        let publishers = uniform_stub_placement(topo, self.num_events, rng);
        let events: Vec<Event> = publishers
            .into_iter()
            .map(|publisher| {
                // Clamp just inside the open lower bound of the grid.
                let coords: Vec<f64> = mixture
                    .sample(rng)
                    .into_iter()
                    .enumerate()
                    .map(|(d, v)| v.clamp(-0.99, bounds_hi(d)))
                    .collect();
                Event {
                    publisher,
                    point: Point::new(coords),
                }
            })
            .collect();

        let bounds = Rect::new(vec![
            Interval::new(-1.0, bounds_hi(0)).expect("valid bounds"),
            Interval::new(-1.0, bounds_hi(1)).expect("valid bounds"),
            Interval::new(-1.0, bounds_hi(2)).expect("valid bounds"),
            Interval::new(-1.0, bounds_hi(3)).expect("valid bounds"),
        ]);
        // One bin per bst value; width-2 bins on the value dimensions.
        // Unit-width bins would give a 42k-cell grid whose popular
        // region cannot be covered by a few thousand kept hyper-cells
        // (the paper's "number of rectangles" budget); width 2 keeps
        // rasterization over-approximation small relative to the mean
        // interval length (~5-10) while letting the budget cover the
        // publication mass.
        let suggested_bins = vec![4, 11, 11, 11];

        Workload {
            bounds,
            suggested_bins,
            subscriptions,
            events,
        }
    }
}

/// Upper grid bound per dimension: bst ids live in 0..=2 (bound 3); value
/// attributes in 0..=20 with a little headroom for normal tails (21).
fn bounds_hi(d: usize) -> f64 {
    if d == 0 {
        3.0
    } else {
        21.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TransitStubParams;
    use rand::prelude::*;

    fn topo() -> Topology {
        Topology::generate(
            &TransitStubParams::paper_section51(),
            &mut StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn sizes_and_dims() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(2);
        let w = StockModel::default()
            .with_sizes(1000, 200)
            .generate(&t, &mut rng);
        assert_eq!(w.subscriptions.len(), 1000);
        assert_eq!(w.events.len(), 200);
        assert_eq!(w.bounds.dim(), 4);
    }

    #[test]
    fn bst_is_unit_equality_with_expected_frequencies() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(3);
        let w = StockModel::default()
            .with_sizes(5000, 1)
            .generate(&t, &mut rng);
        let mut counts = [0usize; 3];
        for s in &w.subscriptions {
            let iv = s.rect.interval(0);
            assert_eq!(iv.length(), 1.0, "bst predicate must be unit equality");
            let v = iv.hi() as usize;
            assert!(v <= 2);
            counts[v] += 1;
        }
        let f = |i: usize| counts[i] as f64 / 5000.0;
        assert!((f(0) - 0.4).abs() < 0.03, "B {}", f(0));
        assert!((f(1) - 0.4).abs() < 0.03, "S {}", f(1));
        assert!((f(2) - 0.2).abs() < 0.03, "T {}", f(2));
    }

    #[test]
    fn name_centers_track_block_means() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(4);
        let w = StockModel::default()
            .with_sizes(6000, 1)
            .generate(&t, &mut rng);
        // Average name-interval center per block ≈ the block mean.
        let mut sums = [0.0f64; 3];
        let mut counts = [0usize; 3];
        for s in &w.subscriptions {
            let b = t.block_of(s.node);
            let iv = s.rect.interval(1);
            sums[b] += (iv.lo() + iv.hi()) / 2.0;
            counts[b] += 1;
        }
        for b in 0..3 {
            let mean = sums[b] / counts[b] as f64;
            assert!(
                (mean - NAME_MEANS[b]).abs() < 0.5,
                "block {b}: center mean {mean} vs {}",
                NAME_MEANS[b]
            );
        }
    }

    #[test]
    fn volume_has_more_dont_cares_than_quote() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(5);
        let w = StockModel::default()
            .with_sizes(6000, 1)
            .generate(&t, &mut rng);
        let stars = |d: usize| {
            w.subscriptions
                .iter()
                .filter(|s| *s.rect.interval(d) == Interval::all())
                .count() as f64
                / 6000.0
        };
        assert!((stars(2) - 0.15).abs() < 0.03, "quote stars {}", stars(2));
        assert!((stars(3) - 0.35).abs() < 0.03, "volume stars {}", stars(3));
    }

    #[test]
    fn builder_knobs_round_trip() {
        let m = StockModel::default().with_name_sd(2.0);
        assert_eq!(m.name_sd, 2.0);
    }

    #[test]
    fn events_fall_inside_bounds() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(6);
        for modes in [
            PublicationModes::One,
            PublicationModes::Four,
            PublicationModes::Nine,
        ] {
            let w = StockModel::default()
                .with_modes(modes)
                .with_sizes(100, 500)
                .generate(&t, &mut rng);
            for e in &w.events {
                assert!(w.bounds.contains(&e.point), "{:?} {}", modes, e.point);
            }
        }
    }

    #[test]
    fn four_mode_mixture_is_bimodal_on_dim2() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(7);
        let w = StockModel::default()
            .with_modes(PublicationModes::Four)
            .with_sizes(10, 4000)
            .generate(&t, &mut rng);
        // Dim 2 mixes the well-separated N(4,2) and N(16,2): the region
        // between the modes (9.5..10.5) must be less populated than the
        // modes themselves.
        let count_in = |lo: f64, hi: f64| {
            w.events
                .iter()
                .filter(|e| e.point[2] > lo && e.point[2] <= hi)
                .count()
        };
        let valley = count_in(9.5, 10.5);
        let peak_low = count_in(3.5, 4.5);
        let peak_high = count_in(15.5, 16.5);
        assert!(valley < peak_low, "valley {valley} vs low peak {peak_low}");
        assert!(
            valley < peak_high,
            "valley {valley} vs high peak {peak_high}"
        );
    }

    #[test]
    fn some_events_match_some_subscriptions() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(8);
        let w = StockModel::default()
            .with_sizes(1000, 300)
            .generate(&t, &mut rng);
        let mut matched = Vec::new();
        let matched_events = w
            .events
            .iter()
            .filter(|e| {
                w.matching_into(&e.point, &mut matched);
                !matched.is_empty()
            })
            .count();
        assert!(
            matched_events > 50,
            "only {matched_events} of 300 events matched anything"
        );
    }
}
