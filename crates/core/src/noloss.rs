//! The No-Loss clustering algorithm (Section 4.5 of the paper).
//!
//! Grid-based groups can over-deliver: a subscriber whose rectangle
//! merely *overlaps* a cell receives every event in that cell. No-Loss
//! instead builds multicast groups from *intersections of interest
//! rectangles*: a group's region `s` is contained in every member's
//! rectangle, so "each subscriber receiving a message is interested in
//! it" — no wasted deliveries, by construction.
//!
//! The algorithm searches for the most popular intersections, weighting
//! an area `s` by `w(s) = p_p(s)·|u(s)|` where `u(s)` is the set of
//! subscribers whose rectangles contain `s`. Starting from the raw
//! subscription rectangles, each iteration intersects overlapping
//! regions pairwise (membership of an intersection is the union of the
//! parents' memberships — a sound under-approximation, since any
//! rectangle containing a parent contains the intersection), keeps the
//! `max_rects` heaviest regions, and repeats. The paper ran it with
//! 5000 rectangles and 8 iterations (Figure 8 sweeps both knobs).

use std::collections::HashMap;

use geometry::{Point, Rect};
use spatial::RTree;

use crate::aggregate::rect_key;
use crate::membership::BitSet;
use crate::parallel;

/// Computes `u(s)` — the subscribers whose rectangles contain `rect` —
/// by exact containment tests against every subscription.
fn exact_containment(rect: &Rect, subscriptions: &[Rect]) -> BitSet {
    let mut u = BitSet::new(subscriptions.len());
    for (j, other) in subscriptions.iter().enumerate() {
        if other.contains_rect(rect) {
            u.insert(j);
        }
    }
    u
}

/// Tuning knobs of the No-Loss algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoLossConfig {
    /// Regions kept after each intersection round (paper: 5000).
    pub max_rects: usize,
    /// Number of intersection rounds (paper: 8).
    pub iterations: usize,
    /// Cap on candidate intersections examined per round, to bound the
    /// cost of dense overlap structures; the scan prioritizes heavy
    /// regions (the pool is kept sorted by weight).
    pub max_candidates_per_round: usize,
}

impl Default for NoLossConfig {
    fn default() -> Self {
        NoLossConfig {
            max_rects: 5000,
            iterations: 8,
            max_candidates_per_round: 2_000_000,
        }
    }
}

/// One No-Loss region: a rectangle together with the subscribers whose
/// interest is guaranteed to contain it.
#[derive(Debug, Clone)]
pub struct NoLossRegion {
    /// The region in event space.
    pub rect: Rect,
    /// `u(s)` — subscribers whose rectangles contain `rect`.
    pub subscribers: BitSet,
    /// `w(s) = p_p(s)·|u(s)|`.
    pub weight: f64,
}

/// The No-Loss clustering: the `K` heaviest regions, indexed for
/// point-stabbing at matching time.
///
/// # Examples
///
/// ```
/// use geometry::{Interval, Point, Rect};
/// use pubsub_core::{NoLossClustering, NoLossConfig};
///
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 10.0)?]),
///     Rect::new(vec![Interval::new(5.0, 15.0)?]),
/// ];
/// let sample = vec![Point::new(vec![7.0])];
/// let nl = NoLossClustering::build(&subs, &sample, &NoLossConfig::default(), 4);
/// // The overlap (5,10] is a region both subscribers belong to.
/// let hit = nl.match_event(&Point::new(vec![7.0])).unwrap();
/// assert_eq!(nl.regions()[hit].subscribers.count(), 2);
/// # Ok::<(), geometry::IntervalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NoLossClustering {
    pub(crate) regions: Vec<NoLossRegion>,
    tree: RTree<usize>,
    /// `regions[i].subscribers.count()`, precomputed at build time so
    /// the matcher's comparator never re-counts a bit-set.
    pub(crate) counts: Vec<u32>,
}

/// Empirical probability mass of a rectangle: its share of the sample.
fn empirical_mass(rect: &Rect, sample: &[Point]) -> f64 {
    if sample.is_empty() {
        // No density information: rank by membership alone.
        return 1.0;
    }
    let hits = sample.iter().filter(|p| rect.contains(p)).count();
    hits as f64 / sample.len() as f64
}

impl NoLossClustering {
    /// Runs the No-Loss algorithm over the subscription rectangles and
    /// keeps the `k` heaviest regions as multicast groups.
    ///
    /// `sample` is a sample of publication points used to estimate
    /// `p_p(s)` empirically; an empty sample ranks regions by
    /// member-count alone.
    ///
    /// # Panics
    ///
    /// Panics if subscriptions disagree on dimension.
    pub fn build(
        subscriptions: &[Rect],
        sample: &[Point],
        config: &NoLossConfig,
        k: usize,
    ) -> Self {
        let density = |rect: &Rect| empirical_mass(rect, sample);
        Self::build_with_density(subscriptions, density, sample, config, k)
    }

    /// Like [`NoLossClustering::build`], but with an arbitrary density
    /// function giving the publication mass of a rectangle — e.g. the
    /// analytic density of a workload model. `selection_sample` is a
    /// sample of publication points used by the final greedy group
    /// selection (see below); when empty, the `k` heaviest regions are
    /// kept instead.
    ///
    /// # Group selection
    ///
    /// The candidate pool easily accumulates thousands of near-identical
    /// high-weight regions around the densest publication hot spot;
    /// keeping simply the `k` heaviest would spend every group on one
    /// spot. The final selection is therefore *greedy marginal
    /// coverage*: regions are picked one at a time to maximize the
    /// expected number of additionally covered subscriber-deliveries
    /// over the sample (a monotone submodular objective, so greedy is
    /// within `1 - 1/e` of optimal).
    ///
    /// # Panics
    ///
    /// Panics if subscriptions disagree on dimension.
    pub fn build_with_density(
        subscriptions: &[Rect],
        density: impl Fn(&Rect) -> f64 + Sync,
        selection_sample: &[Point],
        config: &NoLossConfig,
        k: usize,
    ) -> Self {
        let n = subscriptions.len();
        if n == 0 {
            return NoLossClustering {
                regions: Vec::new(),
                tree: RTree::new(1),
                counts: Vec::new(),
            };
        }
        // lint: allow(no-literal-index): the empty case returned above
        let dim = subscriptions[0].dim();
        for r in subscriptions {
            assert_eq!(r.dim(), dim, "subscription dimension mismatch");
        }

        // Initial pool: each subscription rectangle with the full set of
        // subscribers whose rectangle contains it. Duplicate rectangles
        // are collapsed first (a duplicate's containment set already
        // includes both subscribers), then the `unique · n` containment
        // scans — the quadratic part — run in parallel, one region per
        // unique rectangle, in the original subscription order.
        let mut pool: Vec<NoLossRegion> = {
            let mut by_key: HashMap<Vec<(u64, u64)>, usize> = HashMap::new();
            let mut unique: Vec<usize> = Vec::with_capacity(n);
            for (i, sub) in subscriptions.iter().enumerate() {
                let key = rect_key(sub);
                by_key.entry(key).or_insert_with(|| {
                    unique.push(i);
                    unique.len() - 1
                });
            }
            parallel::par_map(&unique, 16, |&i| {
                let u = exact_containment(&subscriptions[i], subscriptions);
                let weight = density(&subscriptions[i]) * u.count() as f64;
                NoLossRegion {
                    rect: subscriptions[i].clone(),
                    subscribers: u,
                    weight,
                }
            })
        };
        sort_by_weight(&mut pool);
        pool.truncate(config.max_rects);
        // The base regions are re-inserted after every truncation:
        // deep, heavy intersections must not evict the broad regions
        // that give the final selection its event coverage.
        let base: Vec<NoLossRegion> = pool.clone();

        // Intersection rounds.
        for _ in 0..config.iterations {
            let tree = RTree::bulk_load(
                dim,
                pool.iter()
                    .enumerate()
                    .map(|(i, r)| (r.rect.clone(), i))
                    .collect(),
            );
            let mut seen: HashMap<Vec<(u64, u64)>, usize> = pool
                .iter()
                .enumerate()
                .map(|(i, r)| (rect_key(&r.rect), i))
                .collect();
            let mut fresh: Vec<NoLossRegion> = Vec::new();
            let mut budget = config.max_candidates_per_round;
            'outer: for i in 0..pool.len() {
                for (_, &j) in tree.query_intersecting(&pool[i].rect) {
                    if j <= i {
                        continue;
                    }
                    if budget == 0 {
                        break 'outer;
                    }
                    budget -= 1;
                    let inter = match pool[i].rect.intersection(&pool[j].rect) {
                        Some(r) => r,
                        None => continue,
                    };
                    let mut u = pool[i].subscribers.clone();
                    u.union_with(&pool[j].subscribers);
                    let key = rect_key(&inter);
                    match seen.get(&key) {
                        Some(&idx) if idx < pool.len() => {
                            // Refine an existing pool region's membership.
                            let region = &mut pool[idx];
                            if !u.is_subset(&region.subscribers) {
                                region.subscribers.union_with(&u);
                                region.weight =
                                    density(&region.rect) * region.subscribers.count() as f64;
                            }
                        }
                        Some(&idx) => {
                            let fi = idx - pool.len();
                            let region = &mut fresh[fi];
                            if !u.is_subset(&region.subscribers) {
                                region.subscribers.union_with(&u);
                                region.weight =
                                    density(&region.rect) * region.subscribers.count() as f64;
                            }
                        }
                        None => {
                            let weight = density(&inter) * u.count() as f64;
                            seen.insert(key, pool.len() + fresh.len());
                            fresh.push(NoLossRegion {
                                rect: inter,
                                subscribers: u,
                                weight,
                            });
                        }
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            pool.extend(fresh);
            sort_by_weight(&mut pool);
            pool.truncate(config.max_rects);
            // Restore any base region the truncation evicted.
            {
                let present: std::collections::HashSet<Vec<(u64, u64)>> =
                    pool.iter().map(|r| rect_key(&r.rect)).collect();
                for b in &base {
                    if !present.contains(&rect_key(&b.rect)) {
                        pool.push(b.clone());
                    }
                }
            }
            // Re-verify exact containment sets for the surviving pool:
            // the pairwise union `u(s)∪u(t)` is a sound but lossy
            // under-approximation of `u(s∩t)` (a third subscriber's
            // rectangle may contain the intersection without containing
            // either parent). Exact recomputation here is cheap —
            // `max_rects · n` containment tests, one region per thread
            // chunk — and lets weights and the final group memberships
            // match the paper's definition.
            let refreshed = parallel::par_map(&pool, 16, |region| {
                let u = exact_containment(&region.rect, subscriptions);
                let weight = density(&region.rect) * u.count() as f64;
                (u, weight)
            });
            for (region, (u, weight)) in pool.iter_mut().zip(refreshed) {
                region.subscribers = u;
                region.weight = weight;
            }
            sort_by_weight(&mut pool);
        }

        // Final group selection: greedy marginal coverage over the
        // sample (top-K by weight when no sample is available).
        sort_by_weight(&mut pool);
        if selection_sample.is_empty() {
            pool.truncate(k);
        } else {
            pool = greedy_coverage_selection(pool, selection_sample, k);
        }
        let tree = RTree::bulk_load(
            dim.max(1),
            pool.iter()
                .enumerate()
                .map(|(i, r)| (r.rect.clone(), i))
                .collect(),
        );
        let counts = pool.iter().map(|r| r.subscribers.count() as u32).collect();
        NoLossClustering {
            regions: pool,
            tree,
            counts,
        }
    }

    /// The kept regions, heaviest first.
    pub fn regions(&self) -> &[NoLossRegion] {
        &self.regions
    }

    /// Number of multicast groups.
    pub fn num_groups(&self) -> usize {
        self.regions.len()
    }

    /// Matches an event to the best region containing it (Figure 6 of
    /// the paper): the message is multicast to that region's
    /// subscribers and unicast to any other interested subscriber.
    ///
    /// The paper's pseudo-code selects the containing region of maximal
    /// weight `w = p_p·|u|`; since every subscriber of a containing
    /// region is interested in this event, delivery cost is minimized
    /// by the region with the *largest membership* (moving a receiver
    /// from the unicast top-up into the shared tree never costs more).
    /// We therefore break the selection by `|u|` first, weight second —
    /// identical when density is comparable, strictly better otherwise.
    ///
    /// Allocation-free: the containing regions are visited in place
    /// (no candidate `Vec`) and member counts were precomputed at build
    /// time. The comparator is a strict total order over distinct
    /// indices (count, then weight, then *lower index* on ties), so the
    /// maximum is unique and the fold below is independent of the
    /// R-tree's visitation order.
    pub fn match_event(&self, p: &Point) -> Option<usize> {
        let mut best: Option<usize> = None;
        self.tree.stab_with(p, |&i| {
            best = Some(match best {
                None => i,
                Some(b) if self.region_beats(i, b) => i,
                Some(b) => b,
            });
        });
        best
    }

    /// Whether region `a` wins the matcher's selection over region `b`
    /// (larger member count, then larger weight, then lower index).
    fn region_beats(&self, a: usize, b: usize) -> bool {
        self.counts[a]
            .cmp(&self.counts[b])
            .then_with(|| {
                self.regions[a]
                    .weight
                    .partial_cmp(&self.regions[b].weight)
                    .expect("weight is never NaN")
            })
            .then(b.cmp(&a))
            .is_gt()
    }
}

/// Greedy submodular selection: pick `k` regions maximizing the total
/// expected covered membership over the sample. A sample point covered
/// by several picked regions counts its best (largest-membership)
/// cover, mirroring the matcher's choice.
fn greedy_coverage_selection(
    pool: Vec<NoLossRegion>,
    sample: &[Point],
    k: usize,
) -> Vec<NoLossRegion> {
    // Containment lists: which sample points each region contains
    // (independent per region, so computed in parallel).
    let contained: Vec<Vec<usize>> = parallel::par_map(&pool, 16, |r| {
        sample
            .iter()
            .enumerate()
            .filter(|(_, p)| r.rect.contains(p))
            .map(|(i, _)| i)
            .collect()
    });
    let sizes: Vec<u64> = pool.iter().map(|r| r.subscribers.count() as u64).collect();
    let mut best_cov = vec![0u64; sample.len()];
    let mut picked = vec![false; pool.len()];
    let mut order = Vec::with_capacity(k.min(pool.len()));
    for _ in 0..k.min(pool.len()) {
        let mut best: Option<(f64, usize)> = None;
        for (r, pts) in contained.iter().enumerate() {
            if picked[r] {
                continue;
            }
            let gain: u64 = pts
                .iter()
                .map(|&p| sizes[r].saturating_sub(best_cov[p]))
                .sum();
            let gain = gain as f64;
            // Tie-break on weight, then pool order (weight-sorted), for
            // determinism and sane behaviour when all gains are zero.
            let key = gain + pool[r].weight * 1e-9;
            if best.is_none_or(|(bg, _)| key > bg) {
                best = Some((key, r));
            }
        }
        let (_, r) = match best {
            Some(b) => b,
            None => break,
        };
        picked[r] = true;
        for &p in &contained[r] {
            best_cov[p] = best_cov[p].max(sizes[r]);
        }
        order.push(r);
    }
    let keep: std::collections::HashSet<usize> = order.into_iter().collect();
    pool.into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, r)| r)
        .collect()
}

fn sort_by_weight(pool: &mut [NoLossRegion]) {
    pool.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .expect("weight is never NaN")
            .then_with(|| {
                // Deterministic tie-break on the rectangle bits.
                rect_key(&a.rect).cmp(&rect_key(&b.rect))
            })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    fn cfg(max_rects: usize, iterations: usize) -> NoLossConfig {
        NoLossConfig {
            max_rects,
            iterations,
            max_candidates_per_round: 100_000,
        }
    }

    #[test]
    fn empty_input() {
        let nl = NoLossClustering::build(&[], &[], &NoLossConfig::default(), 5);
        assert_eq!(nl.num_groups(), 0);
        assert_eq!(nl.match_event(&Point::new(vec![0.0])), None);
    }

    #[test]
    fn no_loss_property_holds() {
        // Every subscriber of every region must have a rectangle that
        // contains the whole region.
        let subs = vec![
            rect1(0.0, 10.0),
            rect1(5.0, 15.0),
            rect1(8.0, 9.0),
            rect1(2.0, 20.0),
        ];
        let sample: Vec<Point> = (0..40).map(|i| Point::new(vec![i as f64 * 0.5])).collect();
        let nl = NoLossClustering::build(&subs, &sample, &cfg(100, 4), 50);
        assert!(nl.num_groups() > 0);
        for region in nl.regions() {
            for s in region.subscribers.iter() {
                assert!(
                    subs[s].contains_rect(&region.rect),
                    "subscriber {s} does not contain region {}",
                    region.rect
                );
            }
        }
    }

    #[test]
    fn intersections_gain_members() {
        let subs = vec![rect1(0.0, 10.0), rect1(5.0, 15.0)];
        let sample = vec![Point::new(vec![7.0])];
        let nl = NoLossClustering::build(&subs, &sample, &cfg(100, 2), 10);
        // Some region must be the overlap (5,10] with both subscribers.
        let both = nl
            .regions()
            .iter()
            .find(|r| r.subscribers.count() == 2)
            .expect("intersection region exists");
        assert_eq!(both.rect, rect1(5.0, 10.0));
    }

    #[test]
    fn match_event_picks_heaviest_region() {
        let subs = vec![rect1(0.0, 10.0), rect1(5.0, 15.0), rect1(6.0, 9.0)];
        // Density concentrated at 7: deep intersections get heavy.
        let sample = vec![Point::new(vec![7.0]); 10];
        let nl = NoLossClustering::build(&subs, &sample, &cfg(100, 4), 20);
        let hit = nl.match_event(&Point::new(vec![7.0])).unwrap();
        // The triple intersection (6,9] carries all three subscribers
        // and full density: it must win.
        assert_eq!(nl.regions()[hit].subscribers.count(), 3);
        assert_eq!(nl.regions()[hit].rect, rect1(6.0, 9.0));
    }

    #[test]
    fn match_event_outside_all_regions_is_none() {
        let subs = vec![rect1(0.0, 1.0)];
        let nl = NoLossClustering::build(&subs, &[], &cfg(10, 1), 5);
        assert_eq!(nl.match_event(&Point::new(vec![50.0])), None);
    }

    #[test]
    fn k_truncates_to_heaviest() {
        let subs = vec![
            rect1(0.0, 10.0),
            rect1(0.0, 10.0),
            rect1(0.0, 10.0),
            rect1(90.0, 91.0),
        ];
        let sample = vec![Point::new(vec![5.0]); 5];
        let nl = NoLossClustering::build(&subs, &sample, &cfg(100, 2), 1);
        assert_eq!(nl.num_groups(), 1);
        // The popular shared rectangle wins over the lonely one.
        assert_eq!(nl.regions()[0].subscribers.count(), 3);
    }

    #[test]
    fn duplicate_rectangles_share_one_region() {
        let subs = vec![rect1(0.0, 5.0), rect1(0.0, 5.0)];
        let nl = NoLossClustering::build(&subs, &[], &cfg(10, 1), 10);
        // One region, two members.
        assert_eq!(nl.num_groups(), 1);
        assert_eq!(nl.regions()[0].subscribers.count(), 2);
    }

    #[test]
    fn more_iterations_never_lose_the_top_region() {
        let subs = vec![
            rect1(0.0, 10.0),
            rect1(2.0, 12.0),
            rect1(4.0, 14.0),
            rect1(6.0, 16.0),
        ];
        let sample: Vec<Point> = (0..32).map(|i| Point::new(vec![i as f64 * 0.5])).collect();
        let shallow = NoLossClustering::build(&subs, &sample, &cfg(100, 1), 100);
        let deep = NoLossClustering::build(&subs, &sample, &cfg(100, 4), 100);
        let max_members = |nl: &NoLossClustering| {
            nl.regions()
                .iter()
                .map(|r| r.subscribers.count())
                .max()
                .unwrap_or(0)
        };
        // Deeper iteration can only find richer (or equal) intersections.
        assert!(max_members(&deep) >= max_members(&shallow));
        // The 4-way core (6,10] must appear after enough iterations.
        assert_eq!(max_members(&deep), 4);
    }
}
