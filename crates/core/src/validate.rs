//! Structural invariant validation for the clustering artifacts.
//!
//! The paper's guarantees are *structural*: hyper-cells partition the
//! set of live grid cells, every kept cell maps to exactly one group,
//! the compiled dispatch table is exactly the framework's cell index,
//! and No-Loss never lists a subscriber whose rectangle does not
//! contain the region. After several layers of performance work
//! (parallel fan-out, incremental deltas, compiled dispatch) those
//! guarantees are easy to erode silently. [`Validator`] audits the
//! artifacts directly:
//!
//! * [`Validator::check_framework`] — hyper-cells partition the cell
//!   space, the cell→hyper index is exact, and popularity ranking is
//!   monotone;
//! * [`Validator::check_clustering`] — groups partition the hyper-cells
//!   and their member/probability aggregates match a recompute;
//! * [`Validator::check_dispatch_plan`] — the compiled tables agree
//!   entry-for-entry with the framework and clustering they were
//!   compiled from (point location needs no audit: the plan keeps the
//!   framework's [`Grid`](geometry::Grid) and locates with it, the rule
//!   rasterisation used). The plans decide from the interested count,
//!   which is the hit count only while every group's members are the
//!   union of its cells': `clustering.group-members`,
//!   `dispatch.hyper-state` and the group sizes of
//!   `dispatch.group-state` hold that premise;
//! * [`Validator::check_serve_state`] — the arrays the serve kernel
//!   decides from hold the floats of the slots they were attached from,
//!   and the fallback index exactly the rectangles no kept cell answers
//!   for;
//! * [`Validator::check_noloss`] — the containment guarantee and the
//!   precomputed per-region counts.
//!
//! Checks are wired as debug assertions at the
//! [`DynamicClustering`](crate::DynamicClustering) rebalance
//! boundaries and as explicit steps in the churn/dispatch bench
//! binaries; the mutation tests below corrupt each artifact field and
//! assert the validator flags every corruption.

use geometry::Rect;

use crate::clustering::Clustering;
use crate::dispatch::{slot_bounds, CellTable, DispatchPlan, NO_SLOT};
use crate::framework::{GridFramework, HyperCell};
use crate::membership::BitSet;
use crate::noloss::NoLossClustering;
use crate::waste::popularity_weighted;

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable name of the invariant (e.g. `framework.cell-partition`).
    pub invariant: &'static str,
    /// What disagreed, with enough indices to reproduce.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Error carrying every violation a [`Validator`] collected.
#[derive(Debug, Clone)]
pub struct ValidationError {
    /// The violations, in check order.
    pub violations: Vec<Violation>,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} structural invariant(s) violated:",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidationError {}

/// Audits clustering artifacts for structural invariants, collecting
/// every violation instead of stopping at the first.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Rect};
/// use pubsub_core::{
///     CellProbability, ClusteringAlgorithm, GridFramework, KMeans, KMeansVariant, Validator,
/// };
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![Rect::new(vec![Interval::new(0.0, 5.0)?])];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 2);
/// let mut v = Validator::new();
/// v.check_framework(&fw).check_clustering(&fw, &clustering);
/// v.finish()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Validator {
    violations: Vec<Violation>,
}

impl Validator {
    /// Creates a validator with no recorded violations.
    pub fn new() -> Self {
        Validator::default()
    }

    fn fail(&mut self, invariant: &'static str, detail: String) {
        self.violations.push(Violation { invariant, detail });
    }

    /// Consumes the validator: `Ok(())` when clean, otherwise the full
    /// violation report.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError`] listing every recorded violation.
    pub fn finish(self) -> Result<(), ValidationError> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(ValidationError {
                violations: self.violations,
            })
        }
    }

    /// Panics with the full report if any check failed; `context` names
    /// the call site in the panic message.
    ///
    /// # Panics
    ///
    /// Panics when at least one violation was recorded.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.violations.is_empty(),
            "structural audit failed at {context}:\n{}",
            ValidationError {
                violations: self.violations.clone()
            }
        );
    }

    /// Audits a [`GridFramework`]: cell partition, index exactness and
    /// popularity ranking.
    pub fn check_framework(&mut self, fw: &GridFramework) -> &mut Self {
        let hcs = &fw.hypercells;
        let num_cells = fw.grid.num_cells();

        // Hyper-cells partition the live cell space and the
        // cell→hyper index is exactly their union.
        let mut mapped_cells = 0usize;
        for (h, hc) in hcs.iter().enumerate() {
            if hc.cells.is_empty() {
                self.fail(
                    "framework.cell-partition",
                    format!("hyper-cell {h} holds no cells"),
                );
            }
            mapped_cells += hc.cells.len();
            for &cell in &hc.cells {
                if cell.index() >= num_cells {
                    self.fail(
                        "framework.cell-partition",
                        format!("hyper-cell {h} holds out-of-range cell {cell:?}"),
                    );
                }
                match fw.cell_to_hyper.get(&cell) {
                    Some(&mapped) if mapped == h => {}
                    Some(&mapped) => self.fail(
                        "framework.cell-partition",
                        format!("cell {cell:?} sits in hyper-cell {h} but maps to {mapped}"),
                    ),
                    None => self.fail(
                        "framework.cell-partition",
                        format!("cell {cell:?} of hyper-cell {h} is missing from the index"),
                    ),
                }
            }
            if hc.members.universe() != fw.num_subscribers {
                self.fail(
                    "framework.member-universe",
                    format!(
                        "hyper-cell {h} members cover universe {} != {} subscribers",
                        hc.members.universe(),
                        fw.num_subscribers
                    ),
                );
            }
            if !hc.prob.is_finite() || hc.prob < 0.0 {
                self.fail(
                    "framework.cell-probability",
                    format!("hyper-cell {h} has probability {}", hc.prob),
                );
            }
        }
        if fw.cell_to_hyper.len() != mapped_cells {
            self.fail(
                "framework.cell-partition",
                format!(
                    "index maps {} cells but hyper-cells hold {mapped_cells} \
                     (a cell is shared or dangling)",
                    fw.cell_to_hyper.len()
                ),
            );
        }
        for (&cell, &h) in &fw.cell_to_hyper {
            if h >= hcs.len() {
                self.fail(
                    "framework.cell-partition",
                    format!(
                        "cell {cell:?} maps to dropped hyper-cell {h} of {}",
                        hcs.len()
                    ),
                );
            }
        }

        // Popularity ranking is non-increasing (build and apply_delta
        // both sort by descending popularity — weighted, for an
        // aggregated class framework).
        let pop = |h: usize| match fw.weights.as_deref() {
            Some(weights) => popularity_weighted(hcs[h].prob, &hcs[h].members, weights),
            None => hcs[h].popularity(),
        };
        for w in 1..hcs.len() {
            if pop(w - 1) < pop(w) {
                self.fail(
                    "framework.popularity-order",
                    format!(
                        "hyper-cell {} (popularity {}) ranked above {} (popularity {})",
                        w - 1,
                        pop(w - 1),
                        w,
                        pop(w)
                    ),
                );
            }
        }
        self
    }

    /// Audits a [`Clustering`] against the framework it was built over:
    /// dense group indices, a one-to-one hyper-cell partition, and
    /// member/probability aggregates matching a recompute.
    pub fn check_clustering(&mut self, fw: &GridFramework, c: &Clustering) -> &mut Self {
        let hcs = &fw.hypercells;
        if c.hyper_to_group.len() != hcs.len() {
            self.fail(
                "clustering.assignment-shape",
                format!(
                    "{} assignments for {} hyper-cells",
                    c.hyper_to_group.len(),
                    hcs.len()
                ),
            );
            return self;
        }
        for (h, &g) in c.hyper_to_group.iter().enumerate() {
            if g >= c.groups.len() {
                self.fail(
                    "clustering.assignment-shape",
                    format!("hyper-cell {h} assigned to group {g} of {}", c.groups.len()),
                );
            }
        }

        // Groups partition the hyper-cells, consistently with the
        // assignment vector.
        let mut seen = vec![false; hcs.len()];
        for (g, group) in c.groups.iter().enumerate() {
            if group.hypercells.is_empty() {
                self.fail(
                    "clustering.hyper-partition",
                    format!("group {g} is empty (empty groups must be dropped)"),
                );
            }
            for &h in &group.hypercells {
                if h >= hcs.len() {
                    self.fail(
                        "clustering.hyper-partition",
                        format!("group {g} holds out-of-range hyper-cell {h}"),
                    );
                    continue;
                }
                if seen[h] {
                    self.fail(
                        "clustering.hyper-partition",
                        format!("hyper-cell {h} appears in more than one group"),
                    );
                }
                seen[h] = true;
                if c.hyper_to_group.get(h) != Some(&g) {
                    self.fail(
                        "clustering.hyper-partition",
                        format!(
                            "group {g} holds hyper-cell {h} but the assignment says {:?}",
                            c.hyper_to_group.get(h)
                        ),
                    );
                }
            }

            // Member and probability aggregates match a recompute.
            let mut members = BitSet::new(fw.num_subscribers);
            let mut prob = 0.0f64;
            for &h in &group.hypercells {
                if let Some(hc) = hcs.get(h) {
                    members.union_with(&hc.members);
                    prob += hc.prob;
                }
            }
            if group.members != members {
                self.fail(
                    "clustering.group-members",
                    format!(
                        "group {g} stores {} members but its hyper-cells union to {}",
                        group.members.count(),
                        members.count()
                    ),
                );
            }
            // The iterative algorithms accumulate probability in move
            // order, so compare with a tolerance instead of bit-for-bit.
            let scale = prob.abs().max(1.0);
            if !group.prob.is_finite() || (group.prob - prob).abs() > 1e-9 * scale {
                self.fail(
                    "clustering.group-probability",
                    format!(
                        "group {g} stores probability {} but its hyper-cells sum to {prob}",
                        group.prob
                    ),
                );
            }
        }
        for (h, &covered) in seen.iter().enumerate() {
            if !covered {
                self.fail(
                    "clustering.hyper-partition",
                    format!("hyper-cell {h} belongs to no group"),
                );
            }
        }
        self
    }

    /// Audits what [`DispatchPlan::compile`] produced from the framework
    /// and clustering: the grid and cell-table exactness, the hyper-cell
    /// state (groups and flattened member lists) and the group state.
    /// The attached serve arrays answer to the slots instead
    /// ([`Validator::check_serve_state`]).
    pub fn check_dispatch_plan(
        &mut self,
        fw: &GridFramework,
        c: &Clustering,
        plan: &DispatchPlan,
    ) -> &mut Self {
        let hcs = &fw.hypercells;
        if !(0.0..=1.0).contains(&plan.threshold) {
            self.fail(
                "dispatch.threshold-range",
                format!("threshold {} outside [0, 1]", plan.threshold),
            );
        }
        if plan.num_subscribers != fw.num_subscribers {
            self.fail(
                "dispatch.subscriber-shape",
                format!(
                    "plan compiled for {} subscribers, framework has {}",
                    plan.num_subscribers, fw.num_subscribers
                ),
            );
            return self;
        }

        // The cell table is exactly the framework's cell→hyper index,
        // over the grid it locates on.
        if plan.grid != fw.grid {
            self.fail(
                "dispatch.cell-table",
                "plan locates on a different grid than the framework's".to_string(),
            );
        }
        let mut table_entries = 0usize;
        match &plan.table {
            CellTable::Dense(t) => {
                if t.len() != fw.grid.num_cells() {
                    self.fail(
                        "dispatch.cell-table",
                        format!(
                            "dense table covers {} cells, grid has {}",
                            t.len(),
                            fw.grid.num_cells()
                        ),
                    );
                }
                for (idx, &slot) in t.iter().enumerate() {
                    if slot == NO_SLOT {
                        continue;
                    }
                    table_entries += 1;
                    if slot as usize >= hcs.len() {
                        self.fail(
                            "dispatch.cell-table",
                            format!("cell {idx} points at hyper-cell {slot} of {}", hcs.len()),
                        );
                    }
                }
            }
            CellTable::Sparse(map) => {
                table_entries = map.len();
                for (&idx, &slot) in map {
                    if slot as usize >= hcs.len() {
                        self.fail(
                            "dispatch.cell-table",
                            format!("cell {idx} points at hyper-cell {slot} of {}", hcs.len()),
                        );
                    }
                }
            }
        }
        if table_entries != fw.cell_to_hyper.len() {
            self.fail(
                "dispatch.cell-table",
                format!(
                    "table keeps {table_entries} cells, framework keeps {}",
                    fw.cell_to_hyper.len()
                ),
            );
        }
        for (&cell, &h) in &fw.cell_to_hyper {
            let slot = match &plan.table {
                CellTable::Dense(t) => t.get(cell.index()).copied(),
                CellTable::Sparse(map) => map.get(&cell.index()).copied(),
            };
            if slot != Some(h as u32) {
                self.fail(
                    "dispatch.cell-table",
                    format!("cell {cell:?} maps to {h} in the framework but {slot:?} in the plan"),
                );
            }
        }

        // Per-hyper-cell state: group assignment and flattened members.
        if plan.hyper_group.len() != hcs.len() {
            self.fail(
                "dispatch.hyper-state",
                format!(
                    "plan compiled for {} hyper-cells, framework holds {}",
                    plan.hyper_group.len(),
                    hcs.len()
                ),
            );
            return self;
        }
        if c.hyper_to_group.len() == hcs.len() {
            for (h, &g) in plan.hyper_group.iter().enumerate() {
                if g as usize != c.hyper_to_group[h] {
                    self.fail(
                        "dispatch.hyper-state",
                        format!(
                            "hyper-cell {h} compiled into group {g}, clustering says {}",
                            c.hyper_to_group[h]
                        ),
                    );
                }
            }
        }
        self.check_hyper_lists(plan, hcs);

        // Per-group state: sizes.
        if plan.group_size.len() != c.groups.len() {
            self.fail(
                "dispatch.group-state",
                format!(
                    "plan compiled {} groups, clustering has {}",
                    plan.group_size.len(),
                    c.groups.len()
                ),
            );
            return self;
        }
        for (g, group) in c.groups.iter().enumerate() {
            if plan.group_size[g] as usize != group.members.count() {
                self.fail(
                    "dispatch.group-state",
                    format!(
                        "group {g} compiled size {} but has {} members",
                        plan.group_size[g],
                        group.members.count()
                    ),
                );
            }
        }

        self
    }

    /// Audits a plan's serve arrays against the slots they were attached
    /// from: `slot(id)`, for `id < n`, is subscriber `id`'s rectangle
    /// (`None` for a tombstone), the accessor the attach read. The
    /// candidate bound arrays are as long as the plan's member lists say,
    /// every candidate bound is `to_bits`-equal to its slot's (the kernel
    /// decides every in-cell event from these floats alone), and the
    /// fallback id map holds, ascending, exactly the ids `needs_fallback`
    /// picks, as many as the index holds. Shapes are checked before
    /// anything is indexed, so a corrupted plan is reported, never a
    /// panic. At most one violation per kept slot.
    pub fn check_serve_state<'a>(
        &mut self,
        plan: &DispatchPlan,
        n: usize,
        slot: impl Fn(usize) -> Option<&'a Rect>,
    ) -> &mut Self {
        const INVARIANT: &str = "dispatch.serve-state";
        let Some(state) = &plan.serve_state else {
            self.fail(INVARIANT, "no serve arrays are attached".to_string());
            return self;
        };
        let dim = plan.grid.dim();
        let (offsets, members) = (&plan.hyper_offsets, &plan.hyper_members);
        let total = members.len();
        let lists_ok = offsets.len() == plan.hyper_group.len() + 1
            && offsets.first() == Some(&0)
            && offsets.last().copied() == Some(total as u32)
            && offsets.is_sorted()
            && members.iter().all(|&id| (id as usize) < n);
        if n != plan.num_subscribers
            || !lists_ok
            || state.cand_lo.len() != total * dim
            || state.cand_hi.len() != total * dim
        {
            self.fail(
                INVARIANT,
                format!(
                    "{} / {} candidate bounds over {n} slots cannot describe the {total} \
                     candidates of {} subscribers in {dim} dimension(s)",
                    state.cand_lo.len(),
                    state.cand_hi.len(),
                    plan.num_subscribers,
                ),
            );
            return self;
        }
        // The slots' bounds as attach gathered them.
        let (want_lo, want_hi) = match slot_bounds(n, dim, &slot) {
            Ok(bounds) => bounds,
            Err(id) => {
                self.fail(
                    INVARIANT,
                    format!("subscriber {id}'s slot does not have the grid's {dim} dimension(s)"),
                );
                return self;
            }
        };
        for s in 0..plan.hyper_group.len() {
            let o = offsets[s] as usize;
            let ids = &members[o..offsets[s + 1] as usize];
            let nc = ids.len();
            let block = o * dim..(o + nc) * dim;
            let (lo, hi) = (&state.cand_lo[block.clone()], &state.cand_hi[block]);
            let wrong = (0..dim).find_map(|d| {
                let want = (&want_lo[d * n..(d + 1) * n], &want_hi[d * n..(d + 1) * n]);
                let stored = lo[d * nc..(d + 1) * nc]
                    .iter()
                    .zip(&hi[d * nc..(d + 1) * nc]);
                let k = ids.iter().zip(stored).position(|(&id, (lo, hi))| {
                    let (wl, wh) = (want.0[id as usize], want.1[id as usize]);
                    wl.is_nan() | (lo.to_bits() != wl.to_bits()) | (hi.to_bits() != wh.to_bits())
                })?;
                Some((k, d))
            });
            if let Some((k, d)) = wrong {
                // A tombstone's slot bounds read NaN.
                let (id, at) = (ids[k], d * n + ids[k] as usize);
                self.fail(
                    INVARIANT,
                    format!(
                        "slot {s} candidate {k} (subscriber {id}) dimension {d} stores ({}, {}], \
                         its slot has ({}, {}]",
                        lo[d * nc + k],
                        hi[d * nc + k],
                        want_lo[at],
                        want_hi[at]
                    ),
                );
            }
        }

        let ids = &state.fallback;
        if !ids.is_sorted_by(|a, b| a < b) || ids.last().is_some_and(|&id| id as usize >= n) {
            self.fail(
                INVARIANT,
                format!("fallback ids are not ascending subscriber ids below {n}"),
            );
            return self;
        }
        let mut listed = ids.iter().map(|&id| id as usize).peekable();
        for id in 0..n {
            let held = listed.next_if_eq(&id).is_some();
            if plan.needs_fallback(slot(id)) != held {
                let detail = if held {
                    format!("fallback holds subscriber {id}, whose rectangle needs no fallback")
                } else {
                    format!(
                        "fallback misses subscriber {id}, whose rectangle no kept cell answers for"
                    )
                };
                self.fail(INVARIANT, detail);
                break;
            }
        }
        if state.index.len() != ids.len() {
            self.fail(
                INVARIANT,
                format!(
                    "fallback index holds {} rectangles for {} ids",
                    state.index.len(),
                    ids.len()
                ),
            );
        }
        self
    }

    /// Checks the plan's flattened hyper-cell member lists (monotone
    /// offsets delimiting concatenated ascending member ids) against the
    /// framework's bitsets. A list equals its bitset's members in order
    /// when it is as long as the bitset's count, strictly ascending,
    /// below the universe and made only of members: its ids are then
    /// distinct members, as many as there are, so no bitset walk is
    /// needed.
    fn check_hyper_lists(&mut self, plan: &DispatchPlan, hcs: &[HyperCell]) {
        const INVARIANT: &str = "dispatch.hyper-state";
        let (offsets, flat) = (&plan.hyper_offsets, &plan.hyper_members);
        if offsets.len() != hcs.len() + 1
            || offsets.first() != Some(&0)
            || offsets.last().copied() != Some(flat.len() as u32)
        {
            self.fail(
                INVARIANT,
                format!(
                    "offset table of {} entries does not delimit {} member lists \
                     over {} flattened ids",
                    offsets.len(),
                    hcs.len(),
                    flat.len()
                ),
            );
            return;
        }
        for (h, hc) in hcs.iter().enumerate() {
            let (lo, hi) = (offsets[h] as usize, offsets[h + 1] as usize);
            if lo > hi || hi > flat.len() {
                self.fail(
                    INVARIANT,
                    format!("hyper-cell {h}'s offsets {lo}..{hi} are not monotone"),
                );
                continue;
            }
            let list = &flat[lo..hi];
            let agrees = list.len() == hc.members.count()
                && list.is_sorted_by(|a, b| a < b)
                && list
                    .last()
                    .is_none_or(|&id| (id as usize) < hc.members.universe())
                && list.iter().all(|&id| hc.members.contains(id as usize));
            if !agrees {
                self.fail(
                    INVARIANT,
                    format!("hyper-cell {h}'s flattened member list disagrees with its bitset"),
                );
            }
        }
    }

    /// Audits a [`NoLossClustering`] against the subscription
    /// rectangles: the containment guarantee (every listed subscriber's
    /// rectangle contains the region — delivering to it can never be a
    /// loss) and the precomputed count cache.
    pub fn check_noloss(&mut self, subscriptions: &[Rect], nl: &NoLossClustering) -> &mut Self {
        if nl.counts.len() != nl.regions.len() {
            self.fail(
                "noloss.count-cache",
                format!(
                    "{} cached counts for {} regions",
                    nl.counts.len(),
                    nl.regions.len()
                ),
            );
        }
        for (i, region) in nl.regions.iter().enumerate() {
            if !region.weight.is_finite() || region.weight < 0.0 {
                self.fail(
                    "noloss.region-weight",
                    format!("region {i} has weight {}", region.weight),
                );
            }
            if region.subscribers.universe() != subscriptions.len() {
                self.fail(
                    "noloss.containment",
                    format!(
                        "region {i} members cover universe {} != {} subscriptions",
                        region.subscribers.universe(),
                        subscriptions.len()
                    ),
                );
                continue;
            }
            if let Some(&cached) = nl.counts.get(i) {
                if cached as usize != region.subscribers.count() {
                    self.fail(
                        "noloss.count-cache",
                        format!(
                            "region {i} caches count {cached} but holds {} subscribers",
                            region.subscribers.count()
                        ),
                    );
                }
            }
            for s in region.subscribers.iter() {
                if !subscriptions[s].contains_rect(&region.rect) {
                    self.fail(
                        "noloss.containment",
                        format!(
                            "region {i} lists subscriber {s}, whose rectangle does not \
                                 contain it"
                        ),
                    );
                }
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellProbability;
    use crate::kmeans::{KMeans, KMeansVariant};
    use crate::noloss::{NoLossClustering, NoLossConfig};
    use crate::ClusteringAlgorithm;
    use geometry::{Grid, Interval, Point};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    struct Scenario {
        subs: Vec<Rect>,
        probs: CellProbability,
        fw: GridFramework,
        clustering: Clustering,
        plan: DispatchPlan,
    }

    /// A bench-shaped scenario with every auditable artifact armed:
    /// a compiled plan with a dense table, at least two groups and the
    /// serve arrays attached, three of whose rectangles overhang the
    /// grid.
    fn scenario() -> Scenario {
        let mut rng = StdRng::seed_from_u64(2002);
        let mut subs: Vec<Rect> = (0..30)
            .map(|_| {
                let lo = rng.gen_range(0.0..8.0);
                rect1(lo, lo + rng.gen_range(0.5..2.0))
            })
            .collect();
        // Rectangles overhanging the grid give the fallback ids to audit.
        subs.insert(4, rect1(-1.0, 1.5));
        subs.insert(17, Rect::new(vec![Interval::greater_than(8.5)]));
        subs.push(rect1(9.0, 11.0));
        let grid = Grid::cube(0.0, 10.0, 1, 40).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, None);
        assert!(fw.hypercells.len() >= 4, "scenario too small to corrupt");
        let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 4);
        assert!(clustering.num_groups() >= 2, "need two groups to flip");
        let plan = DispatchPlan::compile(&fw, &clustering)
            .with_threshold(0.3)
            .with_subscriptions(&subs);
        Scenario {
            subs,
            probs,
            fw,
            clustering,
            plan,
        }
    }

    fn noloss_scenario() -> (Vec<Rect>, NoLossClustering) {
        // Two separated communities: subscribers of one never contain
        // regions of the other, so a cross-planted member is always a
        // containment violation.
        let subs = vec![
            rect1(0.0, 4.0),
            rect1(1.0, 4.5),
            rect1(0.5, 3.5),
            rect1(6.0, 10.0),
            rect1(6.5, 9.5),
        ];
        let sample: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![0.25 * i as f64 + 0.1]))
            .collect();
        let nl = NoLossClustering::build(&subs, &sample, &NoLossConfig::default(), 4);
        assert!(!nl.regions().is_empty());
        (subs, nl)
    }

    /// Every audit a swap runs, the serve arrays against the scenario's
    /// rectangles. The candidate blocks are laid out over the member
    /// lists, so they are audited over sound lists only: a corrupted
    /// list is on record already, under `dispatch.hyper-state`.
    fn audit(s: &Scenario) -> Validator {
        let mut v = Validator::new();
        v.check_framework(&s.fw)
            .check_clustering(&s.fw, &s.clustering)
            .check_dispatch_plan(&s.fw, &s.clustering, &s.plan);
        if v.violations
            .iter()
            .all(|x| x.invariant != "dispatch.hyper-state")
        {
            v.check_serve_state(&s.plan, s.subs.len(), |id| s.subs.get(id));
        }
        v
    }

    /// Number of grid-artifact corruptions [`corrupt`] knows.
    const GRID_CORRUPTIONS: usize = 18;

    /// First of the corruptions that touch only the plan's flattened
    /// hyper-cell member lists (kinds
    /// `MEMBER_LIST_CORRUPTIONS..SERVE_STATE_CORRUPTIONS`).
    const MEMBER_LIST_CORRUPTIONS: usize = 10;

    /// First of the corruptions that touch only the plan's serve arrays
    /// (kinds `SERVE_STATE_CORRUPTIONS..GRID_CORRUPTIONS`).
    const SERVE_STATE_CORRUPTIONS: usize = 14;

    /// Offset of a slot whose first two candidates' lower bounds differ
    /// (the scenario is one-dimensional, so a slot's block is one bound
    /// per candidate); `salt` picks among them.
    fn crowded_slot(plan: &DispatchPlan, salt: usize) -> usize {
        let state = plan.serve_state.as_ref().expect("serve arrays attached");
        let slots: Vec<usize> = plan
            .hyper_offsets
            .windows(2)
            .map(|w| (w[0] as usize, w[1] as usize))
            .filter(|&(o, end)| {
                end - o >= 2 && state.cand_lo[o].to_bits() != state.cand_lo[o + 1].to_bits()
            })
            .map(|(o, _)| o)
            .collect();
        slots[salt % slots.len()]
    }

    /// Flat position of a list's id whose successor is in the same
    /// list; `salt` picks among them.
    fn crowded_list(plan: &DispatchPlan, salt: usize) -> usize {
        let spots: Vec<usize> = plan
            .hyper_offsets
            .windows(2)
            .flat_map(|w| w[0] as usize..(w[1] as usize).saturating_sub(1))
            .collect();
        spots[salt % spots.len()]
    }

    /// Applies corruption `kind` (entry selection varied by `salt`) and
    /// returns its name for diagnostics.
    fn corrupt(s: &mut Scenario, kind: usize, salt: usize) -> &'static str {
        match kind {
            0 => {
                // Flip a dense cell-table entry.
                let CellTable::Dense(t) = &mut s.plan.table else {
                    panic!("scenario compiles a dense table");
                };
                let kept: Vec<usize> = (0..t.len()).filter(|&i| t[i] != NO_SLOT).collect();
                let idx = kept[salt % kept.len()];
                t[idx] = if t[idx] == 0 { 1 } else { t[idx] - 1 };
                "table-entry-flip"
            }
            1 => {
                // Drop a hyper-cell: its cells now dangle in the index.
                s.fw.hypercells.pop();
                "hypercell-drop"
            }
            2 => {
                // Reassign a hyper-cell behind the groups' back.
                let h = salt % s.clustering.hyper_to_group.len();
                let g = s.clustering.hyper_to_group[h];
                s.clustering.hyper_to_group[h] = (g + 1) % s.clustering.groups.len();
                "assignment-flip"
            }
            3 => {
                // Drop a member from a group's stored union.
                let g = salt % s.clustering.groups.len();
                let m = s.clustering.groups[g]
                    .members
                    .iter()
                    .next()
                    .expect("groups are non-empty");
                s.clustering.groups[g].members.remove(m);
                "group-member-drop"
            }
            4 => {
                // Point a kept cell at the wrong hyper-cell.
                let l = s.fw.hypercells.len();
                let cells: Vec<_> = s.fw.hypercells[salt % l].cells.clone();
                let cell = cells[salt % cells.len()];
                let wrong = (s.fw.cell_to_hyper[&cell] + 1) % l;
                s.fw.cell_to_hyper.insert(cell, wrong);
                "cell-index-remap"
            }
            5 => {
                let g = salt % s.clustering.groups.len();
                s.clustering.groups[g].prob += 1.0;
                "group-probability-drift"
            }
            6 => {
                s.plan.threshold = 2.0;
                "threshold-out-of-range"
            }
            7 => {
                let g = salt % s.plan.group_size.len();
                s.plan.group_size[g] += 1;
                "plan-group-size-drift"
            }
            8 => {
                let h = salt % s.fw.hypercells.len();
                s.fw.hypercells[h].prob = -1.0;
                "negative-probability"
            }
            9 => {
                let h = salt % s.plan.hyper_group.len();
                let g = s.plan.hyper_group[h];
                s.plan.hyper_group[h] = (g + 1) % s.plan.group_size.len() as u32;
                "plan-group-flip"
            }
            10 => {
                // Swap two neighbouring ids inside one member list.
                let at = crowded_list(&s.plan, salt);
                s.plan.hyper_members.swap(at, at + 1);
                "member-ids-swap"
            }
            11 => {
                // Replace a member by a non-member between its
                // neighbours: the list stays ascending and as long.
                let plan = &s.plan;
                let mut spots = Vec::new();
                for (h, w) in plan.hyper_offsets.windows(2).enumerate() {
                    let o = w[0] as usize;
                    let list = &plan.hyper_members[o..w[1] as usize];
                    let members = &s.fw.hypercells[h].members;
                    for k in 0..list.len() {
                        let below = if k == 0 { 0 } else { list[k - 1] + 1 };
                        let above = list.get(k + 1).copied();
                        let above = above.unwrap_or(plan.num_subscribers as u32);
                        spots.extend(
                            (below..above)
                                .filter(|&id| !members.contains(id as usize))
                                .map(|id| (o + k, id)),
                        );
                    }
                }
                let (at, id) = spots[salt % spots.len()];
                s.plan.hyper_members[at] = id;
                "member-replaced-by-non-member"
            }
            12 => {
                // The last id of a list at or above the universe.
                let lists: Vec<usize> = s
                    .plan
                    .hyper_offsets
                    .windows(2)
                    .filter(|w| w[1] > w[0])
                    .map(|w| w[1] as usize - 1)
                    .collect();
                let at = lists[salt % lists.len()];
                s.plan.hyper_members[at] = (s.plan.num_subscribers + salt % 3) as u32;
                "member-id-beyond-universe"
            }
            13 => {
                // Drop one id from a list, shifting the later offsets:
                // the list stays ascending and made of members.
                let plan = &mut s.plan;
                let at = salt % plan.hyper_members.len();
                plan.hyper_members.remove(at);
                for o in &mut plan.hyper_offsets {
                    if *o as usize > at {
                        *o -= 1;
                    }
                }
                "member-dropped-from-list"
            }
            14 => {
                // Move one stored bound by one ulp.
                let state = s.plan.serve_state.as_mut().expect("serve arrays attached");
                let bounds = if salt.is_multiple_of(2) {
                    &mut state.cand_lo
                } else {
                    &mut state.cand_hi
                };
                let at = salt % bounds.len();
                bounds[at] = f64::from_bits(bounds[at].to_bits() + 1);
                "serve-bound-ulp"
            }
            15 => {
                // Swap two candidates' bounds inside one slot.
                let o = crowded_slot(&s.plan, salt);
                let state = s.plan.serve_state.as_mut().expect("serve arrays attached");
                state.cand_lo.swap(o, o + 1);
                state.cand_hi.swap(o, o + 1);
                "serve-bounds-swap"
            }
            16 => {
                let state = s.plan.serve_state.as_mut().expect("serve arrays attached");
                let bounds = if salt.is_multiple_of(2) {
                    &mut state.cand_lo
                } else {
                    &mut state.cand_hi
                };
                bounds.truncate(bounds.len() - 1);
                "serve-array-truncated"
            }
            17 => {
                let state = s.plan.serve_state.as_mut().expect("serve arrays attached");
                state.fallback.remove(salt % state.fallback.len());
                "fallback-id-drop"
            }
            _ => unreachable!("unknown corruption kind"),
        }
    }

    #[test]
    fn pristine_artifacts_are_clean() {
        let s = scenario();
        let v = audit(&s);
        assert!(
            v.violations.is_empty(),
            "false positives: {:?}",
            v.violations
        );
        v.finish().unwrap();

        let (subs, nl) = noloss_scenario();
        let mut v = Validator::new();
        v.check_noloss(&subs, &nl);
        assert!(
            v.violations.is_empty(),
            "false positives: {:?}",
            v.violations
        );
    }

    #[test]
    fn rebalanced_dynamic_artifacts_are_clean() {
        // The debug assertions inside rebalance()/rebuild() run the
        // audit at every boundary; corruption of any invariant would
        // panic here.
        let grid = Grid::cube(0.0, 10.0, 1, 20).unwrap();
        let probs = CellProbability::uniform(&grid);
        let mut dynamic =
            crate::DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), 3);
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(dynamic.subscribe(rect1(i as f64, (i as f64 + 4.0).min(20.0))));
        }
        dynamic.rebalance();
        dynamic.unsubscribe(ids[3]).unwrap();
        dynamic.resubscribe(ids[5], rect1(0.5, 2.5)).unwrap();
        dynamic.rebalance();
        dynamic.rebuild();
    }

    #[test]
    fn validator_flags_every_grid_corruption() {
        for kind in 0..GRID_CORRUPTIONS {
            let mut s = scenario();
            let name = corrupt(&mut s, kind, 7);
            let v = audit(&s);
            assert!(
                !v.violations.is_empty(),
                "corruption {kind} ({name}) went undetected"
            );
        }
    }

    /// Each corruption of `kinds`, at 24 entries, is rejected and under
    /// `invariant` alone (an audit that panics fails the test too).
    fn assert_flagged_only_as(kinds: std::ops::Range<usize>, invariant: &str) {
        for kind in kinds {
            for salt in 0..24 {
                let mut s = scenario();
                let name = corrupt(&mut s, kind, salt);
                let v = audit(&s);
                assert!(
                    !v.violations.is_empty(),
                    "{name} (salt {salt}) went undetected"
                );
                for violation in &v.violations {
                    assert_eq!(
                        violation.invariant, invariant,
                        "{name} (salt {salt}): {violation}"
                    );
                }
            }
        }
    }

    /// The arrays `serve_batch` decides from are audited by one
    /// invariant and nothing else looks at them: each corruption is
    /// rejected, and under `dispatch.serve-state` alone.
    #[test]
    fn serve_state_corruptions_fail_exactly_their_invariant() {
        assert_flagged_only_as(
            SERVE_STATE_CORRUPTIONS..GRID_CORRUPTIONS,
            "dispatch.serve-state",
        );
    }

    /// The member-list audit proves set-and-order equality from counts
    /// and membership tests alone: an out-of-order pair, a non-member
    /// that keeps the count, an id past the universe and a dropped id
    /// are each rejected under `dispatch.hyper-state` alone, without a
    /// panic. The slot check, run on such a plan by itself, rejects it
    /// too and does not panic either.
    #[test]
    fn member_list_corruptions_fail_exactly_their_invariant() {
        assert_flagged_only_as(
            MEMBER_LIST_CORRUPTIONS..SERVE_STATE_CORRUPTIONS,
            "dispatch.hyper-state",
        );
        let kinds = MEMBER_LIST_CORRUPTIONS..SERVE_STATE_CORRUPTIONS;
        for (kind, salt) in kinds.flat_map(|kind| (0..24).map(move |salt| (kind, salt))) {
            let mut s = scenario();
            let name = corrupt(&mut s, kind, salt);
            let mut v = Validator::new();
            v.check_serve_state(&s.plan, s.subs.len(), |id| s.subs.get(id));
            let err = v.finish().unwrap_err();
            let only = err
                .violations
                .iter()
                .all(|x| x.invariant == "dispatch.serve-state");
            assert!(only, "{name} (salt {salt}): {err}");
        }
    }

    /// The fallback index covers the overhanging rectangles of a
    /// complete framework and every rectangle of a truncated one; the
    /// audit names an id dropped from either.
    #[test]
    fn audit_names_a_dropped_fallback_id() {
        let mut s = scenario();
        let fallback = &s
            .plan
            .serve_state
            .as_ref()
            .expect("serve arrays attached")
            .fallback;
        assert_eq!(*fallback, [4, 17, 32]);
        corrupt(&mut s, 17, 1);
        let err = audit(&s).finish().unwrap_err();
        assert!(
            err.to_string()
                .contains("fallback misses subscriber 17, whose rectangle no kept cell"),
            "{err}"
        );

        let fw = GridFramework::build(s.fw.grid().clone(), &s.subs, &s.probs, Some(5));
        assert!(!fw.complete, "five hyper-cells must truncate the scenario");
        let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 2);
        let mut plan = DispatchPlan::compile(&fw, &clustering).with_subscriptions(&s.subs);
        let state = plan.serve_state.as_ref().expect("serve arrays attached");
        assert!(state
            .fallback
            .iter()
            .map(|&id| id as usize)
            .eq(0..s.subs.len()));
        let slot = |id| s.subs.get(id);
        let mut v = Validator::new();
        v.check_dispatch_plan(&fw, &clustering, &plan)
            .check_serve_state(&plan, s.subs.len(), slot);
        v.assert_clean("truncated plan");
        plan.serve_state
            .as_mut()
            .expect("serve arrays attached")
            .fallback
            .remove(9);
        let mut v = Validator::new();
        v.check_serve_state(&plan, s.subs.len(), slot);
        let err = v.finish().unwrap_err();
        assert!(
            err.to_string().contains("fallback misses subscriber 9"),
            "{err}"
        );
    }

    /// A bound written wrong at attach is exposed by the slots it was
    /// attached from: a subscriber's bound one ulp off, and a subscriber
    /// some kept cell lists attached and audited as a tombstone (what
    /// stale slots would give), each pass `check_dispatch_plan` and fail
    /// `dispatch.serve-state` alone, in every kept slot that lists the
    /// subscriber.
    #[test]
    fn bounds_written_wrong_at_attach_fail_against_their_slots() {
        let s = scenario();
        let (n, slot) = (s.subs.len(), |id: usize| s.subs.get(id));
        let member = s.plan.hyper_members[0] as usize;
        let x = s.subs[member].interval(0);
        let moved = rect1(x.lo(), f64::from_bits(x.hi().to_bits() + 1));
        let ulp = |id: usize| if id == member { Some(&moved) } else { slot(id) };
        let stale = |id: usize| if id == member { None } else { slot(id) };
        let compiled = DispatchPlan::compile(&s.fw, &s.clustering).with_threshold(0.3);
        let named = format!("(subscriber {member}) dimension 0");
        for (name, plan, audited) in [
            (
                "bound one ulp up",
                compiled.clone().attach(n, ulp),
                slot(member),
            ),
            ("tombstone listed", compiled.attach(n, stale), None),
        ] {
            let mut v = Validator::new();
            v.check_dispatch_plan(&s.fw, &s.clustering, &plan);
            v.assert_clean(name);
            v.check_serve_state(&plan, n, |id| if id == member { audited } else { slot(id) });
            let err = v.finish().unwrap_err();
            for violation in &err.violations {
                assert_eq!(violation.invariant, "dispatch.serve-state", "{name}: {err}");
                assert!(violation.detail.contains(&named), "{name}: {err}");
            }
        }
    }

    #[test]
    fn validator_flags_noloss_corruptions() {
        // Plant a member whose rectangle cannot contain the region.
        let (subs, mut nl) = noloss_scenario();
        let i = (0..nl.regions.len())
            .find(|&i| {
                let r = &nl.regions[i];
                (0..subs.len()).any(|s| !r.subscribers.contains(s))
            })
            .expect("some region excludes some subscriber");
        let outsider = (0..subs.len())
            .find(|&s| !nl.regions[i].subscribers.contains(s))
            .unwrap();
        nl.regions[i].subscribers.insert(outsider);
        let mut v = Validator::new();
        v.check_noloss(&subs, &nl);
        assert!(!v.violations.is_empty(), "planted member went undetected");

        // Desync the precomputed count cache.
        let (subs, mut nl) = noloss_scenario();
        nl.counts[0] += 1;
        let mut v = Validator::new();
        v.check_noloss(&subs, &nl);
        assert!(!v.violations.is_empty(), "count desync went undetected");

        // Corrupt a region weight.
        let (subs, mut nl) = noloss_scenario();
        nl.regions[0].weight = f64::NAN;
        let mut v = Validator::new();
        v.check_noloss(&subs, &nl);
        assert!(!v.violations.is_empty(), "NaN weight went undetected");
    }

    #[test]
    fn error_report_lists_every_violation() {
        let mut s = scenario();
        corrupt(&mut s, 6, 0);
        corrupt(&mut s, 7, 0);
        let err = audit(&s).finish().unwrap_err();
        assert!(err.violations.len() >= 2);
        let text = err.to_string();
        assert!(text.contains("dispatch.threshold-range"), "{text}");
        assert!(text.contains("dispatch.group-state"), "{text}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mutation-style sweep: every corruption kind, at an
        /// arbitrary entry, must be flagged — 100% mutation kill.
        #[test]
        fn mutation_sweep_kills_every_corruption(
            kind in 0usize..GRID_CORRUPTIONS,
            salt in 0usize..1_000_000,
        ) {
            let mut s = scenario();
            let name = corrupt(&mut s, kind, salt);
            let v = audit(&s);
            prop_assert!(
                !v.violations.is_empty(),
                "corruption {} ({}) with salt {} went undetected",
                kind, name, salt
            );
        }

        /// The audit itself must never report a false positive on a
        /// freshly built (delta-updated) framework.
        #[test]
        fn no_false_positives_after_delta(seed in 0u64..500) {
            let mut s = scenario();
            let mut rng = StdRng::seed_from_u64(seed);
            let id = s.subs.len();
            let lo = rng.gen_range(0.0..8.0);
            let added = vec![(id, rect1(lo, lo + 1.0))];
            let removed = vec![(0usize, s.subs[0].clone())];
            s.fw.apply_delta(&added, &removed, &s.probs, id + 1);
            let mut v = Validator::new();
            v.check_framework(&s.fw);
            prop_assert!(v.violations.is_empty(), "false positives: {:?}", v.violations);
        }
    }
}
