//! A dynamic R-tree over axis-aligned (possibly unbounded) rectangles.
//!
//! The paper's matching stage searches "among aligned rectangles in event
//! space Ω for the rectangles that contain a given point ω", naming the
//! R*-tree [5] and S-tree [1] as suitable indexes. This module is the
//! repo's substitute: a classic R-tree with quadratic node splits and an
//! STR-style bulk loader. Query semantics are identical to an R*-tree;
//! only the balancing constants differ (see `DESIGN.md`).
//!
//! Unbounded rectangle extents (don't-care predicates) are supported: all
//! geometric *predicates* use exact interval arithmetic, while the
//! *heuristics* (area enlargement) clamp infinities to a large finite
//! sentinel so arithmetic never produces NaN.

use geometry::{Point, Rect};

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum entries assigned to each side of a split.
const MIN_ENTRIES: usize = 3;
/// Finite sentinel used in place of ±∞ in area computations.
const BIG: f64 = 1e18;

fn finite(x: f64) -> f64 {
    x.clamp(-BIG, BIG)
}

/// Area of the rectangle with infinities clamped; monotone in extent, so
/// usable as a split / subtree-choice heuristic even for unbounded rects.
fn clamped_area(r: &Rect) -> f64 {
    r.intervals()
        .iter()
        .map(|iv| finite(iv.hi()) - finite(iv.lo()))
        .fold(1.0, |acc, len| acc * len.clamp(0.0, BIG))
}

/// Growth of `clamped_area` when `r` is enlarged to also cover `add`.
fn enlargement(r: &Rect, add: &Rect) -> f64 {
    clamped_area(&r.hull(add)) - clamped_area(r)
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(Rect, T)>),
    Inner(Vec<(Rect, Node<T>)>),
}

impl<T> Node<T> {
    fn mbr(&self) -> Option<Rect> {
        let hull = |mut it: Box<dyn Iterator<Item = &Rect> + '_>| -> Option<Rect> {
            let first = it.next()?.clone();
            Some(it.fold(first, |acc, r| acc.hull(r)))
        };
        match self {
            Node::Leaf(es) => hull(Box::new(es.iter().map(|(r, _)| r))),
            Node::Inner(es) => hull(Box::new(es.iter().map(|(r, _)| r))),
        }
    }
}

/// An R-tree mapping rectangles to values, answering point-stabbing and
/// rectangle-intersection queries.
///
/// # Examples
///
/// ```
/// use geometry::{Interval, Point, Rect};
/// use spatial::RTree;
///
/// let mut tree = RTree::new(2);
/// tree.insert(
///     Rect::new(vec![Interval::new(0.0, 5.0)?, Interval::all()]),
///     "low-x",
/// );
/// tree.insert(
///     Rect::new(vec![Interval::new(4.0, 9.0)?, Interval::all()]),
///     "mid-x",
/// );
/// let hits = tree.stab(&Point::new(vec![4.5, 100.0]));
/// assert_eq!(hits.len(), 2);
/// # Ok::<(), geometry::IntervalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T> {
    dim: usize,
    root: Node<T>,
    len: usize,
}

impl<T> RTree<T> {
    /// Creates an empty tree over `dim`-dimensional rectangles.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        RTree {
            dim,
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Bulk-loads the tree with Sort-Tile-Recursive packing: entries are
    /// sorted by their (clamped) center along dimension 0, tiled into
    /// vertical slabs, each slab sorted along dimension 1, and so on.
    ///
    /// Much better node overlap than repeated insertion for static data
    /// (the clustering pipeline builds its index once).
    ///
    /// # Panics
    ///
    /// Panics if any rectangle's dimension differs from `dim` or
    /// `dim == 0`.
    pub fn bulk_load(dim: usize, items: Vec<(Rect, T)>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        for (r, _) in &items {
            assert_eq!(r.dim(), dim, "rectangle dimension mismatch");
        }
        let len = items.len();
        if len == 0 {
            return RTree::new(dim);
        }
        let leaves = str_pack_leaves(dim, items);
        let mut level: Vec<Node<T>> = leaves;
        while level.len() > 1 {
            level = pack_inner_level(level);
        }
        RTree {
            dim,
            root: level.pop().expect("non-empty level"),
            len,
        }
    }

    /// Number of stored rectangles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree's dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Inserts a rectangle/value pair.
    ///
    /// # Panics
    ///
    /// Panics if `rect.dim() != self.dim()`.
    pub fn insert(&mut self, rect: Rect, value: T) {
        assert_eq!(rect.dim(), self.dim, "rectangle dimension mismatch");
        self.len += 1;
        if let Some((r1, n1, r2, n2)) = insert_rec(&mut self.root, rect, value) {
            // Root split: grow the tree by one level.
            self.root = Node::Inner(vec![(r1, n1), (r2, n2)]);
        }
    }

    /// All values whose rectangle contains the point, in insertion-
    /// independent (tree) order.
    ///
    /// # Panics
    ///
    /// Panics if `p.dim() != self.dim()`.
    pub fn stab(&self, p: &Point) -> Vec<&T> {
        let mut out = Vec::new();
        self.stab_with(p, |v| out.push(v));
        out
    }

    /// Visits every value whose rectangle contains the point, in the
    /// same order as [`RTree::stab`], without allocating — the hot-loop
    /// variant for callers that reuse their own buffer.
    ///
    /// # Panics
    ///
    /// Panics if `p.dim() != self.dim()`.
    pub fn stab_with<'a>(&'a self, p: &Point, mut visit: impl FnMut(&'a T)) {
        assert_eq!(p.dim(), self.dim, "point dimension mismatch");
        stab_visit(&self.root, p, &mut visit);
    }

    /// All `(rect, value)` pairs intersecting the query rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `q.dim() != self.dim()`.
    pub fn query_intersecting(&self, q: &Rect) -> Vec<(&Rect, &T)> {
        assert_eq!(q.dim(), self.dim, "query dimension mismatch");
        let mut out = Vec::new();
        query_rec(&self.root, q, &mut out);
        out
    }
}

/// Recursive insert; returns `Some((mbr1, n1, mbr2, n2))` when the child
/// split and the caller must replace it by two nodes.
#[allow(clippy::type_complexity)]
fn insert_rec<T>(
    node: &mut Node<T>,
    rect: Rect,
    value: T,
) -> Option<(Rect, Node<T>, Rect, Node<T>)> {
    match node {
        Node::Leaf(entries) => {
            entries.push((rect, value));
            if entries.len() <= MAX_ENTRIES {
                return None;
            }
            let (a, b) = quadratic_split(std::mem::take(entries));
            let (ra, rb) = (mbr_of(&a), mbr_of(&b));
            Some((ra, Node::Leaf(a), rb, Node::Leaf(b)))
        }
        Node::Inner(entries) => {
            // Choose the child needing least enlargement (ties: smaller
            // area).
            let mut best = 0usize;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for (i, (r, _)) in entries.iter().enumerate() {
                let enl = enlargement(r, &rect);
                let area = clamped_area(r);
                if enl < best_enl || (enl == best_enl && area < best_area) {
                    best = i;
                    best_enl = enl;
                    best_area = area;
                }
            }
            let split = {
                let (r, child) = &mut entries[best];
                *r = r.hull(&rect);
                insert_rec(child, rect, value)
            };
            if let Some((r1, n1, r2, n2)) = split {
                entries.remove(best);
                entries.push((r1, n1));
                entries.push((r2, n2));
                if entries.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split(std::mem::take(entries));
                    let (ra, rb) = (mbr_of(&a), mbr_of(&b));
                    return Some((ra, Node::Inner(a), rb, Node::Inner(b)));
                }
            }
            None
        }
    }
}

fn mbr_of<E>(entries: &[(Rect, E)]) -> Rect {
    let mut it = entries.iter().map(|(r, _)| r);
    let first = it.next().expect("split sides are non-empty").clone();
    it.fold(first, |acc, r| acc.hull(r))
}

/// The two sides produced by a node split.
type SplitSides<E> = (Vec<(Rect, E)>, Vec<(Rect, E)>);

/// Guttman's quadratic split: seed with the pair wasting the most area,
/// then greedily assign remaining entries to the side preferring them
/// most, honoring the minimum fill.
fn quadratic_split<E>(mut entries: Vec<(Rect, E)>) -> SplitSides<E> {
    debug_assert!(entries.len() > MAX_ENTRIES);
    // Pick seeds.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = clamped_area(&entries[i].0.hull(&entries[j].0))
                - clamped_area(&entries[i].0)
                - clamped_area(&entries[j].0);
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove seeds (larger index first to keep the other valid).
    let (hi, lo) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
    let e_hi = entries.swap_remove(hi);
    let e_lo = entries.swap_remove(lo);
    let mut side_a = vec![e_lo];
    let mut side_b = vec![e_hi];
    // lint: allow(no-literal-index): both sides seeded with one entry above
    let mut mbr_a = side_a[0].0.clone();
    // lint: allow(no-literal-index): both sides seeded with one entry above
    let mut mbr_b = side_b[0].0.clone();
    while let Some(e) = entries.pop() {
        let remaining = entries.len();
        // Honor minimum fill.
        if side_a.len() + remaining + 1 == MIN_ENTRIES {
            mbr_a = mbr_a.hull(&e.0);
            side_a.push(e);
            continue;
        }
        if side_b.len() + remaining + 1 == MIN_ENTRIES {
            mbr_b = mbr_b.hull(&e.0);
            side_b.push(e);
            continue;
        }
        let grow_a = enlargement(&mbr_a, &e.0);
        let grow_b = enlargement(&mbr_b, &e.0);
        if grow_a < grow_b || (grow_a == grow_b && side_a.len() <= side_b.len()) {
            mbr_a = mbr_a.hull(&e.0);
            side_a.push(e);
        } else {
            mbr_b = mbr_b.hull(&e.0);
            side_b.push(e);
        }
    }
    (side_a, side_b)
}

fn stab_visit<'a, T>(node: &'a Node<T>, p: &Point, visit: &mut impl FnMut(&'a T)) {
    match node {
        Node::Leaf(entries) => {
            for (r, v) in entries {
                if r.contains(p) {
                    visit(v);
                }
            }
        }
        Node::Inner(entries) => {
            for (r, child) in entries {
                if r.contains(p) {
                    stab_visit(child, p, visit);
                }
            }
        }
    }
}

fn query_rec<'a, T>(node: &'a Node<T>, q: &Rect, out: &mut Vec<(&'a Rect, &'a T)>) {
    match node {
        Node::Leaf(entries) => {
            for (r, v) in entries {
                if r.intersects(q) {
                    out.push((r, v));
                }
            }
        }
        Node::Inner(entries) => {
            for (r, child) in entries {
                if r.intersects(q) {
                    query_rec(child, q, out);
                }
            }
        }
    }
}

/// Clamped center of a rectangle along dimension `d` (sort key for STR).
fn center_key(r: &Rect, d: usize) -> f64 {
    let iv = r.interval(d);
    (finite(iv.lo()) + finite(iv.hi())) / 2.0
}

/// STR leaf packing: recursively sort-and-tile along each dimension.
fn str_pack_leaves<T>(dim: usize, items: Vec<(Rect, T)>) -> Vec<Node<T>> {
    // Number of leaves needed.
    let n = items.len();
    let leaves = n.div_ceil(MAX_ENTRIES);
    let mut groups = vec![items];
    // Tile one dimension at a time.
    for d in 0..dim {
        if groups.len() >= leaves {
            break;
        }
        let remaining_dims = dim - d;
        let target_slabs_per_group = ((leaves as f64 / groups.len() as f64)
            .powf(1.0 / remaining_dims as f64))
        .ceil() as usize;
        let mut next = Vec::new();
        for mut g in groups {
            g.sort_by(|a, b| {
                center_key(&a.0, d)
                    .partial_cmp(&center_key(&b.0, d))
                    .expect("clamped keys are never NaN")
            });
            let slab = g.len().div_ceil(target_slabs_per_group.max(1)).max(1);
            while !g.is_empty() {
                let rest = g.split_off(slab.min(g.len()));
                next.push(g);
                g = rest;
            }
        }
        groups = next;
    }
    // Chop each final group into leaves of MAX_ENTRIES.
    let mut out = Vec::with_capacity(leaves);
    for mut g in groups {
        while !g.is_empty() {
            let rest = g.split_off(MAX_ENTRIES.min(g.len()));
            out.push(Node::Leaf(g));
            g = rest;
        }
    }
    out
}

/// Packs a level of nodes into parent nodes of `MAX_ENTRIES` fan-out.
fn pack_inner_level<T>(level: Vec<Node<T>>) -> Vec<Node<T>> {
    let mut out = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
    let mut batch: Vec<(Rect, Node<T>)> = Vec::with_capacity(MAX_ENTRIES);
    for node in level {
        let mbr = node.mbr().expect("packed nodes are non-empty");
        batch.push((mbr, node));
        if batch.len() == MAX_ENTRIES {
            out.push(Node::Inner(std::mem::take(&mut batch)));
        }
    }
    if !batch.is_empty() {
        out.push(Node::Inner(batch));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    fn rect2(a: (f64, f64), b: (f64, f64)) -> Rect {
        Rect::new(vec![
            Interval::new(a.0, a.1).unwrap(),
            Interval::new(b.0, b.1).unwrap(),
        ])
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<u32> = RTree::new(2);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(tree.stab(&Point::new(vec![0.0, 0.0])).is_empty());
    }

    #[test]
    fn stab_small() {
        let mut tree = RTree::new(1);
        tree.insert(rect1(0.0, 5.0), 'a');
        tree.insert(rect1(4.0, 9.0), 'b');
        tree.insert(rect1(10.0, 12.0), 'c');
        let mut hits: Vec<char> = tree
            .stab(&Point::new(vec![4.5]))
            .into_iter()
            .copied()
            .collect();
        hits.sort();
        assert_eq!(hits, vec!['a', 'b']);
        assert!(tree.stab(&Point::new(vec![9.5])).is_empty());
    }

    #[test]
    fn unbounded_rectangles() {
        let mut tree = RTree::new(2);
        tree.insert(
            Rect::new(vec![Interval::greater_than(5.0), Interval::all()]),
            1,
        );
        tree.insert(Rect::new(vec![Interval::all(); 2]), 2);
        let hits = tree.stab(&Point::new(vec![10.0, -1e6]));
        assert_eq!(hits.len(), 2);
        let hits = tree.stab(&Point::new(vec![3.0, 0.0]));
        assert_eq!(hits, vec![&2]);
    }

    #[test]
    fn many_inserts_trigger_splits_and_stay_correct() {
        let mut tree = RTree::new(2);
        let mut rects = Vec::new();
        for i in 0..100 {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            let r = rect2((x, x + 1.5), (y, y + 1.5));
            rects.push(r.clone());
            tree.insert(r, i);
        }
        assert_eq!(tree.len(), 100);
        // Compare stabbing against brute force on a grid of probes.
        for px in 0..12 {
            for py in 0..12 {
                let p = Point::new(vec![px as f64 + 0.25, py as f64 + 0.25]);
                let mut expect: Vec<usize> = rects
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.contains(&p))
                    .map(|(i, _)| i)
                    .collect();
                let mut got: Vec<usize> = tree.stab(&p).into_iter().copied().collect();
                expect.sort();
                got.sort();
                assert_eq!(got, expect, "probe ({px}, {py})");
            }
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<(Rect, usize)> = (0..500)
            .map(|i| {
                let cx = rng.gen_range(0.0..100.0);
                let cy = rng.gen_range(0.0..100.0);
                let w = rng.gen_range(0.5..10.0);
                let h = rng.gen_range(0.5..10.0);
                (rect2((cx, cx + w), (cy, cy + h)), i)
            })
            .collect();
        let rects: Vec<Rect> = items.iter().map(|(r, _)| r.clone()).collect();
        let tree = RTree::bulk_load(2, items);
        assert_eq!(tree.len(), 500);
        for _ in 0..200 {
            let p = Point::new(vec![rng.gen_range(0.0..110.0), rng.gen_range(0.0..110.0)]);
            let mut expect: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&p))
                .map(|(i, _)| i)
                .collect();
            let mut got: Vec<usize> = tree.stab(&p).into_iter().copied().collect();
            expect.sort();
            got.sort();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn query_intersecting_matches_brute_force() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2);
        let items: Vec<(Rect, usize)> = (0..200)
            .map(|i| {
                let cx = rng.gen_range(0.0..50.0);
                let cy = rng.gen_range(0.0..50.0);
                (rect2((cx, cx + 3.0), (cy, cy + 3.0)), i)
            })
            .collect();
        let rects: Vec<Rect> = items.iter().map(|(r, _)| r.clone()).collect();
        let mut tree = RTree::new(2);
        for (r, v) in items {
            tree.insert(r, v);
        }
        for _ in 0..50 {
            let qx = rng.gen_range(0.0..50.0);
            let qy = rng.gen_range(0.0..50.0);
            let q = rect2((qx, qx + 5.0), (qy, qy + 5.0));
            let mut expect: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&q))
                .map(|(i, _)| i)
                .collect();
            let mut got: Vec<usize> = tree
                .query_intersecting(&q)
                .into_iter()
                .map(|(_, v)| *v)
                .collect();
            expect.sort();
            got.sort();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let tree: RTree<u8> = RTree::bulk_load(3, vec![]);
        assert!(tree.is_empty());
        let tree = RTree::bulk_load(1, vec![(rect1(0.0, 1.0), 7u8)]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.stab(&Point::new(vec![0.5])), vec![&7]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_wrong_dim_panics() {
        let mut tree = RTree::new(2);
        tree.insert(rect1(0.0, 1.0), 0);
    }
}
