//! Subscriber membership vectors.
//!
//! Section 4.1 of the paper attaches to each grid cell `a` a *membership
//! vector* `s(a) ∈ {0,1}^Ns` whose non-zero entries are the subscribers
//! interested in the cell. These vectors are the feature vectors of the
//! clustering framework — all distances are computed on them, never on
//! event-space coordinates. This module provides the packed bit-vector
//! they are stored in, with the set operations the expected-waste
//! distance needs (`|A \ B|`, unions, intersections).

use std::fmt;

const WORD_BITS: usize = 64;

/// Words per unrolled popcount block. The block loop has a fixed trip
/// count, so the compiler unrolls it and keeps several popcount lanes
/// in flight; the scalar tail handles at most `POPCOUNT_BLOCK - 1`
/// words. Counts are exact integers, so blocking cannot change any
/// result — it only restructures the loop for autovectorization.
const POPCOUNT_BLOCK: usize = 8;

// lint: hot-path
/// Both directed difference popcounts, `(|a \ b|, |b \ a|)`, over raw
/// word slices in `POPCOUNT_BLOCK`-word unrolled blocks with a
/// scalar tail. The kernel of [`BitSet::waste_counts`] — the inner
/// loop of the expected-waste distance.
fn waste_counts_words(a: &[u64], b: &[u64]) -> (usize, usize) {
    let mut blocks_a = a.chunks_exact(POPCOUNT_BLOCK);
    let mut blocks_b = b.chunks_exact(POPCOUNT_BLOCK);
    let mut only_a = 0u64;
    let mut only_b = 0u64;
    for (ba, bb) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
        let mut x = 0u32;
        let mut y = 0u32;
        for (wa, wb) in ba.iter().zip(bb) {
            x += (wa & !wb).count_ones();
            y += (wb & !wa).count_ones();
        }
        only_a += u64::from(x);
        only_b += u64::from(y);
    }
    for (wa, wb) in blocks_a.remainder().iter().zip(blocks_b.remainder()) {
        only_a += u64::from((wa & !wb).count_ones());
        only_b += u64::from((wb & !wa).count_ones());
    }
    (only_a as usize, only_b as usize)
}
// lint: hot-path end

/// Weighted directed difference counts `(Σ w[i] for i ∈ a\b,
/// Σ w[i] for i ∈ b\a)` over raw word slices. The weighted analogue of
/// [`waste_counts_words`]: with all weights 1 it returns exactly the
/// unweighted popcounts. Used by the aggregation layer, where each
/// "subscriber" is a canonical class standing for `w` concrete
/// subscribers — the weighted count then equals the concrete count as
/// an exact integer, which is what keeps aggregated clustering
/// bit-identical to the raw path.
fn weighted_waste_counts_words(a: &[u64], b: &[u64], w: &[u64]) -> (u64, u64) {
    let mut only_a = 0u64;
    let mut only_b = 0u64;
    for (wi, (wa, wb)) in a.iter().zip(b).enumerate() {
        let mut da = wa & !wb;
        while da != 0 {
            let bit = da.trailing_zeros() as usize;
            only_a += w[wi * WORD_BITS + bit];
            da &= da - 1;
        }
        let mut db = wb & !wa;
        while db != 0 {
            let bit = db.trailing_zeros() as usize;
            only_b += w[wi * WORD_BITS + bit];
            db &= db - 1;
        }
    }
    (only_a, only_b)
}

/// A fixed-length packed bit vector over subscriber indices.
///
/// # Examples
///
/// ```
/// use pubsub_core::BitSet;
///
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(64);
/// let mut b = BitSet::new(100);
/// b.insert(64);
/// assert_eq!(a.difference_count(&b), 1); // {3}
/// assert_eq!(a.intersection_count(&b), 1); // {64}
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a set from the given member indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_members(len: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for m in members {
            s.insert(m);
        }
        s
    }

    /// Size of the universe (not the number of members).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Adds index `i`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of universe {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes index `i`; returns whether it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of universe {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Extends the universe to `new_len`, keeping all members. The new
    /// indices start absent, so counts and set algebra over existing
    /// members are unchanged. A `new_len` smaller than the current
    /// universe is a no-op (members are never dropped).
    pub fn grow(&mut self, new_len: usize) {
        if new_len <= self.len {
            return;
        }
        self.len = new_len;
        self.words.resize(new_len.div_ceil(WORD_BITS), 0);
    }

    /// Whether index `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of universe {}", self.len);
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `|self \ other|` — members of `self` not in `other`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn difference_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Both directed difference counts, `(|self \ other|, |other \ self|)`,
    /// in a single blocked pass over the words.
    ///
    /// Equivalent to `(self.difference_count(other),
    /// other.difference_count(self))` but reads each word pair once,
    /// in `POPCOUNT_BLOCK`-word unrolled blocks — this is the inner
    /// loop of the expected-waste distance (see
    /// `waste_counts_words`).
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn waste_counts(&self, other: &BitSet) -> (usize, usize) {
        assert_eq!(self.len, other.len, "universe mismatch");
        waste_counts_words(&self.words, &other.words)
    }

    /// `|self ∩ other|`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place union: `self ← self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Weighted directed difference counts: `(Σ w[i] for i ∈ self\other,
    /// Σ w[i] for i ∈ other\self)`. With unit weights this equals
    /// [`BitSet::waste_counts`] exactly.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch or if `weights.len() < universe`.
    pub fn weighted_waste_counts(&self, other: &BitSet, weights: &[u64]) -> (u64, u64) {
        assert_eq!(self.len, other.len, "universe mismatch");
        assert!(weights.len() >= self.len, "weight vector too short");
        weighted_waste_counts_words(&self.words, &other.words, weights)
    }

    /// `Σ w[i]` over the members — the weighted analogue of
    /// [`BitSet::count`].
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() < universe`.
    pub fn weighted_count(&self, weights: &[u64]) -> u64 {
        assert!(weights.len() >= self.len, "weight vector too short");
        self.iter().map(|i| weights[i]).sum()
    }

    /// Iterator over member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// The packed words: member `i` is bit `i % 64` of word `i / 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the members of `self ∩ other` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub(crate) fn iter_and<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "universe mismatch");
        let words = self.words.iter().zip(&other.words);
        words.enumerate().flat_map(move |(wi, (a, b))| {
            let mut bits = a & b;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet{{")?;
        for (i, m) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized by the largest element (`max + 1`); an empty
    /// iterator yields an empty universe.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |&m| m + 1);
        BitSet::from_members(len, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(0)); // duplicate
        assert_eq!(s.count(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(65));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_members(100, [1, 2, 3, 70]);
        let b = BitSet::from_members(100, [2, 3, 4, 71]);
        assert_eq!(a.difference_count(&b), 2); // {1, 70}
        assert_eq!(b.difference_count(&a), 2); // {4, 71}
        assert_eq!(a.intersection_count(&b), 2); // {2, 3}
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 6);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn waste_counts_match_two_difference_calls() {
        let a = BitSet::from_members(200, [1, 2, 3, 70, 140, 199]);
        let b = BitSet::from_members(200, [2, 3, 4, 71, 140]);
        assert_eq!(
            a.waste_counts(&b),
            (a.difference_count(&b), b.difference_count(&a))
        );
        assert_eq!(a.waste_counts(&a), (0, 0));
        let empty = BitSet::new(200);
        assert_eq!(a.waste_counts(&empty), (a.count(), 0));
        assert_eq!(empty.waste_counts(&a), (0, a.count()));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s = BitSet::from_members(200, [190, 0, 64, 5]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 64, 190]);
    }

    #[test]
    fn equality_and_hash_by_content() {
        use std::collections::HashMap;
        let a = BitSet::from_members(100, [1, 50]);
        let b = BitSet::from_members(100, [50, 1]);
        assert_eq!(a, b);
        let mut m = HashMap::new();
        m.insert(a, "x");
        assert_eq!(m.get(&b), Some(&"x"));
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: BitSet = [3usize, 9, 1].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.count(), 3);
        let e: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(e.universe(), 0);
        assert!(e.is_empty());
    }

    #[test]
    fn remove_clears_membership() {
        let mut s = BitSet::from_members(130, [0, 63, 64, 129]);
        assert!(s.remove(64));
        assert!(!s.remove(64)); // already gone
        assert!(!s.remove(65)); // never present
        assert_eq!(s.count(), 3);
        assert!(!s.contains(64));
        assert!(s.contains(129));
    }

    #[test]
    fn grow_preserves_members_and_counts() {
        let mut s = BitSet::from_members(70, [0, 69]);
        let before: Vec<usize> = s.iter().collect();
        s.grow(200);
        assert_eq!(s.universe(), 200);
        assert_eq!(s.iter().collect::<Vec<_>>(), before);
        // Grown sets compare equal to sets built fresh at the new size.
        assert_eq!(s, BitSet::from_members(200, [0, 69]));
        s.insert(199);
        assert_eq!(s.count(), 3);
        // Shrinking is a no-op.
        s.grow(10);
        assert_eq!(s.universe(), 200);
    }

    #[test]
    fn blocked_kernels_match_scalar_formulations() {
        // Universe sizes straddling the 8-word block boundary: 0..=7
        // full blocks plus every remainder length 0..=7.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // xorshift* — deterministic, no external RNG needed here.
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            seed.wrapping_mul(0x2545f4914f6cdd1d)
        };
        for words in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31] {
            let universe = words * 64 + 5;
            let a = BitSet::from_members(universe, (0..universe).filter(|_| next() % 3 == 0));
            let b = BitSet::from_members(universe, (0..universe).filter(|_| next() % 3 == 0));
            let scalar_only_a: usize = a
                .words
                .iter()
                .zip(&b.words)
                .map(|(x, y)| (x & !y).count_ones() as usize)
                .sum();
            let scalar_only_b: usize = a
                .words
                .iter()
                .zip(&b.words)
                .map(|(x, y)| (y & !x).count_ones() as usize)
                .sum();
            assert_eq!(
                waste_counts_words(&a.words, &b.words),
                (scalar_only_a, scalar_only_b),
                "waste at {words} words"
            );
            let scalar_and: usize = a
                .words
                .iter()
                .zip(&b.words)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum();
            assert_eq!(a.waste_counts(&b), (scalar_only_a, scalar_only_b));
            assert_eq!(a.intersection_count(&b), scalar_and);
        }
    }

    #[test]
    fn difference_with_self_is_zero() {
        let a = BitSet::from_members(100, [7, 8, 9]);
        assert_eq!(a.difference_count(&a), 0);
        assert_eq!(a.intersection_count(&a), 3);
    }
}
