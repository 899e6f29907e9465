//! Hash-consing of membership vectors.
//!
//! The incremental churn pipeline re-derives per-cell membership
//! vectors for dirty cells only, then needs to answer "which hyper-cell
//! does this vector belong to" many times per update.
//! [`MembershipPool`] interns each distinct [`BitSet`] once and hands
//! out a small integer [`MembershipId`]; equality of vectors becomes id
//! equality (the hyper-cell merge test).
//!
//! Ids are content-addressed over the set's members, not its universe:
//! growing the universe (new subscriber slots, all absent) preserves
//! every id, which is what lets the pool persist across churn epochs.

use std::collections::HashMap;

use crate::membership::BitSet;

/// Interned handle of a membership vector inside a [`MembershipPool`].
///
/// Two ids issued by the *same* pool are equal iff the vectors they
/// name have identical members. Ids from different pools are unrelated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MembershipId(pub(crate) u32);

impl MembershipId {
    /// The raw pool slot.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing pool of membership [`BitSet`]s.
///
/// # Examples
///
/// ```
/// use pubsub_core::{BitSet, MembershipPool};
///
/// let mut pool = MembershipPool::new(100);
/// let a = pool.intern(BitSet::from_members(100, [1, 2]));
/// let b = pool.intern(BitSet::from_members(100, [2, 1]));
/// let c = pool.intern(BitSet::from_members(100, [3]));
/// assert_eq!(a, b); // same members → same id
/// assert_ne!(a, c);
/// assert_eq!(pool.get(c), &BitSet::from_members(100, [3]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MembershipPool {
    universe: usize,
    sets: Vec<BitSet>,
    /// Content hash → pool slots with that hash.
    index: HashMap<u64, Vec<u32>>,
}

/// FNV-1a over the non-zero prefix of the packed words. Trailing zero
/// words are excluded so the hash survives [`MembershipPool::grow`].
fn content_hash(words: &[u64]) -> u64 {
    let n = words.iter().rposition(|&w| w != 0).map_or(0, |p| p + 1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in &words[..n] {
        h ^= w;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl MembershipPool {
    /// An empty pool whose sets range over `0..universe`.
    pub fn new(universe: usize) -> Self {
        MembershipPool {
            universe,
            sets: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The subscriber universe all interned sets share.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of distinct vectors interned.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no vector has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Interns `set`, returning the id of the unique pool entry with the
    /// same members. The pool takes ownership; an already-known vector
    /// is dropped and its existing id returned.
    ///
    /// # Panics
    ///
    /// Panics if `set`'s universe differs from the pool's.
    pub fn intern(&mut self, set: BitSet) -> MembershipId {
        assert_eq!(
            set.universe(),
            self.universe,
            "pool universe mismatch (grow the pool first)"
        );
        let h = content_hash(set.words());
        let slots = self.index.entry(h).or_default();
        for &s in slots.iter() {
            if self.sets[s as usize] == set {
                return MembershipId(s);
            }
        }
        let id = u32::try_from(self.sets.len()).expect("pool overflow");
        slots.push(id);
        self.sets.push(set);
        MembershipId(id)
    }

    /// The interned vector behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this pool.
    pub fn get(&self, id: MembershipId) -> &BitSet {
        &self.sets[id.index()]
    }

    /// Extends every interned set's universe to `new_universe` (new
    /// indices absent). Ids and hashes remain valid: the members are
    /// untouched.
    pub fn grow(&mut self, new_universe: usize) {
        if new_universe <= self.universe {
            return;
        }
        self.universe = new_universe;
        for s in &mut self.sets {
            s.grow(new_universe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_content_addressed() {
        let mut pool = MembershipPool::new(200);
        let a = pool.intern(BitSet::from_members(200, [0, 64, 199]));
        let b = pool.intern(BitSet::from_members(200, [199, 0, 64]));
        let c = pool.intern(BitSet::from_members(200, [0, 64]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(a), &BitSet::from_members(200, [0, 64, 199]));
        assert_eq!(a.index(), 0);
    }

    #[test]
    fn ids_survive_universe_growth() {
        let mut pool = MembershipPool::new(70);
        let a = pool.intern(BitSet::from_members(70, [3, 69]));
        pool.grow(500);
        assert_eq!(pool.universe(), 500);
        // The same members at the new universe re-resolve to the old id.
        let again = pool.intern(BitSet::from_members(500, [3, 69]));
        assert_eq!(a, again);
        assert_eq!(pool.get(a).universe(), 500);
    }

    #[test]
    #[should_panic(expected = "pool universe mismatch")]
    fn intern_rejects_wrong_universe() {
        let mut pool = MembershipPool::new(10);
        pool.intern(BitSet::new(11));
    }
}
