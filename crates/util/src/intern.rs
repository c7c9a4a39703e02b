//! Slice interning: map each distinct slice to a dense `u32` id.
//!
//! The exact-search kernel (`vermem_coherence::kernel`), which runs VMC's
//! exact search and every compiled memory-model machine, probes its
//! visited-state set once per explored state. When the state key does not fit in a couple of
//! machine words, the cheap alternative to hashing a freshly allocated
//! `Vec` per probe is to *intern* the key: box each distinct slice once,
//! hand out a dense id, and let re-probes hash only the id. The interner
//! is deliberately exact — keys are compared by full slice equality, never
//! by hash alone — because a colliding "already visited" answer would make
//! a search unsound.
//!
//! Allocation accounting is first-class ([`SliceInterner::allocations`]):
//! the kernel reports it as the `kernel.memo.key_allocs` obs counter.

use crate::hash::FxHashMap;
use std::hash::Hash;

/// Interns boxed slices, assigning dense `u32` ids in first-seen order.
///
/// ```
/// use vermem_util::intern::SliceInterner;
/// let mut i = SliceInterner::new();
/// assert_eq!(i.intern(&[1u64, 2, 3]), (0, true)); // first sight
/// assert_eq!(i.intern(&[1u64, 2, 3]), (0, false)); // re-probe: no alloc
/// assert_eq!(i.intern(&[9u64]), (1, true));
/// assert_eq!(i.len(), 2);
/// assert_eq!(i.allocations(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SliceInterner<T> {
    ids: FxHashMap<Box<[T]>, u32>,
}

impl<T: Hash + Eq + Clone> SliceInterner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        SliceInterner {
            ids: FxHashMap::default(),
        }
    }

    /// Return the id of `key`, interning it on first sight. The second
    /// component is `true` iff the key was fresh (this call allocated).
    pub fn intern(&mut self, key: &[T]) -> (u32, bool) {
        debug_assert!(self.ids.len() < u32::MAX as usize, "interner id overflow");
        if let Some(&id) = self.ids.get(key) {
            return (id, false);
        }
        let id = self.ids.len() as u32;
        self.ids.insert(key.to_vec().into_boxed_slice(), id);
        (id, true)
    }

    /// The id of `key` if it was interned before, without interning it.
    pub fn get(&self, key: &[T]) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// Number of distinct interned slices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of heap allocations performed since the interner was made or
    /// last cleared: exactly one boxed slice per distinct key (re-probes
    /// allocate nothing).
    pub fn allocations(&self) -> u64 {
        self.ids.len() as u64
    }

    /// Forget every slice (ids restart at 0), keeping the map's storage.
    pub fn clear(&mut self) {
        self.ids.clear();
    }

    /// Slices the map holds room for without growing.
    pub fn capacity(&self) -> usize {
        self.ids.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut i = SliceInterner::new();
        assert_eq!(i.intern(&[3u32, 1]), (0, true));
        assert_eq!(i.intern(&[2u32]), (1, true));
        assert_eq!(i.intern(&[]), (2, true));
        assert_eq!(i.intern(&[3u32, 1]), (0, false));
        assert_eq!(i.intern(&[2u32]), (1, false));
        assert_eq!(i.intern(&[]), (2, false));
        assert_eq!(i.len(), 3);
        assert_eq!(i.allocations(), 3);
    }

    #[test]
    fn equality_is_exact_not_hashed() {
        // Prefix/suffix confusions must not collide.
        let mut i = SliceInterner::new();
        let (a, _) = i.intern(&[1u64, 2]);
        let (b, _) = i.intern(&[1u64, 2, 0]);
        let (c, _) = i.intern(&[0u64, 1, 2]);
        assert!(a != b && b != c && a != c);
        assert_eq!(i.get(&[1u64, 2]), Some(a));
        assert_eq!(i.get(&[1u64]), None);
    }

    #[test]
    fn clear_restarts_ids_and_allocation_count() {
        let mut i = SliceInterner::new();
        for k in 0..10u64 {
            i.intern(&[k, k]);
        }
        let room = i.capacity();
        i.clear();
        assert!(i.is_empty());
        assert_eq!((i.allocations(), i.capacity()), (0, room));
        assert_eq!(i.intern(&[7u64, 7]), (0, true));
        assert_eq!(i.allocations(), 1);
    }

    #[test]
    fn reprobe_never_allocates() {
        let mut i = SliceInterner::new();
        for round in 0..3u64 {
            for k in 0..10u64 {
                i.intern(&[k, k * k]);
            }
            assert_eq!(i.allocations(), 10, "round {round}");
        }
    }
}
