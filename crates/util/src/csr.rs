//! Compressed rows: `(row, item)` pairs grouped by a dense row key with a
//! counting sort, in O(rows + pairs) and without hashing.
//!
//! Row `k` keeps its items in the order the pairs gave them. The same
//! table serves as a graph's adjacency (row = source event) and as a
//! per-value writer list (row = value id). [`Csr::fill`] regroups in place,
//! so a caller that keeps one table per thread allocates only when an
//! input outgrows it.

/// Items grouped by row: row `k` is `items[start[k]..start[k + 1]]`.
///
/// ```
/// use vermem_util::csr::Csr;
/// let rows = Csr::new(3, [(2, 10), (0, 11), (2, 12)].into_iter());
/// assert_eq!(rows.row(0), &[11]);
/// assert!(rows.row(1).is_empty());
/// assert_eq!(rows.row(2), &[10, 12]);
/// assert_eq!(rows.items(), &[11, 10, 12]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// `pairs`, as `(row, item)` with rows below `rows`, grouped by row.
    pub fn new(rows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut csr = Csr::default();
        csr.fill(rows, pairs);
        csr
    }

    /// Regroup to `pairs`, as [`Csr::new`] would, reusing the allocation.
    pub fn fill(&mut self, rows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) {
        let start = &mut self.start;
        start.clear();
        start.resize(rows + 1, 0);
        for (k, _) in pairs.clone() {
            start[k as usize + 1] += 1;
        }
        for k in 0..rows {
            start[k + 1] += start[k];
        }
        self.items.clear();
        self.items.resize(start[rows] as usize, 0);
        // Place each item at its row's cursor, `start[k]`; the cursors end
        // one row ahead, so shift them back.
        for (k, v) in pairs {
            self.items[start[k as usize] as usize] = v;
            start[k as usize] += 1;
        }
        start.copy_within(..rows, 1);
        start[0] = 0;
    }

    /// The items of row `k`.
    #[inline]
    pub fn row(&self, k: u32) -> &[u32] {
        &self.items[self.start[k as usize] as usize..self.start[k as usize + 1] as usize]
    }

    /// Every item, row by row.
    pub fn items(&self) -> &[u32] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_matches_a_fresh_table() {
        let mut reused = Csr::new(5, [(4, 1), (4, 2), (0, 3)].into_iter());
        let pairs = [(1, 7), (0, 8), (1, 9)];
        reused.fill(2, pairs.into_iter());
        assert_eq!(reused, Csr::new(2, pairs.into_iter()));
        assert_eq!((reused.row(0), reused.row(1)), (&[8][..], &[7, 9][..]));
        reused.fill(0, std::iter::empty());
        assert!(reused.items().is_empty());
    }
}
