//! Coordinate (triplet) storage — the assembly format.
//!
//! The Monte Carlo dose engine deposits energy voxel-by-voxel along particle
//! tracks, which naturally produces unsorted `(row, col, value)` triplets
//! with duplicates; `Coo` collects them and [`Coo::to_csr`] sorts, merges
//! and validates.

use crate::{Csr, SparseError};
use rt_f16::DoseScalar;

/// A sparse matrix as a list of `(row, col, value)` triplets.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<V> {
    nrows: usize,
    ncols: usize,
    triplets: Vec<(usize, usize, V)>,
}

impl<V: DoseScalar> Coo<V> {
    /// Creates an empty matrix with the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            triplets: Vec::new(),
        }
    }

    /// Wraps triplets after bounds-checking them. Order is arbitrary and
    /// duplicates are allowed (they sum on conversion).
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: Vec<(usize, usize, V)>,
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in &triplets {
            if r >= nrows {
                return Err(SparseError::RowOutOfBounds { row: r, nrows });
            }
            if c >= ncols {
                return Err(SparseError::ColumnOutOfBounds {
                    row: r,
                    col: c,
                    ncols,
                });
            }
        }
        Ok(Coo {
            nrows,
            ncols,
            triplets,
        })
    }

    /// Wraps triplets known to be sorted, in-bounds and duplicate-free
    /// (e.g. produced by [`Csr::iter`]). Debug builds re-check.
    pub fn from_sorted_triplets(
        nrows: usize,
        ncols: usize,
        triplets: Vec<(usize, usize, V)>,
    ) -> Self {
        debug_assert!(triplets
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        debug_assert!(triplets.iter().all(|&(r, c, _)| r < nrows && c < ncols));
        Coo {
            nrows,
            ncols,
            triplets,
        }
    }

    /// Appends one entry. Panics on out-of-bounds coordinates.
    pub fn push(&mut self, row: usize, col: usize, value: V) {
        assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        assert!(col < self.ncols, "col {col} out of bounds ({})", self.ncols);
        self.triplets.push((row, col, value));
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (before duplicate merging).
    #[inline]
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    #[inline]
    pub fn triplets(&self) -> &[(usize, usize, V)] {
        &self.triplets
    }

    /// Storage cost of the raw triplets: value + two 4-byte coordinates.
    pub fn size_bytes(&self) -> usize {
        self.triplets.len() * (V::BYTES + 8)
    }

    /// Sorts row-major, merges duplicates by summing in `f64`, and builds a
    /// validated CSR matrix. Deterministic: the merge order is the sorted
    /// order, not insertion order.
    pub fn to_csr<I: crate::ColIndex>(&self) -> Result<Csr<V, I>, SparseError> {
        let mut sorted = self.triplets.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        // Merge duplicates into (row, col, value) runs.
        let mut rows: Vec<usize> = Vec::with_capacity(sorted.len());
        let mut col_idx: Vec<I> = Vec::with_capacity(sorted.len());
        let mut values: Vec<V> = Vec::with_capacity(sorted.len());
        let mut i = 0usize;
        while i < sorted.len() {
            let (r, c, _) = sorted[i];
            let mut acc = 0.0f64;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                acc += sorted[i].2.to_f64();
                i += 1;
            }
            rows.push(r);
            col_idx.push(I::try_from_usize(c).ok_or(SparseError::IndexOverflow {
                ncols: self.ncols,
                max: I::MAX,
            })?);
            values.push(V::from_f64(acc));
        }

        // Counting pass for the row pointers.
        let mut row_ptr = vec![0u32; self.nrows + 1];
        for &r in &rows {
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Csr::try_new(self.nrows, self.ncols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_convert() {
        let mut coo = Coo::<f64>::new(3, 3);
        coo.push(2, 1, 5.0);
        coo.push(0, 0, 1.0);
        coo.push(2, 1, 2.0); // duplicate, sums to 7
        coo.push(0, 2, 3.0);
        let csr: Csr<f64, u32> = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row(0).1, &[1.0, 3.0]);
        assert_eq!(csr.row(1).1, &[] as &[f64]);
        assert_eq!(csr.row(2).1, &[7.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_rejects_out_of_bounds() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn from_triplets_validates() {
        assert!(Coo::from_triplets(2, 2, vec![(0, 5, 1.0)]).is_err());
        assert!(Coo::from_triplets(2, 2, vec![(5, 0, 1.0)]).is_err());
        assert!(Coo::from_triplets(2, 2, vec![(1, 1, 1.0)]).is_ok());
    }

    #[test]
    fn empty_and_trailing_rows() {
        let coo = Coo::<f64>::from_triplets(5, 3, vec![(1, 0, 1.0)]).unwrap();
        let csr: Csr<f64, u32> = coo.to_csr().unwrap();
        assert_eq!(csr.row_ptr(), &[0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn fully_empty() {
        let coo = Coo::<f64>::new(4, 4);
        let csr: Csr<f64, u32> = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.row_ptr(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn csr_coo_roundtrip() {
        let csr =
            Csr::<f64, u32>::from_rows(3, &[vec![(0, 1.0)], vec![(1, 2.0), (2, 3.0)], vec![]])
                .unwrap();
        let back: Csr<f64, u32> = csr.to_coo().to_csr().unwrap();
        assert_eq!(csr, back);
    }

    #[test]
    fn size_bytes() {
        let coo = Coo::<f32>::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        assert_eq!(coo.size_bytes(), 2 * (4 + 8));
    }
}
