//! Compressed sparse row storage.

use crate::{ColIndex, Coo, SparseError};
use rt_f16::DoseScalar;

/// A CSR matrix with value type `V` and column index type `I`.
///
/// `row_ptr` is stored as `u32`, matching the paper's traffic model (the
/// `12 * nr` term in the operational-intensity bound counts 4 bytes of
/// row-pointer per row). This caps the representable `nnz` at `u32::MAX`
/// (~4.3e9), which covers every matrix in Table I.
///
/// Invariants (checked by [`Csr::try_new`], preserved by constructors):
/// * `row_ptr.len() == nrows + 1`, non-decreasing, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == nnz`.
/// * `values.len() == col_idx.len() == nnz`.
/// * Column indices within each row are strictly increasing and `< ncols`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<V, I = u32> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<I>,
    values: Vec<V>,
}

impl<V: DoseScalar, I: ColIndex> Csr<V, I> {
    /// Builds a CSR matrix after validating every structural invariant.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<I>,
        values: Vec<V>,
    ) -> Result<Self, SparseError> {
        I::check_ncols(ncols)?;
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::RowPtrLength {
                expected: nrows + 1,
                actual: row_ptr.len(),
            });
        }
        if values.len() != col_idx.len() {
            return Err(SparseError::LengthMismatch {
                values: values.len(),
                indices: col_idx.len(),
            });
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::RowPtrNotMonotonic { row: 0 });
        }
        for r in 0..nrows {
            if row_ptr[r + 1] < row_ptr[r] {
                return Err(SparseError::RowPtrNotMonotonic { row: r });
            }
        }
        if row_ptr[nrows] as usize != values.len() {
            return Err(SparseError::RowPtrTailMismatch {
                tail: row_ptr[nrows] as usize,
                nnz: values.len(),
            });
        }
        for r in 0..nrows {
            let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            let mut prev: Option<usize> = None;
            for &c in &col_idx[lo..hi] {
                let c = c.to_usize();
                if c >= ncols {
                    return Err(SparseError::ColumnOutOfBounds {
                        row: r,
                        col: c,
                        ncols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::ColumnsNotSorted { row: r });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds from per-row `(column, value)` lists. Each row's entries must
    /// be strictly increasing in column.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, V)>]) -> Result<Self, SparseError> {
        let nrows = rows.len();
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0u32);
        for row in rows {
            for &(c, v) in row {
                let idx = I::try_from_usize(c)
                    .ok_or(SparseError::IndexOverflow { ncols, max: I::MAX })?;
                col_idx.push(idx);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr::try_new(nrows, ncols, row_ptr, col_idx, values)
    }

    /// Builds from unsorted triplets; duplicates are summed in `f64`.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, V)],
    ) -> Result<Self, SparseError> {
        Coo::from_triplets(nrows, ncols, triplets.to_vec())?.to_csr()
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are stored, `nnz / (nrows * ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
        }
    }

    #[inline]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    #[inline]
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The `(column indices, values)` slices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[I], &[V]) {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Iterates `(row, col, value)` over stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, V)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| (r, c.to_usize(), v))
        })
    }

    /// Exact size of the stored arrays in bytes: `V::BYTES * nnz` values,
    /// `I::BYTES * nnz` column indices, `4 * (nrows + 1)` row pointers.
    /// This is the "size (GB)" column of Table I.
    pub fn size_bytes(&self) -> usize {
        V::BYTES * self.nnz() + I::BYTES * self.nnz() + 4 * (self.nrows + 1)
    }

    /// Sequential reference SpMV: `y = A x`, accumulating each row's dot
    /// product in `f64` in ascending column order. This is the ground truth
    /// the kernel tests compare against; it is bitwise deterministic.
    #[allow(clippy::needless_range_loop)] // row index drives three arrays
    pub fn spmv_ref(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                actual: x.len(),
            });
        }
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                actual: y.len(),
            });
        }
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0f64;
            for (c, v) in cols.iter().zip(vals.iter()) {
                acc += v.to_f64() * x[c.to_usize()];
            }
            y[r] = acc;
        }
        Ok(())
    }

    /// Transpose-SpMV: `z = A^T y` (needed by the optimizer's gradient).
    /// Deterministic: scatters rows in order.
    #[allow(clippy::needless_range_loop)] // row index drives three arrays
    pub fn spmv_transpose_ref(&self, y: &[f64], z: &mut [f64]) -> Result<(), SparseError> {
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                actual: y.len(),
            });
        }
        if z.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                actual: z.len(),
            });
        }
        z.fill(0.0);
        for r in 0..self.nrows {
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals.iter()) {
                z[c.to_usize()] += v.to_f64() * yr;
            }
        }
        Ok(())
    }

    /// Returns the explicit transpose as a new CSR matrix.
    pub fn transpose(&self) -> Csr<V, u32> {
        // Counting sort by column.
        let mut counts = vec![0u32; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c.to_usize() + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr_t = counts.clone();
        let mut col_idx_t = vec![0u32; self.nnz()];
        let mut values_t = vec![V::zero(); self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals.iter()) {
                let c = c.to_usize();
                let dst = cursor[c] as usize;
                col_idx_t[dst] = r as u32;
                values_t[dst] = *v;
                cursor[c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: row_ptr_t,
            col_idx: col_idx_t,
            values: values_t,
        }
    }

    /// Converts the stored values to another scalar type (e.g. `f64` master
    /// data down to `F16` for the Half/Double kernel), rounding once.
    pub fn convert_values<W: DoseScalar>(&self) -> Csr<W, I> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self
                .values
                .iter()
                .map(|v| W::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// Converts the column index type, failing if any index does not fit
    /// (the liver cases' ~68000 columns overflow `u16`, as the paper notes).
    pub fn convert_indices<J: ColIndex>(&self) -> Result<Csr<V, J>, SparseError> {
        J::check_ncols(self.ncols)?;
        let col_idx = self
            .col_idx
            .iter()
            .map(|c| {
                J::try_from_usize(c.to_usize()).ok_or(SparseError::IndexOverflow {
                    ncols: self.ncols,
                    max: J::MAX,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx,
            values: self.values.clone(),
        })
    }

    /// Converts to coordinate form.
    pub fn to_coo(&self) -> Coo<V> {
        Coo::from_sorted_triplets(self.nrows, self.ncols, self.iter().collect::<Vec<_>>())
    }

    /// Removes stored entries with `|value| < threshold`, returning the new
    /// matrix. Monte Carlo dose engines use this to strip numerical noise.
    pub fn prune(&self, threshold: f64) -> Csr<V, I> {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals.iter()) {
                if v.to_f64().abs() >= threshold {
                    col_idx.push(*c);
                    values.push(*v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_f16::F16;

    fn small() -> Csr<f64, u32> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        // [ 0 5 6 ]
        Csr::from_rows(
            3,
            &[
                vec![(0, 1.0), (2, 2.0)],
                vec![],
                vec![(0, 3.0), (1, 4.0)],
                vec![(1, 5.0), (2, 6.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let m = small();
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.row(2).1, &[3.0, 4.0]);
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spmv_reference() {
        let m = small();
        let x = [1.0, 10.0, 100.0];
        let mut y = [0.0; 4];
        m.spmv_ref(&x, &mut y).unwrap();
        assert_eq!(y, [201.0, 0.0, 43.0, 650.0]);
    }

    #[test]
    fn spmv_dimension_errors() {
        let m = small();
        let mut y = [0.0; 4];
        assert!(m.spmv_ref(&[1.0, 2.0], &mut y).is_err());
        let x = [1.0, 2.0, 3.0];
        assert!(m.spmv_ref(&x, &mut [0.0; 3]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 4);
        assert_eq!(t.nnz(), 6);
        let tt = t.transpose();
        for (a, b) in m.iter().zip(tt.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn transpose_spmv_matches_explicit_transpose() {
        let m = small();
        let y = [1.0, 2.0, 3.0, 4.0];
        let mut z1 = [0.0; 3];
        m.spmv_transpose_ref(&y, &mut z1).unwrap();
        let t = m.transpose();
        let mut z2 = [0.0; 3];
        t.spmv_ref(&y, &mut z2).unwrap();
        assert_eq!(z1, z2);
    }

    #[test]
    fn validation_rejects_bad_structures() {
        // Wrong row_ptr length.
        assert!(matches!(
            Csr::<f64, u32>::try_new(2, 2, vec![0, 1], vec![0u32], vec![1.0]),
            Err(SparseError::RowPtrLength { .. })
        ));
        // Decreasing row_ptr.
        assert!(matches!(
            Csr::<f64, u32>::try_new(2, 2, vec![0, 1, 0], vec![0u32], vec![1.0]),
            Err(SparseError::RowPtrNotMonotonic { .. })
        ));
        // Tail mismatch.
        assert!(matches!(
            Csr::<f64, u32>::try_new(1, 2, vec![0, 2], vec![0u32], vec![1.0]),
            Err(SparseError::LengthMismatch { .. }) | Err(SparseError::RowPtrTailMismatch { .. })
        ));
        // Column out of bounds.
        assert!(matches!(
            Csr::<f64, u32>::try_new(1, 2, vec![0, 1], vec![5u32], vec![1.0]),
            Err(SparseError::ColumnOutOfBounds { .. })
        ));
        // Unsorted columns.
        assert!(matches!(
            Csr::<f64, u32>::try_new(1, 3, vec![0, 2], vec![2u32, 1], vec![1.0, 2.0]),
            Err(SparseError::ColumnsNotSorted { .. })
        ));
        // Duplicate columns.
        assert!(matches!(
            Csr::<f64, u32>::try_new(1, 3, vec![0, 2], vec![1u32, 1], vec![1.0, 2.0]),
            Err(SparseError::ColumnsNotSorted { .. })
        ));
    }

    #[test]
    fn index_conversion() {
        let m = small();
        let m16: Csr<f64, u16> = m.convert_indices().unwrap();
        assert_eq!(m16.nnz(), m.nnz());
        let x = [1.0, 10.0, 100.0];
        let mut y1 = [0.0; 4];
        let mut y2 = [0.0; 4];
        m.spmv_ref(&x, &mut y1).unwrap();
        m16.spmv_ref(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);

        // u16 overflow is rejected.
        let wide = Csr::<f64, u32>::from_rows(70_000, &[vec![(69_999, 1.0)]]).unwrap();
        assert!(wide.convert_indices::<u16>().is_err());
    }

    #[test]
    fn value_conversion_rounds_once() {
        let m =
            Csr::<f64, u32>::from_rows(1, &[vec![(0, 1.0 + 2.0f64.powi(-11) + 2.0f64.powi(-25))]])
                .unwrap();
        let h: Csr<F16, u32> = m.convert_values();
        // Single-step rounding: see rt-f16's double-rounding test.
        assert_eq!(h.values()[0].to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn size_bytes_accounting() {
        let m = small();
        let h: Csr<F16, u32> = m.convert_values();
        // 6 nnz * (2 + 4) + 5 * 4 row ptr entries.
        assert_eq!(h.size_bytes(), 6 * 6 + 5 * 4);
        let h16: Csr<F16, u16> = h.convert_indices().unwrap();
        assert_eq!(h16.size_bytes(), 6 * 4 + 5 * 4);
    }

    #[test]
    fn prune_strips_small_values() {
        let m = small();
        let p = m.prune(3.5);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.nrows(), m.nrows());
        let x = [1.0, 1.0, 1.0];
        let mut y = [0.0; 4];
        p.spmv_ref(&x, &mut y).unwrap();
        assert_eq!(y, [0.0, 0.0, 4.0, 11.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::<f64, u32>::from_rows(0, &[]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        let mut y: [f64; 0] = [];
        m.spmv_ref(&[], &mut y).unwrap();
    }

    #[test]
    fn triplets_sum_duplicates() {
        let m =
            Csr::<f64, u32>::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0), (0, 1, 4.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[1u32]);
        assert_eq!(vals, &[6.0]);
    }
}
