//! ELLPACK storage.
//!
//! ELLPACK pads every row to the length of the longest row and stores the
//! result column-major, so that consecutive SIMT lanes (one lane per row)
//! read consecutive addresses. The paper lists it as a candidate future
//! format (§II-C); the format ablation shows why it fails for dose
//! deposition matrices: with 70% empty rows and maximum row lengths in the
//! tens of thousands against an average in the hundreds, the padding factor
//! is catastrophic. [`Ell::padding_factor`] quantifies it.

use crate::{ColIndex, Csr, SparseError};
use rt_f16::DoseScalar;

/// An ELLPACK matrix: `nrows x width` dense slabs, column-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Ell<V, I = u32> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Maximum stored row length; the padded width of the slabs.
    width: usize,
    /// `width * nrows` column indices, column-major (slot-major): entry for
    /// row `r`, slot `s` lives at `s * nrows + r`. Padding slots repeat the
    /// row's last valid index (or 0 for empty rows) with a zero value.
    col_idx: Vec<I>,
    values: Vec<V>,
}

impl<V: DoseScalar, I: ColIndex> Ell<V, I> {
    /// Converts from CSR, padding every row to the maximum row length.
    pub fn from_csr(csr: &Csr<V, I>) -> Self {
        let nrows = csr.nrows();
        let width = (0..nrows).map(|r| csr.row_len(r)).max().unwrap_or(0);
        let mut col_idx = vec![I::try_from_usize(0).unwrap(); width * nrows];
        let mut values = vec![V::zero(); width * nrows];
        for r in 0..nrows {
            let (cols, vals) = csr.row(r);
            let mut last = I::try_from_usize(0).unwrap();
            for s in 0..width {
                let slot = s * nrows + r;
                if s < cols.len() {
                    col_idx[slot] = cols[s];
                    values[slot] = vals[s];
                    last = cols[s];
                } else {
                    // Padding: repeat a valid index with a zero value so
                    // kernels can run branch-free.
                    col_idx[slot] = last;
                    values[slot] = V::zero();
                }
            }
        }
        Ell {
            nrows,
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            width,
            col_idx,
            values,
        }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored (unpadded) non-zero count.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The padded row width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Ratio of stored slots (including padding) to actual non-zeros.
    /// 1.0 means no waste; dose deposition matrices typically land in the
    /// tens to hundreds.
    pub fn padding_factor(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            (self.width * self.nrows) as f64 / self.nnz as f64
        }
    }

    /// Bytes of the padded slabs.
    pub fn size_bytes(&self) -> usize {
        self.width * self.nrows * (V::BYTES + I::BYTES)
    }

    /// Sequential reference SpMV over the padded layout.
    #[allow(clippy::needless_range_loop)] // slab addressing is index math
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
            let mut acc = 0.0f64;
            for s in 0..self.width {
                let slot = s * self.nrows + r;
                acc += self.values[slot].to_f64() * x[self.col_idx[slot].to_usize()];
            }
            y[r] = acc;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr() -> Csr<f64, u32> {
        Csr::from_rows(
            4,
            &[
                vec![(0, 1.0), (2, 2.0), (3, 3.0)],
                vec![],
                vec![(1, 4.0)],
                vec![(0, 5.0), (3, 6.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_csr_spmv() {
        let c = csr();
        let e = Ell::from_csr(&c);
        assert_eq!(e.width(), 3);
        assert_eq!(e.nnz(), 6);
        let x = [1.0, 10.0, 100.0, 1000.0];
        let mut y1 = [0.0; 4];
        let mut y2 = [0.0; 4];
        c.spmv_ref(&x, &mut y1).unwrap();
        e.spmv_ref(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn padding_factor() {
        let e = Ell::from_csr(&csr());
        // 3 slots * 4 rows / 6 nnz = 2.0
        assert!((e.padding_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let c = Csr::<f64, u32>::from_rows(3, &[vec![], vec![], vec![]]).unwrap();
        let e = Ell::from_csr(&c);
        assert_eq!(e.width(), 0);
        assert_eq!(e.size_bytes(), 0);
        assert_eq!(e.padding_factor(), 1.0);
        let mut y = [1.0; 3];
        e.spmv_ref(&[0.0; 3], &mut y).unwrap();
        assert_eq!(y, [0.0; 3]);
    }

    #[test]
    fn size_grows_with_worst_row() {
        // One long row blows up the whole slab — the failure mode for
        // dose matrices.
        let mut rows = vec![vec![]; 100];
        rows[0] = (0..50).map(|c| (c, 1.0)).collect();
        let c = Csr::<f64, u32>::from_rows(50, &rows).unwrap();
        let e = Ell::from_csr(&c);
        assert_eq!(e.width(), 50);
        assert!(e.padding_factor() >= 100.0);
    }
}
