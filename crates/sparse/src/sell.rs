//! SELL-C-σ storage (Kreutzer, Hager, Wellein, Fehske, Bishop 2014).
//!
//! The paper cites SELL-C-σ as the serious future-work alternative to CSR
//! (§II-C). The format chops rows into chunks of `C` (one SIMD/SIMT slice),
//! pads only within a chunk, and sorts rows by length inside windows of
//! `σ` rows before chunking so that similar-length rows share a chunk —
//! recovering ELLPACK's coalescing without its global padding blow-up.
//! A permutation array maps sorted positions back to original rows.

use crate::{ColIndex, Csr, SparseError};
use rt_f16::DoseScalar;

/// A SELL-C-σ matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SellCSigma<V, I = u32> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    chunk: usize,
    sigma: usize,
    /// Start offset of each chunk in `values` / `col_idx`.
    chunk_ptr: Vec<usize>,
    /// Padded width of each chunk.
    chunk_width: Vec<usize>,
    /// `perm[sorted_pos] = original_row`.
    perm: Vec<u32>,
    /// Chunk-local column-major slabs: entry for lane `l`, slot `s` of
    /// chunk `k` lives at `chunk_ptr[k] + s * chunk + l`.
    col_idx: Vec<I>,
    values: Vec<V>,
}

impl<V: DoseScalar, I: ColIndex> SellCSigma<V, I> {
    /// Converts from CSR with chunk size `chunk` (C) and sorting window
    /// `sigma` (σ, rounded up to a multiple of `chunk`; `sigma = 1`
    /// disables sorting).
    pub fn from_csr(csr: &Csr<V, I>, chunk: usize, sigma: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        let nrows = csr.nrows();
        let sigma = sigma.max(1);

        // Sort rows by descending length within each sigma-window.
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| core::cmp::Reverse(csr.row_len(r as usize)));
        }

        let nchunks = nrows.div_ceil(chunk);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        let mut chunk_width = Vec::with_capacity(nchunks);
        chunk_ptr.push(0usize);
        for k in 0..nchunks {
            let lanes = &perm[k * chunk..((k + 1) * chunk).min(nrows)];
            let width = lanes
                .iter()
                .map(|&r| csr.row_len(r as usize))
                .max()
                .unwrap_or(0);
            chunk_width.push(width);
            chunk_ptr.push(chunk_ptr[k] + width * chunk);
        }

        let total = chunk_ptr[nchunks];
        let zero_idx = I::try_from_usize(0).unwrap();
        let mut col_idx = vec![zero_idx; total];
        let mut values = vec![V::zero(); total];
        for k in 0..nchunks {
            let base = chunk_ptr[k];
            let width = chunk_width[k];
            for l in 0..chunk {
                let pos = k * chunk + l;
                if pos >= nrows {
                    continue; // tail lanes of the last chunk stay zero
                }
                let row = perm[pos] as usize;
                let (cols, vals) = csr.row(row);
                let mut last = zero_idx;
                for s in 0..width {
                    let slot = base + s * chunk + l;
                    if s < cols.len() {
                        col_idx[slot] = cols[s];
                        values[slot] = vals[s];
                        last = cols[s];
                    } else {
                        col_idx[slot] = last;
                    }
                }
            }
        }

        SellCSigma {
            nrows,
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            chunk,
            sigma,
            chunk_ptr,
            chunk_width,
            perm,
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

    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    #[inline]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    #[inline]
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Chunk start offsets into the slabs (one per chunk, plus the end).
    #[inline]
    pub fn chunk_ptrs(&self) -> &[usize] {
        &self.chunk_ptr
    }

    /// Padded width of each chunk.
    #[inline]
    pub fn chunk_widths(&self) -> &[usize] {
        &self.chunk_width
    }

    /// The column-index slab (chunk-local column-major layout).
    #[inline]
    pub fn col_idx_slab(&self) -> &[I] {
        &self.col_idx
    }

    /// The value slab (chunk-local column-major layout).
    #[inline]
    pub fn values_slab(&self) -> &[V] {
        &self.values
    }

    /// Total slots in the slabs (non-zeros plus padding).
    #[inline]
    pub fn padded_slots(&self) -> usize {
        self.values.len()
    }

    /// Ratio of stored slots (including padding) to non-zeros.
    pub fn padding_factor(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.values.len() as f64 / self.nnz as f64
        }
    }

    /// Bytes: slabs + chunk metadata + permutation.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * (V::BYTES + I::BYTES)
            + self.chunk_ptr.len() * 8
            + self.chunk_width.len() * 4
            + self.perm.len() * 4
    }

    /// Sequential reference SpMV. Output lands in *original* row order.
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
        let nchunks = self.chunk_width.len();
        for k in 0..nchunks {
            let base = self.chunk_ptr[k];
            let width = self.chunk_width[k];
            for l in 0..self.chunk {
                let pos = k * self.chunk + l;
                if pos >= self.nrows {
                    continue;
                }
                let mut acc = 0.0f64;
                for s in 0..width {
                    let slot = base + s * self.chunk + l;
                    acc += self.values[slot].to_f64() * x[self.col_idx[slot].to_usize()];
                }
                y[self.perm[pos] as usize] = acc;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_csr() -> Csr<f64, u32> {
        // Row lengths 5, 0, 1, 0, 3, 2, 0, 4 — the kind of irregularity
        // sigma-sorting is for.
        let rows: Vec<Vec<(usize, f64)>> = vec![
            (0..5).map(|c| (c, (c + 1) as f64)).collect(),
            vec![],
            vec![(3, 7.0)],
            vec![],
            (1..4).map(|c| (c, c as f64 * 0.5)).collect(),
            vec![(0, 1.0), (5, 2.0)],
            vec![],
            (2..6).map(|c| (c, 1.0)).collect(),
        ];
        Csr::from_rows(6, &rows).unwrap()
    }

    #[test]
    fn matches_csr_spmv_various_configs() {
        let c = skewed_csr();
        let x: Vec<f64> = (0..6).map(|i| (i + 1) as f64).collect();
        let mut want = vec![0.0; 8];
        c.spmv_ref(&x, &mut want).unwrap();
        for (chunk, sigma) in [(1, 1), (2, 1), (2, 4), (4, 8), (8, 8), (32, 64)] {
            let s = SellCSigma::from_csr(&c, chunk, sigma);
            let mut got = vec![0.0; 8];
            s.spmv_ref(&x, &mut got).unwrap();
            assert_eq!(got, want, "C={chunk} sigma={sigma}");
        }
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        let c = skewed_csr();
        let unsorted = SellCSigma::from_csr(&c, 4, 1);
        let sorted = SellCSigma::from_csr(&c, 4, 8);
        assert!(
            sorted.padding_factor() <= unsorted.padding_factor(),
            "sorting should not increase padding: {} vs {}",
            sorted.padding_factor(),
            unsorted.padding_factor()
        );
    }

    #[test]
    fn perm_is_a_permutation() {
        let c = skewed_csr();
        let s = SellCSigma::from_csr(&c, 4, 8);
        let mut seen = [false; 8];
        for &p in s.perm() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn chunk_equal_nrows_is_ellpack_like() {
        let c = skewed_csr();
        let s = SellCSigma::from_csr(&c, 8, 1);
        // Single chunk padded to the global max width of 5.
        assert_eq!(s.chunk_width, vec![5]);
    }

    #[test]
    fn empty_matrix() {
        let c = Csr::<f64, u32>::from_rows(0, &[]).unwrap();
        let s = SellCSigma::from_csr(&c, 4, 4);
        assert_eq!(s.nnz(), 0);
        let mut y: [f64; 0] = [];
        s.spmv_ref(&[], &mut y).unwrap();
    }
}
