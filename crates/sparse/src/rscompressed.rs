//! A reconstruction of RayStation's proprietary compressed dose-matrix
//! format (see DESIGN.md for the substitution rationale).
//!
//! The paper tells us four things about the format: it is what the clinical
//! CPU implementation uses; entries are stored in 16 bits; it was designed
//! to minimize memory on CPUs; and the natural parallelization is over
//! *columns* (spots), which forces per-thread scratch dose arrays on the
//! CPU and atomics on the GPU. A column of a dose deposition matrix is the
//! dose of one pencil-beam spot: a connected "banana" of voxels along the
//! beam direction, which in flattened voxel order becomes a set of short
//! *runs* of consecutive row indices. Storing each column as run-length
//! segments `(start_row, consecutive values...)` compresses away the
//! per-entry row index — only one 4-byte start index and a 2-byte length
//! per run — which is exactly the kind of layout a memory-constrained CPU
//! code would pick, and exactly the layout that defeats row-parallel GPU
//! execution.

use crate::{Csr, SparseError};
use rt_f16::{DoseScalar, F16};

/// One run of consecutive-row entries within a column.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// First row (voxel) of the run.
    pub start_row: u32,
    /// Number of consecutive rows covered.
    pub len: u32,
    /// Offset of the run's first value in the flattened value array.
    pub value_offset: usize,
}

/// Column-major run-length-segmented sparse storage with 16-bit values.
#[derive(Clone, Debug, PartialEq)]
pub struct RsCompressed<V = F16> {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[c]..col_ptr[c+1]` indexes `segments` for column `c`.
    col_ptr: Vec<usize>,
    segments: Vec<Segment>,
    /// All runs' values, flattened in column order.
    values: Vec<V>,
}

impl<V: DoseScalar> RsCompressed<V> {
    /// Builds from CSR by transposing and run-length encoding each column.
    pub fn from_csr<I: crate::ColIndex>(csr: &Csr<V, I>) -> Self {
        let t = csr.transpose(); // rows of t = columns of csr
        let mut col_ptr = Vec::with_capacity(csr.ncols() + 1);
        let mut segments = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0usize);
        for c in 0..csr.ncols() {
            let (rows, vals) = t.row(c);
            let mut i = 0usize;
            while i < rows.len() {
                let start = rows[i];
                let mut j = i + 1;
                while j < rows.len() && rows[j] == rows[j - 1] + 1 {
                    j += 1;
                }
                segments.push(Segment {
                    start_row: start,
                    len: (j - i) as u32,
                    value_offset: values.len(),
                });
                values.extend_from_slice(&vals[i..j]);
                i = j;
            }
            col_ptr.push(segments.len());
        }
        RsCompressed {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            col_ptr,
            segments,
            values,
        }
    }

    /// Validates and wraps raw parts (used by the dose-matrix builder,
    /// which assembles columns directly).
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        segments: Vec<Segment>,
        values: Vec<V>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != ncols + 1 {
            return Err(SparseError::RowPtrLength {
                expected: ncols + 1,
                actual: col_ptr.len(),
            });
        }
        let mut expected_offset = 0usize;
        for c in 0..ncols {
            if col_ptr[c + 1] < col_ptr[c] {
                return Err(SparseError::RowPtrNotMonotonic { row: c });
            }
            let mut prev_end: Option<u32> = None;
            for seg in &segments[col_ptr[c]..col_ptr[c + 1]] {
                let end = seg.start_row as usize + seg.len as usize;
                if end > nrows || seg.len == 0 {
                    return Err(SparseError::SegmentOutOfBounds {
                        col: c,
                        start: seg.start_row as usize,
                        len: seg.len as usize,
                        nrows,
                    });
                }
                if let Some(pe) = prev_end {
                    // Runs must be disjoint and ascending (a merged run
                    // would have been one segment).
                    if seg.start_row <= pe {
                        return Err(SparseError::ColumnsNotSorted { row: c });
                    }
                }
                if seg.value_offset != expected_offset {
                    return Err(SparseError::LengthMismatch {
                        values: seg.value_offset,
                        indices: expected_offset,
                    });
                }
                expected_offset += seg.len as usize;
                prev_end = Some(seg.start_row + seg.len - 1);
            }
        }
        if expected_offset != values.len() {
            return Err(SparseError::LengthMismatch {
                values: values.len(),
                indices: expected_offset,
            });
        }
        Ok(RsCompressed {
            nrows,
            ncols,
            col_ptr,
            segments,
            values,
        })
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

    /// Segments of column `c`.
    pub fn column_segments(&self, c: usize) -> &[Segment] {
        &self.segments[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Average run length — the compression win over per-entry indices.
    pub fn avg_segment_len(&self) -> f64 {
        if self.segments.is_empty() {
            0.0
        } else {
            self.values.len() as f64 / self.segments.len() as f64
        }
    }

    /// Bytes: values + 8 per segment (4-byte start row, 4-byte length) +
    /// 8 per column pointer.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * V::BYTES + self.segments.len() * 8 + self.col_ptr.len() * 8
    }

    /// Sequential reference of the RayStation algorithm: for each column,
    /// scatter `weight * value` into the dose array. Deterministic because
    /// columns are processed in order. This is the algorithm the "GPU
    /// Baseline" ports with atomics and the CPU engine runs with scratch
    /// arrays.
    #[allow(clippy::needless_range_loop)] // column index drives two arrays
    pub fn spmv_ref(&self, weights: &[f64], dose: &mut [f64]) -> Result<(), SparseError> {
        if weights.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                actual: weights.len(),
            });
        }
        if dose.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                actual: dose.len(),
            });
        }
        dose.fill(0.0);
        for c in 0..self.ncols {
            let w = weights[c];
            if w == 0.0 {
                continue;
            }
            for seg in self.column_segments(c) {
                let vals = &self.values[seg.value_offset..seg.value_offset + seg.len as usize];
                let base = seg.start_row as usize;
                for (k, v) in vals.iter().enumerate() {
                    dose[base + k] += v.to_f64() * w;
                }
            }
        }
        Ok(())
    }

    /// Converts back to CSR (the paper's export path: RayStation format →
    /// CSR for the GPU kernels).
    pub fn to_csr(&self) -> Result<Csr<V, u32>, SparseError> {
        let mut triplets = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols {
            for seg in self.column_segments(c) {
                let vals = &self.values[seg.value_offset..seg.value_offset + seg.len as usize];
                for (k, v) in vals.iter().enumerate() {
                    triplets.push((seg.start_row as usize + k, c, *v));
                }
            }
        }
        crate::Coo::from_triplets(self.nrows, self.ncols, triplets)?.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64, u32> {
        // Column 0 hits rows 1,2,3 (one run) and 7 (second run);
        // column 1 hits rows 2,3; column 2 empty; column 3 hits row 0.
        Csr::from_rows(
            4,
            &[
                vec![(3, 9.0)],
                vec![(0, 1.0)],
                vec![(0, 2.0), (1, 5.0)],
                vec![(0, 3.0), (1, 6.0)],
                vec![],
                vec![],
                vec![],
                vec![(0, 4.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_csr_builds_runs() {
        let rs = RsCompressed::from_csr(&sample());
        // 7 stored entries: rows 0,1 have one each, rows 2,3 two each,
        // row 7 one.
        assert_eq!(rs.nnz(), 7);
        let segs0 = rs.column_segments(0);
        assert_eq!(segs0.len(), 2);
        assert_eq!((segs0[0].start_row, segs0[0].len), (1, 3));
        assert_eq!((segs0[1].start_row, segs0[1].len), (7, 1));
        let segs1 = rs.column_segments(1);
        assert_eq!(segs1.len(), 1);
        assert_eq!((segs1[0].start_row, segs1[0].len), (2, 2));
        assert!(rs.column_segments(2).is_empty());
        // 7 values over 4 segments.
        assert!((rs.avg_segment_len() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn spmv_matches_csr() {
        let c = sample();
        let rs = RsCompressed::from_csr(&c);
        let w = [2.0, 3.0, 5.0, 7.0];
        let mut d1 = vec![0.0; 8];
        let mut d2 = vec![0.0; 8];
        c.spmv_ref(&w, &mut d1).unwrap();
        rs.spmv_ref(&w, &mut d2).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn csr_roundtrip() {
        let c = sample();
        let rs = RsCompressed::from_csr(&c);
        let back = rs.to_csr().unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn validation_rejects_overlapping_segments() {
        let bad = RsCompressed::<f64>::try_new(
            10,
            1,
            vec![0, 2],
            vec![
                Segment {
                    start_row: 0,
                    len: 3,
                    value_offset: 0,
                },
                Segment {
                    start_row: 2,
                    len: 2,
                    value_offset: 3,
                },
            ],
            vec![1.0; 5],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn validation_rejects_out_of_bounds() {
        let bad = RsCompressed::<f64>::try_new(
            4,
            1,
            vec![0, 1],
            vec![Segment {
                start_row: 3,
                len: 2,
                value_offset: 0,
            }],
            vec![1.0; 2],
        );
        assert!(matches!(bad, Err(SparseError::SegmentOutOfBounds { .. })));
    }

    #[test]
    fn validation_rejects_zero_len_segment() {
        let bad = RsCompressed::<f64>::try_new(
            4,
            1,
            vec![0, 1],
            vec![Segment {
                start_row: 0,
                len: 0,
                value_offset: 0,
            }],
            vec![],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn compression_beats_csr_for_contiguous_columns() {
        // A column that is one long run: CSR pays 4 bytes of column index
        // per entry, RsCompressed pays 8 bytes once.
        let rows: Vec<Vec<(usize, f64)>> = (0..1000).map(|_| vec![(0, 1.0)]).collect();
        let c = Csr::<f64, u32>::from_rows(1, &rows).unwrap();
        let rs = RsCompressed::from_csr(&c);
        assert_eq!(rs.segments().len(), 1);
        assert!(rs.size_bytes() < c.size_bytes());
    }

    #[test]
    fn zero_weight_columns_are_skipped() {
        let c = sample();
        let rs = RsCompressed::from_csr(&c);
        let mut d = vec![0.0; 8];
        rs.spmv_ref(&[0.0; 4], &mut d).unwrap();
        assert!(d.iter().all(|&x| x == 0.0));
    }
}
