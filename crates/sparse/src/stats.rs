//! Row-length statistics of dose deposition matrices.
//!
//! These are the numbers the paper reports in Table I and Figure 2: matrix
//! shape, non-zero ratio, size in GB, the cumulative row-length histogram,
//! the fraction of empty rows (~70% in both beam-1 cases), the average
//! non-zeros per non-empty row, and the fraction of non-empty rows shorter
//! than a warp (32) — the rows for which the warp-per-row kernel wastes
//! lanes.

use crate::rowplan::{bucket_index_for_len, NUM_ROW_BUCKETS, ROW_BUCKET_BOUNDS};
use crate::{ColIndex, Csr};
use rt_f16::DoseScalar;

/// One length bucket of [`RowStats::bucket_histogram`]: how many rows and
/// stored entries fall in the `[min_len, max_len]` range. Empty rows are
/// excluded — they belong to no bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketHistogramEntry {
    pub min_len: u32,
    pub max_len: u32,
    pub rows: u64,
    pub nnz: u64,
}

/// Summary statistics over the stored row lengths of a matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct RowStats {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    /// Rows with no stored entries.
    pub empty_rows: usize,
    /// Longest row.
    pub max_row_len: usize,
    /// Mean stored entries over *non-empty* rows (Figure 2's "avg nnz per
    /// row" is computed over non-empty rows; 70% of rows are empty).
    pub avg_nnz_nonempty: f64,
    /// Fraction of non-empty rows with fewer than 32 entries — the rows
    /// that under-fill a warp (5.6% liver / 14.2% prostate in the paper).
    pub frac_nonempty_below_warp: f64,
    /// Sorted lengths of the non-empty rows (ascending), for quantiles and
    /// the cumulative histogram.
    sorted_nonempty: Vec<u32>,
}

impl RowStats {
    /// Gathers statistics from a CSR matrix.
    pub fn from_csr<V: DoseScalar, I: ColIndex>(m: &Csr<V, I>) -> Self {
        let mut sorted_nonempty: Vec<u32> = (0..m.nrows())
            .map(|r| m.row_len(r) as u32)
            .filter(|&l| l > 0)
            .collect();
        sorted_nonempty.sort_unstable();
        let empty_rows = m.nrows() - sorted_nonempty.len();
        let max_row_len = sorted_nonempty.last().copied().unwrap_or(0) as usize;
        let avg_nnz_nonempty = if sorted_nonempty.is_empty() {
            0.0
        } else {
            m.nnz() as f64 / sorted_nonempty.len() as f64
        };
        let below = sorted_nonempty.partition_point(|&l| l < 32);
        let frac_nonempty_below_warp = if sorted_nonempty.is_empty() {
            0.0
        } else {
            below as f64 / sorted_nonempty.len() as f64
        };
        RowStats {
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
            empty_rows,
            max_row_len,
            avg_nnz_nonempty,
            frac_nonempty_below_warp,
            sorted_nonempty,
        }
    }

    /// Fraction of all rows that are empty.
    pub fn empty_fraction(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.empty_rows as f64 / self.nrows as f64
        }
    }

    /// Stored-entry density, `nnz / (nrows * ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.nrows as f64 * self.ncols as f64)
        }
    }

    /// Fraction of *non-empty* rows with length `< x` — one point of the
    /// Figure 2 cumulative histogram (which excludes empty rows).
    pub fn cumulative_at(&self, x: usize) -> f64 {
        if self.sorted_nonempty.is_empty() {
            return 0.0;
        }
        let below = self.sorted_nonempty.partition_point(|&l| (l as usize) < x);
        below as f64 / self.sorted_nonempty.len() as f64
    }

    /// Samples the cumulative histogram at logarithmically spaced row
    /// lengths up to the maximum — the Figure 2 curve.
    pub fn cumulative_curve(&self, points: usize) -> Vec<(usize, f64)> {
        if self.max_row_len == 0 || points == 0 {
            return Vec::new();
        }
        let lo = 1.0f64;
        let hi = (self.max_row_len + 1) as f64;
        (0..points)
            .map(|i| {
                let t = i as f64 / (points - 1).max(1) as f64;
                let x = (lo * (hi / lo).powf(t)).round() as usize;
                (x, self.cumulative_at(x))
            })
            .collect()
    }

    /// Total lane slots a width-`width` cooperative tile spends covering
    /// the **non-empty** rows: each row of length `l` occupies
    /// `ceil(l / width) * width` slots (the last pass is padded). This is
    /// what a row-partitioned launch schedules — empty rows contribute no
    /// slots here; see [`RowStats::scheduled_lane_slots`] for whole-matrix
    /// launches that visit every row.
    pub fn lane_slots(&self, width: u32) -> u64 {
        assert!(width > 0, "tile width must be positive");
        let w = width as u64;
        self.sorted_nonempty
            .iter()
            .map(|&l| (l as u64).div_ceil(w) * w)
            .sum()
    }

    /// Fraction of non-empty-row lane slots that carry a stored entry when
    /// rows are processed by width-`width` tiles — 1.0 means no padded
    /// lanes. Empty rows are *never* counted as occupied slots: a
    /// whole-matrix launch still schedules a tile per empty row, but those
    /// lanes carry nothing (see
    /// [`RowStats::scheduled_lanes_active_frac`]).
    pub fn lanes_active_frac(&self, width: u32) -> f64 {
        let slots = self.lane_slots(width);
        if slots == 0 {
            0.0
        } else {
            self.nnz as f64 / slots as f64
        }
    }

    /// Lane slots a whole-matrix width-`width` launch schedules: the
    /// non-empty-row slots of [`RowStats::lane_slots`] plus `width` wasted
    /// slots per empty row (the classic and tiled kernels assign a tile to
    /// every row, empty or not).
    pub fn scheduled_lane_slots(&self, width: u32) -> u64 {
        self.lane_slots(width) + self.empty_rows as u64 * width as u64
    }

    /// Fraction of *scheduled* lane slots that carry a stored entry in a
    /// whole-matrix width-`width` launch. Empty rows contribute slots to
    /// the denominator and nothing to the numerator — this is the honest
    /// occupancy figure for unpartitioned launches.
    pub fn scheduled_lanes_active_frac(&self, width: u32) -> f64 {
        let slots = self.scheduled_lane_slots(width);
        if slots == 0 {
            0.0
        } else {
            self.nnz as f64 / slots as f64
        }
    }

    /// Row and nnz counts per [`ROW_BUCKET_BOUNDS`] length bucket — always
    /// [`NUM_ROW_BUCKETS`] entries, empty rows excluded.
    pub fn bucket_histogram(&self) -> Vec<BucketHistogramEntry> {
        let mut out: Vec<BucketHistogramEntry> = ROW_BUCKET_BOUNDS
            .iter()
            .map(|&(min_len, max_len)| BucketHistogramEntry {
                min_len,
                max_len,
                rows: 0,
                nnz: 0,
            })
            .collect();
        for &l in &self.sorted_nonempty {
            let e = &mut out[bucket_index_for_len(l)];
            e.rows += 1;
            e.nnz += l as u64;
        }
        debug_assert_eq!(out.len(), NUM_ROW_BUCKETS);
        out
    }

    /// q-th quantile (0..=1) of non-empty row lengths.
    pub fn quantile(&self, q: f64) -> usize {
        if self.sorted_nonempty.is_empty() {
            return 0;
        }
        let idx = ((self.sorted_nonempty.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.sorted_nonempty[idx] as usize
    }
}

/// One row of Table I: the shape summary of a named beam's matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSummary {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
    pub nnz: usize,
    /// `nnz / (rows * cols)` as a percentage, the paper's "non-zero ratio".
    pub nonzero_ratio_pct: f64,
    /// CSR size with f16 values and u32 indices, in GB (Table I's "size").
    pub size_gb: f64,
}

impl MatrixSummary {
    pub fn from_csr<V: DoseScalar, I: ColIndex>(name: &str, m: &Csr<V, I>) -> Self {
        // Table I sizes correspond to half values + 4-byte indices
        // regardless of how the matrix is currently stored.
        let bytes = 6 * m.nnz() + 4 * (m.nrows() + 1);
        MatrixSummary {
            name: name.to_string(),
            rows: m.nrows(),
            cols: m.ncols(),
            nnz: m.nnz(),
            nonzero_ratio_pct: m.density() * 100.0,
            size_gb: bytes as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> Csr<f64, u32> {
        // 10 rows: lengths 0,0,0,0,0,0,0 (7 empty), 2, 40, 100
        let mut rows: Vec<Vec<(usize, f64)>> = vec![vec![]; 10];
        rows[7] = (0..2).map(|c| (c, 1.0)).collect();
        rows[8] = (0..40).map(|c| (c, 1.0)).collect();
        rows[9] = (0..100).map(|c| (c, 1.0)).collect();
        Csr::from_rows(100, &rows).unwrap()
    }

    #[test]
    fn basic_stats() {
        let s = RowStats::from_csr(&skewed());
        assert_eq!(s.empty_rows, 7);
        assert!((s.empty_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(s.max_row_len, 100);
        assert_eq!(s.nnz, 142);
        assert!((s.avg_nnz_nonempty - 142.0 / 3.0).abs() < 1e-12);
        // One of three non-empty rows is below 32.
        assert!((s.frac_nonempty_below_warp - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_excludes_empty_rows() {
        let s = RowStats::from_csr(&skewed());
        assert_eq!(s.cumulative_at(1), 0.0); // nothing shorter than 1
        assert!((s.cumulative_at(3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.cumulative_at(41) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.cumulative_at(101), 1.0);
    }

    #[test]
    fn cumulative_curve_is_monotonic() {
        let s = RowStats::from_csr(&skewed());
        let curve = s.cumulative_curve(20);
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn quantiles() {
        let s = RowStats::from_csr(&skewed());
        assert_eq!(s.quantile(0.0), 2);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.5), 40);
    }

    #[test]
    fn lane_occupancy() {
        let s = RowStats::from_csr(&skewed());
        // Rows 2, 40, 100 at width 32: 32 + 64 + 128 = 224 slots.
        assert_eq!(s.lane_slots(32), 224);
        assert!((s.lanes_active_frac(32) - 142.0 / 224.0).abs() < 1e-12);
        // Width 2: 2 + 40 + 100 = 142 slots, fully active.
        assert_eq!(s.lane_slots(2), 142);
        assert_eq!(s.lanes_active_frac(2), 1.0);
        // Narrower tiles never waste more lanes than wider ones.
        for pair in [2u32, 4, 8, 16, 32].windows(2) {
            assert!(s.lanes_active_frac(pair[0]) >= s.lanes_active_frac(pair[1]));
        }
    }

    #[test]
    fn scheduled_slots_count_empty_rows() {
        let s = RowStats::from_csr(&skewed());
        // 7 empty rows add 7 * width wasted slots to a whole-matrix launch.
        assert_eq!(s.scheduled_lane_slots(32), 224 + 7 * 32);
        assert!((s.scheduled_lanes_active_frac(32) - 142.0 / 448.0).abs() < 1e-12);
        // Partitioned occupancy (lanes_active_frac) never counts empties.
        assert!(s.scheduled_lanes_active_frac(32) < s.lanes_active_frac(32));
        assert_eq!(s.scheduled_lane_slots(2), 142 + 14);
    }

    #[test]
    fn bucket_histogram_partitions_nonempty_rows() {
        let s = RowStats::from_csr(&skewed());
        let h = s.bucket_histogram();
        assert_eq!(h.len(), 6);
        // Lengths 2, 40, 100 → buckets 0 (1-2) and 5 (33+).
        assert_eq!((h[0].rows, h[0].nnz), (1, 2));
        assert_eq!((h[1].rows, h[2].rows, h[3].rows, h[4].rows), (0, 0, 0, 0));
        assert_eq!((h[5].rows, h[5].nnz), (2, 140));
        let rows: u64 = h.iter().map(|e| e.rows).sum();
        let nnz: u64 = h.iter().map(|e| e.nnz).sum();
        assert_eq!(rows, 3); // empty rows excluded
        assert_eq!(nnz, 142);
    }

    #[test]
    fn summary_matches_paper_size_formula() {
        let m = skewed();
        let s = MatrixSummary::from_csr("test", &m);
        assert_eq!(s.nnz, 142);
        let expected_bytes = 6 * 142 + 4 * 11;
        assert!((s.size_gb - expected_bytes as f64 / 1e9).abs() < 1e-18);
        assert!((s.nonzero_ratio_pct - 14.2).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_stats() {
        let m = Csr::<f64, u32>::from_rows(5, &[vec![], vec![]]).unwrap();
        let s = RowStats::from_csr(&m);
        assert_eq!(s.empty_fraction(), 1.0);
        assert_eq!(s.avg_nnz_nonempty, 0.0);
        assert_eq!(s.cumulative_at(10), 0.0);
        assert!(s.cumulative_curve(5).is_empty());
    }
}
