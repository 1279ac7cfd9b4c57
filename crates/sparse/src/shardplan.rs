//! Row-range sharding plans for cooperative multi-device SpMV.
//!
//! One device's DRAM bandwidth is the vector kernel's hard ceiling, so the
//! only way a *single* dose request gets faster is more DRAM — i.e. more
//! devices. A [`ShardPlan`] splits a CSR matrix into `K` **contiguous
//! row-range shards**, each materialized as a self-contained sub-CSR (its
//! `row_ptr` rebased to start at zero) with its own [`RowPlan`], so the
//! bucketed dispatch of [`crate::RowPlan`] composes per shard unchanged.
//!
//! Two properties carry the whole design:
//!
//! * **Balance by nnz, not rows.** Beam matrices are ~70–95% empty rows;
//!   splitting by row count would leave the shard holding the beam core
//!   with nearly all the work. The split sweeps the cumulative nnz curve
//!   and cuts where it reaches each shard's weighted share of the nnz
//!   (`ceil(s * nnz / K)` for equal weights), so every shard's traffic —
//!   the quantity the timing model divides by per-device bandwidth — is
//!   within one row of its share.
//! * **Disjoint row ranges ⇒ bitwise-reproducible merge.** A row's dose
//!   depends only on its own nnz traversal order and the reduction tree of
//!   the tile width it runs at — never on which device ran it. Each output
//!   element is produced by exactly one shard, so merging is a pure
//!   disjoint scatter: any shard completion order, pool size, or `K`
//!   yields doses bitwise identical to the unsharded kernel at the same
//!   per-row widths (the paper's §II-D contract survives by construction).

use crate::{ColIndex, Csr, RowPlan};
use rt_f16::DoseScalar;
use std::ops::Range;
use std::sync::Arc;

/// One contiguous row-range shard of a [`ShardPlan`]: rows
/// `[row_start, row_end)` of the source matrix as a self-contained
/// sub-CSR, plus the shard's own row-partition plan.
#[derive(Clone, Debug)]
pub struct RowShard<V, I = u32> {
    /// Shard index within the plan (`0..plan.num_shards()`).
    pub index: usize,
    /// First source row owned by this shard (inclusive).
    pub row_start: usize,
    /// One past the last source row owned by this shard.
    pub row_end: usize,
    /// The shard's rows as a standalone CSR matrix: `row_end - row_start`
    /// rows, the source matrix's full column space, `row_ptr` rebased to
    /// start at zero.
    pub matrix: Csr<V, I>,
    /// Row-partition plan of the sub-CSR (empty rows dropped, length
    /// buckets), so bucketed dispatch composes per shard. Shared behind an
    /// `Arc` because device uploads and report builders both hold it.
    pub plan: Arc<RowPlan>,
}

impl<V: DoseScalar, I: ColIndex> RowShard<V, I> {
    /// Copies rows `rows` of `m` out as shard `index`: a sub-CSR built
    /// through the public constructor (rebased `row_ptr`, re-validated
    /// structure) plus its own [`RowPlan`].
    pub fn materialize(m: &Csr<V, I>, index: usize, rows: Range<usize>) -> Self {
        let (start, end) = (rows.start, rows.end);
        let row_ptr = m.row_ptr();
        let base = row_ptr[start];
        let lo = base as usize;
        let hi = row_ptr[end] as usize;
        let sub_ptr: Vec<u32> = row_ptr[start..=end].iter().map(|&p| p - base).collect();
        let matrix = Csr::try_new(
            end - start,
            m.ncols(),
            sub_ptr,
            m.col_idx()[lo..hi].to_vec(),
            m.values()[lo..hi].to_vec(),
        )
        .expect("a row range of a valid CSR is a valid CSR");
        let plan = Arc::new(RowPlan::from_csr(&matrix));
        RowShard {
            index,
            row_start: start,
            row_end: end,
            matrix,
            plan,
        }
    }

    /// Rows owned by this shard.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.row_end - self.row_start
    }

    /// Stored entries in this shard.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    /// Rows of this shard that store at least one entry — the rows whose
    /// results actually cross the interconnect at gather time (empty rows
    /// are zero at every destination already).
    #[inline]
    pub fn nonempty_rows(&self) -> usize {
        self.plan.nonempty_rows()
    }

    /// Bytes of shard output that cross the interconnect when the shard's
    /// partial result is gathered into the merged dose vector: one `f64`
    /// per non-empty row (empty rows need no transfer — the destination
    /// buffer is zero-filled once).
    #[inline]
    pub fn gather_bytes(&self) -> u64 {
        self.nonempty_rows() as u64 * 8
    }
}

/// A row-range sharding of one CSR matrix into `K` contiguous,
/// nnz-balanced shards. Built once per (matrix, K) and reused across every
/// sharded launch; the engine caches one per registered plan.
#[derive(Clone, Debug)]
pub struct ShardPlan<V, I = u32> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    shards: Vec<RowShard<V, I>>,
}

impl<V: DoseScalar, I: ColIndex> ShardPlan<V, I> {
    /// Splits `m` into `weights.len()` contiguous shards whose nnz shares
    /// are proportional to `weights`: the row ranges of
    /// [`ShardPlan::cuts`], each materialized by
    /// [`RowShard::materialize`].
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a non-finite or
    /// non-positive weight.
    pub fn build_weighted(m: &Csr<V, I>, weights: &[f64]) -> Self {
        let shards = Self::cuts(m, weights)
            .into_iter()
            .enumerate()
            .map(|(s, rows)| RowShard::materialize(m, s, rows))
            .collect();
        ShardPlan {
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
            shards,
        }
    }

    /// The row ranges [`ShardPlan::build_weighted`] cuts `m` into,
    /// decided before any sub-CSR is copied: shard `i` targets
    /// `nnz * w_i / Σw` entries, so a shard homed on a device with twice
    /// the modeled bandwidth gets twice the traffic and every shard
    /// *finishes* at the same modeled time on a heterogeneous pool. With
    /// `k` equal weights every shard targets `ceil(s * nnz / k)`.
    ///
    /// The shard count is clamped to `[1, max(1, nrows)]` (excess
    /// trailing weights are dropped); trailing shards may own zero rows
    /// only when the matrix has fewer rows than shards (never otherwise
    /// — every shard gets at least one row). Deterministic: cut points
    /// are a pure function of the row-length profile and the weight
    /// vector.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a non-finite or
    /// non-positive weight.
    pub fn cuts(m: &Csr<V, I>, weights: &[f64]) -> Vec<Range<usize>> {
        assert!(!weights.is_empty(), "shard cuts need >= 1 weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "shard weights must be finite and positive"
        );
        let nrows = m.nrows();
        let nnz = m.nnz();
        let k = weights.len().clamp(1, nrows.max(1));
        let row_ptr = m.row_ptr();
        let total: f64 = weights[..k].iter().sum();

        // Cut at the first row where cumulative nnz reaches the
        // cumulative *weight* fraction of total nnz, while reserving
        // enough rows for the remaining shards.
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0usize);
        let mut row = 0usize;
        let mut prefix = 0.0f64;
        for s in 1..k {
            prefix += weights[s - 1];
            // Division last: for uniform weights this is exactly
            // `ceil(nnz * s / k)`.
            let target = (nnz as f64 * prefix / total).ceil() as u32;
            while row < nrows && row_ptr[row + 1] < target {
                row += 1;
            }
            // Leave at least one row per remaining shard, and advance at
            // least one row past the previous cut.
            let max_start = nrows - (k - s);
            let start = (row + 1).max(bounds[s - 1] + 1).min(max_start);
            bounds.push(start);
            row = start;
        }
        bounds.push(nrows);
        bounds.windows(2).map(|b| b[0]..b[1]).collect()
    }

    /// Rows of the source matrix.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the source matrix (every shard keeps the full column
    /// space — the input vector is broadcast, only rows are sharded).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries of the source matrix.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of shards (after clamping).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    #[inline]
    pub fn shards(&self) -> &[RowShard<V, I>] {
        &self.shards
    }

    /// Largest shard nnz over the ideal per-shard nnz — 1.0 is a perfect
    /// split; the excess is bounded by the longest row's share.
    pub fn balance_factor(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        let ideal = self.nnz as f64 / self.shards.len() as f64;
        let max = self.shards.iter().map(|s| s.nnz()).max().unwrap_or(0);
        max as f64 / ideal
    }

    /// Balance factor against a *weighted* ideal: the largest ratio of a
    /// shard's nnz over its weighted share `nnz * w_i / Σw`. 1.0 is a
    /// perfect throughput-weighted split; the plain
    /// [`ShardPlan::balance_factor`] is the uniform-weights special case
    /// and is misleading on mixed pools (a V100 shard *should* hold fewer
    /// entries than an A100 shard). Weights are cycled if fewer than the
    /// shard count, matching how shards are homed round-robin on a device
    /// group.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a non-finite or
    /// non-positive weight.
    pub fn balance_factor_weighted(&self, weights: &[f64]) -> f64 {
        assert!(!weights.is_empty(), "balance needs >= 1 weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "shard weights must be finite and positive"
        );
        if self.nnz == 0 {
            return 1.0;
        }
        let w = |i: usize| weights[i % weights.len()];
        let total: f64 = (0..self.shards.len()).map(w).sum();
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.nnz() as f64 / (self.nnz as f64 * w(i) / total))
            .fold(0.0, f64::max)
    }

    /// Total bytes crossing the interconnect at gather time (sum of
    /// [`RowShard::gather_bytes`]).
    pub fn gather_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.gather_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beamlike(nrows: usize, ncols: usize) -> Csr<f64, u32> {
        // ~90% empty rows, a dense core every 37 rows, short shell rows.
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|r| {
                if r % 37 == 0 {
                    (0..64.min(ncols))
                        .map(|c| (c, (r + c) as f64 * 0.01))
                        .collect()
                } else if r % 11 == 0 {
                    vec![(r % ncols, r as f64 * 0.1)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        Csr::from_rows(ncols, &rows).unwrap()
    }

    /// `k` equally weighted shards.
    fn uniform(m: &Csr<f64, u32>, k: usize) -> ShardPlan<f64> {
        ShardPlan::build_weighted(m, &vec![1.0; k])
    }

    #[test]
    fn shards_cover_all_rows_disjointly() {
        let m = beamlike(500, 80);
        for k in [1, 2, 3, 4, 7] {
            let plan = uniform(&m, k);
            assert_eq!(plan.num_shards(), k);
            let mut next = 0;
            for (i, s) in plan.shards().iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.row_start, next, "k={k} shard {i}");
                assert!(s.row_end > s.row_start, "k={k} shard {i} empty range");
                next = s.row_end;
                assert_eq!(s.matrix.nrows(), s.nrows());
                assert_eq!(s.matrix.ncols(), 80);
            }
            assert_eq!(next, 500);
            let total_nnz: usize = plan.shards().iter().map(|s| s.nnz()).sum();
            assert_eq!(total_nnz, m.nnz());
        }
    }

    #[test]
    fn shards_are_nnz_balanced_not_row_balanced() {
        let m = beamlike(800, 100);
        let plan = uniform(&m, 3);
        // Every shard within one max-row of the ideal share.
        let ideal = m.nnz() as f64 / 3.0;
        let max_row = (0..m.nrows()).map(|r| m.row_len(r)).max().unwrap() as f64;
        for s in plan.shards() {
            assert!(
                (s.nnz() as f64) <= ideal + max_row,
                "shard {} nnz {} vs ideal {ideal}",
                s.index,
                s.nnz()
            );
        }
        assert!(plan.balance_factor() < 1.5);
    }

    #[test]
    fn sub_csr_rows_match_source_rows() {
        let m = beamlike(300, 60);
        let plan = uniform(&m, 4);
        for s in plan.shards() {
            for local in 0..s.nrows() {
                let (sc, sv) = s.matrix.row(local);
                let (mc, mv) = m.row(s.row_start + local);
                assert_eq!(sc, mc);
                assert_eq!(sv, mv);
            }
        }
    }

    #[test]
    fn concatenated_shard_spmv_matches_full_spmv() {
        let m = beamlike(400, 90);
        let x: Vec<f64> = (0..90).map(|i| (i as f64 * 0.17).sin() + 1.2).collect();
        let mut want = vec![0.0; 400];
        m.spmv_ref(&x, &mut want).unwrap();
        for k in [1, 2, 3, 4] {
            let plan = uniform(&m, k);
            let mut got = vec![f64::NAN; 400];
            for s in plan.shards() {
                let mut part = vec![0.0; s.nrows()];
                s.matrix.spmv_ref(&x, &mut part).unwrap();
                got[s.row_start..s.row_end].copy_from_slice(&part);
            }
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "k={k}"
            );
        }
    }

    #[test]
    fn per_shard_row_plans_describe_the_sub_csrs() {
        let m = beamlike(500, 80);
        let plan = uniform(&m, 3);
        for s in plan.shards() {
            assert_eq!(s.plan.nrows(), s.nrows());
            assert_eq!(s.plan.nnz(), s.nnz());
            assert_eq!(s.gather_bytes(), s.plan.nonempty_rows() as u64 * 8);
        }
        let nonempty: usize = plan.shards().iter().map(|s| s.nonempty_rows()).sum();
        assert_eq!(nonempty, RowPlan::from_csr(&m).nonempty_rows());
        assert_eq!(plan.gather_bytes(), nonempty as u64 * 8);
    }

    #[test]
    fn k_clamps_to_row_count() {
        let m = beamlike(3, 10);
        let plan = uniform(&m, 8);
        assert_eq!(plan.num_shards(), 3);
        assert!(plan.shards().iter().all(|s| s.nrows() == 1));
        let one = uniform(&m, 1);
        assert_eq!(one.num_shards(), 1);
        assert_eq!(one.shards()[0].nrows(), 3);
    }

    #[test]
    fn weighted_split_tracks_weight_shares() {
        let m = beamlike(800, 100);
        // A 2:1 weight split: shard 0 should hold ~2/3 of the nnz.
        let plan = ShardPlan::build_weighted(&m, &[2.0, 1.0]);
        assert_eq!(plan.num_shards(), 2);
        let share0 = plan.shards()[0].nnz() as f64 / m.nnz() as f64;
        let max_row = (0..m.nrows()).map(|r| m.row_len(r)).max().unwrap() as f64;
        assert!(
            (share0 - 2.0 / 3.0).abs() <= max_row / m.nnz() as f64,
            "share0 = {share0}"
        );
        assert!(plan.balance_factor_weighted(&[2.0, 1.0]) < 1.1);
        // The uniform factor *should* look bad on purpose here.
        assert!(plan.balance_factor() > 1.2);
    }

    #[test]
    fn uniform_weights_cut_at_the_integer_nnz_targets() {
        let m = beamlike(500, 80);
        let row_ptr = m.row_ptr();
        for k in [1, 2, 3, 5] {
            // Boundary s sits at the first row where the cumulative nnz
            // reaches `ceil(s * nnz / k)`.
            let want: Vec<usize> = (1..k)
                .map(|s| {
                    let target = (m.nnz() * s).div_ceil(k) as u32;
                    (1..=m.nrows()).find(|&j| row_ptr[j] >= target).unwrap()
                })
                .collect();
            let got: Vec<usize> = uniform(&m, k).shards()[1..]
                .iter()
                .map(|s| s.row_start)
                .collect();
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn cuts_are_the_row_ranges_build_weighted_materializes() {
        let m = beamlike(600, 70);
        for weights in [vec![1.0], vec![2.0, 1.0], vec![3.0, 1.0, 2.0, 1.0]] {
            let cuts = ShardPlan::cuts(&m, &weights);
            let plan = ShardPlan::build_weighted(&m, &weights);
            let ranges: Vec<_> = plan
                .shards()
                .iter()
                .map(|s| s.row_start..s.row_end)
                .collect();
            assert_eq!(cuts, ranges, "weights {weights:?}");
            for (s, rows) in cuts.into_iter().enumerate() {
                let one = RowShard::materialize(&m, s, rows);
                let built = &plan.shards()[s];
                assert_eq!(one.matrix.row_ptr(), built.matrix.row_ptr());
                assert_eq!(one.matrix.col_idx(), built.matrix.col_idx());
                assert_eq!(one.nonempty_rows(), built.nonempty_rows());
            }
        }
    }

    #[test]
    fn weighted_k_clamps_to_row_count() {
        let m = beamlike(3, 10);
        let plan = ShardPlan::build_weighted(&m, &[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(plan.num_shards(), 3);
        assert!(plan.shards().iter().all(|s| s.nrows() == 1));
    }

    #[test]
    fn empty_heavy_prefix_does_not_starve_trailing_shards() {
        // All nnz in the first rows: later shards still get a row range.
        let mut rows = vec![vec![(0usize, 1.0f64), (1, 2.0), (2, 3.0)]; 4];
        rows.extend(std::iter::repeat_with(Vec::new).take(60));
        let m: Csr<f64, u32> = Csr::from_rows(8, &rows).unwrap();
        let plan = uniform(&m, 4);
        assert_eq!(plan.num_shards(), 4);
        let covered: usize = plan.shards().iter().map(|s| s.nrows()).sum();
        assert_eq!(covered, 64);
    }
}
