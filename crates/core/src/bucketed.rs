//! Bucketed row-partition SpMV: empty-row elimination and per-bucket
//! tile-width dispatch.
//!
//! The tiled kernels of [`crate::tiled`] still schedule a tile for every
//! row — ~70% of which are empty in the paper's matrices — and pick one
//! tile width for the whole matrix. This module drives the sub-warp
//! kernels through a [`rt_sparse::RowPlan`] instead: empty rows
//! are never scheduled (the output is zero-filled by a dedicated streaming
//! member), and each length bucket launches at its own width through
//! [`Gpu::launch_group`], back-to-back on the same sim state.
//!
//! **Reproducibility contract.** For a row of length `l` processed at
//! width `w`, the lane partitioning (`k % w` accumulation order) and the
//! truncated halving reduction tree are pure functions of `(l, w)` — the
//! bucketed kernel executes the *byte-identical* per-row arithmetic of
//! [`vector_csr_spmv_tiled`](crate::vector_csr_spmv_tiled) at the same
//! width; only *which* tile visits the row changes. So for any
//! [`BucketWidths`] assignment, bucketed results are bitwise identical to
//! a whole-matrix tiled launch whose width matches each row's bucket —
//! and a uniform assignment is bitwise identical to the fixed-width
//! kernel at that width (width 32: to the classic kernel). Empty rows are
//! zero-filled exactly as the fixed-width kernels store their empty-row
//! sums (`+0.0`).
//!
//! Empty-row elimination is traffic-free by construction: an empty row in
//! the fixed-width kernel loads two row pointers and stores one zero; the
//! bucketed dispatch never touches its pointers and the zero-fill member
//! writes the same zero in a fully coalesced stream.

use crate::vector_csr::{GpuCsrMatrix, VecScalar, MAX_SPMM_BATCH};
use rt_f16::DoseScalar;
use rt_gpusim::{
    BucketReport, DeviceBuffer, DeviceOutBuffer, DeviceSpec, Gpu, Grid, GroupMember, GroupReport,
    GroupStats, KernelProfile, WarpCtx, TILE_WIDTHS, WARP_SIZE,
};
use rt_sparse::{bucket_index_for_len, ColIndex, Csr, RowPlan, NUM_ROW_BUCKETS};
use std::sync::Arc;

/// Output elements each warp of the zero-fill member clears: large enough
/// that the member adds only `ceil(nrows / 256)` warps to the group (vs
/// the `nrows * w / 32` warps a fixed-width launch spends visiting every
/// row), small enough to spread blocks across SMs.
const ZERO_STRIP: usize = 256;

/// Per-bucket tile widths for a bucketed dispatch, indexed by
/// [`ROW_BUCKET_BOUNDS`](rt_sparse::ROW_BUCKET_BOUNDS) position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketWidths(pub [u32; NUM_ROW_BUCKETS]);

impl BucketWidths {
    /// The natural assignment: the narrowest width covering each bucket's
    /// longest row in one pass — `[2, 4, 8, 16, 32, 32]`.
    pub fn natural() -> Self {
        BucketWidths([2, 4, 8, 16, 32, 32])
    }

    /// Same width for every bucket (for bitwise comparison against the
    /// fixed-width kernels).
    pub fn uniform(width: u32) -> Self {
        BucketWidths([width; NUM_ROW_BUCKETS])
    }

    /// True when every width is a supported tile width.
    pub fn is_valid(&self) -> bool {
        self.0.iter().all(|w| TILE_WIDTHS.contains(w))
    }

    fn assert_valid(&self) {
        assert!(
            self.is_valid(),
            "bucket widths must each be one of {TILE_WIDTHS:?}, got {:?}",
            self.0
        );
    }
}

impl Default for BucketWidths {
    fn default() -> Self {
        BucketWidths::natural()
    }
}

/// Human-readable label of a bucket's length range (`"rows 1-2"`,
/// `"rows 33+"`), used as the group-member label.
pub fn bucket_label(min_len: u32, max_len: u32) -> String {
    if max_len == u32::MAX {
        format!("rows {min_len}+")
    } else {
        format!("rows {min_len}-{max_len}")
    }
}

/// A [`RowPlan`] with its per-bucket row-index arrays uploaded to a
/// device: built once per (matrix, device), reused by every bucketed
/// launch — exactly like [`GpuCsrMatrix`] for the matrix itself.
pub struct GpuRowPlan {
    plan: Arc<RowPlan>,
    /// One device buffer per non-empty bucket, `None` for empty buckets.
    rows: Vec<Option<DeviceBuffer<u32>>>,
}

impl GpuRowPlan {
    /// Uploads the plan's per-bucket row-index arrays.
    pub fn upload(gpu: &Gpu, plan: Arc<RowPlan>) -> Self {
        let rows = plan
            .buckets()
            .iter()
            .map(|b| {
                if b.is_empty() {
                    None
                } else {
                    Some(gpu.upload(&b.rows))
                }
            })
            .collect();
        GpuRowPlan { plan, rows }
    }

    /// The host-side plan.
    pub fn plan(&self) -> &Arc<RowPlan> {
        &self.plan
    }

    /// Number of group members a bucketed launch will run: the zero-fill
    /// member plus one per non-empty bucket.
    pub fn member_count(&self) -> usize {
        1 + self.rows.iter().filter(|r| r.is_some()).count()
    }
}

/// Builds the zero-fill group member: a coalesced streaming store of
/// zeros over every output vector, [`ZERO_STRIP`] elements per warp.
/// Runs first so bucket members' scattered row sums land on cleared
/// memory; empty rows keep exactly the `0.0` the fixed-width kernels
/// store for them.
fn zero_fill_member<'a, X: VecScalar>(
    ys: Vec<&'a DeviceOutBuffer<X>>,
    nrows: usize,
    threads_per_block: u32,
) -> GroupMember<'a> {
    let strips = nrows.div_ceil(ZERO_STRIP).max(1);
    let grid = Grid::warp_per_item(strips, threads_per_block);
    GroupMember::new("zero_fill", grid, WARP_SIZE as u32, move |w| {
        let start = w.warp_id() * ZERO_STRIP;
        if start >= nrows {
            return;
        }
        let count = ZERO_STRIP.min(nrows - start);
        let zeros = [X::default(); WARP_SIZE];
        for y in &ys {
            let mut off = 0;
            while off < count {
                let chunk = (count - off).min(WARP_SIZE);
                w.store_span(y, start + off, &zeros[..chunk]);
                off += chunk;
            }
        }
    })
}

/// The per-bucket kernel body: identical per-row arithmetic to
/// [`vector_csr_spmv_tiled`](crate::vector_csr_spmv_tiled) (same chunked
/// span loads, same gather, same truncated reduction tree), except rows
/// are taken from the bucket's row-index array and sums scatter to their
/// original positions.
fn bucket_body<V: DoseScalar, I: ColIndex, X: VecScalar>(
    w: &mut WarpCtx,
    m: &GpuCsrMatrix<V, I>,
    rows_buf: &DeviceBuffer<u32>,
    n_bucket_rows: usize,
    tw: usize,
    xs: &[&DeviceBuffer<X>],
    ys: &[&DeviceOutBuffer<X>],
) {
    let k = xs.len();
    let base = w.tile_base();
    if base >= n_bucket_rows {
        return;
    }
    let rows_here = (w.tiles_per_warp() as usize).min(n_bucket_rows - base);
    // One coalesced read of the warp's row indices, then two warp-wide
    // gathers for the row-pointer pairs (the indices are not contiguous,
    // so span loads cannot be used — this is the partition's only extra
    // traffic, and it replaces the fixed-width kernel's pointer span).
    let rids = w.load_span(rows_buf, base..base + rows_here);
    let rids: [u32; WARP_SIZE] = {
        let mut a = [0u32; WARP_SIZE];
        a[..rows_here].copy_from_slice(rids);
        a
    };
    let mut idxs = [0usize; WARP_SIZE];
    let mut starts = [0u32; WARP_SIZE];
    let mut ends = [0u32; WARP_SIZE];
    for t in 0..rows_here {
        idxs[t] = rids[t] as usize;
    }
    w.load_gather(m.row_ptr(), &idxs[..rows_here], &mut starts);
    for t in 0..rows_here {
        idxs[t] = rids[t] as usize + 1;
    }
    w.load_gather(m.row_ptr(), &idxs[..rows_here], &mut ends);

    let mut lanes = [[X::default(); WARP_SIZE]; MAX_SPMM_BATCH];
    let mut gathered = [X::default(); WARP_SIZE];
    let mut sums = [[X::default(); WARP_SIZE]; MAX_SPMM_BATCH];

    for t in 0..rows_here {
        let start = starts[t] as usize;
        let end = ends[t] as usize;
        for l in lanes.iter_mut().take(k) {
            l[..tw].fill(X::default());
        }

        let mut j = start;
        while j < end {
            let n = (end - j).min(tw);
            let cols = w.load_span(m.col_idx(), j..j + n);
            let vals = w.load_span(m.values(), j..j + n);
            for kk in 0..n {
                idxs[kk] = cols[kk].to_usize();
            }
            for (v, x) in xs.iter().enumerate() {
                w.load_gather(x, &idxs[..n], &mut gathered);
                for kk in 0..n {
                    lanes[v][kk] = lanes[v][kk] + X::from_f64(vals[kk].to_f64()) * gathered[kk];
                }
            }
            w.add_flops(2 * n as u64 * k as u64);
            j += n;
        }

        for v in 0..k {
            sums[v][t] = w.reduce_sum_tile(&mut lanes[v][..tw]);
        }
    }

    // Scatter each row sum back to its original position.
    for t in 0..rows_here {
        for (v, y) in ys.iter().enumerate() {
            w.store_scalar(y, rids[t] as usize, sums[v][t]);
        }
    }
}

fn bucketed_members<'a, V: DoseScalar, I: ColIndex, X: VecScalar>(
    m: &'a GpuCsrMatrix<V, I>,
    xs: Vec<&'a DeviceBuffer<X>>,
    ys: Vec<&'a DeviceOutBuffer<X>>,
    threads_per_block: u32,
    gplan: &'a GpuRowPlan,
    widths: BucketWidths,
) -> Vec<GroupMember<'a>> {
    widths.assert_valid();
    assert_eq!(
        gplan.plan.nrows(),
        m.nrows(),
        "row plan was built for a different matrix"
    );
    assert_eq!(
        gplan.plan.nnz(),
        m.row_ptr().as_slice().last().map_or(0, |&e| e as usize),
        "row plan was built for a different matrix"
    );
    assert!(!xs.is_empty() && xs.len() <= MAX_SPMM_BATCH, "batch size");
    assert_eq!(xs.len(), ys.len(), "one output per input vector");
    for x in &xs {
        assert_eq!(x.len(), m.ncols(), "input vector length mismatch");
    }
    for y in &ys {
        assert_eq!(y.len(), m.nrows(), "output vector length mismatch");
    }

    let mut members = Vec::with_capacity(gplan.member_count());
    members.push(zero_fill_member(ys.clone(), m.nrows(), threads_per_block));
    for (i, bucket) in gplan.plan.buckets().iter().enumerate() {
        let Some(rows_buf) = &gplan.rows[i] else {
            continue;
        };
        let width = widths.0[i];
        let n = bucket.len();
        let grid = Grid::tile_per_item(n, width, threads_per_block);
        let xs = xs.clone();
        let ys = ys.clone();
        members.push(GroupMember::new(
            bucket_label(bucket.min_len, bucket.max_len),
            grid,
            width,
            move |w| bucket_body(w, m, rows_buf, n, width as usize, &xs, &ys),
        ));
    }
    members
}

/// Bucketed `y = A x`: zero-fills `y` deterministically, then launches
/// one width-matched tiled kernel per non-empty row bucket through
/// [`Gpu::launch_group`]. Returns the merged group counters with the
/// per-bucket breakdown.
///
/// Bitwise identical to [`vector_csr_spmv_tiled`](crate::vector_csr_spmv_tiled)
/// row-for-row at each row's bucket width (see the module docs).
pub fn vector_csr_spmv_bucketed<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuCsrMatrix<V, I>,
    x: &DeviceBuffer<X>,
    y: &DeviceOutBuffer<X>,
    threads_per_block: u32,
    gplan: &GpuRowPlan,
    widths: BucketWidths,
) -> GroupStats {
    let members = bucketed_members(m, vec![x], vec![y], threads_per_block, gplan, widths);
    gpu.launch_group(members)
}

/// Multi-vector (SpMM-style) bucketed dispatch: `ys[v] = A xs[v]` for
/// every `v`, sharing the matrix spans across vectors within each bucket
/// member exactly like [`vector_csr_spmm_tiled`](crate::vector_csr_spmm_tiled).
/// Per-vector arithmetic is identical to an unbatched
/// [`vector_csr_spmv_bucketed`] launch with the same widths.
pub fn vector_csr_spmm_bucketed<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuCsrMatrix<V, I>,
    xs: &[&DeviceBuffer<X>],
    ys: &[&DeviceOutBuffer<X>],
    threads_per_block: u32,
    gplan: &GpuRowPlan,
    widths: BucketWidths,
) -> GroupStats {
    let members = bucketed_members(
        m,
        xs.to_vec(),
        ys.to_vec(),
        threads_per_block,
        gplan,
        widths,
    );
    gpu.launch_group(members)
}

/// Bucketed back-projection `g = A^T r`, dispatched over a [`RowPlan`]
/// of the **transpose** (beamlet rows: empty beamlets dropped,
/// length-bucketed, width-matched per bucket). The kernels are the same
/// direction-agnostic bucket members as [`vector_csr_spmv_bucketed`] —
/// `t` must be the uploaded transpose and `gplan` its row plan, so the
/// name records which direction the partition describes.
///
/// Bitwise identical per beamlet-row to the fixed-width tiled kernel at
/// the row's bucket width, for any worker count or execution mode.
pub fn gradient_csr_spmv_bucketed<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    t: &GpuCsrMatrix<V, I>,
    r: &DeviceBuffer<X>,
    g: &DeviceOutBuffer<X>,
    threads_per_block: u32,
    gplan: &GpuRowPlan,
    widths: BucketWidths,
) -> GroupStats {
    vector_csr_spmv_bucketed(gpu, t, r, g, threads_per_block, gplan, widths)
}

/// Host-side reference of the exact arithmetic the bucketed dispatch
/// performs: each row is reduced with the truncated halving tree of its
/// bucket's width, empty rows are zero. Mirrors
/// [`vector_csr_tiled_reference`](crate::vector_csr_tiled_reference)
/// per row.
#[allow(clippy::needless_range_loop)] // mirrors the kernel's lane loop
pub fn vector_csr_bucketed_reference<V: DoseScalar, I: ColIndex, X: VecScalar>(
    m: &Csr<V, I>,
    x: &[X],
    widths: BucketWidths,
) -> Vec<X> {
    widths.assert_valid();
    let mut y = vec![X::default(); m.nrows()];
    for row in 0..m.nrows() {
        let (cols, vals) = m.row(row);
        if cols.is_empty() {
            continue; // zero-filled
        }
        let tw = widths.0[bucket_index_for_len(cols.len() as u32)] as usize;
        let mut lanes = vec![X::default(); tw];
        for (k, (c, v)) in cols.iter().zip(vals.iter()).enumerate() {
            let lane = k % tw;
            lanes[lane] = lanes[lane] + X::from_f64(v.to_f64()) * x[c.to_usize()];
        }
        let mut offset = tw / 2;
        while offset > 0 {
            for i in 0..offset {
                lanes[i] = lanes[i] + lanes[i + offset];
            }
            offset /= 2;
        }
        y[row] = lanes[0];
    }
    y
}

/// Assembles the fused [`GroupReport`] of a bucketed dispatch: merged
/// counters with a *single* launch-overhead charge (the members ran
/// back-to-back), plus the per-bucket breakdown — each member's own
/// counters, standalone time estimate, width, row count and true lane
/// occupancy (empty rows are eliminated, so no bucket ever reports a
/// padded-empty-row slot as occupied).
pub fn bucketed_group_report(
    spec: &DeviceSpec,
    profile: &KernelProfile,
    plan: &RowPlan,
    group: &GroupStats,
) -> GroupReport {
    let estimate = rt_gpusim::timing::estimate(spec, profile, &group.merged);
    let buckets = group
        .members
        .iter()
        .map(|member| {
            let (rows, lanes_active_frac) = if member.label == "zero_fill" {
                // A pure streaming store: every lane carries a value.
                (plan.nrows() as u64, 1.0)
            } else {
                let b = plan
                    .buckets()
                    .iter()
                    .find(|b| bucket_label(b.min_len, b.max_len) == member.label)
                    .expect("group member label matches no plan bucket");
                (b.len() as u64, b.lanes_active_frac(member.tile_width))
            };
            BucketReport {
                label: member.label.clone(),
                tile_width: member.tile_width,
                rows,
                lanes_active_frac,
                stats: member.stats.clone(),
                estimate: rt_gpusim::timing::estimate(spec, profile, &member.stats),
            }
        })
        .collect();
    GroupReport {
        kernel: profile.name.clone(),
        device: spec.name.to_string(),
        stats: group.merged.clone(),
        estimate,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiled::{vector_csr_spmv_tiled, vector_csr_tiled_reference};
    use crate::vector_csr::vector_csr_spmv;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_f16::F16;
    use rt_gpusim::{DeviceSpec, ExecMode};

    fn random_csr(nrows: usize, ncols: usize, max_row: usize, seed: u64) -> Csr<f64, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    return Vec::new();
                }
                let len = rng.gen_range(1..=max_row);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..2.0)))
                    .collect()
            })
            .collect();
        Csr::from_rows(ncols, &rows).unwrap()
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn natural_widths_match_bucketed_reference_bitwise() {
        let m64 = random_csr(500, 96, 60, 21);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..96).map(|i| (i as f64 * 0.31).sin() + 1.1).collect();
        let plan = Arc::new(RowPlan::from_csr(&m));

        let gpu = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, plan);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(500);
        let group =
            vector_csr_spmv_bucketed(&gpu, &gm, &dx, &dy, 256, &gplan, BucketWidths::natural());
        assert_eq!(
            bits(dy.to_vec()),
            bits(vector_csr_bucketed_reference(
                &m,
                &x,
                BucketWidths::natural()
            ))
        );
        // Flops: 2 per nnz (zero-fill adds none).
        assert_eq!(group.merged.flops, 2 * m.nnz() as u64);
        assert_eq!(group.members[0].label, "zero_fill");
    }

    #[test]
    fn uniform_widths_are_bitwise_identical_to_fixed_width_kernels() {
        let m64 = random_csr(300, 80, 48, 22);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..80).map(|i| 1.0 / (i + 2) as f64).collect();
        let plan = Arc::new(RowPlan::from_csr(&m));
        for &w in &TILE_WIDTHS {
            let gpu = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let gplan = GpuRowPlan::upload(&gpu, plan.clone());
            let dx = gpu.upload(&x);
            let fixed = gpu.alloc_out::<f64>(300);
            let bucketed = gpu.alloc_out::<f64>(300);
            vector_csr_spmv_tiled(&gpu, &gm, &dx, &fixed, 256, w);
            vector_csr_spmv_bucketed(
                &gpu,
                &gm,
                &dx,
                &bucketed,
                256,
                &gplan,
                BucketWidths::uniform(w),
            );
            assert_eq!(bits(fixed.to_vec()), bits(bucketed.to_vec()), "width {w}");
            // Width 32 uniform == classic kernel too.
            if w == 32 {
                let classic = gpu.alloc_out::<f64>(300);
                vector_csr_spmv(&gpu, &gm, &dx, &classic, 256);
                assert_eq!(bits(classic.to_vec()), bits(bucketed.to_vec()));
            }
        }
    }

    #[test]
    fn reference_rows_match_tiled_reference_per_bucket_width() {
        let m64 = random_csr(200, 64, 40, 23);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).cos()).collect();
        let widths = BucketWidths::natural();
        let want = vector_csr_bucketed_reference(&m, &x, widths);
        for row in 0..m.nrows() {
            let len = m.row_len(row);
            if len == 0 {
                assert_eq!(want[row], 0.0);
                continue;
            }
            let w = widths.0[bucket_index_for_len(len as u32)];
            let tiled = vector_csr_tiled_reference(&m, &x, w);
            assert_eq!(want[row].to_bits(), tiled[row].to_bits(), "row {row}");
        }
    }

    #[test]
    fn bucketed_schedules_fewer_warps_than_fixed_on_empty_heavy_matrix() {
        // 4096 rows, 87.5% empty, non-empty rows of length 1-2 — the
        // Table I shape the partition exists for.
        let rows: Vec<Vec<(usize, f64)>> = (0..4096)
            .map(|r| {
                if r % 8 != 0 {
                    Vec::new()
                } else if r % 16 == 0 {
                    vec![(r % 128, 1.5)]
                } else {
                    vec![(r % 128, 0.5), ((r + 7) % 128, 2.0)]
                }
            })
            .collect();
        let m: Csr<F16, u32> = Csr::from_rows(128, &rows)
            .map(|m: Csr<f64, u32>| m.convert_values())
            .unwrap();
        let x = vec![1.0f64; 128];
        let plan = Arc::new(RowPlan::from_csr(&m));
        assert_eq!(plan.empty_rows(), 4096 - 512);

        let gpu = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, plan);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(4096);
        let group =
            vector_csr_spmv_bucketed(&gpu, &gm, &dx, &dy, 256, &gplan, BucketWidths::natural());

        let gpu2 = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
        let gm2 = GpuCsrMatrix::upload(&gpu2, &m);
        let dx2 = gpu2.upload(&x);
        let dy2 = gpu2.alloc_out::<f64>(4096);
        let fixed = vector_csr_spmv_tiled(&gpu2, &gm2, &dx2, &dy2, 256, 2);
        assert!(
            group.merged.warps < fixed.warps / 2,
            "bucketed {} vs fixed-w2 {}",
            group.merged.warps,
            fixed.warps
        );
        assert_eq!(bits(dy.to_vec()), bits(dy2.to_vec()));
    }

    #[test]
    fn spmm_bucketed_matches_spmv_bucketed_per_vector() {
        let m64 = random_csr(180, 64, 20, 25);
        let m: Csr<F16, u32> = m64.convert_values();
        let plan = Arc::new(RowPlan::from_csr(&m));
        let vectors: Vec<Vec<f64>> = (0..3)
            .map(|v| {
                (0..64)
                    .map(|i| ((v * 64 + i) as f64 * 0.13).sin())
                    .collect()
            })
            .collect();
        let widths = BucketWidths::natural();

        let gpu = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, plan.clone());
        let dxs: Vec<_> = vectors.iter().map(|x| gpu.upload(x)).collect();
        let dys: Vec<_> = (0..3).map(|_| gpu.alloc_out::<f64>(180)).collect();
        let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
        let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
        let group = vector_csr_spmm_bucketed(&gpu, &gm, &xr, &yr, 256, &gplan, widths);
        assert_eq!(group.merged.flops, 2 * m.nnz() as u64 * 3);

        for (v, x) in vectors.iter().enumerate() {
            assert_eq!(
                bits(dys[v].to_vec()),
                bits(vector_csr_bucketed_reference(&m, x, widths)),
                "vector {v}"
            );
        }
    }

    #[test]
    fn all_empty_matrix_only_zero_fills() {
        let m: Csr<F16, u32> = Csr::from_rows(8, &[vec![], vec![], vec![]])
            .map(|m: Csr<f64, u32>| m.convert_values())
            .unwrap();
        let plan = Arc::new(RowPlan::from_csr(&m));
        let gpu = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, plan);
        let dx = gpu.upload(&[1.0f64; 8]);
        let dy = gpu.alloc_out::<f64>(3);
        dy.set(0, 99.0);
        dy.set(2, 99.0);
        let group =
            vector_csr_spmv_bucketed(&gpu, &gm, &dx, &dy, 128, &gplan, BucketWidths::natural());
        assert_eq!(dy.to_vec(), vec![0.0, 0.0, 0.0]);
        assert_eq!(group.members.len(), 1); // zero_fill only
        assert_eq!(group.merged.flops, 0);
    }

    #[test]
    fn group_report_breaks_down_buckets() {
        let m64 = random_csr(400, 96, 40, 26);
        let m: Csr<F16, u32> = m64.convert_values();
        let x = vec![1.0f64; 96];
        let plan = Arc::new(RowPlan::from_csr(&m));
        let gpu = Gpu::with_mode(DeviceSpec::a100(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, plan.clone());
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(400);
        let widths = BucketWidths::natural();
        let group = vector_csr_spmv_bucketed(&gpu, &gm, &dx, &dy, 256, &gplan, widths);
        let report =
            bucketed_group_report(gpu.spec(), &crate::profile_half_double(), &plan, &group);
        assert_eq!(report.buckets.len(), group.members.len());
        assert_eq!(report.buckets[0].label, "zero_fill");
        assert_eq!(report.buckets[0].rows, 400);
        // The fused estimate pays launch overhead once: it is cheaper
        // than the sum of standalone member estimates.
        let standalone: f64 = report.buckets.iter().map(|b| b.estimate.seconds).sum();
        assert!(report.estimate.seconds < standalone);
        // Row counts across non-zero-fill buckets = non-empty rows.
        let rows: u64 = report.buckets[1..].iter().map(|b| b.rows).sum();
        assert_eq!(rows, plan.nonempty_rows() as u64);
        // Occupancy is a real fraction and never counts empty rows.
        for b in &report.buckets[1..] {
            assert!(b.lanes_active_frac > 0.0 && b.lanes_active_frac <= 1.0);
        }
        let j = report.to_json();
        assert!(j.contains("\"buckets\""));
    }

    #[test]
    #[should_panic(expected = "bucket widths")]
    fn rejects_invalid_bucket_width() {
        let m: Csr<F16, u32> = Csr::from_rows(2, &[vec![(0, 1.0)]])
            .map(|m: Csr<f64, u32>| m.convert_values())
            .unwrap();
        let plan = Arc::new(RowPlan::from_csr(&m));
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, plan);
        let dx = gpu.upload(&[1.0f64; 2]);
        let dy = gpu.alloc_out::<f64>(1);
        vector_csr_spmv_bucketed(&gpu, &gm, &dx, &dy, 128, &gplan, BucketWidths([7; 6]));
    }
}
