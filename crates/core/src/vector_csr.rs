//! The vector CSR kernel — the paper's Listing 1, in its mixed-precision
//! generic form — and its sub-warp tiled variant, behind one launch
//! entry point, [`vector_csr_spmm`].
//!
//! **Width 32 (Listing 1).** One warp of 32 lanes processes each matrix
//! row: lane `k` accumulates elements `start+k, start+32+k, ...` of the
//! row (so consecutive lanes always read consecutive elements of the
//! value and column-index arrays — the coalescing argument of §III),
//! gathers the corresponding input vector entries, and a fixed-order
//! shuffle-down tree (the cooperative groups `reduce`) folds the 32
//! partial sums. Because the per-lane accumulation order and the
//! reduction tree are fixed, the result is **bitwise reproducible** —
//! the RayStation requirement that rules out atomics (§II-D).
//!
//! **Narrower widths (sub-warp tiles).** The paper's own Figure 2 shows
//! dose-deposition rows are mostly *short* — the average non-empty row
//! is well under 32 entries, so most lanes compute zeros and the gather
//! is padded. CUDA cooperative groups support `tiled_partition<W>` for
//! exactly this case: a warp is split into `32 / W` tiles of `W` lanes,
//! each tile owning one row. A width-`W` launch therefore runs
//!
//! * **fewer warps** — `ceil(nrows * W / 32)` instead of `nrows`, which
//!   cuts the per-warp fixed overhead term of the timing model (the term
//!   that dominates short-row matrices);
//! * **fewer padded lanes** — a row of length `l` costs
//!   `ceil(l / W) * W` lane slots instead of `ceil(l / 32) * 32`
//!   ([`RowStats::lanes_active_frac`](rt_sparse::stats::RowStats::lanes_active_frac));
//! * **the same reproducibility contract** — per width, the per-lane
//!   accumulation order and the [`reduce_sum`] halving tree are fixed,
//!   so every width is bitwise reproducible run-to-run and across launch
//!   configurations. Results
//!   legitimately differ *between* widths (a different tree folds the
//!   partial sums in a different order).
//!
//! The cost of narrow tiles is memory-side: each tile's span loads touch
//! at most `W` consecutive elements, so long rows issue more, smaller L2
//! sector transactions than a full-warp pass would. The
//! [`KernelSelect`](crate::KernelSelect) autotuner weighs exactly this
//! trade via the traffic counters.
//!
//! **Batching.** Every launch takes `k <= MAX_SPMM_BATCH` input vectors;
//! a single SpMV is the one-vector call. The matrix spans are loaded
//! once per row and shared by every vector's gather, and each vector's
//! arithmetic is the unbatched one, so batching never changes a dose.
//!
//! Every kernel of this crate whose lanes stride across a row's
//! non-zeros — both bodies here, the bucketed members and the Ginkgo
//! stand-in — gets its row sums from one call, `row_sums`: one compute
//! loop plus an address pass. The address pass runs only when the warp
//! is traced and issues the row's span loads and gathers in the order a
//! warp does. The compute loop runs always and reads the arrays directly,
//! so a launch-memo hit, which runs untraced, does only the arithmetic.
//! One loop serves both, so an interpreted launch and a memo hit store
//! the same bits. The kernels differ only in how they find their rows
//! and store the sums.

use crate::bucketed::BucketWidths;
use rt_f16::DoseScalar;
use rt_gpusim::buffer::OutScalar;
use rt_gpusim::{
    reduce_sum, DeviceBuffer, DeviceOutBuffer, Gpu, Grid, GroupMember, KernelStats, WarpCtx,
    TILE_WIDTHS, WARP_SIZE,
};
use rt_sparse::{bucket_index_for_len, ColIndex, Csr};

/// Scalar type usable for the input/output vectors and the accumulator.
pub trait VecScalar:
    DoseScalar + OutScalar + core::ops::Add<Output = Self> + core::ops::Mul<Output = Self> + Default
{
}

impl VecScalar for f64 {}
impl VecScalar for f32 {}

/// A CSR matrix resident in simulated device memory.
pub struct GpuCsrMatrix<V, I = u32> {
    nrows: usize,
    ncols: usize,
    row_ptr: DeviceBuffer<u32>,
    col_idx: DeviceBuffer<I>,
    values: DeviceBuffer<V>,
}

impl<V: DoseScalar, I: ColIndex> GpuCsrMatrix<V, I> {
    /// Uploads a host CSR matrix ("cudaMemcpy H2D").
    pub fn upload(gpu: &Gpu, m: &Csr<V, I>) -> Self {
        GpuCsrMatrix {
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_ptr: gpu.upload(m.row_ptr()),
            col_idx: gpu.upload(m.col_idx()),
            values: gpu.upload(m.values()),
        }
    }

    /// Like [`GpuCsrMatrix::upload`], registering each array for
    /// per-buffer traffic attribution as `row_ptr`, `col_idx`, `values`.
    pub fn upload_named(gpu: &Gpu, m: &Csr<V, I>) -> Self {
        GpuCsrMatrix {
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_ptr: gpu.upload_named("row_ptr", m.row_ptr()),
            col_idx: gpu.upload_named("col_idx", m.col_idx()),
            values: gpu.upload_named("values", m.values()),
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

    /// Device footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.row_ptr.size_bytes() + self.col_idx.size_bytes() + self.values.size_bytes()
    }

    #[inline]
    pub fn row_ptr(&self) -> &DeviceBuffer<u32> {
        &self.row_ptr
    }

    #[inline]
    pub fn col_idx(&self) -> &DeviceBuffer<I> {
        &self.col_idx
    }

    #[inline]
    pub fn values(&self) -> &DeviceBuffer<V> {
        &self.values
    }
}

/// Maximum input vectors fused into one [`vector_csr_spmm`] launch (the
/// per-warp accumulator state is `MAX_SPMM_BATCH * 32` scalars on the
/// simulated register file, like a real multi-vector kernel's unroll
/// factor).
pub const MAX_SPMM_BATCH: usize = 8;

/// Launches the vector CSR kernel: `ys[v] = A xs[v]` for every `v`, one
/// width-`width` cooperative tile per matrix row (`32 / width` rows per
/// warp), all vectors in a single launch. A single SpMV passes one-element
/// slices.
///
/// `V` is the matrix storage scalar (`F16` for the paper's Half/double
/// configuration, `f32` for Single), `X` the vector/accumulator scalar
/// (`f64` / `f32` respectively). `threads_per_block` is the Figure 4
/// sweep parameter (the paper settles on 512). `width` must be one of
/// [`TILE_WIDTHS`]:
///
/// * `32` runs Listing 1, one warp per row: two scalar row-pointer loads
///   per row and one scalar store per row and vector;
/// * narrower widths load the row pointers of all the warp's rows with
///   one coalesced span and store each vector's row sums with one
///   coalesced span per warp — on hardware the tiles of a warp execute
///   the same instruction, so their same-PC accesses coalesce warp-wide.
///
/// The matrix arrays are loaded **once per row** and reused across the
/// `k` vectors — the traffic saving that makes batching compatible
/// requests worthwhile (the matrix dominates SpMV traffic at ~6
/// bytes/nnz, so a k-batch approaches a k-fold reduction of the dominant
/// term). Per-vector arithmetic is identical for every `k`: the same lane
/// partitioning and the same fixed reduction tree per vector, so each
/// output is bitwise identical to a one-vector launch at the same width
/// — batching can never change a plan's dose (§II-D holds regardless of
/// how a serving engine groups requests).
///
/// Internal invariants (callers validate at the API boundary): at most
/// [`MAX_SPMM_BATCH`] vectors, `xs.len() == ys.len()`, every `xs[v]` of
/// length `ncols`, every `ys[v]` of length `nrows`.
pub fn vector_csr_spmm<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuCsrMatrix<V, I>,
    xs: &[&DeviceBuffer<X>],
    ys: &[&DeviceOutBuffer<X>],
    threads_per_block: u32,
    width: u32,
) -> KernelStats {
    let member = vector_csr_member(m, xs.to_vec(), ys.to_vec(), threads_per_block, width);
    gpu.launch_group(None, vec![member]).merged
}

/// The one launch of a [`vector_csr_spmm`] call as a group member, so a
/// caller can run it through [`Gpu::launch_group`] with a key.
pub fn vector_csr_member<'a, V: DoseScalar, I: ColIndex, X: VecScalar>(
    m: &'a GpuCsrMatrix<V, I>,
    xs: Vec<&'a DeviceBuffer<X>>,
    ys: Vec<&'a DeviceOutBuffer<X>>,
    threads_per_block: u32,
    width: u32,
) -> GroupMember<'a> {
    assert!(
        TILE_WIDTHS.contains(&width),
        "tile width must be one of {TILE_WIDTHS:?}, got {width}"
    );
    assert_batch(m, &xs, &ys);
    let grid = Grid::tile_per_item(m.nrows, width, threads_per_block);
    let label = format!("width {width}");
    if width as usize == WARP_SIZE {
        GroupMember::new(label, grid, width, move |w| warp_per_row(w, m, &xs, &ys))
    } else {
        GroupMember::new(label, grid, width, move |w| tile_per_row(w, m, &xs, &ys))
    }
}

/// Asserts the batch invariants of a vector-CSR launch: one to
/// [`MAX_SPMM_BATCH`] vectors, one output per input, and vector lengths
/// matching the matrix.
pub(crate) fn assert_batch<V, I, X: VecScalar>(
    m: &GpuCsrMatrix<V, I>,
    xs: &[&DeviceBuffer<X>],
    ys: &[&DeviceOutBuffer<X>],
) {
    assert!(!xs.is_empty() && xs.len() <= MAX_SPMM_BATCH, "batch size");
    assert_eq!(xs.len(), ys.len(), "one output per input vector");
    for x in xs {
        assert_eq!(x.len(), m.ncols, "input vector length mismatch");
    }
    for y in ys {
        assert_eq!(y.len(), m.nrows, "output vector length mismatch");
    }
}

/// The one row loop of every vector-CSR kernel: the sums of row
/// `start..end` against each vector of `xs`, with `width` lanes striding
/// the row. It runs in two passes.
///
/// * The **address pass**, run only when the warp is traced, issues the
///   row's traffic: chunk by chunk of `width` elements, one `col_idx` and
///   one `values` span, then one gather per vector.
/// * The **compute pass** reads the arrays directly. For each vector, lane
///   `k` accumulates `value * x[col]` over elements `k, k + width, ...` in
///   order, and [`reduce_sum`] folds the `width` lanes.
///
/// The arithmetic is the same traced or not, so a launch-memo hit (run
/// untraced) stores the bits an interpreted launch stores. Sums past
/// `xs.len()` are zero, and an empty row sums to `+0.0`.
#[inline]
pub(crate) fn row_sums<V: DoseScalar, I: ColIndex, X: VecScalar>(
    w: &WarpCtx,
    m: &GpuCsrMatrix<V, I>,
    start: usize,
    end: usize,
    width: usize,
    xs: &[&DeviceBuffer<X>],
) -> [X; MAX_SPMM_BATCH] {
    let mut sums = [X::default(); MAX_SPMM_BATCH];
    if start == end {
        return sums;
    }
    let cols = &m.col_idx.as_slice()[start..end];
    let vals = &m.values.as_slice()[start..end];
    if w.traced() {
        trace_row(w, m, start, cols, width, xs);
    }
    // Element `i` goes to lane `i % width`; widths are powers of two.
    let lane_mask = (width - 1) & (WARP_SIZE - 1);
    let mut lanes = [X::default(); WARP_SIZE];
    for (x, sum) in xs.iter().zip(&mut sums) {
        let x = x.as_slice();
        lanes[..width].fill(X::default());
        for (i, (c, v)) in cols.iter().zip(vals).enumerate() {
            let l = &mut lanes[i & lane_mask];
            *l = *l + X::from_f64(v.to_f64()) * x[c.to_usize()];
        }
        *sum = reduce_sum(&mut lanes[..width]);
    }
    sums
}

/// The address pass of [`row_sums`]: the traffic and flops of the row
/// whose column indices `cols` start at element `start`, in the order a
/// warp issues them.
fn trace_row<V: DoseScalar, I: ColIndex, X: VecScalar>(
    w: &WarpCtx,
    m: &GpuCsrMatrix<V, I>,
    start: usize,
    cols: &[I],
    width: usize,
    xs: &[&DeviceBuffer<X>],
) {
    let mut idxs = [0usize; WARP_SIZE];
    let mut j = start;
    for chunk in cols.chunks(width) {
        let span = j..j + chunk.len();
        w.trace_span(&m.col_idx, span.clone());
        w.trace_span(&m.values, span);
        for (idx, c) in idxs.iter_mut().zip(chunk) {
            *idx = c.to_usize();
        }
        for x in xs {
            w.trace_gather(x, &idxs[..chunk.len()]);
        }
        j += chunk.len();
    }
    w.add_flops(2 * cols.len() as u64 * xs.len() as u64);
}

/// Listing 1: one warp per row, scalar row-pointer loads, the full-warp
/// shuffle-down reduction, one scalar store per vector.
fn warp_per_row<V: DoseScalar, I: ColIndex, X: VecScalar>(
    w: &WarpCtx,
    m: &GpuCsrMatrix<V, I>,
    xs: &[&DeviceBuffer<X>],
    ys: &[&DeviceOutBuffer<X>],
) {
    let row = w.warp_id();
    if row >= m.nrows {
        return;
    }
    let start = w.load_scalar(&m.row_ptr, row) as usize;
    let end = w.load_scalar(&m.row_ptr, row + 1) as usize;
    let sums = row_sums(w, m, start, end, WARP_SIZE, xs);
    for (&sum, y) in sums.iter().zip(ys) {
        w.store_scalar(y, row, sum);
    }
}

/// Sub-warp tiles: `32 / width` consecutive rows per warp, one coalesced
/// row-pointer span and one coalesced store span per vector per warp.
fn tile_per_row<V: DoseScalar, I: ColIndex, X: VecScalar>(
    w: &WarpCtx,
    m: &GpuCsrMatrix<V, I>,
    xs: &[&DeviceBuffer<X>],
    ys: &[&DeviceOutBuffer<X>],
) {
    let nrows = m.nrows;
    let tw = w.tile_width() as usize;
    let base = w.tile_base();
    if base >= nrows {
        return;
    }
    let rows_here = (w.tiles_per_warp() as usize).min(nrows - base);
    // One coalesced row-pointer read for the whole warp's rows.
    let ptrs = w.load_span(&m.row_ptr, base..base + rows_here + 1);

    // `sums[v][t]`: tile `t`'s row sum against vector `v`.
    let mut sums = [[X::default(); WARP_SIZE]; MAX_SPMM_BATCH];
    for t in 0..rows_here {
        let row = row_sums(w, m, ptrs[t] as usize, ptrs[t + 1] as usize, tw, xs);
        for (s, sum) in sums[..xs.len()].iter_mut().zip(row) {
            s[t] = sum;
        }
    }

    // One coalesced store of all the warp's row sums per vector.
    for (s, y) in sums.iter().zip(ys) {
        w.store_span(y, base, &s[..rows_here]);
    }
}

/// Host-side reference of the exact arithmetic every vector-CSR launch
/// performs — same lane partitioning, same (truncated) halving tree —
/// used by the bitwise-reproducibility tests. Each row is reduced at its
/// bucket's width in `widths`; a whole-matrix launch at width `w` is
/// [`BucketWidths::uniform`]`(w)`. Empty rows are `+0.0`, as every
/// kernel stores them.
///
/// It spells out its own lane loop (`k % width`) and halving tree rather
/// than calling the kernels' `row_sums` or [`reduce_sum`]: it is the
/// independent oracle, so a fault in the shared loop or tree makes the
/// kernels disagree with it instead of moving both.
#[allow(clippy::needless_range_loop)] // mirrors the kernel's lane loop
pub fn vector_csr_reference<V: DoseScalar, I: ColIndex, X: VecScalar>(
    m: &Csr<V, I>,
    x: &[X],
    widths: BucketWidths,
) -> Vec<X> {
    widths.assert_valid();
    let mut y = vec![X::default(); m.nrows()];
    for row in 0..m.nrows() {
        let (cols, vals) = m.row(row);
        if cols.is_empty() {
            continue;
        }
        let tw = widths.0[bucket_index_for_len(cols.len() as u32)] as usize;
        let mut lanes = [X::default(); WARP_SIZE];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucketed::{vector_csr_bucketed_members, GpuRowPlan};
    use crate::libs::{ginkgo_member, ginkgo_subwarp_size};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_f16::F16;
    use rt_gpusim::{DeviceSpec, GroupStats};
    use rt_sparse::RowPlan;
    use std::sync::Arc;

    fn random_csr(nrows: usize, ncols: usize, max_row: usize, seed: u64) -> Csr<f64, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    return Vec::new(); // empty rows, like the real matrices
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

    /// One-vector launch `y = A x` at `width`.
    fn spmv<V: DoseScalar, X: VecScalar>(
        gpu: &Gpu,
        m: &GpuCsrMatrix<V>,
        x: &DeviceBuffer<X>,
        y: &DeviceOutBuffer<X>,
        tpb: u32,
        width: u32,
    ) -> KernelStats {
        vector_csr_spmm(gpu, m, &[x], &[y], tpb, width)
    }

    fn bits<X: DoseScalar>(v: &[X]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    #[test]
    fn matches_reference_spmv_half_double() {
        let m64 = random_csr(300, 64, 80, 1);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();

        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(300);
        let stats = spmv(&gpu, &gm, &dx, &dy, 512, 32);

        let mut want = vec![0.0; 300];
        m.spmv_ref(&x, &mut want).unwrap();
        let got = dy.to_vec();
        for (g, w) in got.iter().zip(want.iter()) {
            // Same values summed in different order: tolerance only.
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
        assert_eq!(stats.flops, 2 * m.nnz() as u64);
    }

    #[test]
    fn bitwise_reproducible_across_runs() {
        let m64 = random_csr(200, 128, 120, 2);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..128).map(|i| 1.0 / (i + 1) as f64).collect();

        let run = || {
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(200);
            spmv(&gpu, &gm, &dx, &dy, 512, 32);
            dy.to_vec()
        };
        let a = run();
        assert_eq!(bits(&a), bits(&run()), "runs must agree bitwise");

        // And they match the documented lane/tree arithmetic exactly.
        let want = vector_csr_reference(&m, &x, BucketWidths::uniform(32));
        assert_eq!(bits(&a), bits(&want));
    }

    #[test]
    fn single_precision_variant() {
        let m64 = random_csr(150, 80, 60, 3);
        let m32: Csr<f32, u32> = m64.convert_values();
        let x: Vec<f32> = (0..80).map(|i| (i as f32 * 0.1).cos()).collect();

        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m32);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f32>(150);
        spmv(&gpu, &gm, &dx, &dy, 256, 32);

        let want = vector_csr_reference(&m32, &x, BucketWidths::uniform(32));
        assert_eq!(bits(&dy.to_vec()), bits(&want));
    }

    #[test]
    fn u16_indices_work() {
        let m64 = random_csr(100, 50, 40, 4);
        let m: Csr<F16, u16> = m64.convert_values().convert_indices().unwrap();
        let x: Vec<f64> = vec![1.0; 50];
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(100);
        let stats16 = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, 32);

        // Compare traffic against u32 indices: strictly less.
        let m32: Csr<F16, u32> = m64.convert_values();
        let gpu2 = Gpu::new(DeviceSpec::a100());
        let gm32 = GpuCsrMatrix::upload(&gpu2, &m32);
        let dx2 = gpu2.upload(&x);
        let dy2 = gpu2.alloc_out::<f64>(100);
        let stats32 = spmv(&gpu2, &gm32, &dx2, &dy2, 512, 32);

        assert!(stats16.dram_read_bytes < stats32.dram_read_bytes);
        // Same numeric results.
        assert_eq!(dy.to_vec(), dy2.to_vec());
    }

    #[test]
    fn every_width_matches_tiled_reference_bitwise() {
        let m64 = random_csr(400, 96, 24, 11);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..96).map(|i| (i as f64 * 0.29).sin() + 1.2).collect();
        for &w in &TILE_WIDTHS {
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(400);
            let stats = spmv(&gpu, &gm, &dx, &dy, 512, w);
            assert_eq!(stats.flops, 2 * m.nnz() as u64, "width {w}");

            let want = vector_csr_reference(&m, &x, BucketWidths::uniform(w));
            assert_eq!(bits(&dy.to_vec()), bits(&want), "width {w}");
        }
    }

    #[test]
    fn tolerance_against_host_spmv() {
        let m64 = random_csr(500, 64, 16, 13);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.43).cos() + 1.5).collect();
        let mut want = vec![0.0; 500];
        m.spmv_ref(&x, &mut want).unwrap();
        for &w in &TILE_WIDTHS {
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(500);
            spmv(&gpu, &gm, &dx, &dy, 512, w);
            for (g, want) in dy.to_vec().iter().zip(want.iter()) {
                assert!(
                    (g - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "width {w}: {g} vs {want}"
                );
            }
        }
    }

    #[test]
    fn narrow_tiles_launch_fewer_warps_on_short_rows() {
        let m64 = random_csr(2000, 256, 8, 14);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = vec![1.0; 256];

        let run = |w: u32| {
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(2000);
            spmv(&gpu, &gm, &dx, &dy, 512, w)
        };
        let narrow = run(4);
        let wide = run(32);
        assert!(
            narrow.warps * 4 <= wide.warps,
            "narrow {} vs wide {}",
            narrow.warps,
            wide.warps
        );
    }

    #[test]
    fn batch_matches_one_vector_launches_bitwise() {
        let m64 = random_csr(250, 96, 100, 9);
        let m: Csr<F16, u32> = m64.convert_values();
        let vectors: Vec<Vec<f64>> = (0..5)
            .map(|v| {
                (0..96)
                    .map(|i| ((v * 96 + i) as f64 * 0.21).sin())
                    .collect()
            })
            .collect();

        for &w in &[32u32, 16, 4] {
            // Batched launch.
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dxs: Vec<_> = vectors.iter().map(|x| gpu.upload(x)).collect();
            let dys: Vec<_> = (0..5).map(|_| gpu.alloc_out::<f64>(250)).collect();
            let xrefs: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
            let yrefs: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
            let stats = vector_csr_spmm(&gpu, &gm, &xrefs, &yrefs, 512, w);
            assert_eq!(stats.flops, 2 * m.nnz() as u64 * 5, "width {w}");

            // Each output must be bitwise identical to a one-vector launch.
            for (v, x) in vectors.iter().enumerate() {
                let gpu1 = Gpu::new(DeviceSpec::a100());
                let gm1 = GpuCsrMatrix::upload(&gpu1, &m);
                let dx = gpu1.upload(x);
                let dy = gpu1.alloc_out::<f64>(250);
                spmv(&gpu1, &gm1, &dx, &dy, 512, w);
                assert_eq!(
                    bits(&dys[v].to_vec()),
                    bits(&dy.to_vec()),
                    "width {w}: vector {v} must not depend on batching"
                );
            }
        }
    }

    #[test]
    fn spmm_saves_matrix_traffic() {
        // A batch of k vectors must move far fewer matrix bytes than k
        // single launches: the spans are loaded once per row.
        let m64 = random_csr(2000, 200, 240, 10);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = vec![1.0; 200];

        let single = {
            let gpu = Gpu::new(DeviceSpec::a100().scaled_l2(1000.0));
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(2000);
            spmv(&gpu, &gm, &dx, &dy, 512, 32)
        };
        let batched = {
            let gpu = Gpu::new(DeviceSpec::a100().scaled_l2(1000.0));
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dxs: Vec<_> = (0..4).map(|_| gpu.upload(&x)).collect();
            let dys: Vec<_> = (0..4).map(|_| gpu.alloc_out::<f64>(2000)).collect();
            let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
            let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
            vector_csr_spmm(&gpu, &gm, &xr, &yr, 512, 32)
        };
        // 4 single launches would read ~4x the matrix; the batch must
        // stay well under 2x one launch's DRAM reads.
        assert!(
            batched.dram_read_bytes < single.dram_read_bytes * 2,
            "batched {} vs single {}",
            batched.dram_read_bytes,
            single.dram_read_bytes
        );
    }

    #[test]
    fn empty_rows_store_zero_at_every_width() {
        for &w in &TILE_WIDTHS {
            // Five warps of `32 / w` rows: warp 0 starts with an empty
            // row, warp 1 has one mid-warp, warp 2 ends with one, warp 3
            // is all empty rows and warp 4 has none.
            let per_warp = WARP_SIZE / w as usize;
            let empty = |r: usize| {
                let slot = r % per_warp;
                match r / per_warp {
                    0 => slot == 0,
                    1 => slot == per_warp / 2,
                    2 => slot == per_warp - 1,
                    3 => true,
                    _ => false,
                }
            };
            let ncols = 40;
            let rows: Vec<Vec<(usize, f64)>> = (0..5 * per_warp)
                .map(|r| {
                    let len = if empty(r) { 0 } else { 1 + r % 37 };
                    let mut row: Vec<_> = (0..len)
                        .map(|k| ((r + 3 * k) % ncols, 0.25 + k as f64))
                        .collect();
                    row.sort_unstable_by_key(|&(c, _)| c);
                    row
                })
                .collect();
            let m: Csr<F16, u32> = Csr::<f64, u32>::from_rows(ncols, &rows)
                .unwrap()
                .convert_values();
            let xs: Vec<Vec<f64>> = (0..MAX_SPMM_BATCH)
                .map(|v| {
                    (0..ncols)
                        .map(|i| ((v * ncols + i) as f64 * 0.37).sin())
                        .collect()
                })
                .collect();

            for batch in [1, MAX_SPMM_BATCH] {
                let gpu = Gpu::new(DeviceSpec::a100());
                let gm = GpuCsrMatrix::upload(&gpu, &m);
                let dxs: Vec<_> = xs[..batch].iter().map(|x| gpu.upload(x)).collect();
                let dys: Vec<_> = (0..batch)
                    .map(|_| gpu.alloc_out::<f64>(m.nrows()))
                    .collect();
                let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
                let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
                // Pre-fill with -0.0, which `==` cannot tell from the +0.0
                // an empty row must store, so only a bit compare passes.
                let launch = |run: &dyn Fn()| {
                    for y in &dys {
                        (0..y.len()).for_each(|r| y.set(r, -0.0));
                    }
                    run();
                    for (v, y) in dys.iter().enumerate() {
                        let got = y.to_vec();
                        let want = vector_csr_reference(&m, &xs[v], BucketWidths::uniform(w));
                        assert_eq!(bits(&got), bits(&want), "width {w} batch {batch}");
                        for r in (0..got.len()).filter(|&r| empty(r)) {
                            assert_eq!(got[r].to_bits(), 0, "width {w} batch {batch} row {r}");
                        }
                    }
                };
                launch(&|| {
                    vector_csr_spmm(&gpu, &gm, &xr, &yr, 128, w);
                });
                // Keyed: recorded, then interpreted resident, then
                // answered from the memo with the kernel run untraced.
                for _ in 0..3 {
                    launch(&|| {
                        let member = vector_csr_member(&gm, xr.clone(), yr.clone(), 128, w);
                        gpu.launch_group(Some(1), vec![member]);
                    });
                }
                assert_eq!(gpu.memo_counts().hits, 1, "width {w} batch {batch}");
            }
        }
    }

    /// A vector-CSR family member under test.
    #[derive(Clone, Copy, Debug)]
    enum Member {
        Whole(u32),
        Bucketed(BucketWidths),
        Ginkgo,
    }

    /// Uploads `m`, its row plan and `xs` on `gpu`, then launches
    /// `member` three times with `key`, NaN-filling the outputs before
    /// each launch. Returns each launch's output bits and counters.
    fn three_launches(
        gpu: &Gpu,
        m: &Csr<F16, u32>,
        xs: &[Vec<f64>],
        member: Member,
        key: Option<u64>,
    ) -> Vec<(Vec<Vec<u64>>, GroupStats)> {
        let gm = GpuCsrMatrix::upload(gpu, m);
        let gplan = GpuRowPlan::upload(gpu, Arc::new(RowPlan::from_csr(m)));
        let dxs: Vec<_> = xs.iter().map(|x| gpu.upload(x)).collect();
        let dys: Vec<_> = xs.iter().map(|_| gpu.alloc_out::<f64>(m.nrows())).collect();
        let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
        let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
        (0..3)
            .map(|_| {
                for y in &dys {
                    (0..y.len()).for_each(|r| y.set(r, f64::NAN));
                }
                let members = match member {
                    Member::Whole(w) => {
                        vec![vector_csr_member(&gm, xr.clone(), yr.clone(), 128, w)]
                    }
                    Member::Bucketed(widths) => vector_csr_bucketed_members(
                        &gm,
                        xr.clone(),
                        yr.clone(),
                        128,
                        &gplan,
                        widths,
                    ),
                    Member::Ginkgo => vec![ginkgo_member(&gm, xr[0], yr[0])],
                };
                let stats = gpu.launch_group(key, members);
                (dys.iter().map(|y| bits(&y.to_vec())).collect(), stats)
            })
            .collect()
    }

    /// A matrix, its input vectors, the member that multiplies them and
    /// the per-row widths of its reference.
    type Case<'a> = (&'a Csr<F16, u32>, &'a [Vec<f64>], Member, BucketWidths);

    /// Every kernel on the shared row loop, at batch 1 and 8 (the Ginkgo
    /// stand-in takes one vector): the interpreted launches and the memo
    /// hit that follows them store the reference's bits, and the keyed
    /// launches' counters equal an un-keyed twin's, launch by launch.
    #[test]
    fn both_passes_match_the_reference_interpreted_and_from_the_memo() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut vectors = |len: usize| -> Vec<Vec<f64>> {
            (0..MAX_SPMM_BATCH)
                .map(|_| (0..len).map(|_| rng.gen_range(-1.5..2.5)).collect())
                .collect()
        };
        // Long rows (several chunks at every width) and short ones.
        for (max_row, seed) in [(80, 31), (8, 32)] {
            let m: Csr<F16, u32> = random_csr(300, 64, max_row, seed).convert_values();
            let mt = m.transpose();
            let (xs, rs) = (vectors(m.ncols()), vectors(m.nrows()));
            let sub = ginkgo_subwarp_size(m.nnz(), m.nrows()) as u32;
            assert!(TILE_WIDTHS.contains(&sub), "ginkgo subwarp {sub}");
            let grad_widths = BucketWidths([4, 2, 16, 8, 32, 16]);
            let mut cases: Vec<Case> = TILE_WIDTHS
                .iter()
                .map(|&w| (&m, &xs[..], Member::Whole(w), BucketWidths::uniform(w)))
                .collect();
            cases.push((
                &m,
                &xs,
                Member::Bucketed(BucketWidths::natural()),
                BucketWidths::natural(),
            ));
            cases.push((&mt, &rs, Member::Bucketed(grad_widths), grad_widths));
            cases.push((&m, &xs[..1], Member::Ginkgo, BucketWidths::uniform(sub)));
            for (a, inputs, member, widths) in cases {
                for batch in [1, MAX_SPMM_BATCH]
                    .into_iter()
                    .filter(|&b| b <= inputs.len())
                {
                    let what = format!("{member:?}, max row {max_row}, batch {batch}");
                    let inputs = &inputs[..batch];
                    let gpu = Gpu::new(DeviceSpec::a100());
                    let keyed = three_launches(&gpu, a, inputs, member, Some(1));
                    let twin =
                        three_launches(&Gpu::new(DeviceSpec::a100()), a, inputs, member, None);
                    assert_eq!(gpu.memo_counts().hits, 1, "{what}: the third launch hits");
                    assert!(keyed == twin, "{what}: outputs and counters match the twin");
                    for (outs, _) in &keyed {
                        for (got, x) in outs.iter().zip(inputs) {
                            assert_eq!(got, &bits(&vector_csr_reference(a, x, widths)), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile width")]
    fn rejects_invalid_width() {
        let m: Csr<F16, u32> = Csr::from_rows(2, &[vec![(0, 1.0)]])
            .map(|m: Csr<f64, u32>| m.convert_values())
            .unwrap();
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&[1.0f64; 2]);
        let dy = gpu.alloc_out::<f64>(1);
        spmv(&gpu, &gm, &dx, &dy, 128, 7);
    }

    #[test]
    fn per_buffer_traffic_matches_paper_decomposition() {
        // The §V model, component by component: 2B/nnz values, 4B/nnz
        // indices, 4B/row pointers, 8B/row output write, 8B/col input.
        let m64 = random_csr(3000, 400, 300, 6);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = vec![1.0; 400];
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 3000);
        spmv(&gpu, &gm, &dx, &dy, 512, 32);

        let report = gpu.traffic_report();
        let by = |name: &str| report.iter().find(|b| b.name == name).unwrap();
        let nnz = m.nnz() as f64;
        let nr = m.nrows() as f64;

        // Values: 2 bytes per nnz, streamed from DRAM.
        let value_bytes = by("values").dram_read_bytes() as f64;
        assert!(
            (value_bytes / (2.0 * nnz) - 1.0).abs() < 0.25,
            "values {value_bytes}"
        );
        // Indices: 4 bytes per nnz.
        let idx_bytes = by("col_idx").dram_read_bytes() as f64;
        assert!(
            (idx_bytes / (4.0 * nnz) - 1.0).abs() < 0.25,
            "indices {idx_bytes}"
        );
        // Row pointers: ~4 bytes per row.
        let ptr_bytes = by("row_ptr").dram_read_bytes() as f64;
        assert!(
            (ptr_bytes / (4.0 * nr) - 1.0).abs() < 0.5,
            "row_ptr {ptr_bytes}"
        );
        // Output: one store transaction per row (the DRAM-side cost is
        // the write-back flush, counted globally: ~8 bytes per row after
        // four row-stores merge per 32-byte sector).
        let y_sectors = by("y").write_sectors as f64;
        assert_eq!(y_sectors, nr, "y {y_sectors}");
        // Input vector: read mostly from cache after first touch; its
        // DRAM traffic is at most a few times its size.
        let x_dram = by("x").dram_read_bytes() as f64;
        assert!(x_dram <= 4.0 * 8.0 * 400.0, "x dram {x_dram}");
    }

    #[test]
    fn dram_traffic_close_to_paper_model() {
        // The paper's Half/double traffic model: 6*nnz + 12*nr + 8*nc
        // (§V), assuming the input vector is L2-resident.
        let m64 = random_csr(2000, 300, 400, 5);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = vec![1.0; 300];
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(2000);
        let stats = spmv(&gpu, &gm, &dx, &dy, 512, 32);

        let model = (6 * m.nnz() + 12 * m.nrows() + 8 * m.ncols()) as u64;
        let measured = stats.dram_total_bytes();
        let ratio = measured as f64 / model as f64;
        assert!(
            (0.85..1.35).contains(&ratio),
            "measured {measured} vs model {model} (ratio {ratio})"
        );
    }
}
