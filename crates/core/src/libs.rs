//! Library stand-ins: cuSPARSE- and Ginkgo-style CSR SpMV in single
//! precision, for the Figure 3/6 comparisons.
//!
//! Neither library supports the paper's half/double mixing (the gap the
//! paper exploits), so — exactly like the paper — the comparison runs in
//! pure single precision. The stand-ins move the same bytes a
//! single-precision CSR SpMV must move; their strategy differences are
//! implemented structurally and their constant factors calibrated once
//! (see `profile_cusparse` / `profile_ginkgo` in the crate root and
//! DESIGN.md for the substitution note):
//!
//! * **cuSPARSE-like** — a warp-per-row vector kernel (the `csrmv`
//!   merge-free fast path) with the library's own launch heuristics.
//! * **Ginkgo-like** — the "classical" kernel: *sub*-warps per row, with
//!   the subwarp size chosen from the average row length, which wastes
//!   fewer lanes on short rows (why it wins on prostate) at some
//!   streaming efficiency cost (why it trails on liver).

use crate::vector_csr::{row_sums, vector_csr_spmm, GpuCsrMatrix, VecScalar};
use rt_f16::DoseScalar;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, Gpu, Grid, GroupMember, KernelStats, WARP_SIZE};
use rt_sparse::ColIndex;

/// cuSPARSE-style CSR SpMV (single precision in the paper's comparison;
/// generic here). Fixed 256-thread blocks, warp per row.
pub fn cusparse_csr_spmv<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuCsrMatrix<V, I>,
    x: &DeviceBuffer<X>,
    y: &DeviceOutBuffer<X>,
) -> KernelStats {
    vector_csr_spmm(gpu, m, &[x], &[y], 256, WARP_SIZE as u32)
}

/// Ginkgo's subwarp-size heuristic: the smallest power of two covering
/// the average row length, clamped to `[1, 32]`.
pub fn ginkgo_subwarp_size(nnz: usize, nrows: usize) -> usize {
    if nrows == 0 {
        return WARP_SIZE;
    }
    let avg = nnz.div_ceil(nrows).max(1);
    avg.next_power_of_two().min(WARP_SIZE)
}

/// Ginkgo-style "classical" CSR SpMV: one subwarp of `sub` lanes per
/// row, `32 / sub` rows per warp. `sub == 32` degenerates to the vector
/// kernel.
pub fn ginkgo_csr_spmv<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuCsrMatrix<V, I>,
    x: &DeviceBuffer<X>,
    y: &DeviceOutBuffer<X>,
) -> KernelStats {
    gpu.launch_group(None, vec![ginkgo_member(m, x, y)]).merged
}

/// The one launch of a [`ginkgo_csr_spmv`] call as a group member: each
/// row's scalar row-pointer loads, the shared row loop at the subwarp
/// width, and one scalar store.
pub(crate) fn ginkgo_member<'a, V: DoseScalar, I: ColIndex, X: VecScalar>(
    m: &'a GpuCsrMatrix<V, I>,
    x: &'a DeviceBuffer<X>,
    y: &'a DeviceOutBuffer<X>,
) -> GroupMember<'a> {
    assert_eq!(x.len(), m.ncols(), "input vector length mismatch");
    assert_eq!(y.len(), m.nrows(), "output vector length mismatch");
    let nrows = m.nrows();
    let sub = ginkgo_subwarp_size_from_matrix(m);
    let rows_per_warp = WARP_SIZE / sub;
    let warps_needed = nrows.div_ceil(rows_per_warp);
    let grid = Grid::warp_per_item(warps_needed, 512);

    GroupMember::new("ginkgo", grid, WARP_SIZE as u32, move |w| {
        let first_row = w.warp_id() * rows_per_warp;
        for row in first_row..(first_row + rows_per_warp).min(nrows) {
            let start = w.load_scalar(m.row_ptr(), row) as usize;
            let end = w.load_scalar(m.row_ptr(), row + 1) as usize;
            let [sum, ..] = row_sums(w, m, start, end, sub, &[x]);
            w.store_scalar(y, row, sum);
        }
    })
}

fn ginkgo_subwarp_size_from_matrix<V: DoseScalar, I: ColIndex>(m: &GpuCsrMatrix<V, I>) -> usize {
    let nnz = m.values().len();
    ginkgo_subwarp_size(nnz, m.nrows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_gpusim::DeviceSpec;
    use rt_sparse::Csr;

    fn random_f32(seed: u64, nrows: usize, ncols: usize, max_len: usize) -> Csr<f32, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                let len = rng.gen_range(0..=max_len);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..1.0)))
                    .collect()
            })
            .collect();
        Csr::<f64, u32>::from_rows(ncols, &rows)
            .unwrap()
            .convert_values()
    }

    #[test]
    fn subwarp_heuristic() {
        assert_eq!(ginkgo_subwarp_size(100, 100), 1);
        assert_eq!(ginkgo_subwarp_size(300, 100), 4);
        assert_eq!(ginkgo_subwarp_size(1000, 100), 16);
        assert_eq!(ginkgo_subwarp_size(10_000, 100), 32);
        assert_eq!(ginkgo_subwarp_size(0, 0), 32);
    }

    #[test]
    fn ginkgo_matches_reference() {
        for (seed, max_len) in [(41u64, 6), (42, 40), (43, 200)] {
            let m = random_f32(seed, 300, 80, max_len);
            let x: Vec<f32> = (0..80).map(|i| (i as f32 * 0.3).sin() + 1.2).collect();
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f32>(300);
            ginkgo_csr_spmv(&gpu, &gm, &dx, &dy);
            let mut want = vec![0.0f64; 300];
            let m64: Csr<f64, u32> = m.convert_values();
            m64.spmv_ref(&x.iter().map(|&v| v as f64).collect::<Vec<_>>(), &mut want)
                .unwrap();
            for (g, w) in dy.to_vec().iter().zip(want.iter()) {
                assert!(
                    (*g as f64 - w).abs() <= 1e-4 * (1.0 + w.abs()),
                    "seed {seed}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn cusparse_matches_vector_kernel_bitwise() {
        let m = random_f32(44, 200, 64, 50);
        let x: Vec<f32> = vec![1.25; 64];
        let gpu1 = Gpu::new(DeviceSpec::a100());
        let gm1 = GpuCsrMatrix::upload(&gpu1, &m);
        let d1 = gpu1.upload(&x);
        let y1 = gpu1.alloc_out::<f32>(200);
        cusparse_csr_spmv(&gpu1, &gm1, &d1, &y1);

        let gpu2 = Gpu::new(DeviceSpec::a100());
        let gm2 = GpuCsrMatrix::upload(&gpu2, &m);
        let d2 = gpu2.upload(&x);
        let y2 = gpu2.alloc_out::<f32>(200);
        vector_csr_spmm(&gpu2, &gm2, &[&d2], &[&y2], 256, 32);

        assert_eq!(
            y1.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ginkgo_uses_fewer_warps_on_short_rows() {
        // Short rows -> small subwarp -> several rows per warp.
        let m = random_f32(45, 1000, 64, 4);
        let x: Vec<f32> = vec![1.0; 64];
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f32>(1000);
        let g = ginkgo_csr_spmv(&gpu, &gm, &dx, &dy);

        let gpu2 = Gpu::new(DeviceSpec::a100());
        let gm2 = GpuCsrMatrix::upload(&gpu2, &m);
        let dx2 = gpu2.upload(&x);
        let dy2 = gpu2.alloc_out::<f32>(1000);
        let v = vector_csr_spmm(&gpu2, &gm2, &[&dx2], &[&dy2], 512, 32);
        assert!(
            g.warps < v.warps,
            "ginkgo {} vs vector {}",
            g.warps,
            v.warps
        );
    }
}
