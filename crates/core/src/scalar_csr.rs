//! The scalar (thread-per-row) CSR kernel — Bell & Garland's baseline
//! and the paper's motivating counter-example (§III): when each *thread*
//! owns a row, the lanes of a warp read from 32 *different* rows at each
//! step, so consecutive lanes touch addresses a whole row apart and the
//! coalescer can merge almost nothing. The row-mapping ablation bench
//! quantifies the traffic amplification against the vector kernel.

use crate::vector_csr::{GpuCsrMatrix, VecScalar};
use rt_f16::DoseScalar;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, Gpu, Grid, KernelStats, WARP_SIZE};
use rt_sparse::ColIndex;

/// Launches the scalar CSR kernel: `y = A x` with one thread per row.
/// Like the vector kernel, accumulation order per row is fixed (purely
/// sequential here), so the result is bitwise reproducible too — its
/// problem is bandwidth, not reproducibility.
pub fn scalar_csr_spmv<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuCsrMatrix<V, I>,
    x: &DeviceBuffer<X>,
    y: &DeviceOutBuffer<X>,
    threads_per_block: u32,
) -> KernelStats {
    assert_eq!(x.len(), m.ncols(), "input vector length mismatch");
    assert_eq!(y.len(), m.nrows(), "output vector length mismatch");
    let nrows = m.nrows();
    let grid = Grid::thread_per_item(nrows, threads_per_block);

    gpu.launch(grid, |w| {
        let base_row = w.warp_id() * WARP_SIZE;
        if base_row >= nrows {
            return;
        }
        let lanes_active = WARP_SIZE.min(nrows - base_row);

        // Coalesced: consecutive row pointers cover all lanes' bounds.
        let ptrs = w.load_span(m.row_ptr(), base_row..base_row + lanes_active + 1);
        let mut offs = [0usize; WARP_SIZE];
        let mut ends = [0usize; WARP_SIZE];
        for k in 0..lanes_active {
            offs[k] = ptrs[k] as usize;
            ends[k] = ptrs[k + 1] as usize;
        }

        let mut acc = [X::default(); WARP_SIZE];
        let mut active: Vec<usize> = (0..lanes_active).filter(|&k| offs[k] < ends[k]).collect();
        let mut idxs = [0usize; WARP_SIZE];
        let mut cols = [I::try_from_usize(0).unwrap(); WARP_SIZE];
        let mut vals = [V::zero(); WARP_SIZE];
        let mut xs = [X::default(); WARP_SIZE];

        while !active.is_empty() {
            let n = active.len();
            // Each active lane reads the next element of its own row —
            // a gather across rows, the uncoalesced pattern.
            for (slot, &lane) in active.iter().enumerate() {
                idxs[slot] = offs[lane];
            }
            w.load_gather(m.col_idx(), &idxs[..n], &mut cols);
            w.load_gather(m.values(), &idxs[..n], &mut vals);
            for slot in 0..n {
                idxs[slot] = cols[slot].to_usize();
            }
            w.load_gather(x, &idxs[..n], &mut xs);
            for (slot, &lane) in active.iter().enumerate() {
                acc[lane] = acc[lane] + X::from_f64(vals[slot].to_f64()) * xs[slot];
                offs[lane] += 1;
            }
            w.add_flops(2 * n as u64);
            active.retain(|&lane| offs[lane] < ends[lane]);
        }

        // Coalesced output store: consecutive rows.
        w.store_span(y, base_row, &acc[..lanes_active]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector_csr::vector_csr_spmm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_f16::F16;
    use rt_gpusim::DeviceSpec;
    use rt_sparse::Csr;

    fn random_matrix(seed: u64) -> Csr<F16, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let nrows = 400;
        let ncols = 120;
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                let len = rng.gen_range(0..60);
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
    fn matches_tolerance_against_reference() {
        let m = random_matrix(11);
        let x: Vec<f64> = (0..m.ncols()).map(|i| (i as f64).cos() + 2.0).collect();
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(m.nrows());
        scalar_csr_spmv(&gpu, &gm, &dx, &dy, 256);

        let mut want = vec![0.0; m.nrows()];
        m.spmv_ref(&x, &mut want).unwrap();
        // Sequential per-row accumulation == spmv_ref order: bitwise.
        assert_eq!(
            dy.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reproducible_across_runs() {
        let m = random_matrix(12);
        let x: Vec<f64> = vec![1.5; m.ncols()];
        let run = || {
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(m.nrows());
            scalar_csr_spmv(&gpu, &gm, &dx, &dy, 256);
            dy.to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uses_more_dram_traffic_than_vector_kernel() {
        // The §III argument: thread-per-row reads the matrix arrays
        // uncoalesced. Use a device with a tiny L2 so the pattern shows
        // up as DRAM traffic.
        let m = random_matrix(13);
        let x: Vec<f64> = vec![1.0; m.ncols()];
        let spec = DeviceSpec::a100().scaled_l2(100_000.0);

        let gpu1 = Gpu::new(spec.clone());
        let gm1 = GpuCsrMatrix::upload(&gpu1, &m);
        let dx1 = gpu1.upload(&x);
        let dy1 = gpu1.alloc_out::<f64>(m.nrows());
        let scalar = scalar_csr_spmv(&gpu1, &gm1, &dx1, &dy1, 256);

        let gpu2 = Gpu::new(spec);
        let gm2 = GpuCsrMatrix::upload(&gpu2, &m);
        let dx2 = gpu2.upload(&x);
        let dy2 = gpu2.alloc_out::<f64>(m.nrows());
        let vector = vector_csr_spmm(&gpu2, &gm2, &[&dx2], &[&dy2], 256, 32);

        assert!(
            scalar.dram_read_bytes as f64 > 1.5 * vector.dram_read_bytes as f64,
            "scalar {} vs vector {}",
            scalar.dram_read_bytes,
            vector.dram_read_bytes
        );
        // Same useful work.
        assert_eq!(scalar.flops, vector.flops);
    }

    #[test]
    fn handles_trailing_partial_warp() {
        // 35 rows: the second warp has only 3 active lanes.
        let rows: Vec<Vec<(usize, f64)>> = (0..35).map(|r| vec![(r % 7, (r + 1) as f64)]).collect();
        let m: Csr<F16, u32> = Csr::<f64, u32>::from_rows(7, &rows)
            .unwrap()
            .convert_values();
        let x = vec![1.0f64; 7];
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(35);
        scalar_csr_spmv(&gpu, &gm, &dx, &dy, 128);
        let got = dy.to_vec();
        for (r, g) in got.iter().enumerate() {
            assert_eq!(*g, F16::from_f64((r + 1) as f64).to_f64(), "row {r}");
        }
    }
}
