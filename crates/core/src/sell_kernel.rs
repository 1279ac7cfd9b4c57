//! SELL-C-σ SpMV kernel — the paper's §VII future work, implemented.
//!
//! With C = 32 (one warp per chunk), lane `l` owns the chunk's lane-`l`
//! row and the warp marches across the chunk's padded width: at every
//! step the 32 lanes read 32 *consecutive* elements of the slab
//! (perfectly coalesced by construction — the property ELLPACK pioneered
//! and σ-sorting makes affordable). Output stores go through the σ-sort
//! permutation.
//!
//! Compared to the vector CSR kernel the trade-offs are:
//!
//! * no per-row pointer chasing and no intra-warp reduction (each lane
//!   accumulates its own row) — lower fixed overhead per row;
//! * padding: every slot of the padded slab is read, so wasted traffic
//!   is `padding_factor - 1`;
//! * the scattered (permuted) output store.
//!
//! Results are bitwise reproducible: each lane accumulates its row
//! sequentially in slab order, which equals ascending-column order.

use crate::vector_csr::VecScalar;
use rt_f16::DoseScalar;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, Gpu, Grid, KernelStats, WARP_SIZE};
use rt_sparse::{ColIndex, SellCSigma};

/// A SELL-C-σ matrix resident in simulated device memory. Requires
/// `chunk == 32` (warp-sized chunks).
pub struct GpuSellMatrix<V, I = u32> {
    nrows: usize,
    ncols: usize,
    chunk_ptr: DeviceBuffer<u64>,
    chunk_width: DeviceBuffer<u32>,
    perm: DeviceBuffer<u32>,
    col_idx: DeviceBuffer<I>,
    values: DeviceBuffer<V>,
}

impl<V: DoseScalar, I: ColIndex> GpuSellMatrix<V, I> {
    pub fn upload(gpu: &Gpu, m: &SellCSigma<V, I>) -> Self {
        assert_eq!(m.chunk(), WARP_SIZE, "GPU SELL kernel needs C = 32");
        GpuSellMatrix {
            nrows: m.nrows(),
            ncols: m.ncols(),
            chunk_ptr: gpu.upload(&m.chunk_ptrs().iter().map(|&p| p as u64).collect::<Vec<_>>()),
            chunk_width: gpu.upload(
                &m.chunk_widths()
                    .iter()
                    .map(|&w| w as u32)
                    .collect::<Vec<_>>(),
            ),
            perm: gpu.upload(m.perm()),
            col_idx: gpu.upload(m.col_idx_slab()),
            values: gpu.upload(m.values_slab()),
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

    pub fn size_bytes(&self) -> usize {
        self.chunk_ptr.size_bytes()
            + self.chunk_width.size_bytes()
            + self.perm.size_bytes()
            + self.col_idx.size_bytes()
            + self.values.size_bytes()
    }
}

/// Launches the SELL-C-32 kernel: `y = A x`, one warp per chunk.
pub fn sell_spmv<V: DoseScalar, I: ColIndex, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuSellMatrix<V, I>,
    x: &DeviceBuffer<X>,
    y: &DeviceOutBuffer<X>,
    threads_per_block: u32,
) -> KernelStats {
    assert_eq!(x.len(), m.ncols, "input vector length mismatch");
    assert_eq!(y.len(), m.nrows, "output vector length mismatch");
    let nchunks = m.chunk_width.len();
    let nrows = m.nrows;
    let grid = Grid::warp_per_item(nchunks.max(1), threads_per_block);

    gpu.launch(grid, |w| {
        let k = w.warp_id();
        if k >= nchunks {
            return;
        }
        let base = w.load_scalar(&m.chunk_ptr, k) as usize;
        let width = w.load_scalar(&m.chunk_width, k) as usize;
        let lanes = WARP_SIZE.min(nrows - k * WARP_SIZE);

        let mut acc = [X::default(); WARP_SIZE];
        let mut idxs = [0usize; WARP_SIZE];
        let mut xs = [X::default(); WARP_SIZE];
        for s in 0..width {
            let slot = base + s * WARP_SIZE;
            // Both loads are consecutive across lanes: fully coalesced.
            let cols = w.load_span(&m.col_idx, slot..slot + lanes);
            let vals = w.load_span(&m.values, slot..slot + lanes);
            for l in 0..lanes {
                idxs[l] = cols[l].to_usize();
            }
            w.load_gather(x, &idxs[..lanes], &mut xs);
            for l in 0..lanes {
                acc[l] = acc[l] + X::from_f64(vals[l].to_f64()) * xs[l];
            }
            w.add_flops(2 * lanes as u64);
        }

        // Permuted output scatter.
        let rows = w.load_span(&m.perm, k * WARP_SIZE..k * WARP_SIZE + lanes);
        for l in 0..lanes {
            w.store_scalar(y, rows[l] as usize, acc[l]);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_f16::F16;
    use rt_gpusim::DeviceSpec;
    use rt_sparse::Csr;

    fn random_matrix(seed: u64, nrows: usize, ncols: usize, max_len: usize) -> Csr<F16, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    return Vec::new();
                }
                let len = rng.gen_range(1..=max_len);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.1..1.0)))
                    .collect()
            })
            .collect();
        Csr::<f64, u32>::from_rows(ncols, &rows)
            .unwrap()
            .convert_values()
    }

    #[test]
    fn matches_reference() {
        let m = random_matrix(61, 500, 80, 60);
        let sell = SellCSigma::from_csr(&m, 32, 256);
        let x: Vec<f64> = (0..80).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();

        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuSellMatrix::upload(&gpu, &sell);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(500);
        let stats = sell_spmv(&gpu, &gm, &dx, &dy, 512);

        let mut want = vec![0.0; 500];
        m.spmv_ref(&x, &mut want).unwrap();
        for (g, w) in dy.to_vec().iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
        // SELL executes the padded FMAs too (lanes past the row count in
        // the final chunk excluded).
        assert!(stats.flops >= 2 * m.nnz() as u64);
        assert!(stats.flops <= 2 * sell.padded_slots() as u64);
    }

    #[test]
    fn bitwise_reproducible() {
        let m = random_matrix(62, 300, 64, 40);
        let sell = SellCSigma::from_csr(&m, 32, 128);
        let x: Vec<f64> = vec![1.5; 64];
        let run = || {
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuSellMatrix::upload(&gpu, &sell);
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(300);
            sell_spmv(&gpu, &gm, &dx, &dy, 256);
            dy.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slab_reads_are_fully_coalesced() {
        let m = random_matrix(63, 2000, 128, 30);
        let sell = SellCSigma::from_csr(&m, 32, 512);
        let x: Vec<f64> = vec![1.0; 128];
        let spec = DeviceSpec::a100().scaled_l2(50_000.0);
        let gpu = Gpu::new(spec);
        let gm = GpuSellMatrix::upload(&gpu, &sell);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(2000);
        let stats = sell_spmv(&gpu, &gm, &dx, &dy, 256);
        // High coalescing: the slab accounts for most of the requested
        // bytes and is read in full consecutive spans.
        assert!(
            stats.coalescing_efficiency() > 0.5,
            "coalescing {}",
            stats.coalescing_efficiency()
        );
    }

    #[test]
    #[should_panic(expected = "C = 32")]
    fn rejects_non_warp_chunks() {
        let m = random_matrix(64, 64, 16, 5);
        let sell = SellCSigma::from_csr(&m, 16, 64);
        let gpu = Gpu::new(DeviceSpec::a100());
        let _ = GpuSellMatrix::upload(&gpu, &sell);
    }
}
