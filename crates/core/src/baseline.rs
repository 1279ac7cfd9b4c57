//! "GPU Baseline": the RayStation CPU algorithm ported to the GPU.
//!
//! The clinical implementation walks the compressed matrix column by
//! column (a column is one spot) and scatters `weight * value` into the
//! dose array. On the CPU, race freedom comes from per-thread scratch
//! dose arrays; the paper notes that is infeasible for tens of thousands
//! of GPU threads, so the port uses `atomicAdd` instead (§IV) — which
//! makes it *non-reproducible* on hardware (atomic ordering varies run to
//! run) and, as the measurements show, several times slower than the
//! vector CSR kernel. The simulator states that order dependence rather
//! than simulating it: its launches add in launch order, and it models
//! the atomics' L2 traffic and counts:
//!
//! * the port parallelizes over the format's *segments* (runs of
//!   consecutive voxels within a column — the natural work unit of the
//!   compressed format). A warp's 32 lanes walk 32 different segments,
//!   so value loads are only partially coalesced: lanes start one run
//!   length apart, and the divergence grows as long and short runs mix;
//! * every non-zero costs an atomic read-modify-write. The output vector
//!   fits in the A100's 40 MB L2, so this traffic stays on-chip — the
//!   paper's explanation for the baseline's erratic *DRAM* bandwidth
//!   readings — but it binds the kernel to L2 throughput;
//! * prostate-sized matrices yield few segments, leaving the device
//!   underutilized.

use crate::vector_csr::VecScalar;
use rt_f16::DoseScalar;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, Gpu, Grid, KernelStats, WARP_SIZE};
use rt_sparse::RsCompressed;

/// Raw segment record as uploaded to the device.
#[derive(Clone, Copy, Debug, Default)]
pub struct RawSegment {
    pub start_row: u32,
    pub len: u32,
    pub value_offset: u64,
    /// Owning column (spot), for the weight lookup.
    pub col: u32,
}

/// A RayStation-format matrix resident in simulated device memory.
pub struct GpuRsMatrix<V> {
    nrows: usize,
    ncols: usize,
    nsegments: usize,
    segments: DeviceBuffer<RawSegment>,
    values: DeviceBuffer<V>,
}

impl<V: DoseScalar> GpuRsMatrix<V> {
    pub fn upload(gpu: &Gpu, m: &RsCompressed<V>) -> Self {
        let mut segments = Vec::with_capacity(m.segments().len());
        for c in 0..m.ncols() {
            for s in m.column_segments(c) {
                segments.push(RawSegment {
                    start_row: s.start_row,
                    len: s.len,
                    value_offset: s.value_offset as u64,
                    col: c as u32,
                });
            }
        }
        GpuRsMatrix {
            nrows: m.nrows(),
            ncols: m.ncols(),
            nsegments: segments.len(),
            segments: gpu.upload(&segments),
            values: gpu.upload(m.values()),
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
    pub fn nsegments(&self) -> usize {
        self.nsegments
    }

    pub fn size_bytes(&self) -> usize {
        self.segments.size_bytes() + self.values.size_bytes()
    }
}

/// Launches the GPU Baseline kernel: `dose += A[:, c] * w[c]` scattered
/// with atomics, one thread per segment. The output buffer must be
/// zeroed by the caller (the algorithm accumulates).
///
/// The result is correct to rounding but **not bitwise reproducible**:
/// the accumulation order at each voxel depends on thread scheduling.
pub fn rs_baseline_gpu_spmv<V: DoseScalar, X: VecScalar>(
    gpu: &Gpu,
    m: &GpuRsMatrix<V>,
    weights: &DeviceBuffer<X>,
    dose: &DeviceOutBuffer<X>,
    threads_per_block: u32,
) -> KernelStats {
    assert_eq!(weights.len(), m.ncols, "weights length mismatch");
    assert_eq!(dose.len(), m.nrows, "dose length mismatch");
    let nsegs = m.nsegments;
    let grid = Grid::thread_per_item(nsegs.max(1), threads_per_block);

    gpu.launch(grid, |w| {
        let base_seg = w.warp_id() * WARP_SIZE;
        if base_seg >= nsegs {
            return;
        }
        let lanes = WARP_SIZE.min(nsegs - base_seg);

        // Segment records are contiguous: coalesced metadata load.
        let segs = w.load_span(&m.segments, base_seg..base_seg + lanes);

        // Per-lane weight lookup (gather over the weight vector; adjacent
        // segments usually share a column, so this coalesces well).
        let mut idxs = [0usize; WARP_SIZE];
        for (k, s) in segs.iter().enumerate() {
            idxs[k] = s.col as usize;
        }
        let mut ws = [X::default(); WARP_SIZE];
        w.load_gather(weights, &idxs[..lanes], &mut ws);

        // Lockstep walk: step i processes element i of every segment
        // still active. Lanes start one run length apart in the value
        // array — partially coalesced, degrading as runs diverge.
        let mut vals = [V::zero(); WARP_SIZE];
        let max_len = segs.iter().map(|s| s.len).max().unwrap_or(0);
        let mut active: Vec<usize> = (0..lanes).collect();
        for i in 0..max_len {
            active.retain(|&k| i < segs[k].len);
            if active.is_empty() {
                break;
            }
            let n = active.len();
            for (slot, &k) in active.iter().enumerate() {
                idxs[slot] = segs[k].value_offset as usize + i as usize;
            }
            w.load_gather(&m.values, &idxs[..n], &mut vals);
            for (slot, &k) in active.iter().enumerate() {
                let row = (segs[k].start_row + i) as usize;
                w.atomic_add(dose, row, X::from_f64(vals[slot].to_f64()) * ws[k]);
            }
            w.add_flops(2 * n as u64);
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

    fn random_rs(seed: u64, nrows: usize, ncols: usize) -> (Csr<F16, u32>, RsCompressed<F16>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                let len = rng.gen_range(0..12);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.1..1.0)))
                    .collect()
            })
            .collect();
        let csr: Csr<F16, u32> = Csr::<f64, u32>::from_rows(ncols, &rows)
            .unwrap()
            .convert_values();
        let rs = RsCompressed::from_csr(&csr);
        (csr, rs)
    }

    #[test]
    fn matches_reference_within_tolerance() {
        let (csr, rs) = random_rs(21, 500, 64);
        let weights: Vec<f64> = (0..64).map(|i| 0.5 + (i % 7) as f64).collect();
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuRsMatrix::upload(&gpu, &rs);
        let dw = gpu.upload(&weights);
        let dose = gpu.alloc_out::<f64>(500);
        let stats = rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);

        let mut want = vec![0.0; 500];
        csr.spmv_ref(&weights, &mut want).unwrap();
        for (g, w) in dose.to_vec().iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
        assert_eq!(stats.flops, 2 * csr.nnz() as u64);
        assert_eq!(stats.atomic_ops, csr.nnz() as u64);
    }

    #[test]
    fn second_run_must_clear_output() {
        let (_, rs) = random_rs(22, 100, 16);
        let weights = vec![1.0f64; 16];
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuRsMatrix::upload(&gpu, &rs);
        let dw = gpu.upload(&weights);
        let dose = gpu.alloc_out::<f64>(100);
        rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);
        let first = dose.to_vec();
        rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);
        let second = dose.to_vec();
        // Accumulates: second run doubles (within fp tolerance).
        for (a, b) in first.iter().zip(second.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-9 * (1.0 + a.abs()));
        }
        dose.clear();
        rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);
        for (a, b) in first.iter().zip(dose.to_vec().iter()) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn value_reads_are_less_coalesced_than_vector_kernel() {
        // Lanes walk different segments: when runs are long (the real
        // dose-matrix geometry: a spot deposits along hundreds of
        // consecutive voxels), lanes diverge by a whole run length and
        // every 2-byte value load costs its own 32-byte sector. Compare
        // against the fully-coalesced vector kernel on the same data.
        let nrows = 4000;
        let ncols = 256;
        let run_len = 120usize;
        // Column c is one run of `run_len` consecutive rows, staggered.
        let mut triplets = Vec::new();
        for c in 0..ncols {
            let start = (c * 13) % (nrows - run_len);
            for k in 0..run_len {
                triplets.push((start + k, c, 0.5f64));
            }
        }
        let csr: Csr<F16, u32> = Csr::<f64, u32>::from_triplets(nrows, ncols, &triplets)
            .unwrap()
            .convert_values();
        let rs = RsCompressed::from_csr(&csr);
        assert!(rs.avg_segment_len() > 50.0, "want long runs");
        let weights = vec![1.0f64; 256];
        let spec = DeviceSpec::a100().scaled_l2(50_000.0); // tiny L2
        let gpu = Gpu::new(spec.clone());
        let gm = GpuRsMatrix::upload(&gpu, &rs);
        let dw = gpu.upload(&weights);
        let dose = gpu.alloc_out::<f64>(4000);
        let baseline = rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);

        let gpu2 = Gpu::new(spec);
        let gm2 = crate::vector_csr::GpuCsrMatrix::upload(&gpu2, &csr);
        let dx2 = gpu2.upload(&weights);
        let dy2 = gpu2.alloc_out::<f64>(4000);
        let vector = crate::vector_csr::vector_csr_spmm(&gpu2, &gm2, &[&dx2], &[&dy2], 512, 32);

        assert!(
            baseline.dram_read_bytes > vector.dram_read_bytes,
            "baseline {} vs vector {}",
            baseline.dram_read_bytes,
            vector.dram_read_bytes
        );
        assert!(baseline.coalescing_efficiency() < vector.coalescing_efficiency());
    }

    #[test]
    fn atomics_stay_in_l2_when_output_fits() {
        let (csr, rs) = random_rs(24, 2000, 128);
        let weights = vec![1.0f64; 128];
        // Default A100 L2 (40 MB) easily holds the 16 KB output.
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuRsMatrix::upload(&gpu, &rs);
        let dw = gpu.upload(&weights);
        let dose = gpu.alloc_out::<f64>(2000);
        let stats = rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);
        assert_eq!(stats.atomic_ops, csr.nnz() as u64);
        // Atomic RMWs hit in L2 after first touch: hits dominate misses.
        assert!(stats.l2_read_hits > stats.l2_read_misses);
    }

    #[test]
    fn empty_matrix_is_a_noop() {
        let rs = RsCompressed::<F16>::try_new(10, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuRsMatrix::upload(&gpu, &rs);
        let dw = gpu.upload(&[1.0f64; 2]);
        let dose = gpu.alloc_out::<f64>(10);
        let stats = rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);
        assert_eq!(stats.flops, 0);
        assert!(dose.to_vec().iter().all(|&d| d == 0.0));
    }
}
