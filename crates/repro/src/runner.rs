//! Kernel measurement: run on the simulator, extrapolate, time.
//!
//! Measurement protocol (mirrors the paper's 10000-repetition averages):
//! one warm-up launch populates the L2 with whatever survives steady
//! state (the input vector; the streamed matrix does not fit), the
//! second launch is measured.
//!
//! Extrapolation to the clinical Table I problem happens per counter
//! class, because they scale along different axes:
//!
//! * traffic, flops and atomics are non-zero-proportional — scaled by
//!   the nnz ratio [`rt_dose::DoseCase::extrapolation`];
//! * warp and block counts follow the kernel's work decomposition —
//!   rows for the row-parallel kernels, segments (~nnz) for the
//!   segment-parallel baseline.
//!
//! The simulated L2 is sized so the clinical capacity *relations*
//! survive the geometric scale-down: the input vector (and, on the
//! A100, the output vector) stays resident while the matrix streams —
//! `clamp(L2 / extrapolation, 1.25 * (x + y), matrix / 2)`.

use crate::context::PreparedCase;
use rt_core::{
    cusparse_csr_spmv, ginkgo_csr_spmv, profile_baseline, profile_cusparse, profile_ginkgo,
    profile_half_double, profile_scalar, profile_single, rs_baseline_gpu_spmv, scalar_csr_spmv,
    vector_csr_spmm, GpuCsrMatrix, GpuRsMatrix, RsCpu,
};
use rt_gpusim::timing::estimate;
use rt_gpusim::{CpuSpec, DeviceSpec, Gpu, KernelProfile, KernelStats, TimeEstimate};

/// Which axis a kernel's warp count follows.
#[derive(Clone, Copy, Debug)]
enum WorkScale {
    /// Warp count proportional to matrix rows (warp/thread-per-row).
    Rows,
    /// Warp count proportional to non-zeros (segment-parallel baseline).
    Nnz,
}

/// One measured kernel/case/device combination.
#[derive(Clone, Debug)]
pub struct Measured {
    pub kernel: String,
    pub case: String,
    pub device: String,
    /// Raw counters at simulation scale.
    pub raw: KernelStats,
    /// Counters extrapolated to the clinical problem size.
    pub scaled: KernelStats,
    pub estimate: TimeEstimate,
    pub profile: KernelProfile,
}

impl Measured {
    fn build(
        kernel: &str,
        case: &PreparedCase,
        device: &DeviceSpec,
        profile: KernelProfile,
        raw: KernelStats,
        work: WorkScale,
    ) -> Self {
        let nnz_factor = case.case.extrapolation();
        let mut scaled = raw.scale(nnz_factor);
        let warp_factor = match work {
            WorkScale::Rows => case.case.paper.rows / case.case.matrix.nrows() as f64,
            WorkScale::Nnz => nnz_factor,
        };
        scaled.warps = (raw.warps as f64 * warp_factor).round() as u64;
        scaled.blocks = (raw.blocks as f64 * warp_factor).round().max(1.0) as u64;
        let est = estimate(device, &profile, &scaled);
        Measured {
            kernel: kernel.to_string(),
            case: case.name().to_string(),
            device: device.name.to_string(),
            raw,
            scaled,
            estimate: est,
            profile,
        }
    }

    pub fn gflops(&self) -> f64 {
        self.estimate.gflops
    }

    pub fn bandwidth_gbps(&self) -> f64 {
        self.estimate.dram_bw_gbps
    }

    /// Operational intensity from the measured counters (scale-free).
    pub fn oi(&self) -> f64 {
        self.raw.operational_intensity()
    }
}

/// Builds a simulated GPU whose L2 preserves the clinical capacity
/// relations for this case (see module docs).
pub fn sim_gpu(case: &PreparedCase, device: &DeviceSpec) -> Gpu {
    Gpu::new(sim_device(case, device))
}

/// `device` with its L2 sized by the clamp rule of [`sim_gpu`].
pub fn sim_device(case: &PreparedCase, device: &DeviceSpec) -> DeviceSpec {
    let x_bytes = 8 * case.case.matrix.ncols();
    let y_bytes = 8 * case.case.matrix.nrows();
    let matrix_bytes = 6 * case.case.matrix.nnz();
    let ideal = device.l2_bytes as f64 / case.case.extrapolation();
    let lo = (1.25 * (x_bytes + y_bytes) as f64).max(4096.0);
    let hi = (matrix_bytes as f64 / 2.0).max(lo + 1.0);
    let l2 = ideal.clamp(lo, hi) as usize;
    device.with_l2_bytes(l2)
}

/// The Half/double kernel (the paper's contribution).
pub fn run_half_double(case: &PreparedCase, device: &DeviceSpec, tpb: u32) -> Measured {
    let gpu = sim_gpu(case, device);
    let m = GpuCsrMatrix::upload(&gpu, &case.f16);
    let x = gpu.upload(&case.weights);
    let y = gpu.alloc_out::<f64>(case.f16.nrows());
    vector_csr_spmm(&gpu, &m, &[&x], &[&y], tpb, 32); // warm-up
    let raw = vector_csr_spmm(&gpu, &m, &[&x], &[&y], tpb, 32);
    Measured::build(
        "Half/double",
        case,
        device,
        profile_half_double(),
        raw,
        WorkScale::Rows,
    )
}

/// The Single kernel (pure f32).
pub fn run_single(case: &PreparedCase, device: &DeviceSpec, tpb: u32) -> Measured {
    let gpu = sim_gpu(case, device);
    let m = GpuCsrMatrix::upload(&gpu, &case.f32);
    let w32: Vec<f32> = case.weights.iter().map(|&w| w as f32).collect();
    let x = gpu.upload(&w32);
    let y = gpu.alloc_out::<f32>(case.f32.nrows());
    vector_csr_spmm(&gpu, &m, &[&x], &[&y], tpb, 32);
    let raw = vector_csr_spmm(&gpu, &m, &[&x], &[&y], tpb, 32);
    Measured::build(
        "Single",
        case,
        device,
        profile_single(),
        raw,
        WorkScale::Rows,
    )
}

/// The GPU Baseline (RayStation port with atomics, segment-parallel).
pub fn run_baseline(case: &PreparedCase, device: &DeviceSpec, tpb: u32) -> Measured {
    let gpu = sim_gpu(case, device);
    let m = GpuRsMatrix::upload(&gpu, &case.rs);
    let x = gpu.upload(&case.weights);
    let y = gpu.alloc_out::<f64>(case.rs.nrows());
    rs_baseline_gpu_spmv(&gpu, &m, &x, &y, tpb);
    y.clear();
    let raw = rs_baseline_gpu_spmv(&gpu, &m, &x, &y, tpb);
    Measured::build(
        "GPU Baseline",
        case,
        device,
        profile_baseline(),
        raw,
        WorkScale::Nnz,
    )
}

/// The scalar (thread-per-row) ablation kernel.
pub fn run_scalar(case: &PreparedCase, device: &DeviceSpec, tpb: u32) -> Measured {
    let gpu = sim_gpu(case, device);
    let m = GpuCsrMatrix::upload(&gpu, &case.f16);
    let x = gpu.upload(&case.weights);
    let y = gpu.alloc_out::<f64>(case.f16.nrows());
    scalar_csr_spmv(&gpu, &m, &x, &y, tpb);
    let raw = scalar_csr_spmv(&gpu, &m, &x, &y, tpb);
    Measured::build(
        "Scalar CSR",
        case,
        device,
        profile_scalar(),
        raw,
        WorkScale::Rows,
    )
}

/// cuSPARSE stand-in (single precision).
pub fn run_cusparse(case: &PreparedCase, device: &DeviceSpec) -> Measured {
    let gpu = sim_gpu(case, device);
    let m = GpuCsrMatrix::upload(&gpu, &case.f32);
    let w32: Vec<f32> = case.weights.iter().map(|&w| w as f32).collect();
    let x = gpu.upload(&w32);
    let y = gpu.alloc_out::<f32>(case.f32.nrows());
    cusparse_csr_spmv(&gpu, &m, &x, &y);
    let raw = cusparse_csr_spmv(&gpu, &m, &x, &y);
    Measured::build(
        "cuSPARSE",
        case,
        device,
        profile_cusparse(),
        raw,
        WorkScale::Rows,
    )
}

/// Ginkgo stand-in (single precision, classical kernel).
pub fn run_ginkgo(case: &PreparedCase, device: &DeviceSpec) -> Measured {
    let gpu = sim_gpu(case, device);
    let m = GpuCsrMatrix::upload(&gpu, &case.f32);
    let w32: Vec<f32> = case.weights.iter().map(|&w| w as f32).collect();
    let x = gpu.upload(&w32);
    let y = gpu.alloc_out::<f32>(case.f32.nrows());
    ginkgo_csr_spmv(&gpu, &m, &x, &y);
    let raw = ginkgo_csr_spmv(&gpu, &m, &x, &y);
    Measured::build(
        "Ginkgo",
        case,
        device,
        profile_ginkgo(),
        raw,
        WorkScale::Rows,
    )
}

/// The RayStation CPU row (analytic traffic model on the i9-7940X).
pub fn run_cpu_model(case: &PreparedCase) -> (String, TimeEstimate) {
    let cpu = CpuSpec::i9_7940x();
    let engine = RsCpu::with_threads(cpu.cores as usize);
    // Scale the analytic traffic to clinical size: traffic is linear in
    // nnz/rows, both of which scale by the extrapolation factor. The
    // scratch-spill decision must be taken at *clinical* proportions, so
    // the LLC is scaled down by the same factor the matrix was (at full
    // scale the 14 scratch arrays are ~330 MB against a 19 MB LLC and
    // always spill).
    let extrap = case.case.extrapolation();
    let traffic =
        engine.traffic_model_bytes(&case.rs, (cpu.llc_bytes as f64 / extrap) as usize) * extrap;
    let flops = 2.0 * case.case.paper.nnz;
    (cpu.name.to_string(), cpu.estimate(traffic, flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use rt_dose::cases::ScaleConfig;

    #[test]
    fn all_runners_execute_on_tiny_cases() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let dev = DeviceSpec::a100();
        let c = ctx.prostate1();
        let hd = run_half_double(c, &dev, 512);
        let sg = run_single(c, &dev, 512);
        let bl = run_baseline(c, &dev, 128);
        let gk = run_ginkgo(c, &dev);
        let cs = run_cusparse(c, &dev);
        let sc = run_scalar(c, &dev, 256);
        for m in [&hd, &sg, &bl, &gk, &cs, &sc] {
            assert!(m.gflops() > 0.0, "{}: {:?}", m.kernel, m.estimate);
            assert_eq!(m.raw.flops, 2 * c.f16.nnz() as u64, "{}", m.kernel);
        }
        // Half/double has higher OI than Single (the §V argument).
        assert!(hd.oi() > sg.oi(), "hd {} vs single {}", hd.oi(), sg.oi());
        // Baseline burns atomics.
        assert_eq!(bl.raw.atomic_ops, c.f16.nnz() as u64);

        let (name, cpu) = run_cpu_model(c);
        assert_eq!(name, "i9-7940X");
        assert!(cpu.gflops < hd.gflops());
    }

    #[test]
    fn warp_extrapolation_follows_the_right_axis() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let dev = DeviceSpec::a100();
        let c = ctx.liver1();
        let hd = run_half_double(c, &dev, 512);
        // Row-parallel: scaled warps ~ clinical row count.
        let rows_paper = c.case.paper.rows;
        let ratio = hd.scaled.warps as f64 / rows_paper;
        assert!(
            (0.9..1.2).contains(&ratio),
            "warps {} vs rows {rows_paper}",
            hd.scaled.warps
        );
    }

    #[test]
    fn sim_l2_keeps_vectors_resident() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let dev = DeviceSpec::a100();
        let c = ctx.liver1();
        let gpu = sim_gpu(c, &dev);
        let vectors = 8 * (c.case.matrix.ncols() + c.case.matrix.nrows());
        assert!(
            gpu.spec().l2_bytes >= vectors,
            "L2 {} vs vectors {vectors}",
            gpu.spec().l2_bytes
        );
        assert!(
            gpu.spec().l2_bytes < 6 * c.case.matrix.nnz(),
            "matrix must stream"
        );
    }
}
