//! The paper's contribution: mixed-precision CSR SpMV kernels for
//! radiation dose calculation, running on the `rt-gpusim` simulator.
//!
//! The paper's kernel (Listing 1, a warp per row with a fixed
//! cooperative-groups `reduce`) has one launch entry point per row
//! strategy. Both take slices of input and output vectors — a single
//! SpMV is the one-vector call — and share one per-row accumulation
//! loop, so every width, batch size and partition is bitwise
//! reproducible against the one host reference [`vector_csr_reference`]:
//!
//! | Entry point | Rows | Strategy |
//! |---|---|---|
//! | [`vector_csr_spmm`]`(…, width)` | every row | `width` 32 is Listing 1: one warp per row, scalar row-pointer loads and stores. Narrower [`TILE_WIDTHS`] run `32 / width` rows per warp as cooperative sub-warp tiles with coalesced pointer loads and stores. |
//! | [`vector_csr_spmm_bucketed`] | non-empty rows of a [`GpuRowPlan`] | a zero-fill member, then one sub-warp launch per row-length bucket at its own width ([`BucketWidths`]). |
//!
//! With `V = F16`, `X = f64` they are the paper's **Half/double** kernel
//! (matrix in binary16, vectors in binary64); with `V = f32`, `X = f32`
//! the **Single** kernel of the library comparison. The remaining
//! kernels (all functionally executed, all traced through the simulated
//! memory hierarchy) are the comparison points:
//!
//! | Kernel | Paper name | Strategy |
//! |---|---|---|
//! | [`scalar_csr_spmv`] | (ablation) | Bell–Garland scalar kernel, one *thread* per row — the motivating counter-example of §III |
//! | [`rs_baseline_gpu_spmv`] | **GPU Baseline** | the RayStation CPU algorithm ported with atomics: column-parallel over the compressed segment format. *Not* reproducible on hardware (atomic order). |
//! | [`RsCpu`] | RayStation CPU | column-parallel with per-thread scratch arrays and a deterministic merge (the clinical implementation) |
//! | [`ginkgo_csr_spmv`] / [`cusparse_csr_spmv`] | Ginkgo / cuSPARSE | single-precision library stand-ins (see DESIGN.md) |
//!
//! The high-level entry point is [`DoseCalculator`], which owns the device
//! matrix and exposes `compute_dose(weights)` the way RayStation's
//! optimizer calls it every iteration.

pub mod baseline;
pub mod bucketed;
pub mod calculator;
pub mod cpu;
pub mod error;
pub mod libs;
pub mod placement;
pub mod scalar_csr;
pub mod select;
pub mod sell_kernel;
pub mod vector_csr;

pub use baseline::{rs_baseline_gpu_spmv, GpuRsMatrix};
pub use bucketed::{
    bucket_label, bucketed_group_report, vector_csr_bucketed_members, vector_csr_spmm_bucketed,
    BucketWidths, GpuRowPlan,
};
pub use calculator::{BatchDoseResult, DoseCalculator, DoseCalculatorBuilder, DoseResult};
pub use cpu::{cpu_csr_spmv, RsCpu};
pub use error::RtError;
pub use libs::{cusparse_csr_spmv, ginkgo_csr_spmv};
pub use placement::{
    choose_shard_count, modeled_pool_throughput, modeled_whole_seconds, BreakEvenPoint,
    ShardBreakEven,
};
pub use scalar_csr::scalar_csr_spmv;
pub use select::{
    heuristic_width, probe_widths, BucketChoice, KernelChoice, KernelSelect, PartitionStrategy,
    TileCandidate,
};
pub use sell_kernel::{sell_spmv, GpuSellMatrix};
pub use vector_csr::{
    vector_csr_member, vector_csr_reference, vector_csr_spmm, GpuCsrMatrix, VecScalar,
    MAX_SPMM_BATCH,
};

pub use rt_gpusim::TILE_WIDTHS;

use rt_gpusim::{KernelProfile, Precision};

/// Calibrated profile of the Half/double kernel (the contribution).
pub fn profile_half_double() -> KernelProfile {
    KernelProfile::new("Half/double", Precision::Double)
}

/// Calibrated profile of the Single kernel.
pub fn profile_single() -> KernelProfile {
    KernelProfile::new("Single", Precision::Single)
}

/// Calibrated profile of the GPU Baseline kernel. Per-warp overhead is
/// secondary for it (few long-running warps); its costs are all traffic.
pub fn profile_baseline() -> KernelProfile {
    KernelProfile::new("GPU Baseline", Precision::Double).with_warp_cycles(400.0)
}

/// Calibrated profile of the scalar (thread-per-row) ablation kernel.
pub fn profile_scalar() -> KernelProfile {
    KernelProfile::new("Scalar CSR", Precision::Double).with_warp_cycles(200.0)
}

/// cuSPARSE stand-in profile: same vector strategy, slightly higher
/// per-row overhead than our tuned kernel (calibrated to Fig. 6: strong
/// on long liver rows, weaker on short prostate rows).
pub fn profile_cusparse() -> KernelProfile {
    KernelProfile::new("cuSPARSE", Precision::Single).with_warp_cycles(200.0)
}

/// Profile of the SELL-C-32 kernel (§VII future work, implemented):
/// very low per-row overhead (no pointer chasing, no reduction).
pub fn profile_sell() -> KernelProfile {
    KernelProfile::new("SELL-C-32", Precision::Double).with_warp_cycles(30.0)
}

/// Ginkgo stand-in profile: the load-balanced classical kernel handles
/// short rows well (low per-row overhead via sub-warps) at a small
/// streaming-efficiency cost (calibrated to Fig. 6: beats cuSPARSE on
/// prostate, trails on liver).
pub fn profile_ginkgo() -> KernelProfile {
    KernelProfile::new("Ginkgo", Precision::Single)
        .with_warp_cycles(110.0)
        .with_bw_efficiency(0.90)
}
