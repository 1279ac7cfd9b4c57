//! High-level dose calculation API — what the treatment-plan optimizer
//! and the serving engine call every iteration.
//!
//! Construction is builder-first and fallible: [`DoseCalculator::builder`]
//! validates the configuration and returns `Result<_, RtError>` instead
//! of panicking, so untrusted inputs (a serving engine's requests, a
//! CLI-loaded snapshot) surface as typed errors.

use crate::bucketed::{
    bucketed_group_report, vector_csr_bucketed_members, BucketWidths, GpuRowPlan,
};
use crate::error::RtError;
use crate::profile_half_double;
use crate::vector_csr::{vector_csr_member, GpuCsrMatrix, MAX_SPMM_BATCH};
use rt_f16::F16;
use rt_gpusim::{
    DeviceBuffer, DeviceOutBuffer, DeviceSpec, Gpu, GroupReport, GroupStats, KernelStats,
    LaunchReport, MemoCounts, TimeEstimate, TILE_WIDTHS,
};
use rt_sparse::{Csr, RowPlan};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};

/// Result of one dose calculation.
#[derive(Clone, Debug)]
pub struct DoseResult {
    /// Dose per voxel (Gray per unit weight), `nrows` long.
    pub dose: Vec<f64>,
    /// Unified launch report: traffic counters, modeled time, and (when
    /// named buffers are used) per-buffer traffic.
    pub report: LaunchReport,
    /// Per-bucket breakdown of the fused dispatch, at simulation scale
    /// (partitioned calculators only; `None` for whole-matrix dispatch).
    pub group: Option<GroupReport>,
}

impl DoseResult {
    /// Traffic counters of the launch (convenience accessor).
    #[inline]
    pub fn stats(&self) -> &KernelStats {
        &self.report.stats
    }

    /// Modeled execution time (convenience accessor).
    #[inline]
    pub fn estimate(&self) -> &TimeEstimate {
        &self.report.estimate
    }
}

/// Result of one batched (multi-vector) calculation: one output per
/// request, one merged launch report for the whole batch.
#[derive(Clone, Debug)]
pub struct BatchDoseResult {
    /// One output vector per input vector, in submission order.
    pub outputs: Vec<Vec<f64>>,
    /// Merged report over the batch's launches (chunked by
    /// [`MAX_SPMM_BATCH`]).
    pub report: LaunchReport,
    /// Per-bucket breakdown accumulated over the batch's fused dispatches,
    /// at simulation scale (partitioned calculators only).
    pub group: Option<GroupReport>,
}

/// Validated configuration for a [`DoseCalculator`]. Obtained from
/// [`DoseCalculator::builder`]; all setters are chainable and
/// [`DoseCalculatorBuilder::build`] performs the upload.
#[derive(Clone, Debug)]
pub struct DoseCalculatorBuilder<'m> {
    matrix: &'m Csr<f64, u32>,
    device: DeviceSpec,
    threads_per_block: u32,
    scale: f64,
    row_scale: Option<f64>,
    grad_matrix: Option<Cow<'m, Csr<f64, u32>>>,
    tile_width: u32,
    grad_tile_width: Option<u32>,
    partition: Option<(Arc<RowPlan>, BucketWidths)>,
    grad_partition: Option<(Arc<RowPlan>, BucketWidths)>,
}

impl<'m> DoseCalculatorBuilder<'m> {
    fn new(matrix: &'m Csr<f64, u32>) -> Self {
        DoseCalculatorBuilder {
            matrix,
            device: DeviceSpec::a100(),
            threads_per_block: 512,
            scale: 1.0,
            row_scale: None,
            grad_matrix: None,
            tile_width: 32,
            grad_tile_width: None,
            partition: None,
            grad_partition: None,
        }
    }

    /// Target device (defaults to the A100, the paper's primary system).
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Execution configuration (Figure 4 parameter; default 512).
    pub fn threads_per_block(mut self, tpb: u32) -> Self {
        self.threads_per_block = tpb;
        self
    }

    /// Counter extrapolation factor (see `rt_dose::DoseCase::extrapolation`).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Separate extrapolation factor for warp/block counts (the kernel is
    /// warp-per-row, so this is the clinical-to-simulated *row* ratio
    /// when traffic scales by the nnz ratio).
    pub fn row_scale(mut self, row_scale: f64) -> Self {
        self.row_scale = Some(row_scale);
        self
    }

    /// Also upload the transpose so gradient back-projections are
    /// available (costs a second copy of the matrix, as on real GPUs) —
    /// shorthand for [`DoseCalculatorBuilder::gradient_matrix`] with the
    /// whole transpose.
    pub fn with_transpose(mut self) -> Self {
        self.grad_matrix = Some(Cow::Owned(self.matrix.transpose()));
        self
    }

    /// The matrix gradient back-projections run a forward SpMV over:
    /// `g = T r`, with `r` as long as `t.ncols()` and `g` as long as
    /// `t.nrows()`. Usually the whole transpose
    /// ([`DoseCalculatorBuilder::with_transpose`]); the serving engine
    /// passes a row shard of the transpose, so one device holds dose
    /// shard *s* and gradient shard *s* side by side.
    pub fn gradient_matrix(mut self, t: &'m Csr<f64, u32>) -> Self {
        self.grad_matrix = Some(Cow::Borrowed(t));
        self
    }

    /// Cooperative-group tile width for the SpMV kernels (default 32,
    /// the paper's warp-per-row kernel). Narrower widths run
    /// [`crate::vector_csr_spmm`]'s sub-warp tiles; use
    /// [`KernelSelect`](crate::KernelSelect) to pick one automatically.
    pub fn tile_width(mut self, tile_width: u32) -> Self {
        self.tile_width = tile_width;
        self
    }

    /// Cooperative-group tile width for the gradient (transpose) SpMV
    /// kernels. The transpose has its own row-length distribution, so
    /// its width is selected independently; unset, gradients inherit
    /// [`DoseCalculatorBuilder::tile_width`] (the pre-partition
    /// behavior).
    pub fn grad_tile_width(mut self, tile_width: u32) -> Self {
        self.grad_tile_width = Some(tile_width);
        self
    }

    /// Dispatch dose SpMV through the bucketed row partition
    /// ([`crate::bucketed`]): empty rows are eliminated and each length
    /// bucket launches at its `widths` entry. `plan` is the matrix's
    /// [`RowPlan`], built once elsewhere (the serving engine caches one
    /// per registered matrix); it must describe this matrix. The gradient
    /// direction is partitioned independently — see
    /// [`DoseCalculatorBuilder::grad_partitioned_with_plan`] — because the
    /// transpose has its own shape; without it, back-projections run the
    /// whole-matrix kernel at [`DoseCalculatorBuilder::grad_tile_width`].
    pub fn partitioned_with_plan(mut self, plan: Arc<RowPlan>, widths: BucketWidths) -> Self {
        self.partition = Some((plan, widths));
        self
    }

    /// Dispatch gradient back-projections through the bucketed row
    /// partition of the *transpose*: empty beamlet-rows are eliminated
    /// and each length bucket launches at its `widths` entry. `plan` is
    /// the gradient matrix's [`RowPlan`], built once elsewhere; it must
    /// describe the gradient matrix, which this requires
    /// ([`DoseCalculatorBuilder::with_transpose`] or
    /// [`DoseCalculatorBuilder::gradient_matrix`]).
    pub fn grad_partitioned_with_plan(mut self, plan: Arc<RowPlan>, widths: BucketWidths) -> Self {
        self.grad_partition = Some((plan, widths));
        self
    }

    /// Validates the configuration, converts the matrix to binary16 and
    /// uploads it (plus the gradient matrix, if any) to a fresh simulated
    /// device.
    pub fn build(self) -> Result<DoseCalculator, RtError> {
        let m = self.matrix;
        if m.nrows() == 0 || m.ncols() == 0 {
            return Err(RtError::EmptyMatrix {
                nrows: m.nrows(),
                ncols: m.ncols(),
            });
        }
        let tpb = self.threads_per_block;
        if !(32..=1024).contains(&tpb) || !tpb.is_multiple_of(32) {
            return Err(RtError::InvalidThreadsPerBlock(tpb));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(RtError::InvalidScale(self.scale));
        }
        if let Some(rs) = self.row_scale {
            if !(rs.is_finite() && rs > 0.0) {
                return Err(RtError::InvalidScale(rs));
            }
        }
        if !TILE_WIDTHS.contains(&self.tile_width) {
            return Err(RtError::InvalidTileWidth(self.tile_width));
        }
        if let Some(gw) = self.grad_tile_width {
            if !TILE_WIDTHS.contains(&gw) {
                return Err(RtError::InvalidTileWidth(gw));
            }
        }
        for part in [&self.partition, &self.grad_partition]
            .into_iter()
            .flatten()
        {
            let (_, widths) = part;
            if let Some(&bad) = widths.0.iter().find(|w| !TILE_WIDTHS.contains(w)) {
                return Err(RtError::InvalidTileWidth(bad));
            }
        }
        if self.grad_partition.is_some() && self.grad_matrix.is_none() {
            // A gradient partition without a gradient matrix resident can
            // never dispatch.
            return Err(RtError::TransposeUnavailable);
        }

        let gpu = Gpu::new(self.device);
        let upload = |m: &Csr<f64, u32>| GpuCsrMatrix::upload(&gpu, &m.convert_values::<F16>());
        // Both matrices upload before either row plan: the simulated
        // allocator is monotone, so this order fixes the address layout
        // the L2 model sees.
        let dose_matrix = upload(m);
        let grad_matrix = self.grad_matrix.as_deref().map(upload);
        let dose = Operator::new(&gpu, dose_matrix, self.partition, self.tile_width, 0);
        let grad_width = self.grad_tile_width.unwrap_or(self.tile_width);
        let grad =
            grad_matrix.map(|gm| Operator::new(&gpu, gm, self.grad_partition, grad_width, 1));
        // The dose direction's first output slot is allocated here, after
        // both operators, so a first `compute_dose` sees the same address
        // layout as a calculator without staging slots.
        dose.stage().ys.push(gpu.alloc_out::<f64>(m.nrows()));
        Ok(DoseCalculator {
            gpu,
            dose,
            grad,
            profile: profile_half_double(),
            threads_per_block: tpb,
            scale: self.scale,
            row_scale: self.row_scale,
        })
    }
}

/// One direction's resident SpMV operator: the uploaded matrix, its
/// optional bucketed row partition, the whole-matrix tile width and its
/// staging slots. A [`DoseCalculator`] holds one for doses (`A`) and
/// optionally one for gradients (`A^T`, or a row shard of it); both run
/// the same forward kernels on the calculator's one device.
struct Operator {
    matrix: GpuCsrMatrix<F16, u32>,
    /// Uploaded row plan plus per-bucket widths. When present, SpMV
    /// dispatches through the bucketed partition
    /// ([`crate::vector_csr_spmm_bucketed`]).
    partition: Option<(GpuRowPlan, BucketWidths)>,
    /// Cooperative-group tile width of whole-matrix dispatch
    /// ([`crate::vector_csr_spmm`]).
    width: u32,
    /// Which direction this is, 0 for doses and 1 for gradients: with the
    /// batch size it names a launch's whole address stream.
    direction: u64,
    /// Device vectors every launch of this operator reads and writes.
    /// Locked from upload to read-back, so concurrent callers of one
    /// calculator never see each other's outputs.
    staging: Mutex<Staging>,
}

/// An operator's input and output device vectors, grown lazily to at
/// most [`MAX_SPMM_BATCH`] slots: batch vector `v` always lives in slot
/// `v`. Inputs are refilled in place, so every launch of one batch size
/// reads and writes the same addresses. Only input payloads change
/// between launches, and no address depends on them. Slots are staging
/// space, not resident data: [`DoseCalculator::resident_bytes`] leaves
/// them out.
#[derive(Default)]
struct Staging {
    xs: Vec<DeviceBuffer<f64>>,
    ys: Vec<DeviceOutBuffer<f64>>,
}

impl Staging {
    /// Copies `inputs` into slots `0..inputs.len()`, first allocating
    /// any missing input slots and then any missing output slots of
    /// `out_len` elements.
    fn fill(&mut self, gpu: &Gpu, inputs: &[&[f64]], out_len: usize) {
        for (v, x) in inputs.iter().enumerate() {
            match self.xs.get_mut(v) {
                Some(slot) => slot.refill(x),
                None => self.xs.push(gpu.upload(x)),
            }
        }
        while self.ys.len() < inputs.len() {
            self.ys.push(gpu.alloc_out(out_len));
        }
    }
}

impl Operator {
    /// Wraps an uploaded matrix and uploads its partition's row plan (a
    /// plan of the f64 matrix serves the f16 upload: value conversion
    /// preserves the sparsity structure).
    fn new(
        gpu: &Gpu,
        matrix: GpuCsrMatrix<F16, u32>,
        partition: Option<(Arc<RowPlan>, BucketWidths)>,
        width: u32,
        direction: u64,
    ) -> Self {
        Operator {
            matrix,
            partition: partition.map(|(plan, widths)| (GpuRowPlan::upload(gpu, plan), widths)),
            width,
            direction,
            staging: Mutex::default(),
        }
    }

    /// The staging slots. A panic mid-launch leaves them valid (the next
    /// launch refills every input it reads and overwrites every output).
    fn stage(&self) -> std::sync::MutexGuard<'_, Staging> {
        self.staging.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rejects an input that is not `ncols` long.
    fn check(&self, what: &'static str, len: usize) -> Result<(), RtError> {
        if len == self.matrix.ncols() {
            Ok(())
        } else {
            Err(RtError::DimensionMismatch {
                what,
                expected: self.matrix.ncols(),
                actual: len,
            })
        }
    }

    /// One launch group `outputs[v] = M inputs[v]` through the staging
    /// slots, sharing the matrix traffic across vectors: the bucketed
    /// members when partitioned, else the whole-matrix kernel at `width`.
    /// At most [`MAX_SPMM_BATCH`] inputs. The group is keyed by
    /// (direction, batch size), which fixes every address it touches, so
    /// repeated launches can be answered from the device's launch memo.
    fn run(&self, gpu: &Gpu, tpb: u32, inputs: &[&[f64]]) -> (Vec<Vec<f64>>, GroupStats) {
        let mut staging = self.stage();
        staging.fill(gpu, inputs, self.matrix.nrows());
        let xs: Vec<&DeviceBuffer<f64>> = staging.xs[..inputs.len()].iter().collect();
        let ys: Vec<&DeviceOutBuffer<f64>> = staging.ys[..inputs.len()].iter().collect();
        let m = &self.matrix;
        let members = match &self.partition {
            Some((gplan, widths)) => {
                vector_csr_bucketed_members(m, xs, ys.clone(), tpb, gplan, *widths)
            }
            None => vec![vector_csr_member(m, xs, ys.clone(), tpb, self.width)],
        };
        let key = self.direction << 32 | inputs.len() as u64;
        let group = gpu.launch_group(Some(key), members);
        (ys.iter().map(|y| y.to_vec()).collect(), group)
    }
}

/// A dose calculator holding one beam's dose deposition matrix on the
/// (simulated) GPU in the paper's production configuration: matrix in
/// binary16, vectors in binary64, warp-per-row kernel, 512 threads per
/// block. Optionally also holds a gradient-direction matrix (the
/// transpose, or a row shard of it) on the same device.
///
/// Guarantee: [`DoseCalculator::compute_dose`] is bitwise reproducible —
/// same weights, same matrix, same result, regardless of host thread
/// scheduling, batching, or device assignment (§II-D requirement).
pub struct DoseCalculator {
    gpu: Gpu,
    /// The dose direction: `dose = A w`.
    dose: Operator,
    /// The gradient direction: `g = A^T r` as a forward SpMV over the
    /// gradient matrix (`None` without one).
    grad: Option<Operator>,
    profile: rt_gpusim::KernelProfile,
    threads_per_block: u32,
    /// Extrapolation factor applied to traffic/flop counters before
    /// timing (1.0 = report at simulation scale).
    scale: f64,
    /// Extrapolation factor for warp/block counts (rows scale, since the
    /// kernel is warp-per-row). Defaults to `scale`.
    row_scale: Option<f64>,
}

impl std::fmt::Debug for DoseCalculator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoseCalculator")
            .field("device", &self.gpu.spec().name)
            .field("nrows", &self.nrows())
            .field("ncols", &self.ncols())
            .field("transpose", &self.grad.is_some())
            .field("threads_per_block", &self.threads_per_block)
            .finish()
    }
}

impl DoseCalculator {
    /// Starts a builder for `matrix` (`voxels x spots`, full precision).
    pub fn builder(matrix: &Csr<f64, u32>) -> DoseCalculatorBuilder<'_> {
        DoseCalculatorBuilder::new(matrix)
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.dose.matrix.nrows()
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.dose.matrix.ncols()
    }

    #[inline]
    pub fn device(&self) -> &DeviceSpec {
        self.gpu.spec()
    }

    /// Device-resident bytes this calculator pins: the uploaded matrix
    /// plus (when gradients are enabled) the gradient matrix. The serving
    /// engine sums this per device so sharded residency's ~K× memory
    /// saving is visible in `EngineReport`.
    pub fn resident_bytes(&self) -> u64 {
        let grad = self.grad.as_ref().map_or(0, |g| g.matrix.size_bytes());
        (self.dose.matrix.size_bytes() + grad) as u64
    }

    /// How often this calculator's launches were answered from the launch
    /// memo of its simulated device (every launch is keyed by direction
    /// and batch size; the device is this calculator's own).
    pub fn memo_counts(&self) -> MemoCounts {
        self.gpu.memo_counts()
    }

    /// Whether gradients are available (built with a gradient matrix).
    #[inline]
    pub fn has_transpose(&self) -> bool {
        self.grad.is_some()
    }

    /// The gradient operator, or [`RtError::TransposeUnavailable`].
    fn grad(&self) -> Result<&Operator, RtError> {
        self.grad.as_ref().ok_or(RtError::TransposeUnavailable)
    }

    /// Scales counters and builds the launch report for one (possibly
    /// accumulated) launch's stats; `width` is the direction's tile
    /// width (dose or gradient).
    fn report_for(&self, stats: &KernelStats, width: u32) -> LaunchReport {
        let mut scaled = stats.scale(self.scale);
        let row_factor = self.row_scale.unwrap_or(self.scale);
        scaled.warps = (stats.warps as f64 * row_factor).round() as u64;
        scaled.blocks = ((stats.blocks as f64 * row_factor).round() as u64).max(1);
        let estimate = rt_gpusim::timing::estimate(self.gpu.spec(), &self.profile, &scaled);
        LaunchReport::new(
            self.profile.name.clone(),
            self.gpu.spec().name,
            stats.clone(),
            estimate,
        )
        .with_tile_width(width)
    }

    /// The per-bucket report of an operator's accumulated group counters.
    fn group_report(&self, op: &Operator, group: Option<GroupStats>) -> Option<GroupReport> {
        let (gplan, _) = op.partition.as_ref()?;
        group.map(|g| bucketed_group_report(self.gpu.spec(), &self.profile, gplan.plan(), &g))
    }

    /// Computes `dose = A w` with the Half/double kernel. Partitioned
    /// calculators dispatch through the bucketed row partition (bitwise
    /// identical per row to the fixed-width kernel at the row's bucket
    /// width) and attach the per-bucket [`GroupReport`].
    ///
    /// This is the one-vector [`DoseCalculator::compute_dose_batch`].
    pub fn compute_dose(&self, weights: &[f64]) -> Result<DoseResult, RtError> {
        let mut r = self.compute_dose_batch(&[weights])?;
        Ok(DoseResult {
            dose: r.outputs.swap_remove(0),
            report: r.report,
            group: r.group,
        })
    }

    /// Computes `dose_v = A w_v` for every weight vector in one batched
    /// (multi-vector) launch sequence — the serving engine's path for
    /// compatible concurrent requests. Chunks of up to [`MAX_SPMM_BATCH`]
    /// vectors share each launch's matrix traffic; the merged counters
    /// are reported as one [`LaunchReport`].
    ///
    /// Every output is bitwise identical to the corresponding
    /// [`DoseCalculator::compute_dose`] call (see
    /// [`crate::vector_csr_spmm`]'s determinism contract).
    pub fn compute_dose_batch(&self, weights: &[&[f64]]) -> Result<BatchDoseResult, RtError> {
        self.batched(&self.dose, "weights", weights)
    }

    /// Computes `g_v = A^T r_v` for every residual in one batched launch
    /// sequence, with a merged [`LaunchReport`] (the gradient counterpart
    /// of [`DoseCalculator::compute_dose_batch`]; a batch of one is the
    /// optimizer's gradient back-projection). Requires a gradient matrix
    /// ([`DoseCalculatorBuilder::with_transpose`]). Grad-partitioned
    /// calculators dispatch through the bucketed partition of the
    /// transpose (bitwise identical per beamlet-row to the fixed-width
    /// kernel at the row's bucket width).
    pub fn compute_gradient_batch(&self, residuals: &[&[f64]]) -> Result<BatchDoseResult, RtError> {
        self.batched(self.grad()?, "residual", residuals)
    }

    /// Shared batched-launch path of both directions: runs `inputs`
    /// through `op` in [`MAX_SPMM_BATCH`]-sized chunks and merges the
    /// counters; the merged [`LaunchReport`] carries the operator's
    /// whole-matrix tile width.
    fn batched(
        &self,
        op: &Operator,
        what: &'static str,
        inputs: &[&[f64]],
    ) -> Result<BatchDoseResult, RtError> {
        for x in inputs {
            op.check(what, x.len())?;
        }
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut merged = KernelStats::default();
        let mut group_acc: Option<GroupStats> = None;
        for chunk in inputs.chunks(MAX_SPMM_BATCH) {
            let (outs, group) = op.run(&self.gpu, self.threads_per_block, chunk);
            merged.accumulate(&group.merged);
            match &mut group_acc {
                Some(acc) => acc.accumulate(&group),
                None => group_acc = Some(group),
            }
            outputs.extend(outs);
        }
        Ok(BatchDoseResult {
            outputs,
            report: self.report_for(&merged, op.width),
            group: self.group_report(op, group_acc),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `m`'s row plan, as the serving engine caches one per matrix.
    fn plan_of(m: &Csr<f64, u32>) -> Arc<RowPlan> {
        Arc::new(RowPlan::from_csr(m))
    }

    /// Asserts that every length bucket of `group` launched at its
    /// `widths` entry.
    fn assert_bucket_widths(group: &GroupReport, widths: BucketWidths) {
        for b in group.buckets.iter().filter(|b| b.label != "zero_fill") {
            let i = rt_sparse::ROW_BUCKET_BOUNDS
                .iter()
                .position(|&(lo, hi)| crate::bucketed::bucket_label(lo, hi) == b.label)
                .expect("member label names a length bucket");
            assert_eq!(b.tile_width, widths.0[i], "{}", b.label);
        }
    }

    fn random_matrix(seed: u64, nrows: usize, ncols: usize) -> Csr<f64, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                let len = rng.gen_range(0..20);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..0.1)))
                    .collect()
            })
            .collect();
        Csr::from_rows(ncols, &rows).unwrap()
    }

    #[test]
    fn end_to_end_dose_calculation() {
        let m = random_matrix(51, 600, 40);
        let calc = DoseCalculator::builder(&m).build().unwrap();
        let w = vec![1.0; 40];
        let r = calc.compute_dose(&w).unwrap();
        assert_eq!(r.dose.len(), 600);
        assert!(r.estimate().seconds > 0.0);
        assert!(r.stats().flops > 0);
        assert_eq!(r.report.device, "A100");
        assert_eq!(r.report.kernel, "Half/double");

        // Against the f16-rounded reference.
        let m16: Csr<rt_f16::F16, u32> = m.convert_values();
        let mut want = vec![0.0; 600];
        m16.spmv_ref(&w, &mut want).unwrap();
        for (g, wv) in r.dose.iter().zip(want.iter()) {
            assert!((g - wv).abs() <= 1e-9 * (1.0 + wv.abs()));
        }
    }

    #[test]
    fn repeated_launches_are_answered_from_the_memo() {
        let m = random_matrix(53, 400, 30);
        let calc = DoseCalculator::builder(&m).build().unwrap();
        let w = vec![0.75; 30];
        let doses: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                let dose = calc.compute_dose(&w).unwrap().dose;
                dose.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        assert!(doses.iter().all(|d| *d == doses[0]));
        let counts = calc.memo_counts();
        assert_eq!((counts.keyed, counts.hits), (3, 1));
    }

    #[test]
    fn repeated_calls_are_bitwise_identical() {
        let m = random_matrix(52, 400, 30);
        let calc = DoseCalculator::builder(&m).build().unwrap();
        let w: Vec<f64> = (0..30).map(|i| (i as f64 * 0.11).sin().abs()).collect();
        let a = calc.compute_dose(&w).unwrap().dose;
        let b = calc.compute_dose(&w).unwrap().dose;
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_matches_single_bitwise_and_merges_counters() {
        let m = random_matrix(56, 350, 28);
        let calc = DoseCalculator::builder(&m).build().unwrap();
        let vectors: Vec<Vec<f64>> = (0..11)
            .map(|v| (0..28).map(|i| ((v + i) as f64 * 0.07).cos()).collect())
            .collect();
        let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
        let batch = calc.compute_dose_batch(&refs).unwrap();
        assert_eq!(batch.outputs.len(), 11);
        // 11 vectors chunk into 8 + 3; merged flops = 2 * nnz * 11.
        assert_eq!(batch.report.stats.flops, 2 * m.nnz() as u64 * 11);
        for (v, x) in vectors.iter().enumerate() {
            let single = calc.compute_dose(x).unwrap().dose;
            assert_eq!(
                batch.outputs[v]
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                single.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "vector {v}"
            );
        }
    }

    #[test]
    fn gradient_term_matches_transpose_reference() {
        let m = random_matrix(53, 300, 25);
        let calc = DoseCalculator::builder(&m)
            .with_transpose()
            .build()
            .unwrap();
        let r: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        let g = calc
            .compute_gradient_batch(&[&r])
            .unwrap()
            .outputs
            .remove(0);

        let m16: Csr<rt_f16::F16, u32> = m.convert_values();
        let mut want = vec![0.0; 25];
        m16.spmv_transpose_ref(&r, &mut want).unwrap();
        for (a, b) in g.iter().zip(want.iter()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
        }

        // A larger batch agrees bitwise with the batch of one.
        let batch = calc.compute_gradient_batch(&[&r, &r]).unwrap();
        for out in &batch.outputs {
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn gradient_requires_transpose() {
        let m = random_matrix(54, 50, 5);
        let calc = DoseCalculator::builder(&m).build().unwrap();
        assert_eq!(
            calc.compute_gradient_batch(&[&vec![0.0; 50]]).unwrap_err(),
            RtError::TransposeUnavailable
        );
    }

    #[test]
    fn dimension_mismatches_are_typed_errors() {
        let m = random_matrix(57, 60, 9);
        let calc = DoseCalculator::builder(&m)
            .with_transpose()
            .build()
            .unwrap();
        assert_eq!(
            calc.compute_dose(&[0.0; 8]).unwrap_err(),
            RtError::DimensionMismatch {
                what: "weights",
                expected: 9,
                actual: 8
            }
        );
        assert_eq!(
            calc.compute_gradient_batch(&[&vec![0.0; 61]]).unwrap_err(),
            RtError::DimensionMismatch {
                what: "residual",
                expected: 60,
                actual: 61
            }
        );
        let short = vec![0.0; 3];
        assert!(matches!(
            calc.compute_dose_batch(&[&[0.0; 9], &short]).unwrap_err(),
            RtError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn builder_validates_configuration() {
        let m = random_matrix(58, 40, 6);
        assert_eq!(
            DoseCalculator::builder(&m)
                .threads_per_block(48)
                .build()
                .unwrap_err(),
            RtError::InvalidThreadsPerBlock(48)
        );
        assert_eq!(
            DoseCalculator::builder(&m).scale(-2.0).build().unwrap_err(),
            RtError::InvalidScale(-2.0)
        );
        assert_eq!(
            DoseCalculator::builder(&m)
                .row_scale(f64::NAN)
                .build()
                .err()
                .map(|e| e.kind()),
            Some("invalid_scale")
        );
        let empty: Csr<f64, u32> = Csr::from_rows(0, &[]).unwrap();
        assert_eq!(
            DoseCalculator::builder(&empty).build().unwrap_err(),
            RtError::EmptyMatrix { nrows: 0, ncols: 0 }
        );
    }

    #[test]
    fn tile_width_validated_and_reported() {
        let m = random_matrix(60, 80, 12);
        assert_eq!(
            DoseCalculator::builder(&m)
                .tile_width(7)
                .build()
                .unwrap_err(),
            RtError::InvalidTileWidth(7)
        );
        let calc = DoseCalculator::builder(&m).tile_width(4).build().unwrap();
        let r = calc.compute_dose(&[1.0; 12]).unwrap();
        assert_eq!(r.report.tile_width, 4);
        assert_eq!(r.report.kernel, "Half/double");
    }

    #[test]
    fn tiled_calculator_doses_match_reference_and_batch_is_bitwise() {
        let m = random_matrix(61, 300, 24);
        let w: Vec<f64> = (0..24).map(|i| (i as f64 * 0.19).sin().abs()).collect();
        let m16: Csr<rt_f16::F16, u32> = m.convert_values();
        let mut want = vec![0.0; 300];
        m16.spmv_ref(&w, &mut want).unwrap();
        for &tw in &[2u32, 8, 16] {
            let calc = DoseCalculator::builder(&m).tile_width(tw).build().unwrap();
            let single = calc.compute_dose(&w).unwrap().dose;
            for (g, want) in single.iter().zip(want.iter()) {
                assert!((g - want).abs() <= 1e-9 * (1.0 + want.abs()), "width {tw}");
            }
            // The tiled SpMM batch path preserves the bitwise contract.
            let batch = calc.compute_dose_batch(&[&w, &w]).unwrap();
            for out in &batch.outputs {
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "width {tw}"
                );
            }
        }
    }

    #[test]
    fn scale_affects_estimate_not_dose() {
        let m = random_matrix(55, 500, 40);
        let w = vec![1.0; 40];
        let small = DoseCalculator::builder(&m)
            .build()
            .unwrap()
            .compute_dose(&w)
            .unwrap();
        let big = DoseCalculator::builder(&m)
            .scale(100.0)
            .build()
            .unwrap()
            .compute_dose(&w)
            .unwrap();
        assert_eq!(small.dose, big.dose);
        assert!(big.estimate().seconds > small.estimate().seconds);
    }

    #[test]
    fn partitioned_calculator_matches_bucketed_reference_and_reports_buckets() {
        let m = random_matrix(59, 700, 30);
        let widths = BucketWidths::natural();
        let calc = DoseCalculator::builder(&m)
            .partitioned_with_plan(plan_of(&m), widths)
            .with_transpose()
            .build()
            .unwrap();
        let w: Vec<f64> = (0..30).map(|i| (i as f64 * 0.23).sin().abs()).collect();
        let r = calc.compute_dose(&w).unwrap();

        let m16: Csr<rt_f16::F16, u32> = m.convert_values();
        let want = crate::vector_csr::vector_csr_reference(&m16, &w, widths);
        assert_eq!(
            r.dose.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let group = r.group.as_ref().expect("partitioned result carries group");
        assert_eq!(group.buckets[0].label, "zero_fill");
        assert!(group.buckets.len() > 1);
        assert_bucket_widths(group, widths);

        // The batch path is bitwise identical and also carries the group.
        let batch = calc.compute_dose_batch(&[&w, &w]).unwrap();
        for out in &batch.outputs {
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                r.dose.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        assert!(batch.group.is_some());

        // Without a gradient partition, gradients keep the whole-matrix
        // path: no group report.
        let residual: Vec<f64> = (0..700).map(|i| (i % 5) as f64).collect();
        let grad_batch = calc.compute_gradient_batch(&[&residual]).unwrap();
        assert!(grad_batch.group.is_none());

        // Unpartitioned results carry no group either.
        let plain = DoseCalculator::builder(&m).build().unwrap();
        assert!(plain.compute_dose(&w).unwrap().group.is_none());
    }

    #[test]
    fn partitioned_builder_validates_bucket_widths() {
        let m = random_matrix(62, 40, 8);
        let mut widths = BucketWidths::natural();
        widths.0[3] = 6;
        assert_eq!(
            DoseCalculator::builder(&m)
                .partitioned_with_plan(plan_of(&m), widths)
                .build()
                .unwrap_err(),
            RtError::InvalidTileWidth(6)
        );
    }

    #[test]
    fn grad_partitioned_gradients_match_bucketed_reference_and_report_buckets() {
        let m = random_matrix(63, 500, 40);
        let t = m.transpose();
        let widths = BucketWidths::natural();
        let calc = DoseCalculator::builder(&m)
            .with_transpose()
            .grad_partitioned_with_plan(plan_of(&t), widths)
            .build()
            .unwrap();

        let residual: Vec<f64> = (0..500).map(|i| ((i % 7) as f64 * 0.31).cos()).collect();
        let g = calc
            .compute_gradient_batch(&[&residual])
            .unwrap()
            .outputs
            .remove(0);

        // The exact arithmetic contract: bucketed dispatch over the
        // transpose == host bucketed reference on the transpose.
        let t16: Csr<rt_f16::F16, u32> = t.convert_values();
        let want = crate::vector_csr::vector_csr_reference(&t16, &residual, widths);
        assert_eq!(
            g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // The batched gradient path is bitwise identical and carries the
        // transpose's per-bucket group report.
        let grad_batch = calc
            .compute_gradient_batch(&[&residual, &residual])
            .unwrap();
        for out in &grad_batch.outputs {
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        let group = grad_batch.group.as_ref().expect("grad partition group");
        assert_eq!(group.buckets[0].label, "zero_fill");
        assert_bucket_widths(group, widths);

        // The dose direction is untouched by the gradient partition.
        let w: Vec<f64> = (0..40).map(|i| (i as f64 * 0.13).sin().abs()).collect();
        assert!(calc.compute_dose(&w).unwrap().group.is_none());
    }

    #[test]
    fn grad_tile_width_is_independent_and_carried_on_gradient_reports() {
        let m = random_matrix(64, 300, 24);
        let calc = DoseCalculator::builder(&m)
            .with_transpose()
            .tile_width(16)
            .grad_tile_width(4)
            .build()
            .unwrap();

        let w = vec![1.0; 24];
        assert_eq!(calc.compute_dose(&w).unwrap().report.tile_width, 16);
        let residual = vec![1.0; 300];
        // The merged gradient-batch report carries the gradient
        // direction's width, not the dose width.
        let grad_batch = calc.compute_gradient_batch(&[&residual]).unwrap();
        assert_eq!(grad_batch.report.tile_width, 4);

        // Defaulting: grad width follows the dose width when unset.
        let follows = DoseCalculator::builder(&m)
            .with_transpose()
            .tile_width(8)
            .build()
            .unwrap();
        let grad_batch = follows.compute_gradient_batch(&[&residual]).unwrap();
        assert_eq!(grad_batch.report.tile_width, 8);
    }

    #[test]
    fn grad_partition_validates_widths_and_requires_transpose() {
        let m = random_matrix(65, 60, 10);
        let t_plan = plan_of(&m.transpose());
        assert_eq!(
            DoseCalculator::builder(&m)
                .grad_partitioned_with_plan(t_plan.clone(), BucketWidths::natural())
                .build()
                .unwrap_err(),
            RtError::TransposeUnavailable
        );
        let mut widths = BucketWidths::natural();
        widths.0[1] = 5;
        assert_eq!(
            DoseCalculator::builder(&m)
                .with_transpose()
                .grad_partitioned_with_plan(t_plan, widths)
                .build()
                .unwrap_err(),
            RtError::InvalidTileWidth(5)
        );
        assert_eq!(
            DoseCalculator::builder(&m)
                .grad_tile_width(3)
                .build()
                .unwrap_err(),
            RtError::InvalidTileWidth(3)
        );
    }
}
