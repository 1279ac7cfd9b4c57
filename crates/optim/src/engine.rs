//! The dose-engine abstraction the optimizer drives.

use rt_core::DoseCalculator;
use rt_sparse::Csr;

/// Anything that can map spot weights to dose and back-project
/// residuals. One forward call per objective evaluation, one
/// back-projection per gradient — the two SpMVs of every optimizer
/// iteration.
pub trait DoseEngine {
    fn nvoxels(&self) -> usize;
    fn nspots(&self) -> usize;
    /// `d = A w`.
    fn dose(&self, weights: &[f64]) -> Vec<f64>;
    /// `g = A^T r`.
    fn backproject(&self, residual: &[f64]) -> Vec<f64>;
    /// Modeled seconds spent in dose calculations so far (0 for engines
    /// without a performance model).
    fn modeled_seconds(&self) -> f64 {
        0.0
    }
    /// Modeled seconds spent in gradient back-projections so far (0 for
    /// engines without a performance model).
    fn modeled_gradient_seconds(&self) -> f64 {
        0.0
    }
}

/// Full-precision CPU reference engine.
pub struct CpuDoseEngine {
    matrix: Csr<f64, u32>,
}

impl CpuDoseEngine {
    pub fn new(matrix: Csr<f64, u32>) -> Self {
        CpuDoseEngine { matrix }
    }

    pub fn matrix(&self) -> &Csr<f64, u32> {
        &self.matrix
    }
}

impl DoseEngine for CpuDoseEngine {
    fn nvoxels(&self) -> usize {
        self.matrix.nrows()
    }

    fn nspots(&self) -> usize {
        self.matrix.ncols()
    }

    fn dose(&self, weights: &[f64]) -> Vec<f64> {
        let mut d = vec![0.0; self.matrix.nrows()];
        self.matrix
            .spmv_ref(weights, &mut d)
            .expect("dimension checked");
        d
    }

    fn backproject(&self, residual: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; self.matrix.ncols()];
        self.matrix
            .spmv_transpose_ref(residual, &mut g)
            .expect("dimension checked");
        g
    }
}

/// The paper's configuration: dose and gradient computed by the
/// Half/double kernel on the simulated GPU, with the modeled kernel
/// times accumulated so end-to-end planning speedups can be reported.
pub struct GpuDoseEngine {
    calc: DoseCalculator,
    seconds: std::cell::Cell<f64>,
    grad_seconds: std::cell::Cell<f64>,
}

impl GpuDoseEngine {
    /// Wraps a calculator configured through
    /// [`DoseCalculator::builder`] (device, counter extrapolation,
    /// widths, partitions). It must have been built
    /// [`with_transpose`](rt_core::DoseCalculatorBuilder::with_transpose)
    /// ([`RtError::TransposeUnavailable`](rt_core::RtError::TransposeUnavailable)
    /// otherwise).
    pub fn with_calculator(calc: DoseCalculator) -> Result<Self, rt_core::RtError> {
        if !calc.has_transpose() {
            return Err(rt_core::RtError::TransposeUnavailable);
        }
        Ok(GpuDoseEngine {
            calc,
            seconds: std::cell::Cell::new(0.0),
            grad_seconds: std::cell::Cell::new(0.0),
        })
    }
}

impl DoseEngine for GpuDoseEngine {
    fn nvoxels(&self) -> usize {
        self.calc.nrows()
    }

    fn nspots(&self) -> usize {
        self.calc.ncols()
    }

    fn dose(&self, weights: &[f64]) -> Vec<f64> {
        // Dimensions were validated at construction; the optimizer always
        // passes `nspots`-length weights, so this cannot fail.
        let r = self
            .calc
            .compute_dose(weights)
            .expect("validated dimensions");
        self.seconds.set(self.seconds.get() + r.estimate().seconds);
        r.dose
    }

    fn backproject(&self, residual: &[f64]) -> Vec<f64> {
        // The batch entry point (batch of one) returns the gradient
        // launch report, so the backward pass's modeled time is tracked
        // like the forward pass's — at the gradient direction's own
        // width/partition, which since ISSUE 9 may differ from the
        // dose direction's.
        let mut r = self
            .calc
            .compute_gradient_batch(&[residual])
            .expect("transpose uploaded at construction");
        self.grad_seconds
            .set(self.grad_seconds.get() + r.report.estimate.seconds);
        r.outputs.swap_remove(0)
    }

    fn modeled_seconds(&self) -> f64 {
        self.seconds.get()
    }

    fn modeled_gradient_seconds(&self) -> f64 {
        self.grad_seconds.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Csr<f64, u32> {
        Csr::from_rows(
            3,
            &[
                vec![(0, 1.0), (1, 0.5)],
                vec![(1, 2.0)],
                vec![(0, 0.25), (2, 1.5)],
                vec![],
            ],
        )
        .unwrap()
    }

    #[test]
    fn cpu_engine_forward_and_back() {
        let e = CpuDoseEngine::new(matrix());
        assert_eq!(e.nvoxels(), 4);
        assert_eq!(e.nspots(), 3);
        let d = e.dose(&[1.0, 1.0, 1.0]);
        assert_eq!(d, vec![1.5, 2.0, 1.75, 0.0]);
        let g = e.backproject(&[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(g, vec![1.25, 0.5, 1.5]);
    }

    #[test]
    fn gpu_engine_matches_cpu_within_f16_rounding() {
        let m = matrix();
        let cpu = CpuDoseEngine::new(m.clone());
        let calc = DoseCalculator::builder(&m)
            .with_transpose()
            .build()
            .unwrap();
        let gpu = GpuDoseEngine::with_calculator(calc).unwrap();
        let w = [0.7, 1.3, 0.4];
        let dc = cpu.dose(&w);
        let dg = gpu.dose(&w);
        for (a, b) in dc.iter().zip(dg.iter()) {
            assert!((a - b).abs() < 2e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
        assert!(gpu.modeled_seconds() > 0.0);
    }
}
