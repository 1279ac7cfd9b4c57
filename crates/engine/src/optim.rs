//! Bridges the serving engine to the optimizer: a [`DoseEngine`] whose
//! forward and backward SpMVs are served requests, so a plan optimization
//! can run *against* a live engine and share device time (and batches)
//! with other traffic.

use crate::{EngineClient, RequestKind};
use rt_core::RtError;
use rt_optim::DoseEngine;
use std::cell::Cell;

/// A [`DoseEngine`] backed by one registered plan of a serving engine.
///
/// Construction validates the plan name; after that, every request this
/// adapter issues is correctly shaped, so the infallible [`DoseEngine`]
/// trait methods cannot hit a validation error. (An engine shutdown mid-
/// optimization is a caller protocol violation and panics — the adapter
/// borrows the client, so the session outlives it by construction.)
pub struct ServedDoseEngine<'c, 'e> {
    client: &'c EngineClient<'e>,
    plan: String,
    nrows: usize,
    ncols: usize,
    seconds: Cell<f64>,
}

impl<'c, 'e> ServedDoseEngine<'c, 'e> {
    /// Binds to a registered plan ([`RtError::UnknownPlan`] otherwise).
    pub fn new(client: &'c EngineClient<'e>, plan: &str) -> Result<Self, RtError> {
        let (nrows, ncols) = client
            .engine
            .plan_dims(plan)
            .ok_or_else(|| RtError::UnknownPlan(plan.to_string()))?;
        Ok(ServedDoseEngine {
            client,
            plan: plan.to_string(),
            nrows,
            ncols,
            seconds: Cell::new(0.0),
        })
    }

    fn call(&self, kind: RequestKind, payload: Vec<f64>) -> Result<Vec<f64>, RtError> {
        let r = self.client.call(&self.plan, kind, payload)?;
        self.seconds
            .set(self.seconds.get() + r.report.estimate.seconds);
        Ok(r.output)
    }
}

impl DoseEngine for ServedDoseEngine<'_, '_> {
    fn nvoxels(&self) -> usize {
        self.nrows
    }

    fn nspots(&self) -> usize {
        self.ncols
    }

    fn dose(&self, weights: &[f64]) -> Vec<f64> {
        self.call(RequestKind::Dose, weights.to_vec())
            .expect("serve session ended while an optimization was driving it")
    }

    fn backproject(&self, residual: &[f64]) -> Vec<f64> {
        self.call(RequestKind::Gradient, residual.to_vec())
            .expect("serve session ended while an optimization was driving it")
    }

    fn modeled_seconds(&self) -> f64 {
        self.seconds.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use rt_gpusim::DeviceSpec;
    use rt_sparse::Csr;

    #[test]
    fn served_engine_matches_direct_calculator() {
        let m = Csr::from_rows(
            3,
            &[
                vec![(0, 1.0), (1, 0.5)],
                vec![(1, 2.0)],
                vec![(0, 0.25), (2, 1.5)],
                vec![],
            ],
        )
        .unwrap();
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        e.register_plan("p", &m).unwrap();

        // The engine may have autotuned the plan off warp-per-row; the
        // direct calculator must run at the same width to match bitwise.
        let direct = rt_core::DoseCalculator::builder(&m)
            .tile_width(e.plan_choice("p").unwrap().tile_width)
            .grad_tile_width(e.plan_grad_choice("p").unwrap().tile_width)
            .with_transpose()
            .build()
            .unwrap();
        let w = [0.7, 1.3, 0.4];
        let r = [1.0, 0.0, 1.0, 0.0];

        let ((dose, grad, modeled), _) = e.serve(|c| {
            let served = ServedDoseEngine::new(c, "p").unwrap();
            assert_eq!(served.nvoxels(), 4);
            assert_eq!(served.nspots(), 3);
            (
                served.dose(&w),
                served.backproject(&r),
                served.modeled_seconds(),
            )
        });
        assert_eq!(dose, direct.compute_dose(&w).unwrap().dose);
        let direct_grad = direct.compute_gradient_batch(&[&r]).unwrap().outputs;
        assert_eq!(grad, direct_grad[0]);
        assert!(modeled > 0.0);
    }

    #[test]
    fn an_unknown_plan_name_fails_construction() {
        let m = Csr::from_rows(1, &[vec![(0, 1.0)]]).unwrap();
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        e.register_plan("p", &m).unwrap();
        let (err, report) = e.serve(|c| ServedDoseEngine::new(c, "nope").err());
        assert_eq!(err, Some(RtError::UnknownPlan("nope".to_string())));
        assert_eq!(report.submitted, 0);
    }
}
