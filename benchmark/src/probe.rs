//! Per-layer probes for the traced run: timed calls into the public
//! functions of `rt-core`, `rt-gpusim`, `rt-sparse`, `rt-optim` and the
//! engine's drain path, each wrapped in a span. They run after the
//! measured phase, with the engine idle.

use crate::load::Solve;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workload::{golden_calc, objective, payload, start_weights, Inputs, PlanInput};
use rt_core::RtError;
use rt_engine::Engine;
use rt_gpusim::{Gpu, Grid};
use rt_optim::{optimize, DoseEngine, GpuDoseEngine, OptimizerConfig};
use rt_sparse::{RowPlan, ShardPlan};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Threads per block of every engine launch (the engine's default).
const TPB: u32 = 512;
/// Each probe repeats at least `MIN_REPS` times, then until `BUDGET` is
/// spent or `MAX_REPS` is reached, and reports the median.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 25;
const BUDGET: Duration = Duration::from_millis(400);

/// Times repeated calls of `f` in milliseconds, one span each.
fn reps<T>(
    tracer: &Tracer,
    spans: &mut Vec<Span>,
    name: &'static str,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || (out.len() < MAX_REPS && start.elapsed() < BUDGET) {
        let t0 = Instant::now();
        black_box(f());
        let t1 = Instant::now();
        tracer.push(spans, name, 0, 0, t0, t1);
        out.push((t1 - t0).as_secs_f64() * 1e3);
    }
    out
}

/// `DoseCalculator` batch entry points at batch 1 and 8 on the largest
/// plan at the engine's pinned widths, plus `KernelSelect::choose` per
/// plan and direction under the workload's policy.
pub fn core(
    engine: &Engine,
    inputs: &Inputs,
    seed: u64,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, RtError> {
    let mut spans = Vec::new();
    let plan = &inputs.plans[0];
    let calc = golden_calc(engine, plan)?;
    let mut rng = Rng::new(seed, 400);
    let w = payload(&mut rng, plan.matrix.ncols());
    let r = payload(&mut rng, plan.matrix.nrows());
    let dose = median(&reps(tracer, &mut spans, "core.dose_batch", || {
        calc.compute_dose_batch(&[&w])
    }));
    let grad = median(&reps(tracer, &mut spans, "core.grad_batch", || {
        calc.compute_gradient_batch(&[&r])
    }));
    let batch8 = median(&reps(tracer, &mut spans, "core.dose_batch8", || {
        calc.compute_dose_batch(&[w.as_slice(); 8])
    }));
    let modeled = calc.compute_dose_batch(&[&w])?.report.estimate.seconds;

    let select = inputs.policy.kernel_select();
    let mut select_ms = Vec::new();
    for p in &inputs.plans {
        let t = p.matrix.transpose();
        for m in [&p.matrix, &t] {
            select_ms.push(once(tracer, &mut spans, "core.select", || {
                select.choose(&inputs.pool[0], m, TPB)
            }));
        }
    }
    tracer.keep(spans);
    Ok(vec![
        ("core.dose_batch_ms_p50", dose),
        ("core.grad_batch_ms_p50", grad),
        (
            "core.host_ns_per_nnz",
            dose * 1e6 / plan.matrix.nnz() as f64,
        ),
        ("core.batch8_speedup", 8.0 * dose / batch8),
        (
            "core.select_ms",
            select_ms.iter().sum::<f64>() / select_ms.len() as f64,
        ),
        ("core.modeled_us_per_launch", modeled * 1e6),
    ])
}

/// One timed call in milliseconds: the autotuner's probe is too slow to
/// repeat.
fn once<T>(
    tracer: &Tracer,
    spans: &mut Vec<Span>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let t1 = Instant::now();
    tracer.push(spans, name, 0, 0, t0, t1);
    (t1 - t0).as_secs_f64() * 1e3
}

/// `Gpu::launch` of a kernel that does nothing, on the smallest plan's
/// warp-per-row grid: the simulator's fixed cost per launch.
pub fn gpusim(inputs: &Inputs, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut spans = Vec::new();
    let gpu = Gpu::new(inputs.pool[0].clone());
    let grid = Grid::warp_per_item(inputs.smallest().matrix.nrows(), TPB);
    let ms = median(&reps(tracer, &mut spans, "gpusim.empty_launch", || {
        gpu.launch(grid, |_| {})
    }));
    tracer.keep(spans);
    vec![("gpusim.empty_launch_us", ms * 1e3)]
}

/// `Csr::transpose`, `RowPlan::from_csr` and a bandwidth-weighted
/// `ShardPlan` over the whole pool, on the largest plan.
pub fn sparse(inputs: &Inputs, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut spans = Vec::new();
    let m = &inputs.plans[0].matrix;
    let weights: Vec<f64> = inputs.pool.iter().map(|d| d.effective_dram_bw()).collect();
    let transpose = median(&reps(tracer, &mut spans, "sparse.transpose", || {
        m.transpose()
    }));
    let rowplan = median(&reps(tracer, &mut spans, "sparse.rowplan", || {
        RowPlan::from_csr(m)
    }));
    let shardplan = median(&reps(tracer, &mut spans, "sparse.shardplan", || {
        ShardPlan::build_weighted(m, &weights)
    }));
    tracer.keep(spans);
    vec![
        ("sparse.transpose_ms", transpose),
        ("sparse.rowplan_ms", rowplan),
        ("sparse.shardplan_ms", shardplan),
    ]
}

/// Drains and undrains the last pool device three times on the idle
/// engine; returns every call's milliseconds.
pub fn drain(engine: &Engine, tracer: &Tracer) -> Result<Vec<f64>, RtError> {
    let mut spans = Vec::new();
    let device = engine.devices().len() - 1;
    let mut took = Vec::new();
    for _ in 0..3 {
        for (name, drain) in [("engine.drain", true), ("engine.undrain", false)] {
            let t0 = Instant::now();
            if drain {
                engine.drain_device(device)?;
            } else {
                engine.undrain_device(device)?;
            }
            let t1 = Instant::now();
            tracer.push(&mut spans, name, 0, 0, t0, t1);
            took.push((t1 - t0).as_secs_f64() * 1e3);
        }
    }
    tracer.keep(spans);
    Ok(took)
}

/// A dose engine that records a span around every forward and backward
/// SpMV of the engine it wraps, as children of the solve's span.
struct Spanned<'t, E> {
    inner: E,
    tracer: &'t Tracer,
    solve: u64,
    spans: RefCell<Vec<Span>>,
}

impl<E: DoseEngine> Spanned<'_, E> {
    fn timed(&self, name: &'static str, f: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.tracer
            .push(&mut self.spans.borrow_mut(), name, self.solve, 0, t0, t1);
        out
    }
}

impl<E: DoseEngine> DoseEngine for Spanned<'_, E> {
    fn nvoxels(&self) -> usize {
        self.inner.nvoxels()
    }

    fn nspots(&self) -> usize {
        self.inner.nspots()
    }

    fn dose(&self, weights: &[f64]) -> Vec<f64> {
        self.timed("optim.dose", || self.inner.dose(weights))
    }

    fn backproject(&self, residual: &[f64]) -> Vec<f64> {
        self.timed("optim.backproject", || self.inner.backproject(residual))
    }
}

/// One optimizer solve on `plan` through a direct calculator at the
/// engine's pinned widths, for workloads whose load sends no solves.
pub fn solve(
    engine: &Engine,
    plan: &PlanInput,
    seed: u64,
    tracer: &Tracer,
) -> Result<Solve, RtError> {
    let solve_id = tracer.id();
    let spanned = Spanned {
        inner: GpuDoseEngine::with_calculator(golden_calc(engine, plan)?)?,
        tracer,
        solve: solve_id,
        spans: RefCell::new(Vec::new()),
    };
    let objective = objective(&plan.matrix);
    let w0 = start_weights(seed, 0, plan.matrix.ncols());
    let t0 = Instant::now();
    let r = optimize(&spanned, &objective, &w0, &OptimizerConfig::default());
    let t1 = Instant::now();
    let mut spans = spanned.spans.into_inner();
    spans.push(tracer.span_with_id(solve_id, "optim.solve", 0, 0, t0, t1));
    let requests = spans.len() as u64 - 1;
    tracer.keep(spans);
    Ok(Solve {
        start: 0,
        weights: r.weights,
        iters: r.history.len(),
        dose_evals: r.dose_evals,
        seconds: (t1 - t0).as_secs_f64(),
        requests,
        failed: 0,
    })
}
