//! The four workloads: their inputs, device pools and execution
//! policies, the timed engine set-up, and the golden outputs every reply
//! is checked against.

use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use rt_core::{DoseCalculator, KernelSelect, PartitionStrategy, RtError};
use rt_dose::cases::{liver_case, prostate_case, DoseCase, ScaleConfig};
use rt_engine::{Engine, ExecPolicy, ReplicaSpec, RequestKind, ShardSpec};
use rt_gpusim::DeviceSpec;
use rt_optim::{Objective, ObjectiveTerm};
use rt_sparse::Csr;
use std::time::Instant;

/// How a workload loads the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: `threads` clients, each keeping `outstanding` tickets
    /// in flight and submitting the next request as soon as the oldest
    /// reply returns.
    Serve { threads: usize, outstanding: usize },
    /// One client runs optimizer solves back to back, one request at a
    /// time; a second toggles a drain of the last pool device every
    /// second.
    OptimizeDrain,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// Stock 2×A100 + V100, default policy: every plan whole on every
    /// device, executed inline by the worker that pops it.
    Inline,
    /// The same pool with every plan forced into 3 row shards.
    Fanout,
    /// A100, A100, V100, P100 with the clamp-rule L2, partitioned probe
    /// selection, break-even shard count and 2 replica groups.
    Hybrid,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Case scale-down (`ScaleConfig::shrink`).
    shrink: f64,
    /// Whether the prostate plan is registered beside the liver plan.
    prostate: bool,
    layout: Layout,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small-inline",
        why: "tiny plans on the default unplaced policy: admission, queue, batching and per-launch fixed cost dominate",
        shrink: 32.0,
        prostate: true,
        layout: Layout::Inline,
        load: Load::Serve {
            threads: 2,
            outstanding: 8,
        },
    },
    Workload {
        name: "small-fanout",
        why: "the same traffic with every batch split into 3 device-pinned shard tasks: isolates fan-out, pop_matching and merge",
        shrink: 32.0,
        prostate: true,
        layout: Layout::Fanout,
        load: Load::Serve {
            threads: 2,
            outstanding: 8,
        },
    },
    Workload {
        name: "large-placed",
        why: "a liver matrix over 4x the pooled L2, placed R=2 with auto shards: simulated kernel time dominates, the queue idles",
        shrink: 6.0,
        prostate: true,
        layout: Layout::Hybrid,
        load: Load::Serve {
            threads: 2,
            outstanding: 2,
        },
    },
    Workload {
        name: "optimize-drain",
        why: "optimizer solves one request at a time while a drain toggles every second: latency-bound, re-deals beside dispatch",
        shrink: 8.0,
        prostate: false,
        layout: Layout::Hybrid,
        load: Load::OptimizeDrain,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generates the plans, pool and policy. The matrices do not depend
    /// on the seed; only what is sent to the engine does.
    pub fn inputs(&self) -> Inputs {
        let scale = ScaleConfig {
            shrink: self.shrink,
        };
        let liver = liver_case(scale).swap_remove(0);
        let mut plans = vec![PlanInput {
            name: "liver",
            matrix: liver.matrix.clone(),
            share: 8,
        }];
        if self.prostate {
            plans.push(PlanInput {
                name: "prostate",
                matrix: prostate_case(scale).swap_remove(0).matrix,
                share: 4,
            });
        }
        let (pool, policy, l2_bytes) = match self.layout {
            Layout::Inline | Layout::Fanout => {
                let pool = vec![DeviceSpec::a100(), DeviceSpec::a100(), DeviceSpec::v100()];
                let policy = if self.layout == Layout::Fanout {
                    ExecPolicy::builder().shards(ShardSpec::Fixed(3)).build()
                } else {
                    Ok(ExecPolicy::default())
                };
                (pool, policy, None)
            }
            Layout::Hybrid => {
                let pool: Vec<DeviceSpec> = [
                    DeviceSpec::a100(),
                    DeviceSpec::a100(),
                    DeviceSpec::v100(),
                    DeviceSpec::p100(),
                ]
                .iter()
                .map(|d| d.with_l2_bytes(clamped_l2(d, &liver)))
                .collect();
                let l2 = pool[0].l2_bytes;
                let policy = ExecPolicy::builder()
                    .kernel_select(KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe))
                    .shards(ShardSpec::Auto)
                    .replicas(ReplicaSpec::Fixed(2))
                    .build();
                (pool, policy, Some(l2))
            }
        };
        Inputs {
            plans,
            pool,
            policy: policy.expect("the workload policies are valid"),
            l2_bytes,
        }
    }
}

/// L2 size by the clamp rule of `rt_repro::runner::sim_gpu`: the input
/// and output vectors stay resident while the matrix streams, as they do
/// at clinical scale — `clamp(L2 / extrapolation, 1.25 (x + y), matrix / 2)`.
fn clamped_l2(device: &DeviceSpec, case: &DoseCase) -> usize {
    let m = &case.matrix;
    let vectors = 8 * (m.ncols() + m.nrows());
    let ideal = device.l2_bytes as f64 / case.extrapolation();
    let lo = (1.25 * vectors as f64).max(4096.0);
    let hi = (6.0 * m.nnz() as f64 / 2.0).max(lo + 1.0);
    ideal.clamp(lo, hi) as usize
}

pub struct PlanInput {
    pub name: &'static str,
    pub matrix: Csr<f64, u32>,
    /// Requests out of every 12 that name this plan (liver:prostate 2:1).
    pub share: usize,
}

pub struct Inputs {
    /// Largest plan first.
    pub plans: Vec<PlanInput>,
    pub pool: Vec<DeviceSpec>,
    pub policy: ExecPolicy,
    /// Per-device L2 when the workload sizes it by the clamp rule.
    pub l2_bytes: Option<usize>,
}

impl Inputs {
    /// The plan with the fewest rows (probes that need a cheap plan).
    pub fn smallest(&self) -> &PlanInput {
        self.plans
            .iter()
            .min_by_key(|p| p.matrix.nrows())
            .expect("every workload has a plan")
    }
}

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;

pub struct Setup {
    /// The last round's engine, used for the run.
    pub engine: Engine,
    /// Per round: building the engine plus registering every plan.
    pub rounds_s: Vec<f64>,
    /// Per round: the registrations alone.
    pub register_s: Vec<f64>,
}

/// Builds the engine and registers every plan, [`SETUP_ROUNDS`] times
/// from scratch. Only one engine is alive at a time.
pub fn setup(inputs: &Inputs, tracer: Option<&Tracer>) -> Result<Setup, RtError> {
    let mut spans: Vec<Span> = Vec::new();
    let mut rounds_s = Vec::new();
    let mut register_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_ROUNDS {
        drop(engine.take());
        let round_id = tracer.map_or(0, |t| t.id());
        let t0 = Instant::now();
        let mut e = Engine::builder().devices(inputs.pool.clone()).build()?;
        let t1 = Instant::now();
        let mut reg = 0.0;
        for plan in &inputs.plans {
            let r0 = Instant::now();
            e.register_plan_with(plan.name, &plan.matrix, inputs.policy)?;
            let r1 = Instant::now();
            reg += (r1 - r0).as_secs_f64();
            if let Some(t) = tracer {
                t.push(&mut spans, "engine.register", round_id, 0, r0, r1);
            }
        }
        let t2 = Instant::now();
        if let Some(t) = tracer {
            t.push(&mut spans, "engine.build", round_id, 0, t0, t1);
            spans.push(t.span_with_id(round_id, "setup.round", 0, 0, t0, t2));
        }
        rounds_s.push((t2 - t0).as_secs_f64());
        register_s.push(reg);
        engine = Some(e);
    }
    if let Some(t) = tracer {
        t.keep(spans);
    }
    Ok(Setup {
        engine: engine.expect("at least one round"),
        rounds_s,
        register_s,
    })
}

/// A direct calculator at the widths the engine pinned for `plan`: the
/// tile widths and, for partitioned plans, the same row plans and
/// per-bucket widths. Its outputs are the goldens served replies must
/// equal bit for bit.
pub fn golden_calc(engine: &Engine, plan: &PlanInput) -> Result<DoseCalculator, RtError> {
    let name = plan.name;
    let unknown = || RtError::UnknownPlan(name.to_string());
    let choice = engine.plan_choice(name).ok_or_else(unknown)?;
    let grad = engine.plan_grad_choice(name).ok_or_else(unknown)?;
    let mut b = DoseCalculator::builder(&plan.matrix)
        .tile_width(choice.tile_width)
        .grad_tile_width(grad.tile_width)
        .with_transpose();
    if let Some(rows) = engine.plan_row_plan(name) {
        b = b.partitioned_with_plan(rows.clone(), choice.bucket_widths());
    }
    if let Some(rows) = engine.plan_grad_row_plan(name) {
        b = b.grad_partitioned_with_plan(rows.clone(), grad.bucket_widths());
    }
    b.build()
}

/// A seeded input vector: spot weights or a voxel residual in `[0, 1)`.
pub fn payload(rng: &mut Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.f64()).collect()
}

/// The plan-optimization objective of `examples/plan_optimization.rs`:
/// uniform prescribed dose on the voxels the beam covers strongly, a
/// dose limit on the rest of the irradiated tissue.
pub fn objective(matrix: &Csr<f64, u32>) -> Objective {
    let mut probe = vec![0.0; matrix.nrows()];
    matrix
        .spmv_ref(&vec![1.0; matrix.ncols()], &mut probe)
        .expect("dimensions match by construction");
    let peak = probe.iter().cloned().fold(0.0, f64::max);
    let target = (0..probe.len())
        .filter(|&i| probe[i] > 0.5 * peak)
        .collect();
    let healthy = (0..probe.len())
        .filter(|&i| probe[i] > 0.01 * peak && probe[i] <= 0.5 * peak)
        .collect();
    let prescribed = peak * 0.6;
    Objective::new(vec![
        ObjectiveTerm::UniformDose {
            voxels: target,
            prescribed,
            weight: 100.0,
        },
        ObjectiveTerm::MaxDose {
            voxels: healthy,
            limit: prescribed * 0.5,
            weight: 10.0,
        },
    ])
}

/// Seeded starting weights for solves: spot weights in `[0.25, 0.75)`.
pub fn start_weights(seed: u64, index: usize, nspots: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 300 + index as u64);
    (0..nspots).map(|_| 0.25 + 0.5 * rng.f64()).collect()
}

/// Distinct payloads per (plan, direction); requests draw from them.
pub const PAYLOADS: usize = 8;

/// Every payload a serving workload sends, with its golden output.
pub struct RequestPool {
    pub plans: Vec<PlanPool>,
    /// One block of the plan × direction mix (liver:prostate 2:1,
    /// dose:gradient 3:1); each client shuffles a fresh copy per block.
    pub mix: Vec<(usize, RequestKind)>,
}

pub struct PlanPool {
    pub name: &'static str,
    pub dose: Vec<(Vec<f64>, Vec<f64>)>,
    pub grad: Vec<(Vec<f64>, Vec<f64>)>,
}

impl RequestPool {
    pub fn build(engine: &Engine, inputs: &Inputs, seed: u64) -> Result<RequestPool, RtError> {
        let mut rng = Rng::new(seed, 1);
        let mut plans = Vec::new();
        let mut mix = Vec::new();
        for (i, plan) in inputs.plans.iter().enumerate() {
            let calc = golden_calc(engine, plan)?;
            let (nrows, ncols) = (plan.matrix.nrows(), plan.matrix.ncols());
            let mut dose = Vec::new();
            let mut grad = Vec::new();
            for _ in 0..PAYLOADS {
                let w = payload(&mut rng, ncols);
                let out = calc.compute_dose_batch(&[&w])?.outputs.swap_remove(0);
                dose.push((w, out));
                let r = payload(&mut rng, nrows);
                let out = calc.compute_gradient_batch(&[&r])?.outputs.swap_remove(0);
                grad.push((r, out));
            }
            plans.push(PlanPool {
                name: plan.name,
                dose,
                grad,
            });
            mix.extend(std::iter::repeat_n(
                (i, RequestKind::Dose),
                plan.share * 3 / 4,
            ));
            mix.extend(std::iter::repeat_n(
                (i, RequestKind::Gradient),
                plan.share / 4,
            ));
        }
        Ok(RequestPool { plans, mix })
    }

    /// The payload and golden output of one request.
    pub fn entry(&self, plan: usize, kind: RequestKind, idx: usize) -> &(Vec<f64>, Vec<f64>) {
        match kind {
            RequestKind::Dose => &self.plans[plan].dose[idx],
            RequestKind::Gradient => &self.plans[plan].grad[idx],
        }
    }
}

/// Bitwise equality of two output vectors.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
