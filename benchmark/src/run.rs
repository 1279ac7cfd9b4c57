//! One workload run, in the child process: set-up, warm-up, the measured
//! phase, correctness checks, and (traced) the per-layer probes. The
//! result is one JSON object.

use crate::calib;
use crate::json::Json;
use crate::load::{self, Phase, Rec, Solve};
use crate::probe;
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::{self_ns, write_jsonl, Span, Tracer};
use crate::workload::{
    bitwise_eq, golden_calc, objective, setup, start_weights, Inputs, Load, RequestPool, Workload,
};
use rt_engine::{Engine, EngineReport};
use rt_optim::{optimize, GpuDoseEngine, OptimizerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Serve sessions a serving workload's measured phase is cut into, each
/// bracketed by host-speed probes.
const SLICES: u32 = 10;
/// Distinct starting weights the optimize-drain solves cycle through;
/// each costs one golden solve after the measured phase.
const SOLVE_STARTS: usize = 2;
/// Iterations per warm-up solve.
const WARMUP_ITERS: usize = 5;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub warmup: f64,
    pub trace: bool,
    /// Where a traced run writes `<workload>.jsonl` and
    /// `<workload>.layers.json`.
    pub trace_dir: Option<PathBuf>,
    /// Fewest correct measured replies the run accepts.
    pub min_samples: usize,
}

type Metrics = Vec<(&'static str, f64)>;

pub fn run(args: &RunArgs) -> Result<Json, String> {
    let wl = args.workload;
    let err = |e: rt_core::RtError| format!("{}: {e}", wl.name);
    let inputs = wl.inputs();
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let before_setup = calib::probe();
    let set = setup(&inputs, tr).map_err(err)?;
    let setup_host = calib::factor(&before_setup, &calib::probe());
    let engine = &set.engine;
    let warmup = Duration::from_secs_f64(args.warmup);
    let measured = Duration::from_secs_f64(args.seconds);
    let rebalances_before = rebalances(engine);
    let mut phase = match wl.load {
        Load::Serve {
            threads,
            outstanding,
        } => {
            let pool = RequestPool::build(engine, &inputs, args.seed).map_err(err)?;
            let seed = args.seed;
            load::serve(engine, &pool, !seed, threads, outstanding, warmup, 1, None);
            load::serve(
                engine,
                &pool,
                seed,
                threads,
                outstanding,
                measured,
                SLICES,
                tr,
            )
        }
        Load::OptimizeDrain => {
            let min = args.min_samples as u64;
            optimize_drain(engine, &inputs, args.seed, warmup, measured, min, tr).map_err(err)?
        }
    };
    let rebalances = rebalances(engine) - rebalances_before;
    let setup_s = median(&set.rounds_s);
    let e2e = end_to_end(setup_s / setup_host, &phase, true);
    let raw = end_to_end(setup_s, &phase, false);
    let hosts: Vec<Json> = phase.slices.iter().map(|s| s.host.into()).collect();
    let mut rec = Rec::new(tr);
    for s in phase.slices.drain(..) {
        rec.merge(s.rec);
    }
    rec.keep_spans();
    if rec.ok() < args.min_samples {
        return Err(format!(
            "{}: {} measured replies, the run needs at least {}",
            wl.name,
            rec.ok(),
            args.min_samples
        ));
    }

    let mut out = Json::obj();
    out.set("workload", wl.name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("correct", rec.failed == 0)
        .set("attempted", rec.attempted)
        .set("failed", rec.failed)
        .set("samples", rec.ok())
        .set("e2e", to_json(&e2e));
    if let Some(t) = tr {
        let mut layers = engine_layers(&set.register_s, &rec, &phase.reports, rebalances);
        layers.extend(probe::core(engine, &inputs, args.seed, t).map_err(err)?);
        layers.extend(probe::gpusim(&inputs, t));
        layers.extend(probe::sparse(&inputs, t));
        if phase.drain_ms.is_empty() {
            phase.drain_ms = probe::drain(engine, t).map_err(err)?;
        }
        layers.push(("engine.drain_ms_p50", median(&phase.drain_ms)));
        if phase.solves.is_empty() {
            let s = probe::solve(engine, inputs.smallest(), args.seed, t).map_err(err)?;
            phase.solves.push(s);
        }
        let spans = t.spans();
        layers.extend(optim_layers(&phase.solves, &spans));
        let layers = to_json(&layers);
        if let Some(dir) = &args.trace_dir {
            let io = |e: std::io::Error| format!("{}: {e}", dir.display());
            std::fs::create_dir_all(dir).map_err(io)?;
            write_jsonl(&dir.join(format!("{}.jsonl", wl.name)), &spans).map_err(io)?;
            std::fs::write(
                dir.join(format!("{}.layers.json", wl.name)),
                layers.encode() + "\n",
            )
            .map_err(io)?;
        }
        out.set("layers", layers);
    }
    let mut info = info(&inputs, &phase);
    info.set("raw", to_json(&raw))
        .set("setup_host_factor", setup_host)
        .set("slice_host_factors", Json::Arr(hosts));
    out.set("info", info);
    Ok(out)
}

/// Runs the optimize-drain load (warm-up, then at least `measured` and
/// `min_requests`) and checks the final weights of every measured solve
/// against a golden solve from the same start on a direct calculator.
fn optimize_drain<'t>(
    engine: &Engine,
    inputs: &Inputs,
    seed: u64,
    warmup: Duration,
    measured: Duration,
    min_requests: u64,
    tracer: Option<&'t Tracer>,
) -> Result<Phase<'t>, rt_core::RtError> {
    let plan = &inputs.plans[0];
    let objective = objective(&plan.matrix);
    let starts: Vec<Vec<f64>> = (0..SOLVE_STARTS)
        .map(|i| start_weights(seed, i, plan.matrix.ncols()))
        .collect();
    let drain = inputs.pool.len() - 1;
    let offset = Duration::from_secs_f64(Rng::new(seed, 2).f64());
    let run = |cfg, dur, min, tracer| {
        load::optimize_drain(
            engine, plan.name, &objective, &starts, cfg, drain, offset, dur, min, tracer,
        )
    };
    // A full solve outlasts the warm-up; short solves fill it instead.
    let short = OptimizerConfig {
        max_iters: WARMUP_ITERS,
        ..OptimizerConfig::default()
    };
    run(&short, warmup, 0, None);
    let cfg = OptimizerConfig::default();
    let mut phase = run(&cfg, measured, min_requests, tracer);

    let golden = GpuDoseEngine::with_calculator(golden_calc(engine, plan)?)?;
    let mut golden_weights: Vec<Option<Vec<f64>>> = vec![None; SOLVE_STARTS];
    for (s, slice) in phase.solves.iter().zip(&mut phase.slices) {
        let want = golden_weights[s.start]
            .get_or_insert_with(|| optimize(&golden, &objective, &starts[s.start], &cfg).weights);
        if !bitwise_eq(&s.weights, want) {
            // Every request of a wrong solve counts as failed.
            slice.rec.failed += s.requests - s.failed;
        }
    }
    Ok(phase)
}

fn rebalances(engine: &Engine) -> u64 {
    engine
        .plan_names()
        .iter()
        .filter_map(|p| engine.plan_rebalances(p))
        .sum()
}

fn sorted(v: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = v.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end metrics. Host time is wall time divided by each
/// slice's host-speed factor when `normalized`, else plain wall time;
/// modeled time and bytes are what the program reports.
fn end_to_end(setup_s: f64, phase: &Phase<'_>, normalized: bool) -> Metrics {
    let host = |h: f64| if normalized { h } else { 1.0 };
    let slices = &phase.slices;
    let n: usize = slices.iter().map(|s| s.rec.ok()).sum();
    let seconds: f64 = slices.iter().map(|s| s.elapsed_s() / host(s.host)).sum();
    let latency = sorted(
        slices
            .iter()
            .flat_map(|s| s.rec.latency_ms.iter().map(move |l| l / host(s.host))),
    );
    let modeled: f64 = slices.iter().map(|s| s.rec.modeled_s).sum();
    let resident: u64 = phase
        .reports
        .last()
        .map_or(0, |r| r.devices.iter().map(|d| d.resident_bytes).sum());
    vec![
        ("setup_s", setup_s),
        ("throughput_rps", n as f64 / seconds),
        ("latency_p50_ms", percentile(&latency, 0.5)),
        ("latency_p99_ms", percentile(&latency, 0.99)),
        ("modeled_us_per_request", modeled / n as f64 * 1e6),
        ("device_resident_mb", resident as f64 / 1e6),
        ("host_peak_rss_mb", peak_rss_mb()),
    ]
}

/// Engine-layer metrics measured from outside: spans around the client
/// calls, the replies' queue waits and the session reports. Host times
/// here are plain wall time.
fn engine_layers(
    register_s: &[f64],
    rec: &Rec<'_>,
    reports: &[EngineReport],
    rebalances: u64,
) -> Metrics {
    let sum = |f: fn(&EngineReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let pool = reports[0].devices.len();
    let per_device: Vec<u64> = (0..pool)
        .map(|d| reports.iter().map(|r| r.devices[d].launches).sum())
        .collect();
    let busiest = per_device.iter().max().copied().unwrap_or(0);
    let submit = sorted(rec.submit_us.iter().copied());
    let queue = sorted(rec.queue_ms.iter().copied());
    let n = rec.ok() as f64;
    vec![
        ("engine.submit_us_p50", percentile(&submit, 0.5)),
        ("engine.submit_us_p99", percentile(&submit, 0.99)),
        ("engine.queue_wait_ms_p50", percentile(&queue, 0.5)),
        ("engine.queue_wait_ms_p99", percentile(&queue, 0.99)),
        ("engine.service_ms_p50", median(&rec.service_ms)),
        (
            "engine.avg_batch",
            sum(|r| r.completed) / sum(|r| r.batches),
        ),
        (
            "engine.queue_max_depth",
            reports.iter().map(|r| r.queue_max_depth).max().unwrap_or(0) as f64,
        ),
        (
            "engine.launches_per_request",
            sum(|r| r.launches) / sum(|r| r.completed),
        ),
        (
            "engine.device_launch_share_max",
            busiest as f64 / per_device.iter().sum::<u64>() as f64 * pool as f64,
        ),
        ("engine.register_s", median(register_s)),
        ("engine.rebalances", rebalances as f64),
        ("gpusim.dram_bytes_per_request", rec.dram_bytes / n),
        ("gpusim.l2_hit_rate", rec.l2_hit_rate / n),
        ("gpusim.frac_peak_bw", rec.frac_peak_bw / n),
    ]
}

/// Optimizer metrics over the solves, with the host time per iteration
/// spent outside dose and gradient calls taken as the solve spans' self
/// time.
fn optim_layers(solves: &[Solve], spans: &[Span]) -> Metrics {
    let iters: usize = solves.iter().map(|s| s.iters).sum();
    let evals: usize = solves.iter().map(|s| s.dose_evals).sum();
    let selfs = self_ns(spans);
    let outside_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "optim.solve")
        .map(|s| selfs[&s.id])
        .sum();
    let seconds: Vec<f64> = solves.iter().map(|s| s.seconds).collect();
    vec![
        ("optim.iters_per_solve", iters as f64 / solves.len() as f64),
        ("optim.dose_evals_per_iter", evals as f64 / iters as f64),
        (
            "optim.host_ms_per_iter_outside_engine",
            outside_ns as f64 / 1e6 / iters as f64,
        ),
        ("optim.solve_s_p50", median(&seconds)),
    ]
}

fn info(inputs: &Inputs, phase: &Phase<'_>) -> Json {
    let main = &inputs.plans[0].matrix;
    let mut j = Json::obj();
    j.set(
        "pool",
        Json::Arr(inputs.pool.iter().map(|d| d.name.into()).collect()),
    )
    .set(
        "pool_l2_bytes",
        inputs.pool.iter().map(|d| d.l2_bytes).sum::<usize>(),
    )
    // Device bytes of the largest plan: binary16 values, u32 columns.
    .set(
        "liver_matrix_bytes",
        6 * main.nnz() + 4 * (main.nrows() + 1),
    )
    .set(
        "liver_dims",
        Json::Arr(vec![
            main.nrows().into(),
            main.ncols().into(),
            main.nnz().into(),
        ]),
    )
    .set("solves", phase.solves.len());
    if let Some(l2) = inputs.l2_bytes {
        j.set("device_l2_bytes", l2);
    }
    j
}

fn to_json(metrics: &Metrics) -> Json {
    let mut j = Json::obj();
    for (k, v) in metrics {
        j.set(k, *v);
    }
    j
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}
