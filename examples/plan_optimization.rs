//! Treatment-plan optimization: the end-to-end workflow the paper's
//! speedups serve. Builds a liver case, defines clinical objectives
//! (uniform target dose, organ-at-risk sparing), runs projected gradient
//! descent with the Half/double kernel as the dose engine, and reports
//! how much modeled GPU time the plan cost — the quantity the paper's
//! 46x speedup shrinks.
//!
//! ```sh
//! cargo run --release --example plan_optimization
//! ```

use rtdose::dose::cases::{liver_case, ScaleConfig};
use rtdose::kernels::DoseCalculator;
use rtdose::optim::{
    optimize, CpuDoseEngine, DoseEngine, GpuDoseEngine, Objective, ObjectiveTerm, OptimizerConfig,
};

fn main() {
    println!("generating liver beam 1 ...");
    let case = liver_case(ScaleConfig { shrink: 16.0 }).remove(0);
    let matrix = case.matrix.clone();
    println!(
        "  {} voxels x {} spots, {} non-zeros",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nnz()
    );

    // Structures: the target = voxels receiving substantial dose from
    // uniform weights; everything else with any dose is "healthy tissue".
    let probe = {
        let mut d = vec![0.0; matrix.nrows()];
        matrix.spmv_ref(&vec![1.0; matrix.ncols()], &mut d).unwrap();
        d
    };
    let peak = probe.iter().cloned().fold(0.0, f64::max);
    let target: Vec<usize> = (0..probe.len())
        .filter(|&i| probe[i] > 0.5 * peak)
        .collect();
    let healthy: Vec<usize> = (0..probe.len())
        .filter(|&i| probe[i] > 0.01 * peak && probe[i] <= 0.5 * peak)
        .collect();
    println!(
        "  target: {} voxels, spared tissue: {} voxels",
        target.len(),
        healthy.len()
    );

    let prescribed = peak * 0.6;
    let objective = Objective::new(vec![
        ObjectiveTerm::UniformDose {
            voxels: target.clone(),
            prescribed,
            weight: 100.0,
        },
        ObjectiveTerm::MaxDose {
            voxels: healthy.clone(),
            limit: prescribed * 0.5,
            weight: 10.0,
        },
    ]);

    let cfg = OptimizerConfig {
        max_iters: 40,
        ..Default::default()
    };
    let w0 = vec![0.5; matrix.ncols()];

    // Optimize with the simulated-GPU Half/double engine.
    println!("\noptimizing with the Half/double GPU engine ...");
    let calc = DoseCalculator::builder(&matrix)
        .with_transpose()
        .scale(case.extrapolation())
        .row_scale(case.paper.rows / matrix.nrows() as f64)
        .build()
        .expect("valid case matrix");
    let gpu_engine = GpuDoseEngine::with_calculator(calc).expect("built with the transpose");
    let gpu_result = optimize(&gpu_engine, &objective, &w0, &cfg);
    println!(
        "  objective {:.4} -> {:.4} in {} iterations ({} dose calculations)",
        gpu_result
            .history
            .first()
            .map(|h| h.objective)
            .unwrap_or(f64::NAN),
        gpu_result.objective,
        gpu_result.history.len(),
        gpu_result.dose_evals,
    );
    println!(
        "  modeled GPU dose-kernel time at clinical scale: {:.1} ms total, {:.2} ms per evaluation",
        gpu_result.modeled_dose_seconds * 1e3,
        gpu_result.modeled_dose_seconds * 1e3 / gpu_result.dose_evals as f64
    );

    // Cross-check against the exact CPU engine: same trajectory shape.
    println!("\ncross-checking with the full-precision CPU engine ...");
    let cpu_engine = CpuDoseEngine::new(matrix.clone());
    let cpu_result = optimize(&cpu_engine, &objective, &w0, &cfg);
    println!(
        "  objective {:.4} (GPU) vs {:.4} (CPU) — f16 storage costs {:.2}%",
        gpu_result.objective,
        cpu_result.objective,
        ((gpu_result.objective - cpu_result.objective) / cpu_result.objective).abs() * 100.0
    );

    // Plan quality summary.
    let dose = cpu_engine.dose(&gpu_result.weights);
    let in_target: Vec<f64> = target.iter().map(|&i| dose[i]).collect();
    let mean = in_target.iter().sum::<f64>() / in_target.len() as f64;
    let over_limit = healthy
        .iter()
        .filter(|&&i| dose[i] > prescribed * 0.5 * 1.05)
        .count();
    println!("\nplan summary:");
    println!(
        "  mean target dose     : {:.3} (prescribed {:.3})",
        mean, prescribed
    );
    println!(
        "  healthy voxels >5% over limit: {} of {}",
        over_limit,
        healthy.len()
    );
}
