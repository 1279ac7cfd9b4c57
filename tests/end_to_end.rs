//! End-to-end integration: dose engine -> sparse formats -> simulated
//! GPU kernels -> optimizer, all on one generated case.

use rtdose::dose::cases::{prostate_case, ScaleConfig};
use rtdose::f16::F16;
use rtdose::gpusim::{DeviceSpec, Gpu};
use rtdose::kernels::{
    cpu_csr_spmv, rs_baseline_gpu_spmv, vector_csr_spmm, DoseCalculator, GpuCsrMatrix, GpuRsMatrix,
    RsCpu,
};
use rtdose::optim::{optimize, GpuDoseEngine, Objective, ObjectiveTerm, OptimizerConfig};
use rtdose::sparse::{Csr, RsCompressed};

fn tiny_case() -> Csr<f64, u32> {
    prostate_case(ScaleConfig::tiny()).remove(0).matrix
}

#[test]
fn every_implementation_computes_the_same_dose() {
    let m64 = tiny_case();
    let m16: Csr<F16, u32> = m64.convert_values();
    let rs = RsCompressed::from_csr(&m16);
    let weights: Vec<f64> = (0..m64.ncols())
        .map(|i| 0.5 + (i % 4) as f64 * 0.25)
        .collect();

    // Ground truth from the f16-rounded matrix (all fast paths store f16).
    let mut reference = vec![0.0; m64.nrows()];
    m16.spmv_ref(&weights, &mut reference).unwrap();

    let close = |got: &[f64], label: &str| {
        for (g, r) in got.iter().zip(reference.iter()) {
            assert!(
                (g - r).abs() <= 1e-9 + 1e-9 * r.abs(),
                "{label}: {g} vs {r}"
            );
        }
    };

    // Simulated-GPU vector kernel (the paper's contribution).
    let gpu = Gpu::new(DeviceSpec::a100());
    let gm = GpuCsrMatrix::upload(&gpu, &m16);
    let dx = gpu.upload(&weights);
    let dy = gpu.alloc_out::<f64>(m16.nrows());
    vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, 32);
    close(&dy.to_vec(), "vector CSR kernel");

    // Simulated-GPU baseline (atomics; order-dependent on hardware).
    let grs = GpuRsMatrix::upload(&gpu, &rs);
    let dose = gpu.alloc_out::<f64>(rs.nrows());
    rs_baseline_gpu_spmv(&gpu, &grs, &dx, &dose, 128);
    close(&dose.to_vec(), "GPU baseline kernel");

    // The clinical CPU algorithm.
    let mut cpu_dose = vec![0.0; rs.nrows()];
    RsCpu::with_threads(4)
        .spmv(&rs, &weights, &mut cpu_dose)
        .unwrap();
    close(&cpu_dose, "RsCpu");

    // Row-parallel CPU CSR.
    let mut csr_dose = vec![0.0; m16.nrows()];
    cpu_csr_spmv(&m16, &weights, &mut csr_dose, 4).unwrap();
    close(&csr_dose, "cpu_csr_spmv");

    // High-level calculator.
    let calc = DoseCalculator::builder(&m64).build().unwrap();
    close(&calc.compute_dose(&weights).unwrap().dose, "DoseCalculator");
}

#[test]
fn optimizer_improves_a_real_plan_on_the_gpu_engine() {
    let m = tiny_case();
    let probe = {
        let mut d = vec![0.0; m.nrows()];
        m.spmv_ref(&vec![1.0; m.ncols()], &mut d).unwrap();
        d
    };
    let peak = probe.iter().cloned().fold(0.0, f64::max);
    let target: Vec<usize> = (0..probe.len())
        .filter(|&i| probe[i] > 0.5 * peak)
        .collect();
    assert!(!target.is_empty());

    let objective = Objective::new(vec![ObjectiveTerm::UniformDose {
        voxels: target,
        prescribed: peak * 0.7,
        weight: 1.0,
    }]);
    let engine = GpuDoseEngine::new(DeviceSpec::a100(), &m).unwrap();
    let w0 = vec![0.1; m.ncols()];
    let result = optimize(
        &engine,
        &objective,
        &w0,
        &OptimizerConfig {
            max_iters: 25,
            ..Default::default()
        },
    );

    let first = result.history.first().unwrap().objective;
    assert!(
        result.objective < 0.5 * first,
        "objective {first} -> {} did not improve enough",
        result.objective
    );
    assert!(result.weights.iter().all(|&w| w >= 0.0));
    assert!(result.modeled_dose_seconds > 0.0);
}

#[test]
fn matrix_survives_the_full_format_round_trip() {
    let m64 = tiny_case();
    let m16: Csr<F16, u32> = m64.convert_values();
    // CSR -> RayStation -> CSR -> COO -> CSR is the identity on the
    // stored data.
    let back = RsCompressed::from_csr(&m16).to_csr().unwrap();
    assert_eq!(m16, back);
    let back2: Csr<F16, u32> = back.to_coo().to_csr().unwrap();
    assert_eq!(m16, back2);
}

#[test]
fn u16_index_conversion_preserves_results_end_to_end() {
    let m64 = tiny_case();
    let m16: Csr<F16, u32> = m64.convert_values();
    let narrow: Csr<F16, u16> = m16.convert_indices().expect("prostate fits u16");
    let weights = vec![1.0; m16.ncols()];
    let mut a = vec![0.0; m16.nrows()];
    let mut b = vec![0.0; m16.nrows()];
    m16.spmv_ref(&weights, &mut a).unwrap();
    narrow.spmv_ref(&weights, &mut b).unwrap();
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    assert!(narrow.size_bytes() < m16.size_bytes());
}
