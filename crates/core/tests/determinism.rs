//! Determinism regression tests for the executor (ISSUE 2 satellite).
//!
//! Contract (also documented in DESIGN.md §"Memory pipeline"):
//!
//! * **Functional output** of the vector CSR kernel is *bitwise*
//!   identical run to run: the lane partitioning and the shuffle-down
//!   reduction tree fix the summation order, and rows are stored to
//!   disjoint indices.
//! * **Traffic counters** are exactly reproducible: a launch runs its
//!   blocks in order on the calling thread and owns the L2, so the
//!   eviction order is a function of the launch alone.
//! * **Concurrent callers** of one calculator each get their own dose.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{vector_csr_spmm, GpuCsrMatrix};
use rt_f16::F16;
use rt_gpusim::{DeviceSpec, Gpu, KernelStats};
use rt_sparse::Csr;

fn random_csr(nrows: usize, ncols: usize, avg_row: usize, seed: u64) -> Csr<f64, u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
        .map(|_| {
            if rng.gen_bool(0.3) {
                return Vec::new();
            }
            let len = rng.gen_range(1..=2 * avg_row);
            let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
            cols.sort_unstable();
            cols.dedup();
            cols.into_iter()
                .map(|c| (c, rng.gen_range(0.0..2.0)))
                .collect()
        })
        .collect();
    Csr::from_rows(ncols, &rows).unwrap()
}

fn run(m: &Csr<F16, u32>, x: &[f64]) -> (Vec<u64>, KernelStats) {
    let gpu = Gpu::new(DeviceSpec::a100());
    let gm = GpuCsrMatrix::upload(&gpu, m);
    let dx = gpu.upload(x);
    let dy = gpu.alloc_out::<f64>(m.nrows());
    let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, 32);
    (dy.to_vec().iter().map(|v| v.to_bits()).collect(), stats)
}

#[test]
fn counters_reproduce_exactly_across_runs() {
    let m: Csr<F16, u32> = random_csr(400, 150, 60, 9).convert_values();
    let x: Vec<f64> = vec![0.75; 150];
    let (bits1, s1) = run(&m, &x);
    let (bits2, s2) = run(&m, &x);
    assert_eq!(bits1, bits2);
    assert_eq!(s1, s2, "counters must be bit-reproducible");
}

/// Two threads share one calculator, each sending its own weight
/// vectors: every returned dose must equal the dose a lone caller gets
/// for the same weights, bit for bit. A calculator whose callers shared
/// one output buffer returned the other caller's dose here.
#[test]
fn concurrent_compute_dose_returns_each_callers_own_dose() {
    let case =
        rt_dose::cases::liver_case(rt_dose::cases::ScaleConfig { shrink: 32.0 }).swap_remove(0);
    let calc = rt_core::DoseCalculator::builder(&case.matrix)
        .build()
        .unwrap();
    let ncols = case.matrix.ncols();
    let weights: Vec<Vec<f64>> = (0..6)
        .map(|v| {
            (0..ncols)
                .map(|i| ((i * 7 + v * 13) % 11) as f64 * 0.125 + v as f64)
                .collect()
        })
        .collect();
    let golden: Vec<Vec<u64>> = weights
        .iter()
        .map(|w| bits(&calc.compute_dose(w).unwrap().dose))
        .collect();
    let wrong: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (calc, weights, golden) = (&calc, &weights, &golden);
                s.spawn(move || {
                    (0..300)
                        .filter(|i| {
                            let v = 3 * t + i % 3;
                            bits(&calc.compute_dose(&weights[v]).unwrap().dose) != golden[v]
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(wrong, 0, "{wrong} of 600 doses were another caller's");
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
