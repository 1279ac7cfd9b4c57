//! Reproducibility and correctness contract of the sub-warp tiled SpMV
//! family (ISSUE 4):
//!
//! * each tile width is **bitwise reproducible** run-to-run, on a fresh
//!   `Gpu` each time, and equal to the host reference's per-width
//!   lane/tree arithmetic;
//! * every width agrees with the host SpMV reference within f64
//!   tolerance (widths legitimately differ *from each other* bitwise —
//!   a different reduce tree folds the partial sums in a different
//!   order);
//! * the autotuner is deterministic: the same matrix always yields the
//!   same pick, in both heuristic and measured-probe modes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{vector_csr_reference, vector_csr_spmm, BucketWidths, GpuCsrMatrix, KernelSelect};
use rt_f16::F16;
use rt_gpusim::{DeviceSpec, Gpu, TILE_WIDTHS};
use rt_sparse::Csr;

fn random_csr(nrows: usize, ncols: usize, max_row: usize, seed: u64) -> Csr<F16, u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
        .map(|_| {
            if rng.gen_bool(0.3) {
                return Vec::new();
            }
            let len = rng.gen_range(1..=max_row);
            let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
            cols.sort_unstable();
            cols.dedup();
            cols.into_iter()
                .map(|c| (c, rng.gen_range(0.0..2.0)))
                .collect()
        })
        .collect();
    let m: Csr<f64, u32> = Csr::from_rows(ncols, &rows).unwrap();
    m.convert_values()
}

fn run(m: &Csr<F16, u32>, x: &[f64], width: u32) -> Vec<u64> {
    let gpu = Gpu::new(DeviceSpec::a100());
    let gm = GpuCsrMatrix::upload(&gpu, m);
    let dx = gpu.upload(x);
    let dy = gpu.alloc_out::<f64>(m.nrows());
    vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, width);
    dy.to_vec().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_width_is_bitwise_reproducible_across_runs() {
    let m = random_csr(700, 160, 48, 21);
    let x: Vec<f64> = (0..160)
        .map(|i| ((i * 13 + 5) % 23) as f64 * 0.04 + 0.25)
        .collect();

    for &w in &TILE_WIDTHS {
        let golden = run(&m, &x, w);
        // Matches the documented per-width lane/tree arithmetic exactly.
        let x64 = x.clone();
        let want: Vec<u64> = vector_csr_reference(&m, &x64, BucketWidths::uniform(w))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(golden, want, "width {w} reference mismatch");

        for round in 0..3 {
            assert_eq!(golden, run(&m, &x, w), "width {w}, round {round} diverged");
        }
    }
}

#[test]
fn every_width_matches_host_reference_within_tolerance() {
    let m = random_csr(500, 96, 20, 22);
    let x: Vec<f64> = (0..96).map(|i| (i as f64 * 0.31).cos() + 1.1).collect();
    let mut want = vec![0.0; 500];
    m.spmv_ref(&x, &mut want).unwrap();

    for &w in &TILE_WIDTHS {
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(500);
        vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, w);
        for (g, want) in dy.to_vec().iter().zip(want.iter()) {
            assert!(
                (g - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "width {w}: {g} vs {want}"
            );
        }
    }
}

#[test]
fn autotuner_is_deterministic() {
    let spec = DeviceSpec::a100();
    let m = random_csr(5000, 512, 8, 23);
    for select in [KernelSelect::Heuristic, KernelSelect::MeasuredProbe] {
        let a = select.choose(&spec, &m, 512).unwrap();
        let b = select.choose(&spec, &m, 512).unwrap();
        assert_eq!(a, b, "{select:?} must pick the same width twice");
        assert!(TILE_WIDTHS.contains(&a.tile_width));
    }
}
