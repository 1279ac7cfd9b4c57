//! Degenerate-partition and reproducibility contract of the bucketed
//! row-partition dispatch (ISSUE 6):
//!
//! * **All rows empty** — the plan has zero populated buckets; the
//!   deterministic zero-fill member must still run, so stale output
//!   memory never leaks into the dose vector.
//! * **Single non-empty row** — exactly one bucket with one row; the
//!   scatter map must land that row's dose at its original index.
//! * **Every row length 1** — the entire matrix collapses into the
//!   first bucket; each dose is the bitwise product of its one entry.
//! * **Bitwise sweep** — with `BucketWidths::uniform(w)` every row is
//!   reduced with the same truncated halving tree as the fixed-width
//!   whole-matrix kernel, so the bucketed dispatch must match
//!   `vector_csr_spmm` bit-for-bit at every width, on every rerun
//!   (mirrors `tests/tiled.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    vector_csr_reference, vector_csr_spmm, vector_csr_spmm_bucketed, BucketWidths, GpuCsrMatrix,
    GpuRowPlan,
};
use rt_f16::F16;
use rt_gpusim::{DeviceSpec, Gpu, TILE_WIDTHS};
use rt_sparse::{Csr, RowPlan};
use std::sync::Arc;

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

fn run_bucketed(m: &Csr<F16, u32>, x: &[f64], widths: BucketWidths) -> Vec<u64> {
    let gpu = Gpu::new(DeviceSpec::a100());
    let gm = GpuCsrMatrix::upload(&gpu, m);
    let gplan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(m)));
    let dx = gpu.upload(x);
    let dy = gpu.alloc_out::<f64>(m.nrows());
    // Stale garbage in the output buffer: the zero-fill member, not
    // buffer allocation, is what the determinism contract relies on.
    for i in 0..m.nrows() {
        dy.set(i, f64::from_bits(0xDEAD_BEEF_DEAD_BEEF));
    }
    vector_csr_spmm_bucketed(&gpu, &gm, &[&dx], &[&dy], 512, &gplan, widths);
    dy.to_vec().iter().map(|v| v.to_bits()).collect()
}

fn run_tiled(m: &Csr<F16, u32>, x: &[f64], width: u32) -> Vec<u64> {
    let gpu = Gpu::new(DeviceSpec::a100());
    let gm = GpuCsrMatrix::upload(&gpu, m);
    let dx = gpu.upload(x);
    let dy = gpu.alloc_out::<f64>(m.nrows());
    vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, width);
    dy.to_vec().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn all_rows_empty_zero_fills_stale_output() {
    let rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 64];
    let m64: Csr<f64, u32> = Csr::from_rows(16, &rows).unwrap();
    let m: Csr<F16, u32> = m64.convert_values();

    let plan = RowPlan::from_csr(&m);
    assert_eq!(plan.nonempty_rows(), 0);
    assert_eq!(plan.empty_rows(), 64);

    let x = vec![1.0f64; 16];
    let y = run_bucketed(&m, &x, BucketWidths::natural());
    assert_eq!(y, vec![0.0f64.to_bits(); 64]);
}

#[test]
fn single_nonempty_row_scatters_to_its_original_index() {
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 100];
    rows[37] = vec![(1, 0.5), (4, 1.25), (9, 2.0), (11, 0.75), (30, 1.5)];
    let m64: Csr<f64, u32> = Csr::from_rows(32, &rows).unwrap();
    let m: Csr<F16, u32> = m64.convert_values();

    let plan = RowPlan::from_csr(&m);
    assert_eq!(plan.nonempty_rows(), 1);

    let x: Vec<f64> = (0..32).map(|i| i as f64 * 0.125 + 0.5).collect();
    let want: Vec<u64> = vector_csr_reference(&m, &x, BucketWidths::natural())
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let y = run_bucketed(&m, &x, BucketWidths::natural());
    assert_eq!(y, want);
    assert_ne!(y[37], 0.0f64.to_bits(), "row 37 carries the only dose");
    for (i, &bits) in y.iter().enumerate() {
        if i != 37 {
            assert_eq!(bits, 0.0f64.to_bits(), "row {i} must be zero-filled");
        }
    }
}

#[test]
fn every_row_length_one_collapses_into_first_bucket() {
    let mut rng = StdRng::seed_from_u64(99);
    let ncols = 48;
    let rows: Vec<Vec<(usize, f64)>> = (0..300)
        .map(|_| vec![(rng.gen_range(0..ncols), rng.gen_range(0.25..2.0))])
        .collect();
    let m64: Csr<f64, u32> = Csr::from_rows(ncols, &rows).unwrap();
    let m: Csr<F16, u32> = m64.convert_values();

    let plan = RowPlan::from_csr(&m);
    assert_eq!(plan.nonempty_rows(), 300);

    let x: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.17).sin() + 1.5).collect();
    let y = run_bucketed(&m, &x, BucketWidths::natural());
    // One entry per row: the dose is exactly val * x[col], no tree.
    for (row, bits) in y.iter().enumerate() {
        let (cols, vals) = m.row(row);
        let want = f64::from(vals[0]) * x[cols[0] as usize];
        assert_eq!(*bits, want.to_bits(), "row {row}");
    }
}

#[test]
fn uniform_widths_match_tiled_bitwise_across_runs() {
    let m = random_csr(700, 160, 48, 21);
    let x: Vec<f64> = (0..160)
        .map(|i| ((i * 13 + 5) % 23) as f64 * 0.04 + 0.25)
        .collect();

    for &w in &TILE_WIDTHS {
        let golden = run_tiled(&m, &x, w);
        for round in 0..3 {
            let got = run_bucketed(&m, &x, BucketWidths::uniform(w));
            assert_eq!(golden, got, "width {w}, round {round}: bucketed != tiled");
        }
    }
}
