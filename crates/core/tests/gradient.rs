//! Degenerate-partition and reproducibility contract of the bucketed
//! **backward pass** (ISSUE 9) — the gradient-direction mirror of
//! `tests/bucketed.rs`, dispatching over a `RowPlan` of the transpose:
//!
//! * **All beamlet rows empty** — a transpose with zero nnz still runs
//!   the deterministic zero-fill member, so stale output memory never
//!   leaks into the gradient vector.
//! * **Single active beamlet** — exactly one non-empty transpose row;
//!   the scatter map must land its gradient at the original beamlet
//!   index.
//! * **Bitwise sweep** — with `BucketWidths::uniform(w)` every beamlet
//!   row reduces with the same truncated halving tree as the
//!   whole-matrix kernel on the transpose, so the partitioned
//!   gradient must match the whole-matrix gradient bit-for-bit at every
//!   width, on every rerun — and the
//!   `DoseCalculator` gradient entry points must agree with the raw
//!   kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    vector_csr_reference, vector_csr_spmm, vector_csr_spmm_bucketed, BucketWidths, DoseCalculator,
    GpuCsrMatrix, GpuRowPlan,
};
use rt_f16::F16;
use rt_gpusim::{DeviceSpec, Gpu, TILE_WIDTHS};
use rt_sparse::{Csr, RowPlan};
use std::sync::Arc;

/// A voxel×beamlet matrix whose **transpose** is skewed: only ~1 in 3
/// beamlet columns is active, so most transpose rows are empty (the
/// field-aperture shape the partition exploits).
fn random_csr(nrows: usize, ncols: usize, max_row: usize, seed: u64) -> Csr<f64, u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let active: Vec<usize> = (0..ncols).filter(|c| c % 3 == 0).collect();
    let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
        .map(|_| {
            if rng.gen_bool(0.3) {
                return Vec::new();
            }
            let len = rng.gen_range(1..=max_row);
            let mut cols: Vec<usize> = (0..len)
                .map(|_| active[rng.gen_range(0..active.len())])
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols.into_iter()
                .map(|c| (c, rng.gen_range(0.0..2.0)))
                .collect()
        })
        .collect();
    Csr::from_rows(ncols, &rows).unwrap()
}

/// Raw-kernel partitioned back-projection on the transpose, with the
/// output buffer pre-filled with stale garbage (the zero-fill member,
/// not allocation, is what the contract relies on).
fn grad_bucketed(t: &Csr<F16, u32>, r: &[f64], widths: BucketWidths) -> Vec<u64> {
    let gpu = Gpu::new(DeviceSpec::a100());
    let gt = GpuCsrMatrix::upload(&gpu, t);
    let gplan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(t)));
    let dr = gpu.upload(r);
    let dg = gpu.alloc_out::<f64>(t.nrows());
    for i in 0..t.nrows() {
        dg.set(i, f64::from_bits(0xDEAD_BEEF_DEAD_BEEF));
    }
    vector_csr_spmm_bucketed(&gpu, &gt, &[&dr], &[&dg], 512, &gplan, widths);
    dg.to_vec().iter().map(|v| v.to_bits()).collect()
}

/// Raw-kernel whole-matrix back-projection: the fixed-width kernel run
/// directly on the transpose.
fn grad_whole(t: &Csr<F16, u32>, r: &[f64], width: u32) -> Vec<u64> {
    let gpu = Gpu::new(DeviceSpec::a100());
    let gt = GpuCsrMatrix::upload(&gpu, t);
    let dr = gpu.upload(r);
    let dg = gpu.alloc_out::<f64>(t.nrows());
    vector_csr_spmm(&gpu, &gt, &[&dr], &[&dg], 512, width);
    dg.to_vec().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn all_beamlet_rows_empty_zero_fills_stale_gradient() {
    // 64 voxels × 16 beamlets with zero deposits: the transpose is 16
    // all-empty beamlet rows.
    let rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 64];
    let m64: Csr<f64, u32> = Csr::from_rows(16, &rows).unwrap();
    let t: Csr<F16, u32> = m64.transpose().convert_values();

    let plan = RowPlan::from_csr(&t);
    assert_eq!(plan.nonempty_rows(), 0);
    assert_eq!(plan.empty_rows(), 16);

    let r = vec![1.0f64; 64];
    let g = grad_bucketed(&t, &r, BucketWidths::natural());
    assert_eq!(g, vec![0.0f64.to_bits(); 16]);
}

#[test]
fn single_active_beamlet_scatters_to_its_original_index() {
    // Every deposit lands in beamlet column 37: the transpose has one
    // non-empty row whose gradient must scatter back to index 37.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 100];
    for (i, row) in rows.iter_mut().enumerate().step_by(9) {
        *row = vec![(37, 0.5 + i as f64 * 0.01)];
    }
    let m64: Csr<f64, u32> = Csr::from_rows(64, &rows).unwrap();
    let t: Csr<F16, u32> = m64.transpose().convert_values();

    let plan = RowPlan::from_csr(&t);
    assert_eq!(plan.nonempty_rows(), 1);

    let r: Vec<f64> = (0..100).map(|i| i as f64 * 0.125 + 0.5).collect();
    let want: Vec<u64> = vector_csr_reference(&t, &r, BucketWidths::natural())
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let g = grad_bucketed(&t, &r, BucketWidths::natural());
    assert_eq!(g, want);
    assert_ne!(g[37], 0.0f64.to_bits(), "beamlet 37 carries the gradient");
    for (i, &bits) in g.iter().enumerate() {
        if i != 37 {
            assert_eq!(bits, 0.0f64.to_bits(), "beamlet {i} must be zero-filled");
        }
    }
}

#[test]
fn partitioned_gradients_match_whole_matrix_bitwise_across_runs() {
    let m64 = random_csr(700, 160, 48, 21);
    let t: Csr<F16, u32> = m64.transpose().convert_values();
    let t_plan = Arc::new(RowPlan::from_csr(&t));
    let r: Vec<f64> = (0..700)
        .map(|i| ((i * 13 + 5) % 23) as f64 * 0.04 + 0.25)
        .collect();

    for &w in &TILE_WIDTHS {
        // Whole-matrix gradient at width w is the golden value.
        let golden = grad_whole(&t, &r, w);
        let got = grad_bucketed(&t, &r, BucketWidths::uniform(w));
        assert_eq!(golden, got, "width {w}: partitioned != whole");

        // The calculator-level entry point honours the same contract: a
        // grad-partitioned gradient == the whole-matrix gradient at the
        // uniform width, bit for bit.
        let whole_calc = DoseCalculator::builder(&m64)
            .with_transpose()
            .grad_tile_width(w)
            .build()
            .unwrap();
        let part_calc = DoseCalculator::builder(&m64)
            .with_transpose()
            .grad_partitioned_with_plan(t_plan.clone(), BucketWidths::uniform(w))
            .build()
            .unwrap();
        let bits_of = |calc: &DoseCalculator| -> Vec<u64> {
            let g = calc.compute_gradient_batch(&[&r]).unwrap();
            g.outputs[0].iter().map(|v| v.to_bits()).collect()
        };
        let gw = bits_of(&whole_calc);
        let gp = bits_of(&part_calc);
        assert_eq!(gw, gp, "width {w}: calculator partitioned != whole");
        let gb = part_calc.compute_gradient_batch(&[&r, &r]).unwrap();
        for out in &gb.outputs {
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, gp, "width {w}: batched gradient diverged");
        }

        for round in 0..3 {
            let got = grad_bucketed(&t, &r, BucketWidths::uniform(w));
            assert_eq!(
                golden, got,
                "width {w}, round {round} diverged from whole-matrix"
            );
        }
    }
}
