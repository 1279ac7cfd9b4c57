//! The launch memo answers a keyed launch group exactly as interpretation
//! would (`rt_gpusim::exec`, "Launch memo"): two identically built GPUs
//! run one seeded sequence of dose and gradient launches, bucketed and
//! whole-matrix, at batch sizes 1–8, with cache resets and un-keyed
//! launches in between. One side keys its groups, the other does not;
//! after every step both return equal counters and bitwise-equal outputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    vector_csr_bucketed_members, vector_csr_member, vector_csr_spmm, BucketWidths, GpuCsrMatrix,
    GpuRowPlan, MAX_SPMM_BATCH,
};
use rt_dose::cases::{liver_case, ScaleConfig};
use rt_f16::F16;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, DeviceSpec, Gpu, GroupStats};
use rt_sparse::{Csr, RowPlan};
use std::sync::Arc;

/// How a launch covers the matrix.
#[derive(Clone, Copy, Debug)]
enum Dispatch {
    Bucketed,
    Whole(u32),
}

const DISPATCHES: [Dispatch; 3] = [Dispatch::Bucketed, Dispatch::Whole(32), Dispatch::Whole(4)];

/// One direction: its matrix, row plan and staging slots.
struct Direction {
    matrix: GpuCsrMatrix<F16, u32>,
    plan: GpuRowPlan,
    xs: Vec<DeviceBuffer<f64>>,
    ys: Vec<DeviceOutBuffer<f64>>,
}

/// One GPU with both directions of a matrix resident.
struct Side {
    gpu: Gpu,
    dirs: [Direction; 2],
}

impl Side {
    fn new(spec: DeviceSpec, a: &Csr<f64, u32>, t: &Csr<f64, u32>) -> Self {
        let gpu = Gpu::new(spec);
        let dirs = [a, t].map(|m| {
            let matrix = GpuCsrMatrix::upload(&gpu, &m.convert_values::<F16>());
            let plan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(m)));
            let xs = (0..MAX_SPMM_BATCH)
                .map(|_| gpu.upload(&vec![0.0; m.ncols()]))
                .collect();
            let ys = (0..MAX_SPMM_BATCH)
                .map(|_| gpu.alloc_out(m.nrows()))
                .collect();
            Direction {
                matrix,
                plan,
                xs,
                ys,
            }
        });
        Side { gpu, dirs }
    }

    /// Runs one launch group over slots `0..inputs.len()` of direction
    /// `dir`, keyed by (direction, dispatch, batch size) when `keyed`.
    /// Returns the counters and the outputs' bits.
    fn launch(
        &mut self,
        dir: usize,
        dispatch: usize,
        inputs: &[Vec<f64>],
        keyed: bool,
    ) -> (GroupStats, Vec<Vec<u64>>) {
        let d = &mut self.dirs[dir];
        for (slot, x) in d.xs.iter_mut().zip(inputs) {
            slot.refill(x);
        }
        let xs: Vec<&DeviceBuffer<f64>> = d.xs[..inputs.len()].iter().collect();
        let ys: Vec<&DeviceOutBuffer<f64>> = d.ys[..inputs.len()].iter().collect();
        let members = match DISPATCHES[dispatch] {
            Dispatch::Bucketed => vector_csr_bucketed_members(
                &d.matrix,
                xs,
                ys.clone(),
                512,
                &d.plan,
                BucketWidths::natural(),
            ),
            Dispatch::Whole(w) => vec![vector_csr_member(&d.matrix, xs, ys.clone(), 512, w)],
        };
        let key = (dir << 16 | dispatch << 8 | inputs.len()) as u64;
        let group = self.gpu.launch_group(keyed.then_some(key), members);
        let outs = ys
            .iter()
            .map(|y| y.to_vec().iter().map(|v| v.to_bits()).collect())
            .collect();
        (group, outs)
    }

    /// An un-keyed whole-matrix launch on slot 0: the dose direction at
    /// width 16 or the gradient direction at width 8, leaving different
    /// L2 contents behind.
    fn unkeyed(&self, dir: usize) {
        let d = &self.dirs[dir];
        let width = [16, 8][dir];
        vector_csr_spmm(&self.gpu, &d.matrix, &[&d.xs[0]], &[&d.ys[0]], 512, width);
    }
}

fn liver() -> (Csr<f64, u32>, Csr<f64, u32>, DeviceSpec) {
    let case = liver_case(ScaleConfig { shrink: 32.0 }).swap_remove(0);
    let m = &case.matrix;
    // The clamp rule of `rt_repro::runner::sim_device`: vectors resident,
    // the matrix streaming through an L2 a few times smaller than it.
    let a100 = DeviceSpec::a100();
    let lo = (1.25 * (8 * (m.ncols() + m.nrows())) as f64).max(4096.0);
    let hi = (6.0 * m.nnz() as f64 / 2.0).max(lo + 1.0);
    let l2 = (a100.l2_bytes as f64 / case.extrapolation()).clamp(lo, hi);
    let t = m.transpose();
    (m.clone(), t, a100.with_l2_bytes(l2 as usize))
}

/// Runs `steps` seeded steps on a keyed and an un-keyed side, asserting
/// equal counters and outputs after every launch; returns the keyed GPU's
/// memo counts.
fn run_twins(spec: DeviceSpec, steps: usize, seed: u64) -> rt_gpusim::MemoCounts {
    let (a, t, _) = liver();
    let mut keyed = Side::new(spec.clone(), &a, &t);
    let mut plain = Side::new(spec, &a, &t);
    let mut rng = StdRng::seed_from_u64(seed);
    // A few hot launch shapes, so (start state, key) pairs repeat.
    let hot = [(0, 0, 1), (1, 0, 1), (0, 1, 2), (1, 2, 3)];
    for step in 0..steps {
        match rng.gen_range(0..10u32) {
            0 => {
                keyed.gpu.reset_cache();
                plain.gpu.reset_cache();
            }
            1 => {
                let dir = rng.gen_range(0..2);
                keyed.unkeyed(dir);
                plain.unkeyed(dir);
            }
            r => {
                let (dir, dispatch, batch) = if r < 7 {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    (
                        rng.gen_range(0..2usize),
                        rng.gen_range(0..DISPATCHES.len()),
                        rng.gen_range(1..=MAX_SPMM_BATCH),
                    )
                };
                let len = [a.ncols(), t.ncols()][dir];
                let inputs: Vec<Vec<f64>> = (0..batch)
                    .map(|_| (0..len).map(|_| rng.gen_range(0.0..2.0)).collect())
                    .collect();
                let (kg, ko) = keyed.launch(dir, dispatch, &inputs, true);
                let (pg, po) = plain.launch(dir, dispatch, &inputs, false);
                let what = format!(
                    "step {step}: dir {dir}, {:?}, batch {batch}",
                    DISPATCHES[dispatch]
                );
                assert_eq!(kg, pg, "{what}: counters");
                assert_eq!(ko, po, "{what}: outputs");
            }
        }
    }
    let unkeyed = plain.gpu.memo_counts();
    assert_eq!((unkeyed.keyed, unkeyed.entries), (0, 0));
    keyed.gpu.memo_counts()
}

#[test]
fn memo_hits_equal_interpretation_on_the_clamp_rule_l2() {
    let (_, _, spec) = liver();
    for seed in [1, 2] {
        let counts = run_twins(spec.clone(), 60, seed);
        assert!(
            counts.hits > 0,
            "seed {seed}: the memo never hit: {counts:?}"
        );
        assert!(counts.entries > 0);
    }
}

#[test]
fn a_stock_l2_never_saturates_so_nothing_is_remembered() {
    let counts = run_twins(DeviceSpec::a100(), 20, 3);
    assert!(counts.keyed > 0);
    assert_eq!((counts.hits, counts.entries), (0, 0), "{counts:?}");
}
