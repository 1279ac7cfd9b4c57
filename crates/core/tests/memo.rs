//! The launch memo answers a keyed launch group exactly as interpretation
//! would (`rt_gpusim::exec`, "Launch memo"): two identically built GPUs
//! run one seeded sequence of dose and gradient launches, bucketed and
//! whole-matrix, at batch sizes 1–8, with cache resets and un-keyed
//! launches in between. One side keys its groups, the other does not;
//! after every step both return equal counters and bitwise-equal outputs.
//! The sequence runs on the clamp-rule L2 (where the saturating rule
//! answers), on stock A100, V100 and P100 L2s (the resident rule), and on
//! an L2 where other launches evict parts of footprints the resident rule
//! has answered.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    vector_csr_bucketed_members, vector_csr_member, vector_csr_spmm, BucketWidths, GpuCsrMatrix,
    GpuRowPlan, MAX_SPMM_BATCH,
};
use rt_dose::cases::{liver_case, ScaleConfig};
use rt_f16::F16;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, DeviceSpec, Gpu, GroupStats, MemoCounts};
use rt_sparse::{Csr, RowPlan};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// (direction, dispatch, batch) shapes drawn in 6 steps of 10, so (start
/// state, key) pairs repeat.
const HOT: [(usize, usize, usize); 4] = [(0, 0, 1), (1, 0, 1), (0, 1, 2), (1, 2, 3)];
const LRU_WAYS: usize = 9;
const LRU_BYTES: usize = 2048 * 9 * 32;
/// The batch-1 gradient keys, whose raw streams fit in the `LRU_*` L2,
/// and two batch-8 keys that together touch more sectors than it holds.
const LRU_HOT: [(usize, usize, usize); 4] = [(1, 0, 1), (1, 1, 1), (0, 0, 8), (1, 0, 8)];

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

/// The shrink-32 liver matrix, its transpose and its clamp-rule device.
struct Liver {
    a: Csr<f64, u32>,
    t: Csr<f64, u32>,
    clamp: DeviceSpec,
}

/// The [`Liver`], built once per test binary.
fn liver() -> &'static Liver {
    static LIVER: OnceLock<Liver> = OnceLock::new();
    LIVER.get_or_init(|| {
        let case = liver_case(ScaleConfig { shrink: 32.0 }).swap_remove(0);
        let m = &case.matrix;
        // The clamp rule of `rt_repro::runner::sim_device`: vectors
        // resident, the matrix streaming through an L2 a few times
        // smaller than it.
        let a100 = DeviceSpec::a100();
        let lo = (1.25 * (8 * (m.ncols() + m.nrows())) as f64).max(4096.0);
        let hi = (6.0 * m.nnz() as f64 / 2.0).max(lo + 1.0);
        let l2 = (a100.l2_bytes as f64 / case.extrapolation()).clamp(lo, hi);
        Liver {
            a: m.clone(),
            t: m.transpose(),
            clamp: a100.with_l2_bytes(l2 as usize),
        }
    })
}

/// What the keyed side of [`run_twins`] saw.
struct TwinRun {
    counts: MemoCounts,
    /// Keyed launches that missed the L2 on a key the resident rule had
    /// answered since the last cache reset: other launches evicted part
    /// of its footprint in between.
    refetches: u64,
}

/// Runs `steps` seeded steps on a keyed and an un-keyed side, asserting
/// equal counters and outputs after every launch.
fn run_twins(spec: DeviceSpec, steps: usize, seed: u64, hot: &[(usize, usize, usize)]) -> TwinRun {
    let Liver { a, t, .. } = liver();
    let mut keyed = Side::new(spec.clone(), a, t);
    let mut plain = Side::new(spec, a, t);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut answered = HashSet::new();
    let mut refetches = 0;
    for step in 0..steps {
        match rng.gen_range(0..10u32) {
            0 => {
                keyed.gpu.reset_cache();
                plain.gpu.reset_cache();
                answered.clear();
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
                let before = keyed.gpu.memo_counts().resident_hits;
                let (kg, ko) = keyed.launch(dir, dispatch, &inputs, true);
                let (pg, po) = plain.launch(dir, dispatch, &inputs, false);
                let what = format!(
                    "step {step}: dir {dir}, {:?}, batch {batch}",
                    DISPATCHES[dispatch]
                );
                assert_eq!(kg, pg, "{what}: counters");
                assert_eq!(ko, po, "{what}: outputs");
                let shape = (dir, dispatch, batch);
                if keyed.gpu.memo_counts().resident_hits > before {
                    answered.insert(shape);
                } else if answered.contains(&shape) && pg.merged.l2_read_misses > 0 {
                    refetches += 1;
                }
            }
        }
    }
    let unkeyed = plain.gpu.memo_counts();
    assert_eq!((unkeyed.keyed, unkeyed.entries), (0, 0));
    assert_eq!(unkeyed.resident_entries, 0);
    TwinRun {
        counts: keyed.gpu.memo_counts(),
        refetches,
    }
}

#[test]
fn memo_hits_equal_interpretation_on_the_clamp_rule_l2() {
    for seed in [1, 2] {
        let counts = run_twins(liver().clamp.clone(), 60, seed, &HOT).counts;
        assert!(
            counts.hits > 0,
            "seed {seed}: the memo never hit: {counts:?}"
        );
        assert!(counts.entries > 0);
        // Every raw stream outgrows the L2: the resident rule records
        // nothing.
        assert_eq!((counts.resident_hits, counts.resident_entries), (0, 0));
    }
}

#[test]
fn stock_l2s_answer_resident_footprints_exactly() {
    for spec in [DeviceSpec::a100(), DeviceSpec::v100(), DeviceSpec::p100()] {
        for seed in [3, 4] {
            let counts = run_twins(spec.clone(), 200, seed, &HOT).counts;
            let what = format!("{} seed {seed}: {counts:?}", spec.name);
            assert!(counts.resident_hits > 0, "{what}");
            // No keyed group overwrites every set of a stock L2.
            assert_eq!(
                (counts.hits, counts.entries),
                (counts.resident_hits, 0),
                "{what}"
            );
        }
    }
}

#[test]
fn resident_hits_leave_the_lru_order_interpretation_leaves() {
    // The batch-1 gradient keys' raw streams fit in this L2, but the two
    // directions' buffers alias into the same sets, more of them than a
    // set has ways: launches of other keys evict parts of a footprint
    // the resident rule has answered, and their victims depend on the
    // order the rule restamped.
    let mut spec = DeviceSpec::a100();
    spec.l2_ways = LRU_WAYS;
    let spec = spec.with_l2_bytes(LRU_BYTES);
    for seed in [5, 6] {
        let run = run_twins(spec.clone(), 300, seed, &LRU_HOT);
        let counts = run.counts;
        assert!(counts.resident_hits > 0, "seed {seed}: {counts:?}");
        assert!(run.refetches > 0, "seed {seed}: nothing was evicted");
    }
}
