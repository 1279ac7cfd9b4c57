//! Split memo hits (`rt_gpusim::exec`, "Split memo hits") store the bits
//! an in-order run stores. Every group here has a member above
//! [`SPLIT_FLOPS`], and the tests take one lock so no other launch runs
//! in this process: with two or more CPUs every memo hit runs that
//! member on two threads, and with one CPU none does.
//!
//! Each group is keyed and launched four times: recorded, interpreted
//! resident, then two hits. Before every launch the outputs are filled
//! with `-0.0`, which `==` cannot tell from the `+0.0` an empty row
//! stores, and the inputs hold `-0.0` entries; every launch's output bits
//! must equal [`vector_csr_reference`], the in-order host reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    vector_csr_bucketed_members, vector_csr_member, vector_csr_reference, BucketWidths,
    DoseCalculator, GpuCsrMatrix, GpuRowPlan, MAX_SPMM_BATCH, TILE_WIDTHS,
};
use rt_f16::F16;
use rt_gpusim::{
    DeviceBuffer, DeviceOutBuffer, DeviceSpec, Gpu, GroupMember, MemoCounts, SPLIT_FLOPS,
};
use rt_sparse::{Csr, RowPlan};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Held by every test: a launch from another test would take the free CPU.
static SERIAL: Mutex<()> = Mutex::new(());

/// Memo hits per keyed group.
const HITS: u64 = 2;

/// Hits the gate splits: all of them when a second CPU is free.
fn splits(hits: u64) -> u64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= 2 {
        hits
    } else {
        0
    }
}

/// 6,000 rows of 0 to 119 nonzeros over 1,500 columns (one row in 40
/// empty), and its transpose.
fn matrices() -> &'static (Csr<F16, u32>, Csr<F16, u32>) {
    static M: OnceLock<(Csr<F16, u32>, Csr<F16, u32>)> = OnceLock::new();
    M.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(29);
        let ncols = 1500;
        let rows: Vec<Vec<(usize, f64)>> = (0..6000)
            .map(|r| {
                let len = if r % 40 == 0 {
                    0
                } else {
                    rng.gen_range(1..120)
                };
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(-1.0..1.0)))
                    .collect()
            })
            .collect();
        let m: Csr<F16, u32> = Csr::<f64, u32>::from_rows(ncols, &rows)
            .unwrap()
            .convert_values();
        let t = m.transpose();
        (m, t)
    })
}

/// The fewest leading rows of `a` whose rows longer than 32 nonzeros
/// (one row bucket, and so one bucketed member) carry more than
/// [`SPLIT_FLOPS`] at `batch`, as a matrix of their own: each batch size
/// interprets about the same work.
fn head(a: &Csr<F16, u32>, batch: usize) -> Csr<F16, u32> {
    let mut long_nnz = 0;
    let mut rows = Vec::new();
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        if cols.len() > 32 {
            long_nnz += cols.len();
        }
        rows.push(
            cols.iter()
                .map(|&c| c as usize)
                .zip(vals.iter().copied())
                .collect(),
        );
        if 2 * (long_nnz * batch) as u64 > SPLIT_FLOPS {
            return Csr::from_rows(a.ncols(), &rows).unwrap();
        }
    }
    panic!("the matrix is below the split at batch {batch}");
}

/// `MAX_SPMM_BATCH` input vectors of `len`, every seventh entry `-0.0`.
fn inputs(len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..MAX_SPMM_BATCH)
        .map(|_| {
            (0..len)
                .map(|i| {
                    if i % 7 == 0 {
                        -0.0
                    } else {
                        rng.gen_range(-1.5..2.5)
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Launches the group `members` builds, keyed, on `gpu` until it has
/// hit the memo [`HITS`] times, checking every launch's outputs `ys`
/// against `want`. Returns the memo counts.
fn launch_until_hits<'a>(
    gpu: &Gpu,
    ys: &[&'a DeviceOutBuffer<f64>],
    members: impl Fn() -> Vec<GroupMember<'a>>,
    want: &[Vec<u64>],
    what: &str,
) -> MemoCounts {
    for run in 0..2 + HITS {
        for y in ys {
            (0..y.len()).for_each(|r| y.set(r, -0.0));
        }
        gpu.launch_group(Some(1), members());
        for (v, y) in ys.iter().enumerate() {
            assert_eq!(bits(&y.to_vec()), want[v], "{what}, run {run}, vector {v}");
        }
    }
    gpu.memo_counts()
}

#[test]
fn split_whole_matrix_hits_match_in_order_runs_at_every_width_and_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let xs = inputs(matrices().0.ncols(), 1);
    for &w in &TILE_WIDTHS {
        for batch in 1..=MAX_SPMM_BATCH {
            let m = &head(&matrices().0, batch);
            let want: Vec<Vec<u64>> = xs
                .iter()
                .map(|x| bits(&vector_csr_reference(m, x, BucketWidths::uniform(w))))
                .collect();
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, m);
            let dxs: Vec<_> = xs[..batch].iter().map(|x| gpu.upload(x)).collect();
            let dys: Vec<_> = (0..batch).map(|_| gpu.alloc_out(m.nrows())).collect();
            let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
            let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
            let what = format!("width {w}, batch {batch}");
            let counts = launch_until_hits(
                &gpu,
                &yr,
                || vec![vector_csr_member(&gm, xr.clone(), yr.clone(), 512, w)],
                &want,
                &what,
            );
            assert_eq!(
                (counts.hits, counts.split_runs),
                (HITS, splits(HITS)),
                "{what}"
            );
        }
    }
}

#[test]
fn split_bucketed_hits_keep_the_zero_fill_order_in_both_directions() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (m, t) = matrices();
    for (dir, full) in [(0, m), (1, t)] {
        let widths = [BucketWidths::natural(), BucketWidths([4, 2, 16, 8, 32, 16])][dir];
        let xs = inputs(full.ncols(), 2 + dir as u64);
        for batch in 1..=MAX_SPMM_BATCH {
            let a = &head(full, batch);
            let want: Vec<Vec<u64>> = xs
                .iter()
                .map(|x| bits(&vector_csr_reference(a, x, widths)))
                .collect();
            let gpu = Gpu::new(DeviceSpec::a100());
            let gm = GpuCsrMatrix::upload(&gpu, a);
            let gplan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(a)));
            let dxs: Vec<_> = xs[..batch].iter().map(|x| gpu.upload(x)).collect();
            let dys: Vec<_> = (0..batch).map(|_| gpu.alloc_out(a.nrows())).collect();
            let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
            let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
            let what = format!("direction {dir}, batch {batch}");
            let counts = launch_until_hits(
                &gpu,
                &yr,
                || vector_csr_bucketed_members(&gm, xr.clone(), yr.clone(), 512, &gplan, widths),
                &want,
                &what,
            );
            assert_eq!(
                (counts.hits, counts.split_runs),
                (HITS, splits(HITS)),
                "{what}"
            );
        }
    }
}

#[test]
fn a_calculator_above_the_split_threshold_returns_in_order_doses() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (m, _) = matrices();
    let calc = DoseCalculator::builder(&m.convert_values())
        .build()
        .unwrap();
    for (i, w) in inputs(m.ncols(), 4).iter().enumerate() {
        let want = bits(&vector_csr_reference(m, w, BucketWidths::uniform(32)));
        assert_eq!(bits(&calc.compute_dose(w).unwrap().dose), want, "dose {i}");
    }
    // Recorded, interpreted resident, then six hits.
    let counts = calc.memo_counts();
    assert_eq!((counts.hits, counts.split_runs), (6, splits(6)));
}
