//! Golden-value regression test for the simulated memory pipeline.
//!
//! Under `ExecMode::Sequential` the simulator's traffic counters are a
//! pure function of the kernel and its inputs: sector sequences, L2
//! hit/miss split, writebacks and per-buffer attribution must all be
//! bit-identical run to run *and commit to commit*. The constants below
//! were recorded from the pre-batching scalar pipeline (one L2 probe
//! and one region lookup per sector); the warp-granular batched
//! pipeline must reproduce them exactly.
//!
//! Each workload runs twice, on the full A100 L2 (40 MiB: everything
//! fits, misses are all cold) and on a 1/8192-scaled L2 (capacity
//! evictions and dirty writebacks exercised).
//!
//! A second transcript pins the launch paths the kernel transcript does
//! not reach: atomic read-modify-writes (the GPU Baseline), a bucketed
//! group launch (zero-fill plus one member per row bucket), and a
//! cold-cache reset between launches. Its constants were recorded from
//! the shard-locked cache, before one-worker launches took ownership of
//! the L2; the owned path must reproduce them exactly.
//!
//! To regenerate after an *intentional* traffic-model change:
//! `GOLDEN_PRINT=1 cargo test -p rt-core --test golden_traffic -- --nocapture`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    rs_baseline_gpu_spmv, scalar_csr_spmv, sell_spmv, vector_csr_spmv, vector_csr_spmv_bucketed,
    BucketWidths, GpuCsrMatrix, GpuRowPlan, GpuRsMatrix, GpuSellMatrix,
};
use rt_f16::F16;
use rt_gpusim::{DeviceSpec, ExecMode, Gpu, KernelStats};
use rt_sparse::{Csr, RowPlan, RsCompressed, SellCSigma};
use std::fmt::Write as _;
use std::sync::Arc;

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

fn record_stats(out: &mut String, label: &str, stats: &KernelStats) {
    writeln!(
        out,
        "{label}: flops={} req={} hit={} miss={} wr={} wb={} atom={} warps={}",
        stats.flops,
        stats.requested_bytes,
        stats.l2_read_hits,
        stats.l2_read_misses,
        stats.l2_write_sectors,
        stats.dram_writeback_sectors,
        stats.atomic_ops,
        stats.warps,
    )
    .unwrap();
}

/// Records the launch counters followed by the device's per-buffer
/// attribution.
fn record(out: &mut String, label: &str, gpu: &Gpu, stats: &KernelStats) {
    record_stats(out, label, stats);
    for t in gpu.traffic_report() {
        writeln!(
            out,
            "{label}.{}: rd={} dram={} wr={}",
            t.name, t.read_sectors, t.dram_read_sectors, t.write_sectors
        )
        .unwrap();
    }
}

/// Runs all three kernels sequentially on one device config and returns
/// the counter transcript.
fn transcript(spec: DeviceSpec, tag: &str) -> String {
    let mut out = String::new();

    // Vector CSR, Half/double: the paper's headline kernel.
    {
        let m: Csr<F16, u32> = random_csr(700, 160, 90, 11).convert_values();
        let x: Vec<f64> = (0..160)
            .map(|i| ((i * 13 + 5) % 23) as f64 * 0.125)
            .collect();
        let gpu = Gpu::with_mode(spec.clone(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 700);
        let stats = vector_csr_spmv(&gpu, &gm, &dx, &dy, 512);
        record(&mut out, &format!("{tag}/vector"), &gpu, &stats);
    }

    // Scalar CSR: thread-per-row, the uncoalesced strawman.
    {
        let m: Csr<F16, u32> = random_csr(500, 120, 40, 22).convert_values();
        let x: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        let gpu = Gpu::with_mode(spec.clone(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 500);
        let stats = scalar_csr_spmv(&gpu, &gm, &dx, &dy, 256);
        record(&mut out, &format!("{tag}/scalar"), &gpu, &stats);
    }

    // SELL-C-32: chunked ELL with row permutation.
    {
        let m: Csr<F16, u32> = random_csr(640, 140, 60, 33).convert_values();
        let sell = SellCSigma::from_csr(&m, 32, 256);
        let x: Vec<f64> = (0..140).map(|i| ((i * 7 + 3) % 11) as f64 * 0.25).collect();
        let gpu = Gpu::with_mode(spec, ExecMode::Sequential);
        let gm = GpuSellMatrix::upload(&gpu, &sell);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 640);
        let stats = sell_spmv(&gpu, &gm, &dx, &dy, 512);
        record(&mut out, &format!("{tag}/sell"), &gpu, &stats);
    }

    out
}

/// Runs the launch paths the kernel transcript leaves unpinned: atomic
/// read-modify-writes, a multi-member group launch, and a cache
/// invalidation between launches on one device.
fn paths_transcript(spec: DeviceSpec, tag: &str) -> String {
    let mut out = String::new();

    // GPU Baseline: one atomic RMW per non-zero, scattered by segment.
    {
        let m: Csr<F16, u32> = random_csr(600, 96, 30, 44).convert_values();
        let rs = RsCompressed::from_csr(&m);
        let w: Vec<f64> = (0..96).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect();
        let gpu = Gpu::with_mode(spec.clone(), ExecMode::Sequential);
        let gm = GpuRsMatrix::upload(&gpu, &rs);
        let dw = gpu.upload_named("w", &w);
        let dose = gpu.alloc_out_named::<f64>("dose", 600);
        let stats = rs_baseline_gpu_spmv(&gpu, &gm, &dw, &dose, 128);
        record(&mut out, &format!("{tag}/baseline"), &gpu, &stats);
    }

    // Bucketed dispatch: the zero-fill member plus one member per
    // non-empty row bucket, back to back on one warm cache.
    {
        let m: Csr<F16, u32> = random_csr(800, 150, 50, 55).convert_values();
        let x: Vec<f64> = (0..150).map(|i| ((i * 11 + 1) % 17) as f64 * 0.2).collect();
        let gpu = Gpu::with_mode(spec.clone(), ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(&m)));
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 800);
        let group =
            vector_csr_spmv_bucketed(&gpu, &gm, &dx, &dy, 256, &gplan, BucketWidths::natural());
        for member in &group.members {
            record_stats(
                &mut out,
                &format!("{tag}/bucketed[{}]", member.label),
                &member.stats,
            );
        }
        record(&mut out, &format!("{tag}/bucketed"), &gpu, &group.merged);
    }

    // A cold launch, a warm repeat, then a cold-cache reset: the launch
    // after the reset must see the cold misses again, not the warm hits.
    {
        let m: Csr<F16, u32> = random_csr(400, 100, 40, 66).convert_values();
        let x: Vec<f64> = (0..100).map(|i| 1.0 + (i % 3) as f64).collect();
        let gpu = Gpu::with_mode(spec, ExecMode::Sequential);
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 400);
        for step in ["cold", "warm"] {
            let stats = vector_csr_spmv(&gpu, &gm, &dx, &dy, 256);
            record_stats(&mut out, &format!("{tag}/reset.{step}"), &stats);
        }
        gpu.reset_cache();
        let stats = vector_csr_spmv(&gpu, &gm, &dx, &dy, 256);
        record(&mut out, &format!("{tag}/reset.after"), &gpu, &stats);
    }

    out
}

/// Runs `run` on the full A100 L2 and on a 1/8192-scaled one.
fn full_transcript(run: fn(DeviceSpec, &str) -> String) -> String {
    let mut out = run(DeviceSpec::a100(), "a100");
    // 1/8192 of 40 MiB = 5 KiB: far smaller than the matrix working
    // sets, so streaming traffic evicts the reused buffers between
    // touches, exercising victim selection and dirty writebacks.
    out.push_str(&run(DeviceSpec::a100().scaled_l2(8192.0), "smallL2"));
    out
}

fn assert_golden(name: &str, got: String, want: &str) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("--- {name} begin ---");
        print!("{got}");
        println!("--- {name} end ---");
    }
    assert_eq!(
        got, want,
        "Sequential traffic counters diverged from the recorded {name}; \
         if the traffic model changed intentionally, regenerate with \
         GOLDEN_PRINT=1 (see module docs)"
    );
}

#[test]
fn sequential_counters_match_golden() {
    assert_golden("golden transcript", full_transcript(transcript), GOLDEN);
}

#[test]
fn sequential_path_counters_match_golden() {
    assert_golden(
        "golden paths transcript",
        full_transcript(paths_transcript),
        GOLDEN_PATHS,
    );
}

/// Recorded from the pre-batching pipeline; see module docs.
const GOLDEN: &str = "\
a100/vector: flops=61270 req=440090 hit=18727 miss=5873 wr=700 wb=175 atom=0 warps=704
\
a100/vector.row_ptr: rd=1400 dram=88 wr=0
\
a100/vector.col_idx: rd=4862 dram=3830 wr=0
\
a100/vector.values: rd=3031 dram=1915 wr=0
\
a100/vector.x: rd=15307 dram=40 wr=0
\
a100/vector.y: rd=0 dram=0 wr=700
\
a100/scalar: flops=21594 req=157222 hit=25950 miss=2118 wr=125 wb=125 atom=0 warps=16
\
a100/scalar.row_ptr: rd=78 dram=63 wr=0
\
a100/scalar.col_idx: rd=10753 dram=1350 wr=0
\
a100/scalar.values: rd=10625 dram=675 wr=0
\
a100/scalar.x: rd=6612 dram=30 wr=0
\
a100/scalar.y: rd=0 dram=0 wr=125
\
a100/sell: flops=50432 req=360944 hit=6509 miss=4851 wr=640 wb=160 atom=0 warps=32
\
a100/sell.x: rd=6512 dram=35 wr=0
\
a100/sell.y: rd=0 dram=0 wr=640
\
smallL2/vector: flops=61270 req=440090 hit=18727 miss=5873 wr=700 wb=175 atom=0 warps=704
\
smallL2/vector.row_ptr: rd=1400 dram=88 wr=0
\
smallL2/vector.col_idx: rd=4862 dram=3830 wr=0
\
smallL2/vector.values: rd=3031 dram=1915 wr=0
\
smallL2/vector.x: rd=15307 dram=40 wr=0
\
smallL2/vector.y: rd=0 dram=0 wr=700
\
smallL2/scalar: flops=21594 req=157222 hit=25947 miss=2121 wr=125 wb=125 atom=0 warps=16
\
smallL2/scalar.row_ptr: rd=78 dram=63 wr=0
\
smallL2/scalar.col_idx: rd=10753 dram=1350 wr=0
\
smallL2/scalar.values: rd=10625 dram=675 wr=0
\
smallL2/scalar.x: rd=6612 dram=33 wr=0
\
smallL2/scalar.y: rd=0 dram=0 wr=125
\
smallL2/sell: flops=50432 req=360944 hit=6177 miss=5183 wr=640 wb=374 atom=0 warps=32
\
smallL2/sell.x: rd=6512 dram=348 wr=0
\
smallL2/sell.y: rd=0 dram=0 wr=640
\
";

/// Atomic, group-launch and reset-cache paths; see `paths_transcript`.
const GOLDEN_PATHS: &str = "\
a100/baseline: flops=20288 req=368448 hit=11466 miss=7063 wr=0 wb=147 atom=10144 warps=264
\
a100/baseline.w: rd=283 dram=24 wr=0
\
a100/baseline.dose: rd=0 dram=0 wr=10144
\
a100/bucketed[zero_fill]: flops=0 req=6400 hit=0 miss=0 wr=200 wb=200 atom=0 warps=8
\
a100/bucketed[rows 1-2]: flops=30 req=410 hit=10 miss=44 wr=10 wb=10 atom=0 warps=8
\
a100/bucketed[rows 3-4]: flops=92 req=904 hit=44 miss=60 wr=13 wb=13 atom=0 warps=8
\
a100/bucketed[rows 5-8]: flops=306 req=2622 hit=170 miss=102 wr=24 wb=22 atom=0 warps=8
\
a100/bucketed[rows 9-16]: flops=1478 req=11506 hit=769 miss=257 wr=58 wb=53 atom=0 warps=32
\
a100/bucketed[rows 17-32]: flops=5494 req=40618 hit=2524 miss=635 wr=108 wb=87 atom=0 warps=112
\
a100/bucketed[rows 33+]: flops=36526 req=262422 hit=13166 miss=3232 wr=337 wb=179 atom=0 warps=344
\
a100/bucketed: flops=43926 req=324882 hit=16683 miss=4330 wr=750 wb=564 atom=0 warps=520
\
a100/bucketed.row_ptr: rd=1078 dram=101 wr=0
\
a100/bucketed.col_idx: rd=3600 dram=2746 wr=0
\
a100/bucketed.values: rd=2276 dram=1373 wr=0
\
a100/bucketed.x: rd=13575 dram=38 wr=0
\
a100/bucketed.y: rd=0 dram=0 wr=750
\
a100/reset.cold: flops=18574 req=136418 hit=6761 miss=1818 wr=400 wb=100 atom=0 warps=400
\
a100/reset.warm: flops=18574 req=136418 hit=8579 miss=0 wr=400 wb=100 atom=0 warps=400
\
a100/reset.after: flops=18574 req=136418 hit=6761 miss=1818 wr=400 wb=100 atom=0 warps=400
\
a100/reset.after.row_ptr: rd=2400 dram=102 wr=0
\
a100/reset.after.col_idx: rd=4614 dram=2322 wr=0
\
a100/reset.after.values: rd=2994 dram=1162 wr=0
\
a100/reset.after.x: rd=15729 dram=50 wr=0
\
a100/reset.after.y: rd=0 dram=0 wr=1200
\
smallL2/baseline: flops=20288 req=368448 hit=9307 miss=9222 wr=0 wb=2306 atom=10144 warps=264
\
smallL2/baseline.w: rd=283 dram=24 wr=0
\
smallL2/baseline.dose: rd=0 dram=0 wr=10144
\
smallL2/bucketed[zero_fill]: flops=0 req=6400 hit=0 miss=0 wr=200 wb=200 atom=0 warps=8
\
smallL2/bucketed[rows 1-2]: flops=30 req=410 hit=10 miss=44 wr=10 wb=10 atom=0 warps=8
\
smallL2/bucketed[rows 3-4]: flops=92 req=904 hit=44 miss=60 wr=13 wb=13 atom=0 warps=8
\
smallL2/bucketed[rows 5-8]: flops=306 req=2622 hit=169 miss=103 wr=24 wb=22 atom=0 warps=8
\
smallL2/bucketed[rows 9-16]: flops=1478 req=11506 hit=744 miss=282 wr=58 wb=53 atom=0 warps=32
\
smallL2/bucketed[rows 17-32]: flops=5494 req=40618 hit=2396 miss=763 wr=108 wb=87 atom=0 warps=112
\
smallL2/bucketed[rows 33+]: flops=36526 req=262422 hit=12618 miss=3780 wr=337 wb=179 atom=0 warps=344
\
smallL2/bucketed: flops=43926 req=324882 hit=15981 miss=5032 wr=750 wb=564 atom=0 warps=520
\
smallL2/bucketed.row_ptr: rd=1078 dram=257 wr=0
\
smallL2/bucketed.col_idx: rd=3600 dram=3017 wr=0
\
smallL2/bucketed.values: rd=2276 dram=1647 wr=0
\
smallL2/bucketed.x: rd=13575 dram=39 wr=0
\
smallL2/bucketed.y: rd=0 dram=0 wr=750
\
smallL2/reset.cold: flops=18574 req=136418 hit=6761 miss=1818 wr=400 wb=100 atom=0 warps=400
\
smallL2/reset.warm: flops=18574 req=136418 hit=6786 miss=1793 wr=400 wb=100 atom=0 warps=400
\
smallL2/reset.after: flops=18574 req=136418 hit=6761 miss=1818 wr=400 wb=100 atom=0 warps=400
\
smallL2/reset.after.row_ptr: rd=2400 dram=153 wr=0
\
smallL2/reset.after.col_idx: rd=4614 dram=3483 wr=0
\
smallL2/reset.after.values: rd=2994 dram=1743 wr=0
\
smallL2/reset.after.x: rd=15729 dram=50 wr=0
\
smallL2/reset.after.y: rd=0 dram=0 wr=1200
\
";
