//! Golden-value regression test for the simulated memory pipeline.
//!
//! The simulator's traffic counters are a pure function of the kernel
//! and its inputs: sector sequences, L2 hit/miss split, writebacks and
//! per-buffer attribution must all be bit-identical run to run *and
//! commit to commit*. The constants below
//! were recorded from the pre-batching scalar pipeline (one L2 probe
//! and one region lookup per sector); the warp-granular batched
//! pipeline must reproduce them exactly.
//!
//! The kernel transcript also pins the launch shapes around the
//! paper's kernel: whole-matrix sub-warp widths 4 and 16, three-vector
//! batches at widths 32 and 8, a three-vector bucketed dispatch and the
//! single-precision Ginkgo stand-in at a subwarp below 32. Those
//! constants were recorded before the vector-CSR launches were folded
//! into one entry point per row strategy; the folded kernels must
//! reproduce them exactly.
//!
//! Each workload runs twice, on the full A100 L2 (40 MiB: everything
//! fits, misses are all cold) and on a 1/8192-scaled L2 (capacity
//! evictions and dirty writebacks exercised).
//!
//! A second transcript pins the launch paths the kernel transcript does
//! not reach: atomic read-modify-writes (the GPU Baseline), a bucketed
//! group launch (zero-fill plus one member per row bucket), and a
//! cold-cache reset between launches. Its constants were recorded from
//! the shard-locked cache, before launches took sole ownership of the
//! L2; the owned path must reproduce them exactly.
//!
//! To regenerate after an *intentional* traffic-model change:
//! `GOLDEN_PRINT=1 cargo test -p rt-core --test golden_traffic -- --nocapture`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::libs::ginkgo_subwarp_size;
use rt_core::{
    ginkgo_csr_spmv, rs_baseline_gpu_spmv, scalar_csr_spmv, sell_spmv, vector_csr_spmm,
    vector_csr_spmm_bucketed, BucketWidths, GpuCsrMatrix, GpuRowPlan, GpuRsMatrix, GpuSellMatrix,
};
use rt_f16::F16;
use rt_gpusim::{DeviceBuffer, DeviceOutBuffer, DeviceSpec, Gpu, KernelStats};
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

/// Runs every kernel sequentially on one device config and returns the
/// counter transcript.
fn transcript(spec: DeviceSpec, tag: &str) -> String {
    let mut out = String::new();

    // Vector CSR, Half/double: the paper's headline kernel.
    {
        let m: Csr<F16, u32> = random_csr(700, 160, 90, 11).convert_values();
        let x: Vec<f64> = (0..160)
            .map(|i| ((i * 13 + 5) % 23) as f64 * 0.125)
            .collect();
        let gpu = Gpu::new(spec.clone());
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 700);
        let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, 32);
        record(&mut out, &format!("{tag}/vector"), &gpu, &stats);
    }

    // Scalar CSR: thread-per-row, the uncoalesced strawman.
    {
        let m: Csr<F16, u32> = random_csr(500, 120, 40, 22).convert_values();
        let x: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        let gpu = Gpu::new(spec.clone());
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
        let gpu = Gpu::new(spec.clone());
        let gm = GpuSellMatrix::upload(&gpu, &sell);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 640);
        let stats = sell_spmv(&gpu, &gm, &dx, &dy, 512);
        record(&mut out, &format!("{tag}/sell"), &gpu, &stats);
    }

    // Sub-warp tiles over the whole matrix: 32 / w rows per warp, one
    // row-pointer span and one coalesced store per warp.
    for width in [4u32, 16] {
        let m: Csr<F16, u32> = random_csr(600, 128, 12, 77).convert_values();
        let x: Vec<f64> = (0..128).map(|i| ((i * 5 + 2) % 13) as f64 * 0.3).collect();
        let gpu = Gpu::new(spec.clone());
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 600);
        let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 512, width);
        record(&mut out, &format!("{tag}/tiled{width}"), &gpu, &stats);
    }

    // Three-vector batches: the matrix spans are loaded once per row and
    // shared by every vector's gather, at full-warp and sub-warp widths.
    for width in [32u32, 8] {
        let m: Csr<F16, u32> = random_csr(500, 140, 30, 88).convert_values();
        let gpu = Gpu::new(spec.clone());
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dxs: Vec<_> = (0..3)
            .map(|v| {
                let x: Vec<f64> = (0..140).map(|i| ((i * 3 + v) % 19) as f64 * 0.15).collect();
                gpu.upload_named(&format!("x{v}"), &x)
            })
            .collect();
        let dys: Vec<_> = (0..3)
            .map(|v| gpu.alloc_out_named::<f64>(&format!("y{v}"), 500))
            .collect();
        let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
        let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
        let stats = vector_csr_spmm(&gpu, &gm, &xr, &yr, 512, width);
        record(&mut out, &format!("{tag}/spmm{width}x3"), &gpu, &stats);
    }

    // A three-vector bucketed dispatch: zero-fill of every output, then
    // one member per non-empty bucket sharing spans across the vectors.
    {
        let m: Csr<F16, u32> = random_csr(600, 130, 40, 99).convert_values();
        let gpu = Gpu::new(spec.clone());
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(&m)));
        let dxs: Vec<_> = (0..3)
            .map(|v| {
                let x: Vec<f64> = (0..130).map(|i| ((i * 7 + v) % 23) as f64 * 0.1).collect();
                gpu.upload_named(&format!("x{v}"), &x)
            })
            .collect();
        let dys: Vec<_> = (0..3)
            .map(|v| gpu.alloc_out_named::<f64>(&format!("y{v}"), 600))
            .collect();
        let xr: Vec<&DeviceBuffer<f64>> = dxs.iter().collect();
        let yr: Vec<&DeviceOutBuffer<f64>> = dys.iter().collect();
        let group =
            vector_csr_spmm_bucketed(&gpu, &gm, &xr, &yr, 256, &gplan, BucketWidths::natural());
        for member in &group.members {
            record_stats(
                &mut out,
                &format!("{tag}/spmm_bucketed[{}]", member.label),
                &member.stats,
            );
        }
        record(
            &mut out,
            &format!("{tag}/spmm_bucketed"),
            &gpu,
            &group.merged,
        );
    }

    // Ginkgo stand-in, single precision: short rows pick a subwarp
    // narrower than 32, so several rows share a warp.
    {
        let m: Csr<f32, u32> = random_csr(700, 110, 3, 111).convert_values();
        assert!(ginkgo_subwarp_size(m.nnz(), m.nrows()) < 32);
        let x: Vec<f32> = (0..110).map(|i| ((i * 9 + 4) % 17) as f32 * 0.25).collect();
        let gpu = Gpu::new(spec);
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f32>("y", 700);
        let stats = ginkgo_csr_spmv(&gpu, &gm, &dx, &dy);
        record(&mut out, &format!("{tag}/ginkgo"), &gpu, &stats);
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
        let gpu = Gpu::new(spec.clone());
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
        let gpu = Gpu::new(spec.clone());
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let gplan = GpuRowPlan::upload(&gpu, Arc::new(RowPlan::from_csr(&m)));
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 800);
        let widths = BucketWidths::natural();
        let group = vector_csr_spmm_bucketed(&gpu, &gm, &[&dx], &[&dy], 256, &gplan, widths);
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
        let gpu = Gpu::new(spec);
        let gm = GpuCsrMatrix::upload_named(&gpu, &m);
        let dx = gpu.upload_named("x", &x);
        let dy = gpu.alloc_out_named::<f64>("y", 400);
        for step in ["cold", "warm"] {
            let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 256, 32);
            record_stats(&mut out, &format!("{tag}/reset.{step}"), &stats);
        }
        gpu.reset_cache();
        let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 256, 32);
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
        "Traffic counters diverged from the recorded {name}; \
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

/// Recorded from the pre-batching pipeline; the tiled, batched and
/// Ginkgo entries from the pre-unification kernels. See module docs.
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
a100/tiled4: flops=10636 req=81952 hit=7384 miss=1106 wr=150 wb=150 atom=0 warps=80
\
a100/tiled4.row_ptr: rd=150 dram=76 wr=0
\
a100/tiled4.col_idx: rd=1961 dram=665 wr=0
\
a100/tiled4.values: rd=1735 dram=333 wr=0
\
a100/tiled4.x: rd=4644 dram=32 wr=0
\
a100/tiled4.y: rd=0 dram=0 wr=150
\
a100/tiled16: flops=10636 req=82852 hit=5794 miss=1106 wr=300 wb=150 atom=0 warps=304
\
a100/tiled16.row_ptr: rd=375 dram=76 wr=0
\
a100/tiled16.col_idx: rd=1169 dram=665 wr=0
\
a100/tiled16.values: rd=868 dram=333 wr=0
\
a100/tiled16.x: rd=4488 dram=32 wr=0
\
a100/tiled16.y: rd=0 dram=0 wr=300
\
a100/spmm32x3: flops=56592 req=298960 hit=22051 miss=1937 wr=1500 wb=375 atom=0 warps=512
\
a100/spmm32x3.row_ptr: rd=1000 dram=63 wr=0
\
a100/spmm32x3.col_idx: rd=1616 dram=1179 wr=0
\
a100/spmm32x3.values: rd=1059 dram=590 wr=0
\
a100/spmm32x3.x0: rd=6771 dram=35 wr=0
\
a100/spmm32x3.x1: rd=6771 dram=35 wr=0
\
a100/spmm32x3.x2: rd=6771 dram=35 wr=0
\
a100/spmm32x3.y0: rd=0 dram=0 wr=500
\
a100/spmm32x3.y1: rd=0 dram=0 wr=500
\
a100/spmm32x3.y2: rd=0 dram=0 wr=500
\
a100/spmm8x3: flops=56592 req=297460 hit=23519 miss=1937 wr=375 wb=375 atom=0 warps=128
\
a100/spmm8x3.row_ptr: rd=187 dram=63 wr=0
\
a100/spmm8x3.col_idx: rd=2366 dram=1179 wr=0
\
a100/spmm8x3.values: rd=1855 dram=590 wr=0
\
a100/spmm8x3.x0: rd=7016 dram=35 wr=0
\
a100/spmm8x3.x1: rd=7016 dram=35 wr=0
\
a100/spmm8x3.x2: rd=7016 dram=35 wr=0
\
a100/spmm8x3.y0: rd=0 dram=0 wr=125
\
a100/spmm8x3.y1: rd=0 dram=0 wr=125
\
a100/spmm8x3.y2: rd=0 dram=0 wr=125
\
a100/spmm_bucketed[zero_fill]: flops=0 req=14400 hit=0 miss=0 wr=450 wb=450 atom=0 warps=8
\
a100/spmm_bucketed[rows 1-2]: flops=90 req=846 hit=12 miss=79 wr=33 wb=33 atom=0 warps=8
\
a100/spmm_bucketed[rows 3-4]: flops=204 req=1380 hit=72 miss=72 wr=30 wb=30 atom=0 warps=8
\
a100/spmm_bucketed[rows 5-8]: flops=804 req=4776 hit=401 miss=89 wr=63 wb=60 atom=0 warps=8
\
a100/spmm_bucketed[rows 9-16]: flops=3198 req=17574 hit=1434 miss=191 wr=132 wb=117 atom=0 warps=24
\
a100/spmm_bucketed[rows 17-32]: flops=14352 req=75360 hit=5776 miss=536 wr=300 wb=231 atom=0 warps=104
\
a100/spmm_bucketed[rows 33+]: flops=63768 req=327048 hit=20407 miss=1839 wr=684 wb=384 atom=0 warps=232
\
a100/spmm_bucketed: flops=82416 req=441384 hit=28102 miss=2806 wr=1692 wb=1305 atom=0 warps=392
\
a100/spmm_bucketed.row_ptr: rd=815 dram=76 wr=0
\
a100/spmm_bucketed.col_idx: rd=2272 dram=1717 wr=0
\
a100/spmm_bucketed.values: rd=1454 dram=859 wr=0
\
a100/spmm_bucketed.x0: rd=8669 dram=33 wr=0
\
a100/spmm_bucketed.x1: rd=8669 dram=33 wr=0
\
a100/spmm_bucketed.x2: rd=8669 dram=33 wr=0
\
a100/spmm_bucketed.y0: rd=0 dram=0 wr=564
\
a100/spmm_bucketed.y1: rd=0 dram=0 wr=564
\
a100/spmm_bucketed.y2: rd=0 dram=0 wr=564
\
a100/ginkgo: flops=3178 req=27468 hit=3828 miss=500 wr=700 wb=88 atom=0 warps=96
\
a100/ginkgo.row_ptr: rd=1400 dram=88 wr=0
\
a100/ginkgo.col_idx: rd=735 dram=199 wr=0
\
a100/ginkgo.values: rd=735 dram=199 wr=0
\
a100/ginkgo.x: rd=1458 dram=14 wr=0
\
a100/ginkgo.y: rd=0 dram=0 wr=700
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
smallL2/tiled4: flops=10636 req=81952 hit=7384 miss=1106 wr=150 wb=150 atom=0 warps=80
\
smallL2/tiled4.row_ptr: rd=150 dram=76 wr=0
\
smallL2/tiled4.col_idx: rd=1961 dram=665 wr=0
\
smallL2/tiled4.values: rd=1735 dram=333 wr=0
\
smallL2/tiled4.x: rd=4644 dram=32 wr=0
\
smallL2/tiled4.y: rd=0 dram=0 wr=150
\
smallL2/tiled16: flops=10636 req=82852 hit=5794 miss=1106 wr=300 wb=150 atom=0 warps=304
\
smallL2/tiled16.row_ptr: rd=375 dram=76 wr=0
\
smallL2/tiled16.col_idx: rd=1169 dram=665 wr=0
\
smallL2/tiled16.values: rd=868 dram=333 wr=0
\
smallL2/tiled16.x: rd=4488 dram=32 wr=0
\
smallL2/tiled16.y: rd=0 dram=0 wr=300
\
smallL2/spmm32x3: flops=56592 req=298960 hit=22051 miss=1937 wr=1500 wb=375 atom=0 warps=512
\
smallL2/spmm32x3.row_ptr: rd=1000 dram=63 wr=0
\
smallL2/spmm32x3.col_idx: rd=1616 dram=1179 wr=0
\
smallL2/spmm32x3.values: rd=1059 dram=590 wr=0
\
smallL2/spmm32x3.x0: rd=6771 dram=35 wr=0
\
smallL2/spmm32x3.x1: rd=6771 dram=35 wr=0
\
smallL2/spmm32x3.x2: rd=6771 dram=35 wr=0
\
smallL2/spmm32x3.y0: rd=0 dram=0 wr=500
\
smallL2/spmm32x3.y1: rd=0 dram=0 wr=500
\
smallL2/spmm32x3.y2: rd=0 dram=0 wr=500
\
smallL2/spmm8x3: flops=56592 req=297460 hit=23519 miss=1937 wr=375 wb=375 atom=0 warps=128
\
smallL2/spmm8x3.row_ptr: rd=187 dram=63 wr=0
\
smallL2/spmm8x3.col_idx: rd=2366 dram=1179 wr=0
\
smallL2/spmm8x3.values: rd=1855 dram=590 wr=0
\
smallL2/spmm8x3.x0: rd=7016 dram=35 wr=0
\
smallL2/spmm8x3.x1: rd=7016 dram=35 wr=0
\
smallL2/spmm8x3.x2: rd=7016 dram=35 wr=0
\
smallL2/spmm8x3.y0: rd=0 dram=0 wr=125
\
smallL2/spmm8x3.y1: rd=0 dram=0 wr=125
\
smallL2/spmm8x3.y2: rd=0 dram=0 wr=125
\
smallL2/spmm_bucketed[zero_fill]: flops=0 req=14400 hit=0 miss=0 wr=450 wb=450 atom=0 warps=8
\
smallL2/spmm_bucketed[rows 1-2]: flops=90 req=846 hit=12 miss=79 wr=33 wb=33 atom=0 warps=8
\
smallL2/spmm_bucketed[rows 3-4]: flops=204 req=1380 hit=72 miss=72 wr=30 wb=30 atom=0 warps=8
\
smallL2/spmm_bucketed[rows 5-8]: flops=804 req=4776 hit=391 miss=99 wr=63 wb=60 atom=0 warps=8
\
smallL2/spmm_bucketed[rows 9-16]: flops=3198 req=17574 hit=1402 miss=223 wr=132 wb=117 atom=0 warps=24
\
smallL2/spmm_bucketed[rows 17-32]: flops=14352 req=75360 hit=5643 miss=669 wr=300 wb=231 atom=0 warps=104
\
smallL2/spmm_bucketed[rows 33+]: flops=63768 req=327048 hit=19980 miss=2266 wr=684 wb=384 atom=0 warps=232
\
smallL2/spmm_bucketed: flops=82416 req=441384 hit=27500 miss=3408 wr=1692 wb=1305 atom=0 warps=392
\
smallL2/spmm_bucketed.row_ptr: rd=815 dram=213 wr=0
\
smallL2/spmm_bucketed.col_idx: rd=2272 dram=1934 wr=0
\
smallL2/spmm_bucketed.values: rd=1454 dram=1088 wr=0
\
smallL2/spmm_bucketed.x0: rd=8669 dram=39 wr=0
\
smallL2/spmm_bucketed.x1: rd=8669 dram=40 wr=0
\
smallL2/spmm_bucketed.x2: rd=8669 dram=39 wr=0
\
smallL2/spmm_bucketed.y0: rd=0 dram=0 wr=564
\
smallL2/spmm_bucketed.y1: rd=0 dram=0 wr=564
\
smallL2/spmm_bucketed.y2: rd=0 dram=0 wr=564
\
smallL2/ginkgo: flops=3178 req=27468 hit=3828 miss=500 wr=700 wb=88 atom=0 warps=96
\
smallL2/ginkgo.row_ptr: rd=1400 dram=88 wr=0
\
smallL2/ginkgo.col_idx: rd=735 dram=199 wr=0
\
smallL2/ginkgo.values: rd=735 dram=199 wr=0
\
smallL2/ginkgo.x: rd=1458 dram=14 wr=0
\
smallL2/ginkgo.y: rd=0 dram=0 wr=700
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
