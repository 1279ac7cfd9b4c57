//! `rtdose` — command-line front end: generate dose deposition matrices,
//! inspect their structure, run the SpMV kernels on a simulated GPU, and
//! optimize a plan. A thin shell over the library crates; argument
//! parsing is hand-rolled to keep the dependency set at the workspace
//! baseline.
//!
//! ```text
//! rtdose info
//! rtdose generate --case prostate --beam 0 --shrink 8 --out beam.rtdm
//! rtdose stats    --matrix beam.rtdm
//! rtdose spmv     --matrix beam.rtdm --device a100 --kernel half-double --tpb 512 --tile auto
//! rtdose kernels  beam.rtdm
//! rtdose optimize --case prostate --shrink 16 --iters 30
//! rtdose serve-demo --requests 120 --shrink 24 --tile auto
//! ```

use rtdose::dose::cases::{liver_case, prostate_case, DoseCase, ScaleConfig};
use rtdose::engine::{Engine, EngineReport, ExecPolicy, ReplicaSpec, RequestKind, ShardSpec};
use rtdose::f16::{DoseScalar, F16};
use rtdose::gpusim::{
    DeviceBuffer, DeviceGroup, DeviceOutBuffer, DeviceSpec, Gpu, GroupReport, KernelProfile,
    KernelStats, ShardedReport,
};
use rtdose::kernels::{
    bucketed_group_report, heuristic_width, profile_baseline, profile_half_double, profile_single,
    rs_baseline_gpu_spmv, select_per_shard, vector_csr_spmv, vector_csr_spmv_bucketed,
    vector_csr_spmv_sharded, vector_csr_spmv_tiled, BucketChoice, BucketWidths, GpuCsrMatrix,
    GpuRowPlan, GpuRsMatrix, KernelChoice, KernelSelect, PartitionStrategy, ShardDispatch,
    VecScalar, TILE_WIDTHS,
};
use rtdose::optim::{optimize, GpuDoseEngine, Objective, ObjectiveTerm, OptimizerConfig};
use rtdose::sparse::stats::{MatrixSummary, RowStats};
use rtdose::sparse::{
    load_csr, save_csr, save_csr_with_cuts, Csr, RowPlan, RsCompressed, ShardPlan,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "rtdose — radiation-therapy dose calculation toolbox\n\
         \n\
         USAGE:\n\
           rtdose info\n\
           rtdose generate --case <liver|prostate> [--beam N] [--shrink S] --out FILE\n\
                           [--shards K]        (embed K nnz-balanced shard cuts in the snapshot)\n\
           rtdose stats    --matrix FILE\n\
           rtdose spmv     --matrix FILE [--device a100|v100|p100]\n\
                           [--kernel half-double|single|baseline] [--tpb N] [--repeat N]\n\
                           [--tile auto|2|4|8|16|32] [--partition heuristic|probe]\n\
                           [--shards auto|K]   (K-device pool, one row shard each; auto = 3)\n\
           rtdose kernels  FILE [--device a100|v100|p100] [--tpb N]\n\
           rtdose optimize --case <liver|prostate> [--shrink S] [--iters N]\n\
           rtdose serve-demo [--requests N] [--shrink S] [--submitters N] [--devices N]\n\
                           [--tile auto|2|4|8|16|32] [--partition heuristic|probe]\n\
                           [--shards auto|K]   (K row shards per replica group; auto = break-even model)\n\
                           [--replicas auto|R] (R replica groups over the pool; auto = pool/K)\n\
                           [--drain-after N]   (drain the last pool device once N requests\n\
                           \u{20}                   completed; every plan re-deals over the rest)\n\
         \n\
         Matrices are stored as RTDM snapshots (binary16 values, u32 indices)."
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 >= args.len() {
                eprintln!("missing value for --{name}");
                usage();
            }
            flags.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            eprintln!("unexpected argument: {a}");
            usage();
        }
    }
    flags
}

/// Parses the numeric flag `--name`: `Ok(None)` when it is absent, an
/// error message when its value does not parse as a `T`.
fn parse_num<T: FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flags
        .get(name)
        .map(|s| {
            s.parse()
                .map_err(|e| format!("--{name} expects a number, got {s:?} ({e})"))
        })
        .transpose()
}

/// [`parse_num`] for command handlers: a bad value prints the error and
/// the usage text instead of panicking.
fn num_flag<T: FromStr>(flags: &HashMap<String, String>, name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    parse_num(flags, name).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

/// `--tile`: `None` means auto (let the autotuner pick), `Some(w)` pins
/// a validated width.
fn parse_tile(flags: &HashMap<String, String>) -> Option<u32> {
    match flags.get("tile").map(String::as_str) {
        None | Some("auto") => None,
        Some(s) => match s.parse::<u32>() {
            Ok(w) if TILE_WIDTHS.contains(&w) => Some(w),
            _ => {
                eprintln!("--tile must be auto, 2, 4, 8, 16 or 32 (got {s})");
                usage();
            }
        },
    }
}

/// `--partition`: `None` means whole-matrix dispatch, `Some(strategy)`
/// routes rows through the bucketed row-partition plan. Mutually
/// exclusive with a pinned `--tile` width (the partition picks a width
/// per bucket).
fn parse_partition(flags: &HashMap<String, String>) -> Option<PartitionStrategy> {
    let strategy = match flags.get("partition").map(String::as_str) {
        None => return None,
        Some("heuristic") => PartitionStrategy::Heuristic,
        Some("probe") => PartitionStrategy::MeasuredProbe,
        Some(s) => {
            eprintln!("--partition must be heuristic or probe (got {s})");
            usage();
        }
    };
    if flags.contains_key("tile") {
        eprintln!("--partition and --tile are mutually exclusive (the partition picks a width per bucket)");
        usage();
    }
    Some(strategy)
}

/// `--shards`: `None` disables sharding, `Some(None)` means auto (match
/// the pool size), `Some(Some(k))` pins the shard count.
fn parse_shards(flags: &HashMap<String, String>) -> Option<Option<usize>> {
    match flags.get("shards").map(String::as_str) {
        None => None,
        Some("auto") => Some(None),
        Some(s) => match s.parse::<usize>() {
            Ok(k) if k >= 1 => Some(Some(k)),
            _ => {
                eprintln!("--shards must be auto or a positive integer (got {s})");
                usage();
            }
        },
    }
}

/// serve-demo `--shards`: maps 1:1 onto [`ShardSpec`] — absent means
/// no sharding, `auto` defers to the break-even model at registration,
/// an integer forces the per-group shard count.
fn parse_shard_spec(flags: &HashMap<String, String>) -> ShardSpec {
    match parse_shards(flags) {
        None => ShardSpec::Off,
        Some(None) => ShardSpec::Auto,
        Some(Some(k)) => ShardSpec::Fixed(k),
    }
}

/// serve-demo `--replicas`: maps 1:1 onto [`ReplicaSpec`] — absent or
/// `auto` derives the group count from the resolved shard count, an
/// integer forces it.
fn parse_replicas(flags: &HashMap<String, String>) -> ReplicaSpec {
    match flags.get("replicas").map(String::as_str) {
        None | Some("auto") => ReplicaSpec::Auto,
        Some(s) => match s.parse::<usize>() {
            Ok(r) if r >= 1 => ReplicaSpec::Fixed(r),
            _ => {
                eprintln!("--replicas must be auto or a positive integer (got {s})");
                usage();
            }
        },
    }
}

fn device(name: &str) -> DeviceSpec {
    match name {
        "a100" => DeviceSpec::a100(),
        "v100" => DeviceSpec::v100(),
        "p100" => DeviceSpec::p100(),
        other => {
            eprintln!("unknown device: {other} (expected a100, v100 or p100)");
            usage();
        }
    }
}

fn generate_case(flags: &HashMap<String, String>) -> DoseCase {
    let shrink: f64 = num_flag(flags, "shrink").unwrap_or(8.0);
    let beam: usize = num_flag(flags, "beam").unwrap_or(0);
    let scale = ScaleConfig {
        shrink: shrink.max(1.0),
    };
    let mut cases = match flags.get("case").map(String::as_str) {
        Some("liver") => liver_case(scale),
        Some("prostate") => prostate_case(scale),
        _ => {
            eprintln!("--case must be liver or prostate");
            usage();
        }
    };
    if beam >= cases.len() {
        eprintln!("--beam {beam} out of range ({} beams)", cases.len());
        std::process::exit(2);
    }
    cases.swap_remove(beam)
}

fn cmd_info() {
    println!("devices:");
    for d in [DeviceSpec::a100(), DeviceSpec::v100(), DeviceSpec::p100()] {
        println!(
            "  {:<5} {:>3} SMs  {:>5.0} GB/s DRAM  {:>4.1} TF fp64  {:>3} MB L2",
            d.name,
            d.sm_count,
            d.dram_bw / 1e9,
            d.peak_f64 / 1e12,
            d.l2_bytes >> 20,
        );
    }
    println!("\ncases (at --shrink 1, the default experiment scale):");
    println!("  liver    — 4 beams (gantry 270/0/90/180), Table I rows 1-4");
    println!("  prostate — 2 parallel-opposed beams, Table I rows 5-6");
    println!("\npaper artifacts: cargo run --release -p rt-bench --bin repro_all");
}

fn cmd_generate(flags: HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("generate requires --out FILE");
        usage();
    };
    let t0 = std::time::Instant::now();
    let case = generate_case(&flags);
    let m16: Csr<F16, u32> = case.matrix.convert_values();
    let mut file = std::fs::File::create(out).expect("create output file");
    // --shards K embeds the nnz-balanced cut points in the snapshot (v2
    // container) so `register_plan_snapshot` cold starts reuse them
    // instead of re-sharding the full CSR.
    let cuts = match parse_shards(&flags) {
        None => None,
        Some(None) => {
            eprintln!("generate needs an explicit shard count (got --shards auto)");
            usage();
        }
        Some(Some(k)) => Some(ShardPlan::build(&m16, k).cut_points()),
    };
    match &cuts {
        Some(c) => save_csr_with_cuts(&m16, c, &mut file).expect("write snapshot"),
        None => save_csr(&m16, &mut file).expect("write snapshot"),
    }
    println!(
        "{}: {} voxels x {} spots, {} non-zeros -> {} ({} bytes, {:.1?})",
        case.name,
        m16.nrows(),
        m16.ncols(),
        m16.nnz(),
        out,
        m16.size_bytes(),
        t0.elapsed()
    );
    if let Some(c) = cuts {
        println!("  embedded {} shard cut point(s) at rows {:?}", c.len(), c);
    }
}

fn load_matrix(flags: &HashMap<String, String>) -> Csr<F16, u32> {
    let Some(path) = flags.get("matrix") else {
        eprintln!("missing --matrix FILE");
        usage();
    };
    let mut f = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    load_csr(&mut f).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        std::process::exit(1);
    })
}

fn cmd_stats(flags: HashMap<String, String>) {
    let m = load_matrix(&flags);
    let summary = MatrixSummary::from_csr("matrix", &m);
    let stats = RowStats::from_csr(&m);
    println!("rows        : {}", summary.rows);
    println!("cols        : {}", summary.cols);
    println!("non-zeros   : {}", summary.nnz);
    println!("density     : {:.3}%", summary.nonzero_ratio_pct);
    println!("size (f16 + u32 CSR): {:.6} GB", summary.size_gb);
    println!("empty rows  : {:.1}%", stats.empty_fraction() * 100.0);
    println!("avg nnz per non-empty row: {:.1}", stats.avg_nnz_nonempty);
    println!(
        "non-empty rows < 32 nnz  : {:.1}%",
        stats.frac_nonempty_below_warp * 100.0
    );
    println!("max row length           : {}", stats.max_row_len);
    println!("\ncumulative row-length histogram (non-empty rows):");
    for (x, frac) in stats.cumulative_curve(12) {
        println!(
            "  < {:>6}: {:>5.1}%  {}",
            x,
            frac * 100.0,
            "#".repeat((frac * 40.0) as usize)
        );
    }
}

/// Autotunes the per-bucket widths, runs the bucketed dispatch `repeat`
/// times (cold cache between repeats, like the whole-matrix path) and
/// assembles the fused group report.
#[allow(clippy::too_many_arguments)]
fn run_partitioned_spmv<V: DoseScalar, X: VecScalar>(
    gpu: &Gpu,
    dev: &DeviceSpec,
    m: &Csr<V, u32>,
    gm: &GpuCsrMatrix<V, u32>,
    x: &DeviceBuffer<X>,
    y: &DeviceOutBuffer<X>,
    tpb: u32,
    repeat: usize,
    strategy: PartitionStrategy,
    profile: &KernelProfile,
) -> (KernelStats, GroupReport, &'static str, Arc<RowPlan>) {
    let choice = KernelSelect::Partitioned(strategy)
        .choose(dev, m, tpb)
        .expect("partitioned selection cannot fail on a loaded snapshot");
    let widths = choice.bucket_widths();
    let plan = Arc::new(RowPlan::from_csr(m));
    let gplan = GpuRowPlan::upload(gpu, plan.clone());
    let mut g = vector_csr_spmv_bucketed(gpu, gm, x, y, tpb, &gplan, widths);
    for _ in 1..repeat {
        gpu.reset_cache();
        g = vector_csr_spmv_bucketed(gpu, gm, x, y, tpb, &gplan, widths);
    }
    let report = bucketed_group_report(dev, profile, &plan, &g);
    (g.merged, report, choice.mode, plan)
}

/// `--shards K`: the snapshot is split into K nnz-balanced row ranges
/// and executed cooperatively on a pool of K identical devices, one
/// shard resident per device. Widths are pinned from the *whole* matrix
/// before the split, so the merged dose is bitwise identical to the
/// unsharded kernel — the table shows where the pool's modeled time goes
/// (per-shard compute plus the interconnect gather of its rows).
fn run_sharded_spmv(
    m: &Csr<F16, u32>,
    dev: &DeviceSpec,
    tpb: u32,
    k: usize,
    kernel: &str,
    dispatch: ShardDispatch,
) {
    let t0 = std::time::Instant::now();
    let report: ShardedReport = match kernel {
        "half-double" => {
            let plan = ShardPlan::build(m, k);
            let group = DeviceGroup::new(vec![dev.clone(); plan.num_shards()]);
            let sm = rtdose::kernels::ShardedCsr::upload(&group, &plan);
            let x = vec![1.0f64; m.ncols()];
            let (_, rep) =
                vector_csr_spmv_sharded(&group, &sm, &x, tpb, dispatch, &profile_half_double())
                    .expect("sharded dispatch cannot fail on a validated width");
            rep
        }
        "single" => {
            let m32: Csr<f32, u32> = m.convert_values();
            let plan = ShardPlan::build(&m32, k);
            let group = DeviceGroup::new(vec![dev.clone(); plan.num_shards()]);
            let sm = rtdose::kernels::ShardedCsr::upload(&group, &plan);
            let x = vec![1.0f32; m.ncols()];
            let (_, rep) =
                vector_csr_spmv_sharded(&group, &sm, &x, tpb, dispatch, &profile_single())
                    .expect("sharded dispatch cannot fail on a validated width");
            rep
        }
        other => {
            eprintln!("--shards applies to the vector kernels only (got --kernel {other})");
            usage();
        }
    };

    println!(
        "kernel {kernel} sharded {}x on {} x{} ({} threads/block), sim wall time {:.2?}",
        report.shards.len(),
        dev.name,
        report.shards.len(),
        tpb,
        t0.elapsed()
    );
    println!(
        "  {:<6} {:<7} {:>16} {:>12} {:>10} {:>12} {:>11}",
        "shard", "device", "rows [start..)", "nnz", "dispatch", "modeled us", "gather us"
    );
    for s in &report.shards {
        println!(
            "  {:<6} {:<7} {:>7}..{:<8} {:>12} {:>10} {:>12.3} {:>11.3}",
            s.shard,
            s.device,
            s.row_start,
            s.row_start + s.rows,
            s.nnz,
            s.dispatch,
            s.estimate.seconds * 1e6,
            s.gather_seconds * 1e6
        );
    }
    let serial: f64 = report.shards.iter().map(|s| s.estimate.seconds).sum();
    println!(
        "  critical path        : {:.3} ms (max over shards of compute + gather)",
        report.modeled_seconds * 1e3
    );
    println!(
        "  gather traffic       : {} bytes over the pool interconnect",
        report.gather_bytes
    );
    println!(
        "  speedup vs serialized: {:.2}x (sum of shard computes / critical path)",
        serial / report.modeled_seconds
    );
}

fn cmd_spmv(flags: HashMap<String, String>) {
    let m = load_matrix(&flags);
    let dev = device(flags.get("device").map(String::as_str).unwrap_or("a100"));
    let tpb: u32 = num_flag(&flags, "tpb").unwrap_or(512);
    let repeat: usize = num_flag(&flags, "repeat").unwrap_or(2);
    let kernel = flags
        .get("kernel")
        .map(String::as_str)
        .unwrap_or("half-double");
    let partition = parse_partition(&flags);
    // Resolve the tile width for the whole-matrix vector kernels: a
    // pinned --tile value, or the statistics heuristic on auto (the same
    // rule serving plans default to). The baseline kernel has no tiled
    // variant, and a --partition run picks its widths per bucket instead.
    let (tile, tile_mode) = if partition.is_some() {
        (32, "partitioned")
    } else {
        match parse_tile(&flags) {
            Some(w) => (w, "fixed"),
            None => {
                let choice = KernelSelect::Heuristic
                    .choose(&dev, &m, tpb)
                    .expect("heuristic selection cannot fail");
                (choice.tile_width, "auto/heuristic")
            }
        }
    };

    if let Some(k) = parse_shards(&flags) {
        let dispatch = match partition {
            Some(strategy) => ShardDispatch::Bucketed(
                KernelSelect::Partitioned(strategy)
                    .choose(&dev, &m, tpb)
                    .expect("partitioned selection cannot fail on a loaded snapshot")
                    .bucket_widths(),
            ),
            None => ShardDispatch::Fixed(tile),
        };
        run_sharded_spmv(&m, &dev, tpb, k.unwrap_or(3), kernel, dispatch);
        return;
    }

    let weights = vec![1.0f64; m.ncols()];
    let gpu = Gpu::new(dev.clone());
    // Cold-cache measurement: a snapshot-sized matrix can fit in the
    // full device L2, which a clinical matrix never would. Invalidate
    // between repeats so the matrix streams like the real workload.
    let t0 = std::time::Instant::now();
    let mut group: Option<(GroupReport, &'static str, Arc<RowPlan>)> = None;
    let (stats, profile) = match kernel {
        "half-double" => {
            let gm = GpuCsrMatrix::upload(&gpu, &m);
            let x = gpu.upload(&weights);
            let y = gpu.alloc_out::<f64>(m.nrows());
            let profile = profile_half_double();
            if let Some(strategy) = partition {
                let (s, rep, mode, plan) = run_partitioned_spmv(
                    &gpu, &dev, &m, &gm, &x, &y, tpb, repeat, strategy, &profile,
                );
                group = Some((rep, mode, plan));
                (s, profile)
            } else {
                let run = || {
                    if tile == 32 {
                        vector_csr_spmv(&gpu, &gm, &x, &y, tpb)
                    } else {
                        vector_csr_spmv_tiled(&gpu, &gm, &x, &y, tpb, tile)
                    }
                };
                let mut s = run();
                for _ in 1..repeat {
                    gpu.reset_cache();
                    s = run();
                }
                (s, profile)
            }
        }
        "single" => {
            let m32: Csr<f32, u32> = m.convert_values();
            let gm = GpuCsrMatrix::upload(&gpu, &m32);
            let w32: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
            let x = gpu.upload(&w32);
            let y = gpu.alloc_out::<f32>(m.nrows());
            let profile = profile_single();
            if let Some(strategy) = partition {
                let (s, rep, mode, plan) = run_partitioned_spmv(
                    &gpu, &dev, &m32, &gm, &x, &y, tpb, repeat, strategy, &profile,
                );
                group = Some((rep, mode, plan));
                (s, profile)
            } else {
                let run = || {
                    if tile == 32 {
                        vector_csr_spmv(&gpu, &gm, &x, &y, tpb)
                    } else {
                        vector_csr_spmv_tiled(&gpu, &gm, &x, &y, tpb, tile)
                    }
                };
                let mut s = run();
                for _ in 1..repeat {
                    gpu.reset_cache();
                    s = run();
                }
                (s, profile)
            }
        }
        "baseline" => {
            if partition.is_some() {
                eprintln!("--partition applies to the vector kernels only (baseline has no bucketed variant)");
                usage();
            }
            let rs = RsCompressed::from_csr(&m);
            let gm = GpuRsMatrix::upload(&gpu, &rs);
            let x = gpu.upload(&weights);
            let y = gpu.alloc_out::<f64>(m.nrows());
            let mut s = rs_baseline_gpu_spmv(&gpu, &gm, &x, &y, tpb);
            for _ in 1..repeat {
                y.clear();
                gpu.reset_cache();
                s = rs_baseline_gpu_spmv(&gpu, &gm, &x, &y, tpb);
            }
            (s, profile_baseline())
        }
        other => {
            eprintln!("unknown kernel: {other}");
            usage();
        }
    };
    let est = rtdose::gpusim::timing::estimate(&dev, &profile, &stats);

    println!(
        "kernel {kernel} on {} ({} threads/block), sim wall time {:.2?}",
        dev.name,
        tpb,
        t0.elapsed()
    );
    if let Some((_, mode, plan)) = &group {
        println!(
            "  partition            : {mode} ({} of {} rows empty, eliminated)",
            plan.empty_rows(),
            plan.nrows()
        );
    } else if kernel != "baseline" {
        println!("  tile width           : {tile} ({tile_mode})");
    } else if flags.contains_key("tile") {
        println!("  tile width           : ignored (baseline kernel has no tiled variant)");
    }
    println!("  flops                : {}", stats.flops);
    println!(
        "  DRAM read / write    : {} / {} bytes",
        stats.dram_read_bytes, stats.dram_write_bytes
    );
    println!(
        "  L2 hit rate          : {:.1}%",
        stats.l2_hit_rate() * 100.0
    );
    println!("  atomics              : {}", stats.atomic_ops);
    println!(
        "  operational intensity: {:.3} flop/byte",
        stats.operational_intensity()
    );
    println!("  modeled time         : {:.3} ms", est.seconds * 1e3);
    println!("  modeled performance  : {:.1} GFLOP/s", est.gflops);
    println!(
        "  modeled bandwidth    : {:.0} GB/s ({:.0}% of {} peak)",
        est.dram_bw_gbps,
        est.frac_peak_bw * 100.0,
        dev.name
    );
    if let Some((rep, _, _)) = &group {
        println!(
            "\n  fused dispatch ({} members, one launch overhead):",
            rep.buckets.len()
        );
        println!(
            "  {:<12} {:>6} {:>10} {:>13} {:>12}",
            "member", "width", "rows", "lanes active", "modeled us"
        );
        for b in &rep.buckets {
            println!(
                "  {:<12} {:>6} {:>10} {:>12.1}% {:>12.3}",
                b.label,
                b.tile_width,
                b.rows,
                b.lanes_active_frac * 100.0,
                b.estimate.seconds * 1e6
            );
        }
    }
}

/// A bucket's inclusive row-length range: `min-max`, or `min+` when
/// open-ended.
fn bucket_range(bc: &BucketChoice) -> String {
    if bc.max_len == u32::MAX {
        format!("{}+", bc.min_len)
    } else {
        format!("{}-{}", bc.min_len, bc.max_len)
    }
}

/// Prints a partitioned choice's populated buckets: row-length range,
/// rows, nnz, the natural width, the probe's pick, and true lane
/// occupancy. Shared by the dose and gradient (transpose) tables.
fn print_bucket_table(choice: &KernelChoice) {
    println!("  bucket            rows          nnz   natural   probe   lanes active");
    let natural = BucketWidths::natural();
    for bc in &choice.buckets {
        if bc.rows == 0 {
            continue;
        }
        println!(
            "  rows {:<8} {:>9} {:>12} {:>9} {:>7} {:>13.1}%",
            bucket_range(bc),
            bc.rows,
            bc.nnz,
            format!("w{}", natural.0[bc.bucket]),
            format!("w{}", bc.tile_width),
            bc.lanes_active_frac * 100.0
        );
    }
}

/// Prints the autotuner's full decision table for one snapshot: every
/// candidate width probed on a throwaway `Sequential` simulator, plus
/// what the statistics heuristic and the measured probe each pick.
fn cmd_kernels(args: &[String]) {
    // Accept the snapshot either positionally (`rtdose kernels beam.rtdm`)
    // or as --matrix FILE like the other subcommands.
    let (path, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
        _ => (None, args),
    };
    let mut flags = parse_flags(rest);
    if let Some(p) = path {
        flags.insert("matrix".to_string(), p);
    }
    let m = load_matrix(&flags);
    let dev = device(flags.get("device").map(String::as_str).unwrap_or("a100"));
    let tpb: u32 = num_flag(&flags, "tpb").unwrap_or(512);

    let stats = RowStats::from_csr(&m);
    println!(
        "{} voxels x {} spots, {} non-zeros on {} ({} threads/block)",
        m.nrows(),
        m.ncols(),
        m.nnz(),
        dev.name,
        tpb
    );
    println!(
        "avg nnz per non-empty row {:.1}, 95th percentile {}, {:.1}% empty rows\n",
        stats.avg_nnz_nonempty,
        stats.quantile(0.95),
        stats.empty_fraction() * 100.0
    );

    let choice = KernelSelect::MeasuredProbe
        .choose(&dev, &m, tpb)
        .expect("probe cannot fail on a loaded snapshot");
    let heuristic = heuristic_width(&stats);
    println!("  width      warps   L2 sectors   modeled us   lanes active");
    for c in &choice.candidates {
        let marks = match (c.tile_width == choice.tile_width, c.tile_width == heuristic) {
            (true, true) => "  <- probe + heuristic pick",
            (true, false) => "  <- probe pick",
            (false, true) => "  <- heuristic pick",
            (false, false) => "",
        };
        println!(
            "  {:>5} {:>10} {:>12} {:>12.3} {:>13.1}%{}",
            c.tile_width,
            c.warps,
            c.l2_sectors,
            c.modeled_seconds * 1e6,
            c.lanes_active_frac * 100.0,
            marks
        );
    }
    println!(
        "\nheuristic (stats only) picks w{heuristic}; measured probe picks w{} — \
         serving plans default to the heuristic",
        choice.tile_width
    );

    // The row-partitioned alternative: what --partition probe would run.
    // Empty rows are dropped from the partition outright, so they never
    // appear in any bucket (or in its lane-occupancy figure).
    let part = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe)
        .choose(&dev, &m, tpb)
        .expect("partitioned probe cannot fail on a loaded snapshot");
    println!(
        "\nrow-partitioned dispatch (--partition probe): {} empty rows eliminated",
        stats.empty_rows
    );
    print_bucket_table(&part);

    // The gradient direction: the same partitioned probe run on the
    // transpose (one beamlet per row — what every backward pass `Aᵀ r`
    // executes). Widths are pinned from the whole transpose before any
    // shard split, so this table is exactly what gradient requests run
    // at, regardless of placement.
    let t = m.transpose();
    let t_stats = RowStats::from_csr(&t);
    let grad = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe)
        .choose(&dev, &t, tpb)
        .expect("partitioned probe cannot fail on a loaded snapshot");
    println!(
        "\ngradient (transpose) dispatch: {} beamlet rows, {:.1}% empty — {} eliminated",
        t.nrows(),
        t_stats.empty_fraction() * 100.0,
        t_stats.empty_rows
    );
    print_bucket_table(&grad);
    println!(
        "whole-transpose width (unpartitioned gradients): w{}",
        grad.tile_width
    );

    // The row-sharded alternative: what `serve-demo --shards 3` places
    // on the paper's mixed A100+V100+P100 pool. Cut points are weighted
    // by each home device's modeled DRAM bandwidth, so the balance
    // factor below is *throughput*-weighted (max over shards of
    // nnz-share / bandwidth-share): 1.00 means every device finishes
    // its shard at the same modeled instant, which raw nnz balance gets
    // wrong whenever the pool is mixed. Dispatch still pins the
    // whole-matrix widths before the split; the per-shard autotuner
    // verdicts below are evidence of what each shard *would* pick in
    // isolation — any delta is the price of keeping sharded doses
    // bitwise identical to unsharded ones.
    let pool = [DeviceSpec::a100(), DeviceSpec::v100(), DeviceSpec::p100()];
    let weights: Vec<f64> = pool.iter().map(|d| d.effective_dram_bw()).collect();
    let plan = ShardPlan::build_weighted(&m, &weights);
    let group = DeviceGroup::new(pool.to_vec());
    let shard_sel = select_per_shard(
        &KernelSelect::Partitioned(PartitionStrategy::Heuristic),
        &group,
        &plan,
        tpb,
    )
    .expect("per-shard selection cannot fail on a loaded snapshot");
    println!(
        "\nrow-sharded dispatch (--shards 3 on {}): throughput-weighted row ranges",
        pool.iter().map(|d| d.name).collect::<Vec<_>>().join("+")
    );
    println!(
        "  balance factor: {:.2} throughput-weighted ({:.2} by raw nnz share)",
        plan.balance_factor_weighted(&weights),
        plan.balance_factor()
    );
    println!("  shard    rows [start..)          nnz   solo pick   solo buckets      gather us");
    for s in &shard_sel {
        let buckets: Vec<String> = s
            .choice
            .buckets
            .iter()
            .filter(|b| b.rows > 0)
            .map(|b| format!("w{}", b.tile_width))
            .collect();
        println!(
            "  {:>5} {:>9}..{:<9} {:>12}   {:<9} {:<17} {:>9.3}",
            s.shard,
            s.row_start,
            s.row_start + s.rows,
            s.nnz,
            format!("w{}", s.choice.tile_width),
            buckets.join(" "),
            s.gather_seconds * 1e6
        );
    }
    let gather: u64 = shard_sel.iter().map(|s| s.gather_bytes).sum();
    println!("modeled gather traffic: {gather} bytes (non-empty rows x 8, per result vector)");
}

fn cmd_optimize(flags: HashMap<String, String>) {
    let iters: usize = num_flag(&flags, "iters").unwrap_or(30);
    let case = generate_case(&flags);
    let matrix = case.matrix.clone();
    let probe = {
        let mut d = vec![0.0; matrix.nrows()];
        matrix.spmv_ref(&vec![1.0; matrix.ncols()], &mut d).unwrap();
        d
    };
    let peak = probe.iter().cloned().fold(0.0, f64::max);
    let target: Vec<usize> = (0..probe.len())
        .filter(|&i| probe[i] > 0.5 * peak)
        .collect();
    println!(
        "{}: {} voxels x {} spots, target {} voxels",
        case.name,
        matrix.nrows(),
        matrix.ncols(),
        target.len()
    );

    let objective = Objective::new(vec![ObjectiveTerm::UniformDose {
        voxels: target,
        prescribed: 0.7 * peak,
        weight: 1.0,
    }]);
    let engine = GpuDoseEngine::with_scales(
        DeviceSpec::a100(),
        &matrix,
        case.extrapolation(),
        case.paper.rows / matrix.nrows() as f64,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot build dose engine: {e}");
        std::process::exit(1);
    });
    let result = optimize(
        &engine,
        &objective,
        &vec![0.2; matrix.ncols()],
        &OptimizerConfig {
            max_iters: iters,
            ..Default::default()
        },
    );
    for log in result.history.iter().step_by((iters / 10).max(1)) {
        println!(
            "  iter {:>3}  objective {:.6}  |pg| {:.2e}",
            log.iter, log.objective, log.projected_grad_norm
        );
    }
    println!(
        "done: objective {:.6} after {} dose calculations; modeled GPU kernel time {:.1} ms",
        result.objective,
        result.dose_evals,
        result.modeled_dose_seconds * 1e3
    );
}

/// Prints one serve-demo bucket row per populated bucket of `choice`,
/// each labelled `{prefix}bucket`.
fn print_plan_buckets(prefix: &str, choice: &KernelChoice) {
    for bc in choice.buckets.iter().filter(|b| b.rows > 0) {
        println!(
            "      {prefix}bucket rows {:<6} -> w{:<2} ({} rows, {:.1}% lanes active)",
            bucket_range(bc),
            bc.tile_width,
            bc.rows,
            bc.lanes_active_frac * 100.0
        );
    }
}

/// Whether a serve-demo session failed: fewer than `requests` were
/// served, the engine shed or failed any request, or the mid-traffic
/// drain returned an error.
fn serve_demo_failed(
    requests: usize,
    served: usize,
    report: &EngineReport,
    drain_failed: bool,
) -> bool {
    served < requests
        || report.failed + report.shed_deadline + report.rejected_queue_full > 0
        || drain_failed
}

/// A mixed-clinic serving demo: many concurrent dose and gradient
/// requests for two plans (one liver beam, one prostate beam) served by
/// a 2×A100 + 1×V100 pool, ending with the engine's JSON report. Exits
/// non-zero when [`serve_demo_failed`].
fn cmd_serve_demo(flags: HashMap<String, String>) -> ExitCode {
    let requests: usize = num_flag(&flags, "requests").unwrap_or(120);
    let shrink: f64 = num_flag(&flags, "shrink").unwrap_or(24.0);
    let submitters: usize = num_flag(&flags, "submitters").unwrap_or(4).max(1);
    // --tile auto (the default) lets every plan autotune its own width
    // at registration; a pinned width applies to all plans, and
    // --partition routes every plan through the bucketed row partition
    // (parse_partition rejects the combination with a pinned --tile).
    let select = match (parse_partition(&flags), parse_tile(&flags)) {
        (Some(strategy), _) => KernelSelect::Partitioned(strategy),
        (None, Some(w)) => KernelSelect::Fixed(w),
        (None, None) => KernelSelect::Heuristic,
    };
    // --shards / --replicas map 1:1 onto the per-plan ExecPolicy; the
    // demo applies one policy to both plans via the builder default.
    let policy = ExecPolicy::builder()
        .kernel_select(select)
        .shards(parse_shard_spec(&flags))
        .replicas(parse_replicas(&flags))
        .build()
        .unwrap_or_else(|e| {
            eprintln!("invalid execution policy: {e}");
            std::process::exit(2);
        });
    // --devices N sizes the pool by cycling the paper's device mix —
    // the default 3 keeps the classic 2xA100 + 1xV100 demo pool.
    let pool_size: usize = num_flag(&flags, "devices").unwrap_or(3).max(1);
    // --drain-after N takes the last pool device out for maintenance
    // once N requests have completed, mid-traffic; requires a pool of
    // at least two (the engine refuses to drain the last live device).
    let drain_after: Option<usize> = num_flag(&flags, "drain-after");
    if drain_after.is_some() && pool_size < 2 {
        eprintln!("--drain-after needs at least 2 devices");
        std::process::exit(2);
    }
    let mix = [
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
    ];
    let pool: Vec<DeviceSpec> = (0..pool_size).map(|i| mix[i % mix.len()].clone()).collect();

    println!("generating plans (shrink {shrink}) ...");
    let scale = ScaleConfig {
        shrink: shrink.max(1.0),
    };
    let liver = liver_case(scale).swap_remove(0).matrix;
    let prostate = prostate_case(scale).swap_remove(0).matrix;

    let mut engine = Engine::builder()
        .devices(pool)
        .queue_capacity(32)
        .default_policy(policy)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("cannot build engine: {e}");
            std::process::exit(1);
        });
    for (name, m) in [("liver", &liver), ("prostate", &prostate)] {
        engine.register_plan(name, m).unwrap_or_else(|e| {
            eprintln!("cannot register plan {name}: {e}");
            std::process::exit(1);
        });
        println!(
            "  registered {:<8} {} voxels x {} spots, {} non-zeros, tile width {}",
            name,
            m.nrows(),
            m.ncols(),
            m.nnz(),
            engine.plan_tile_width(name).unwrap()
        );
        if let (Some(r), Some(k)) = (
            engine.plan_replica_count(name),
            engine.plan_shard_count(name),
        ) {
            println!(
                "      placed as {r} replica group(s) x {k} shard(s): throughput-weighted row ranges"
            );
            if let Some(table) = engine.plan_breakeven(name).filter(|t| !t.is_empty()) {
                let picks: Vec<String> = table
                    .iter()
                    .map(|p| format!("K={} {:.1}us", p.k, p.modeled_seconds * 1e6))
                    .collect();
                println!("      break-even model picked K={k}: {}", picks.join(", "));
            }
        }
        print_plan_buckets("", engine.plan_choice(name).unwrap());
        // The gradient direction's own table: chosen on the whole
        // transpose at registration, pinned before any shard split.
        let grad = engine.plan_grad_choice(name).unwrap();
        println!("      gradient (transpose) tile width {}", grad.tile_width);
        print_plan_buckets("grad ", grad);
    }
    println!(
        "pool: {}  |  {} requests from {} submitter threads",
        engine
            .devices()
            .iter()
            .map(|d| d.name)
            .collect::<Vec<_>>()
            .join(" + "),
        requests,
        submitters
    );

    let liver_dims = (liver.nrows(), liver.ncols());
    let prostate_dims = (prostate.nrows(), prostate.ncols());
    let drain_target = pool_size - 1;
    let drain_failed = AtomicBool::new(false);
    let (ok, report) = engine.serve(|client| {
        let done = AtomicUsize::new(0);
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..submitters {
                let done = &done;
                let drained = &drained;
                let drain_failed = &drain_failed;
                s.spawn(move || {
                    let mut i = t;
                    while i < requests {
                        let (plan, dims) = if i % 3 == 0 {
                            ("prostate", prostate_dims)
                        } else {
                            ("liver", liver_dims)
                        };
                        let (kind, len) = if i % 4 == 2 {
                            (RequestKind::Gradient, dims.0)
                        } else {
                            (RequestKind::Dose, dims.1)
                        };
                        let payload: Vec<f64> = (0..len)
                            .map(|j| ((i * 37 + j) as f64 * 0.01).sin().abs())
                            .collect();
                        if client.call(plan, kind, payload).is_ok() {
                            let served = done.fetch_add(1, Ordering::Relaxed) + 1;
                            // Mid-traffic maintenance drain: first
                            // submitter past the threshold wins the
                            // flag; in-flight fan-outs finish on their
                            // old placement epoch, doses unchanged.
                            if drain_after.is_some_and(|after| served >= after)
                                && !drained.swap(true, Ordering::SeqCst)
                            {
                                if let Err(e) = client.drain_device(drain_target) {
                                    eprintln!("  drain of device {drain_target} failed: {e}");
                                    drain_failed.store(true, Ordering::SeqCst);
                                } else {
                                    println!(
                                        "  drained device {drain_target} after {served} requests; \
                                         every plan re-dealt over the live pool"
                                    );
                                }
                            }
                        }
                        i += submitters;
                    }
                });
            }
        });
        done.load(Ordering::Relaxed)
    });

    println!("\n{} of {} requests served; engine report:", ok, requests);
    println!("{}", report.to_json());
    if serve_demo_failed(requests, ok, &report, drain_failed.into_inner()) {
        eprintln!("serve-demo FAILED: not every request was served cleanly");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "info" => cmd_info(),
        "generate" => cmd_generate(parse_flags(&args[1..])),
        "stats" => cmd_stats(parse_flags(&args[1..])),
        "spmv" => cmd_spmv(parse_flags(&args[1..])),
        "kernels" => cmd_kernels(&args[1..]),
        "optimize" => cmd_optimize(parse_flags(&args[1..])),
        "serve-demo" => return cmd_serve_demo(parse_flags(&args[1..])),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn numeric_flags_parse_or_report_the_bad_value() {
        let f = flags(&[("iters", "40"), ("shrink", "2.5"), ("tpb", "abc")]);
        assert_eq!(parse_num::<usize>(&f, "iters"), Ok(Some(40)));
        assert_eq!(parse_num::<f64>(&f, "shrink"), Ok(Some(2.5)));
        assert_eq!(parse_num::<usize>(&f, "devices"), Ok(None));
        let err = parse_num::<u32>(&f, "tpb").unwrap_err();
        assert!(err.starts_with("--tpb expects a number"), "{err}");
        assert!(err.contains("\"abc\""), "{err}");
        // A negative count is a bad value, not a wrap-around.
        assert!(parse_num::<usize>(&flags(&[("requests", "-3")]), "requests").is_err());
    }

    #[test]
    fn serve_demo_fails_on_any_unserved_request_or_drain_error() {
        let clean = EngineReport::default();
        assert!(!serve_demo_failed(10, 10, &clean, false));
        assert!(serve_demo_failed(10, 9, &clean, false));
        assert!(serve_demo_failed(10, 10, &clean, true));
        let (mut failed, mut shed, mut rejected) = (clean.clone(), clean.clone(), clean);
        failed.failed = 1;
        shed.shed_deadline = 1;
        rejected.rejected_queue_full = 1;
        for lost in [failed, shed, rejected] {
            assert!(serve_demo_failed(10, 10, &lost, false));
        }
    }
}
