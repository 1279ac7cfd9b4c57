//! `rtdose` — command-line front end: generate dose deposition matrices,
//! inspect their structure, run the SpMV kernels on a simulated GPU, and
//! optimize a plan. A thin shell over the library crates. Each command's
//! flags are declared once, in `COMMANDS`: the parser, the value checks
//! and the usage text all read that table.
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
use rtdose::gpusim::{gather_estimate, DeviceSpec, Gpu, GroupReport, KernelProfile, KernelStats};
use rtdose::kernels::{
    bucketed_group_report, heuristic_width, profile_baseline, profile_half_double, profile_single,
    rs_baseline_gpu_spmv, vector_csr_spmm, vector_csr_spmm_bucketed, BucketChoice, BucketWidths,
    DoseCalculator, GpuCsrMatrix, GpuRowPlan, GpuRsMatrix, KernelChoice, KernelSelect,
    PartitionStrategy, VecScalar,
};
use rtdose::optim::{optimize, GpuDoseEngine, Objective, ObjectiveTerm, OptimizerConfig};
use rtdose::sparse::stats::{MatrixSummary, RowStats};
use rtdose::sparse::{load_csr, save_csr, Csr, RowPlan, RsCompressed, ShardPlan};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// How a command takes one of the arguments in its flag table.
#[derive(PartialEq)]
enum Kind {
    /// `[--name VALUE]`.
    Optional,
    /// `--name VALUE`: the command does not run without it.
    Required,
    /// `[--name] VALUE`: required, and a bare argument fills it.
    Positional,
}
use Kind::{Optional, Positional, Required};

/// One row of a command's flag table: the flag `--name`, its value
/// syntax and a one-line note (empty for none). A syntax with `|` lists
/// every value the flag accepts; a capital letter among them (`K`, `R`)
/// stands for any positive integer.
struct Arg {
    kind: Kind,
    name: &'static str,
    syntax: &'static str,
    note: &'static str,
}

const fn arg(kind: Kind, name: &'static str, syntax: &'static str, note: &'static str) -> Arg {
    Arg {
        kind,
        name,
        syntax,
        note,
    }
}

impl Arg {
    /// Whether `value` fits the row's syntax: any value does unless the
    /// syntax lists choices.
    fn accepts(&self, value: &str) -> bool {
        let positive = value.parse::<usize>().is_ok_and(|n| n >= 1);
        !self.syntax.contains('|')
            || self.syntax.split('|').any(|choice| {
                choice == value
                    || (positive && choice.len() == 1 && choice != choice.to_lowercase())
            })
    }

    /// The row as the usage text spells it.
    fn spelled(&self) -> String {
        match self.kind {
            Optional => format!("[--{} {}]", self.name, self.syntax),
            Required => format!("--{} {}", self.name, self.syntax),
            Positional => format!("[--{}] {}", self.name, self.syntax),
        }
    }
}

/// A command: its name, its flag table and its handler. A handler's
/// `Err` is a usage error, printed with the usage text (exit code 2).
struct Command {
    name: &'static str,
    args: &'static [Arg],
    run: fn(&Flags) -> Result<(), String>,
}

const MATRIX: Arg = arg(Required, "matrix", "FILE", "");
const CASE: Arg = arg(Required, "case", "liver|prostate", "");
const BEAM: Arg = arg(Optional, "beam", "N", "");
const SHRINK: Arg = arg(Optional, "shrink", "S", "");
const DEVICE: Arg = arg(Optional, "device", "a100|v100|p100", "");
const TPB: Arg = arg(
    Optional,
    "tpb",
    "N",
    "threads per block: a multiple of 32 in 32..=1024",
);
const TILE: Arg = arg(Optional, "tile", "auto|2|4|8|16|32", "");
const PARTITION: Arg = arg(Optional, "partition", "heuristic|probe", "");

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "info", run: cmd_info, args: &[] },
    Command { name: "generate", run: cmd_generate, args: &[
        CASE, BEAM, SHRINK, arg(Required, "out", "FILE", ""),
    ] },
    Command { name: "stats", run: cmd_stats, args: &[MATRIX] },
    Command { name: "spmv", run: cmd_spmv, args: &[
        MATRIX, DEVICE, arg(Optional, "kernel", "half-double|single|baseline", ""), TPB,
        arg(Optional, "repeat", "N", ""), TILE, PARTITION,
        arg(Optional, "shards", "auto|K",
            "K-device pool, one row shard each; auto = 3; half-double kernel only"),
    ] },
    Command { name: "kernels", run: cmd_kernels, args: &[
        arg(Positional, "matrix", "FILE", ""), DEVICE, TPB,
    ] },
    Command { name: "optimize", run: cmd_optimize, args: &[
        CASE, BEAM, SHRINK, arg(Optional, "iters", "N", ""),
    ] },
    Command { name: "serve-demo", run: cmd_serve_demo, args: &[
        arg(Optional, "requests", "N", ""), SHRINK, arg(Optional, "submitters", "N", ""),
        arg(Optional, "devices", "N", ""), TILE, PARTITION,
        arg(Optional, "shards", "auto|K", "K row shards per replica group; auto = break-even model"),
        arg(Optional, "replicas", "auto|R", "R replica groups over the pool; auto = pool/K"),
        arg(Optional, "drain-after", "N", "drain the last pool device once N requests completed"),
    ] },
];

/// The usage text: every command with its flag table indented under it,
/// one row a line.
fn usage_text() -> String {
    let width = COMMANDS
        .iter()
        .flat_map(|c| c.args)
        .map(|a| a.spelled().len())
        .max()
        .unwrap_or(0);
    let mut text = String::from("rtdose — radiation-therapy dose calculation toolbox\n\nUSAGE:\n");
    for c in COMMANDS {
        text += &format!("  rtdose {}\n", c.name);
        for a in c.args {
            text += format!("      {:<width$}  {}", a.spelled(), a.note).trim_end();
            text.push('\n');
        }
    }
    text + "\nK and R are positive integers. Matrices are stored as RTDM snapshots\n\
            (binary16 values, u32 indices)."
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// Prints `what: e` and exits 1: the arguments were fine, but the run
/// could not finish.
fn fail(what: impl Display, e: impl Display) -> ! {
    eprintln!("{what}: {e}");
    std::process::exit(1);
}

/// Prints one line of a command's output: every command writes stdout
/// through [`write_line`] and nothing else.
macro_rules! out {
    ($($fmt:tt)*) => {
        write_line(format_args!($($fmt)*))
    };
}

/// Writes `line` and a newline to stdout. A reader that closed the pipe
/// early (`rtdose stats --matrix F | head -5`) wants no more output, so
/// a broken pipe ends the process quietly with status 0; any other write
/// error exits 1.
fn write_line(line: std::fmt::Arguments) {
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail("cannot write to stdout", e),
    }
}

/// A command's arguments, each checked against its flag table.
struct Flags {
    command: &'static Command,
    values: HashMap<&'static str, String>,
}

impl Flags {
    /// Parses `args` for `command`. An undeclared or repeated flag, a
    /// flag without a value, a value outside its row's syntax, a stray
    /// positional argument and a missing required one are errors.
    fn parse(command: &'static Command, args: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            let (arg, value) = match a.strip_prefix("--") {
                Some(name) => (command.args.iter().find(|f| f.name == name), rest.next()),
                None => (command.args.iter().find(|f| f.kind == Positional), Some(a)),
            };
            let arg = arg.ok_or_else(|| format!("rtdose {} does not take {a}", command.name))?;
            let value = value.ok_or_else(|| format!("missing value for {a}"))?;
            if !arg.accepts(value) {
                return Err(format!(
                    "--{} must be {}, got {value:?}",
                    arg.name, arg.syntax
                ));
            }
            if values.insert(arg.name, value.clone()).is_some() {
                return Err(format!("--{} given more than once", arg.name));
            }
        }
        let mut required = command.args.iter().filter(|f| f.kind != Optional);
        match required.find(|f| !values.contains_key(f.name)) {
            Some(f) => Err(format!("rtdose {} requires {}", command.name, f.spelled())),
            None => Ok(Flags { command, values }),
        }
    }

    /// The value of `--name`, `None` when absent. Panics when `name` is
    /// not in the command's flag table.
    fn get(&self, name: &str) -> Option<&str> {
        let declared = self.command.args.iter().any(|a| a.name == name);
        assert!(declared, "flag read but not declared: --{name}");
        self.values.get(name).map(String::as_str)
    }

    /// The numeric flag `--name`: `Ok(None)` when it is absent, an error
    /// message when its value does not parse as a `T`.
    fn num<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|s| {
                s.parse()
                    .map_err(|e| format!("--{name} expects a number, got {s:?} ({e})"))
            })
            .transpose()
    }

    /// An `auto|K` flag: `None` when absent, `Some(None)` on auto and
    /// `Some(Some(k))` for a count.
    fn count(&self, name: &str) -> Option<Option<usize>> {
        self.get(name).map(|s| s.parse().ok())
    }
}

/// `--shrink` as a [`ScaleConfig`], `default` when absent. A value below
/// 1 or not finite is an error, not the full-size case.
fn parse_scale(flags: &Flags, default: f64) -> Result<ScaleConfig, String> {
    let shrink = flags.num::<f64>("shrink")?.unwrap_or(default);
    if shrink.is_finite() && shrink >= 1.0 {
        Ok(ScaleConfig { shrink })
    } else {
        Err(format!(
            "--shrink must be a finite number of at least 1, got {shrink}"
        ))
    }
}

/// serve-demo `--devices`: the pool size, 3 when absent; 0 is an error.
fn parse_devices(flags: &Flags) -> Result<usize, String> {
    match flags.num("devices")?.unwrap_or(3) {
        0 => Err("--devices must be at least 1, got 0".to_string()),
        n => Ok(n),
    }
}

/// `--tpb`, 512 when absent: a launchable block size, a multiple of the
/// warp size in `32..=1024`.
fn parse_tpb(flags: &Flags) -> Result<u32, String> {
    match flags.num("tpb")?.unwrap_or(512) {
        n @ 32..=1024 if n % 32 == 0 => Ok(n),
        n => Err(format!(
            "--tpb must be a multiple of 32 in 32..=1024, got {n}"
        )),
    }
}

/// `--partition` / `--tile` as the engine's [`KernelSelect`]: a
/// partition strategy, a pinned width, or the statistics heuristic on
/// auto (absent `--tile`, or `auto`, which does not parse as a width).
/// `--partition` with any `--tile` is an error: the partition picks a
/// width per bucket.
fn parse_select(flags: &Flags) -> Result<KernelSelect, String> {
    let tile = flags.get("tile");
    Ok(match flags.get("partition") {
        Some(_) if tile.is_some() => {
            return Err("--partition and --tile are mutually exclusive (the partition picks a width per bucket)".to_string());
        }
        Some("heuristic") => KernelSelect::Partitioned(PartitionStrategy::Heuristic),
        Some(_) => KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe),
        None => match tile.and_then(|w| w.parse().ok()) {
            Some(w) => KernelSelect::Fixed(w),
            None => KernelSelect::Heuristic,
        },
    })
}

/// `--device` as its spec, a100 when absent.
fn device(flags: &Flags) -> DeviceSpec {
    match flags.get("device") {
        Some("v100") => DeviceSpec::v100(),
        Some("p100") => DeviceSpec::p100(),
        _ => DeviceSpec::a100(),
    }
}

fn generate_case(flags: &Flags) -> Result<DoseCase, String> {
    let scale = parse_scale(flags, 8.0)?;
    let beam: usize = flags.num("beam")?.unwrap_or(0);
    let mut cases = match flags.get("case") {
        Some("liver") => liver_case(scale),
        _ => prostate_case(scale),
    };
    let beams = cases.len();
    if beam >= beams {
        return Err(format!("--beam {beam} out of range ({beams} beams)"));
    }
    Ok(cases.swap_remove(beam))
}

fn cmd_info(_: &Flags) -> Result<(), String> {
    out!("devices:");
    for d in [DeviceSpec::a100(), DeviceSpec::v100(), DeviceSpec::p100()] {
        out!(
            "  {:<5} {:>3} SMs  {:>5.0} GB/s DRAM  {:>4.1} TF fp64  {:>3} MB L2",
            d.name,
            d.sm_count,
            d.dram_bw / 1e9,
            d.peak_f64 / 1e12,
            d.l2_bytes >> 20,
        );
    }
    out!("\ncases (at --shrink 1, the default experiment scale):");
    out!("  liver    — 4 beams (gantry 270/0/90/180), Table I rows 1-4");
    out!("  prostate — 2 parallel-opposed beams, Table I rows 5-6");
    out!("\npaper artifacts: cargo run --release -p rt-bench --bin repro_all");
    Ok(())
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let out = flags.get("out").expect("--out is required");
    let t0 = std::time::Instant::now();
    let case = generate_case(flags)?;
    let m16: Csr<F16, u32> = case.matrix.convert_values();
    let written = std::fs::File::create(out).and_then(|mut file| save_csr(&m16, &mut file));
    written.unwrap_or_else(|e| fail(format!("cannot write {out}"), e));
    out!(
        "{}: {} voxels x {} spots, {} non-zeros -> {} ({} bytes, {:.1?})",
        case.name,
        m16.nrows(),
        m16.ncols(),
        m16.nnz(),
        out,
        m16.size_bytes(),
        t0.elapsed()
    );
    Ok(())
}

fn load_matrix(flags: &Flags) -> Csr<F16, u32> {
    let path = flags.get("matrix").expect("--matrix is required");
    let mut f =
        std::fs::File::open(path).unwrap_or_else(|e| fail(format!("cannot open {path}"), e));
    load_csr(&mut f).unwrap_or_else(|e| fail(format!("cannot load {path}"), e))
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let m = load_matrix(flags);
    let summary = MatrixSummary::from_csr("matrix", &m);
    let stats = RowStats::from_csr(&m);
    out!("rows        : {}", summary.rows);
    out!("cols        : {}", summary.cols);
    out!("non-zeros   : {}", summary.nnz);
    out!("density     : {:.3}%", summary.nonzero_ratio_pct);
    out!("size (f16 + u32 CSR): {:.6} GB", summary.size_gb);
    out!("empty rows  : {:.1}%", stats.empty_fraction() * 100.0);
    out!("avg nnz per non-empty row: {:.1}", stats.avg_nnz_nonempty);
    out!(
        "non-empty rows < 32 nnz  : {:.1}%",
        stats.frac_nonempty_below_warp * 100.0
    );
    out!("max row length           : {}", stats.max_row_len);
    out!("\ncumulative row-length histogram (non-empty rows):");
    for (x, frac) in stats.cumulative_curve(12) {
        out!(
            "  < {:>6}: {:>5.1}%  {}",
            x,
            frac * 100.0,
            "#".repeat((frac * 40.0) as usize)
        );
    }
    Ok(())
}

/// A bucketed run's fused group report, partition mode and row plan.
type PartitionRun = (GroupReport, &'static str, Arc<RowPlan>);

/// Uploads `m` and `weights` in the kernel's precision, then runs the
/// vector kernel `repeat` times with a cold cache between repeats: the
/// whole-matrix kernel at `tile`, or under `--partition` the bucketed
/// dispatch at autotuned per-bucket widths, whose fused group report is
/// returned with the partition mode and the row plan.
#[allow(clippy::too_many_arguments)]
fn run_vector_spmv<V: DoseScalar, X: VecScalar>(
    gpu: &Gpu,
    dev: &DeviceSpec,
    m: &Csr<V, u32>,
    weights: &[X],
    tpb: u32,
    repeat: usize,
    tile: u32,
    partition: Option<PartitionStrategy>,
    profile: &KernelProfile,
) -> (KernelStats, Option<PartitionRun>) {
    let gm = GpuCsrMatrix::upload(gpu, m);
    let x = gpu.upload(weights);
    let y = gpu.alloc_out::<X>(m.nrows());
    let Some(strategy) = partition else {
        let mut s = vector_csr_spmm(gpu, &gm, &[&x], &[&y], tpb, tile);
        for _ in 1..repeat {
            gpu.reset_cache();
            s = vector_csr_spmm(gpu, &gm, &[&x], &[&y], tpb, tile);
        }
        return (s, None);
    };
    let choice = KernelSelect::Partitioned(strategy)
        .choose(dev, m, tpb)
        .expect("partitioned selection cannot fail on a loaded snapshot");
    let widths = choice.bucket_widths();
    let plan = Arc::new(RowPlan::from_csr(m));
    let gplan = GpuRowPlan::upload(gpu, plan.clone());
    let mut g = vector_csr_spmm_bucketed(gpu, &gm, &[&x], &[&y], tpb, &gplan, widths);
    for _ in 1..repeat {
        gpu.reset_cache();
        g = vector_csr_spmm_bucketed(gpu, &gm, &[&x], &[&y], tpb, &gplan, widths);
    }
    let report = bucketed_group_report(dev, profile, &plan, &g);
    (g.merged, Some((report, choice.mode, plan)))
}

/// `--shards K`: the snapshot file at `path` (holding `m`) is registered
/// with an engine over K identical devices and served as one dose
/// request, placed as one replica group of K throughput-weighted row
/// shards (one resident per device). Widths are pinned from the *whole*
/// matrix before the split, so the merged dose is bitwise identical to
/// the unsharded kernel — the table shows where the pool's modeled time
/// goes (per-shard compute plus the interconnect gather of its rows).
/// The engine runs the half-double kernel only.
fn run_sharded_spmv(
    path: &str,
    m: &Csr<F16, u32>,
    dev: &DeviceSpec,
    tpb: u32,
    k: usize,
    kernel: &str,
    select: KernelSelect,
) -> Result<(), String> {
    if kernel != "half-double" {
        return Err(format!(
            "--shards runs the half-double kernel only (got --kernel {kernel})"
        ));
    }
    let t0 = std::time::Instant::now();
    let policy = ExecPolicy::builder()
        .kernel_select(select)
        .shards(ShardSpec::Fixed(k))
        .replicas(ReplicaSpec::Fixed(1))
        .build()
        .expect("--shards and --tile are validated when parsed");
    let mut engine = Engine::builder()
        .devices(vec![dev.clone(); k.min(m.nrows()).max(1)])
        .threads_per_block(tpb)
        .default_policy(policy)
        .build()
        .unwrap_or_else(|e| fail("cannot build engine", e));
    engine
        .register_plan_snapshot("snapshot", path)
        .unwrap_or_else(|e| fail("cannot register the snapshot", e));
    let (response, _) =
        engine.serve(|c| c.call("snapshot", RequestKind::Dose, vec![1.0; m.ncols()]));
    let report = response
        .unwrap_or_else(|e| fail("sharded request failed", e))
        .shards
        .expect("every response carries its shards");

    out!(
        "kernel {kernel} sharded {}x on {} x{} ({} threads/block), sim wall time {:.2?}",
        report.shards.len(),
        dev.name,
        report.shards.len(),
        tpb,
        t0.elapsed()
    );
    out!(
        "  {:<6} {:<7} {:>16} {:>12} {:>10} {:>12} {:>11}",
        "shard",
        "device",
        "rows [start..)",
        "nnz",
        "dispatch",
        "modeled us",
        "gather us"
    );
    for s in &report.shards {
        out!(
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
    out!(
        "  critical path        : {:.3} ms (max over shards of compute + gather)",
        report.modeled_seconds * 1e3
    );
    out!(
        "  gather traffic       : {} bytes over the pool interconnect",
        report.gather_bytes
    );
    out!(
        "  speedup vs serialized: {:.2}x (sum of shard computes / critical path)",
        serial / report.modeled_seconds
    );
    Ok(())
}

fn cmd_spmv(flags: &Flags) -> Result<(), String> {
    let tpb = parse_tpb(flags)?;
    let m = load_matrix(flags);
    let dev = device(flags);
    let repeat: usize = flags.num("repeat")?.unwrap_or(2);
    let kernel = flags.get("kernel").unwrap_or("half-double");
    let select = parse_select(flags)?;
    if let Some(k) = flags.count("shards") {
        let path = flags.get("matrix").expect("--matrix is required");
        run_sharded_spmv(path, &m, &dev, tpb, k.unwrap_or(3), kernel, select)?;
        return Ok(());
    }
    // Resolve the tile width for the whole-matrix vector kernels: a
    // pinned --tile value, or the statistics heuristic on auto (the same
    // rule serving plans default to). The baseline kernel has no tiled
    // variant, and a --partition run picks its widths per bucket instead.
    let (tile, tile_mode, partition) = match select {
        KernelSelect::Partitioned(strategy) => (32, "partitioned", Some(strategy)),
        KernelSelect::Fixed(w) => (w, "fixed", None),
        heuristic => {
            let choice = heuristic
                .choose(&dev, &m, tpb)
                .expect("heuristic selection cannot fail");
            (choice.tile_width, "auto/heuristic", None)
        }
    };

    let weights = vec![1.0f64; m.ncols()];
    let gpu = Gpu::new(dev.clone());
    // Cold-cache measurement: a snapshot-sized matrix can fit in the
    // full device L2, which a clinical matrix never would. Invalidate
    // between repeats so the matrix streams like the real workload.
    let t0 = std::time::Instant::now();
    let (stats, profile, group) = match kernel {
        "half-double" => {
            let profile = profile_half_double();
            let (s, g) = run_vector_spmv(
                &gpu, &dev, &m, &weights, tpb, repeat, tile, partition, &profile,
            );
            (s, profile, g)
        }
        "single" => {
            let m32: Csr<f32, u32> = m.convert_values();
            let w32: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
            let profile = profile_single();
            let (s, g) = run_vector_spmv(
                &gpu, &dev, &m32, &w32, tpb, repeat, tile, partition, &profile,
            );
            (s, profile, g)
        }
        "baseline" => {
            if partition.is_some() {
                return Err("--partition applies to the vector kernels only (baseline has no bucketed variant)".to_string());
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
            (s, profile_baseline(), None)
        }
        other => unreachable!("the table admits no kernel {other}"),
    };
    let est = rtdose::gpusim::timing::estimate(&dev, &profile, &stats);

    out!(
        "kernel {kernel} on {} ({} threads/block), sim wall time {:.2?}",
        dev.name,
        tpb,
        t0.elapsed()
    );
    if let Some((_, mode, plan)) = &group {
        out!(
            "  partition            : {mode} ({} of {} rows empty, eliminated)",
            plan.empty_rows(),
            plan.nrows()
        );
    } else if kernel != "baseline" {
        out!("  tile width           : {tile} ({tile_mode})");
    } else if flags.get("tile").is_some() {
        out!("  tile width           : ignored (baseline kernel has no tiled variant)");
    }
    out!("  flops                : {}", stats.flops);
    out!(
        "  DRAM read / write    : {} / {} bytes",
        stats.dram_read_bytes,
        stats.dram_write_bytes
    );
    out!(
        "  L2 hit rate          : {:.1}%",
        stats.l2_hit_rate() * 100.0
    );
    out!("  atomics              : {}", stats.atomic_ops);
    out!(
        "  operational intensity: {:.3} flop/byte",
        stats.operational_intensity()
    );
    out!("  modeled time         : {:.3} ms", est.seconds * 1e3);
    out!("  modeled performance  : {:.1} GFLOP/s", est.gflops);
    out!(
        "  modeled bandwidth    : {:.0} GB/s ({:.0}% of {} peak)",
        est.dram_bw_gbps,
        est.frac_peak_bw * 100.0,
        dev.name
    );
    if let Some((rep, _, _)) = &group {
        out!(
            "\n  fused dispatch ({} members, one launch overhead):",
            rep.buckets.len()
        );
        out!(
            "  {:<12} {:>6} {:>10} {:>13} {:>12}",
            "member",
            "width",
            "rows",
            "lanes active",
            "modeled us"
        );
        for b in &rep.buckets {
            out!(
                "  {:<12} {:>6} {:>10} {:>12.1}% {:>12.3}",
                b.label,
                b.tile_width,
                b.rows,
                b.lanes_active_frac * 100.0,
                b.estimate.seconds * 1e6
            );
        }
    }
    Ok(())
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
    out!("  bucket            rows          nnz   natural   probe   lanes active");
    let natural = BucketWidths::natural();
    for bc in &choice.buckets {
        if bc.rows == 0 {
            continue;
        }
        out!(
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
/// candidate width probed on a throwaway simulator, plus
/// what the statistics heuristic and the measured probe each pick.
fn cmd_kernels(flags: &Flags) -> Result<(), String> {
    let tpb = parse_tpb(flags)?;
    let m = load_matrix(flags);
    let dev = device(flags);

    let stats = RowStats::from_csr(&m);
    out!(
        "{} voxels x {} spots, {} non-zeros on {} ({} threads/block)",
        m.nrows(),
        m.ncols(),
        m.nnz(),
        dev.name,
        tpb
    );
    out!(
        "avg nnz per non-empty row {:.1}, 95th percentile {}, {:.1}% empty rows\n",
        stats.avg_nnz_nonempty,
        stats.quantile(0.95),
        stats.empty_fraction() * 100.0
    );

    let choice = KernelSelect::MeasuredProbe
        .choose(&dev, &m, tpb)
        .expect("probe cannot fail on a loaded snapshot");
    let heuristic = heuristic_width(&stats);
    out!("  width      warps   L2 sectors   modeled us   lanes active");
    for c in &choice.candidates {
        let marks = match (c.tile_width == choice.tile_width, c.tile_width == heuristic) {
            (true, true) => "  <- probe + heuristic pick",
            (true, false) => "  <- probe pick",
            (false, true) => "  <- heuristic pick",
            (false, false) => "",
        };
        out!(
            "  {:>5} {:>10} {:>12} {:>12.3} {:>13.1}%{}",
            c.tile_width,
            c.warps,
            c.l2_sectors,
            c.modeled_seconds * 1e6,
            c.lanes_active_frac * 100.0,
            marks
        );
    }
    out!(
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
    out!(
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
    out!(
        "\ngradient (transpose) dispatch: {} beamlet rows, {:.1}% empty — {} eliminated",
        t.nrows(),
        t_stats.empty_fraction() * 100.0,
        t_stats.empty_rows
    );
    print_bucket_table(&grad);
    out!(
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
    let select = KernelSelect::Partitioned(PartitionStrategy::Heuristic);
    out!(
        "\nrow-sharded dispatch (--shards 3 on {}): throughput-weighted row ranges",
        pool.iter().map(|d| d.name).collect::<Vec<_>>().join("+")
    );
    out!(
        "  balance factor: {:.2} throughput-weighted ({:.2} by raw nnz share)",
        plan.balance_factor_weighted(&weights),
        plan.balance_factor()
    );
    out!("  shard    rows [start..)          nnz   solo pick   solo buckets      gather us");
    for s in plan.shards() {
        let spec = &pool[s.index % pool.len()];
        let choice = select
            .choose(spec, &s.matrix, tpb)
            .expect("per-shard selection cannot fail on a loaded snapshot");
        let buckets: Vec<String> = choice
            .buckets
            .iter()
            .filter(|b| b.rows > 0)
            .map(|b| format!("w{}", b.tile_width))
            .collect();
        out!(
            "  {:>5} {:>9}..{:<9} {:>12}   {:<9} {:<17} {:>9.3}",
            s.index,
            s.row_start,
            s.row_end,
            s.nnz(),
            format!("w{}", choice.tile_width),
            buckets.join(" "),
            gather_estimate(spec, s.gather_bytes()) * 1e6
        );
    }
    let gather: u64 = plan.shards().iter().map(|s| s.gather_bytes()).sum();
    out!("modeled gather traffic: {gather} bytes (non-empty rows x 8, per result vector)");
    Ok(())
}

fn cmd_optimize(flags: &Flags) -> Result<(), String> {
    let iters: usize = flags.num("iters")?.unwrap_or(30);
    let case = generate_case(flags)?;
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
    out!(
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
    let calc = DoseCalculator::builder(&matrix)
        .with_transpose()
        .scale(case.extrapolation())
        .row_scale(case.paper.rows / matrix.nrows() as f64)
        .build();
    let engine = calc
        .and_then(GpuDoseEngine::with_calculator)
        .unwrap_or_else(|e| fail("cannot build dose engine", e));
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
        out!(
            "  iter {:>3}  objective {:.6}  |pg| {:.2e}",
            log.iter,
            log.objective,
            log.projected_grad_norm
        );
    }
    out!(
        "done: objective {:.6} after {} dose calculations; modeled GPU kernel time {:.1} ms",
        result.objective,
        result.dose_evals,
        result.modeled_dose_seconds * 1e3
    );
    Ok(())
}

/// Prints one serve-demo bucket row per populated bucket of `choice`,
/// each labelled `{prefix}bucket`.
fn print_plan_buckets(prefix: &str, choice: &KernelChoice) {
    for bc in choice.buckets.iter().filter(|b| b.rows > 0) {
        out!(
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
fn cmd_serve_demo(flags: &Flags) -> Result<(), String> {
    let requests: usize = flags.num("requests")?.unwrap_or(120);
    let scale = parse_scale(flags, 24.0)?;
    let submitters: usize = flags.num("submitters")?.unwrap_or(4).max(1);
    // --tile auto (the default) lets every plan autotune its own width
    // at registration; a pinned width applies to all plans, and
    // --partition routes every plan through the bucketed row partition
    // (parse_select rejects the combination with a pinned --tile).
    let select = parse_select(flags)?;
    // --shards / --replicas map 1:1 onto the per-plan ExecPolicy; the
    // demo applies one policy to both plans via the builder default.
    // Absent --shards means no sharding; auto defers to the break-even
    // model at registration. Absent --replicas is auto.
    let shards = flags.count("shards").map_or(ShardSpec::Fixed(1), |k| {
        k.map_or(ShardSpec::Auto, ShardSpec::Fixed)
    });
    let replicas = flags
        .count("replicas")
        .flatten()
        .map_or(ReplicaSpec::Auto, ReplicaSpec::Fixed);
    let policy = ExecPolicy::builder()
        .kernel_select(select)
        .shards(shards)
        .replicas(replicas)
        .build()
        .map_err(|e| format!("invalid execution policy: {e}"))?;
    // --devices N sizes the pool by cycling the paper's device mix —
    // the default 3 keeps the classic 2xA100 + 1xV100 demo pool.
    let pool_size = parse_devices(flags)?;
    // --drain-after N takes the last pool device out for maintenance
    // once N requests have completed, mid-traffic; requires a pool of
    // at least two (the engine refuses to drain the last live device).
    let drain_after: Option<usize> = flags.num("drain-after")?;
    if drain_after.is_some() && pool_size < 2 {
        return Err("--drain-after needs at least 2 devices".to_string());
    }
    let mix = [
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
    ];
    let pool: Vec<DeviceSpec> = (0..pool_size).map(|i| mix[i % mix.len()].clone()).collect();

    out!("generating plans (shrink {}) ...", scale.shrink);
    let liver = liver_case(scale).swap_remove(0).matrix;
    let prostate = prostate_case(scale).swap_remove(0).matrix;

    let mut engine = Engine::builder()
        .devices(pool)
        .queue_capacity(32)
        .default_policy(policy)
        .build()
        .unwrap_or_else(|e| fail("cannot build engine", e));
    for (name, m) in [("liver", &liver), ("prostate", &prostate)] {
        engine
            .register_plan(name, m)
            .unwrap_or_else(|e| fail(format!("cannot register plan {name}"), e));
        out!(
            "  registered {:<8} {} voxels x {} spots, {} non-zeros, tile width {}",
            name,
            m.nrows(),
            m.ncols(),
            m.nnz(),
            engine.plan_choice(name).unwrap().tile_width
        );
        if let (Some(r), Some(k)) = (
            engine.plan_replica_count(name),
            engine.plan_shard_count(name),
        ) {
            out!(
                "      placed as {r} replica group(s) x {k} shard(s): throughput-weighted row ranges"
            );
            if let Some(table) = engine.plan_breakeven(name).filter(|t| !t.is_empty()) {
                let picks: Vec<String> = table
                    .iter()
                    .map(|p| format!("K={} {:.1}us", p.k, p.modeled_seconds * 1e6))
                    .collect();
                out!("      break-even model picked K={k}: {}", picks.join(", "));
            }
        }
        print_plan_buckets("", engine.plan_choice(name).unwrap());
        // The gradient direction's own table: chosen on the whole
        // transpose at registration, pinned before any shard split.
        let grad = engine.plan_grad_choice(name).unwrap();
        out!("      gradient (transpose) tile width {}", grad.tile_width);
        print_plan_buckets("grad ", grad);
    }
    out!(
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
                                    out!(
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

    out!("\n{} of {} requests served; engine report:", ok, requests);
    out!("{}", report.to_json());
    if serve_demo_failed(requests, ok, &report, drain_failed.into_inner()) {
        fail("serve-demo FAILED", "not every request was served cleanly");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        usage()
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        if !["--help", "-h", "help"].contains(&name.as_str()) {
            eprintln!("unknown command: {name}");
        }
        usage();
    };
    if let Err(e) = Flags::parse(command, rest).and_then(|flags| (command.run)(&flags)) {
        eprintln!("{e}");
        usage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdose::kernels::TILE_WIDTHS;

    /// `rtdose <command> <args...>` parsed against the command's table.
    fn parse(command: &str, args: &[&str]) -> Result<Flags, String> {
        let command = COMMANDS.iter().find(|c| c.name == command).unwrap();
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(command, &args)
    }

    #[test]
    fn numeric_flags_parse_or_report_the_bad_value() {
        let f = parse(
            "optimize",
            &["--case", "liver", "--iters", "40", "--shrink", "2.5"],
        )
        .unwrap();
        assert_eq!(f.num::<usize>("iters"), Ok(Some(40)));
        assert_eq!(f.num::<f64>("shrink"), Ok(Some(2.5)));
        assert_eq!(f.num::<usize>("beam"), Ok(None));
        let f = parse("spmv", &["--matrix", "m.rtdm", "--tpb", "abc"]).unwrap();
        let err = f.num::<u32>("tpb").unwrap_err();
        assert!(err.starts_with("--tpb expects a number"), "{err}");
        assert!(err.contains("\"abc\""), "{err}");
        // A negative count is a bad value, not a wrap-around.
        let f = parse("serve-demo", &["--requests", "-3"]).unwrap();
        assert!(f.num::<usize>("requests").is_err());
        // --shrink below 1 or not finite, and --devices 0, are bad values,
        // not silently the full-size case or a one-device pool.
        let shrink = |args: &[&str]| parse_scale(&parse("serve-demo", args).unwrap(), 8.0);
        assert_eq!(shrink(&["--shrink", "2.5"]).map(|s| s.shrink), Ok(2.5));
        assert_eq!(shrink(&[]).map(|s| s.shrink), Ok(8.0));
        for bad in ["-1", "0.5", "0", "NaN", "inf"] {
            let err = shrink(&["--shrink", bad]).unwrap_err();
            assert!(err.starts_with("--shrink must be"), "{bad}: {err}");
        }
        let devices = |args: &[&str]| parse_devices(&parse("serve-demo", args).unwrap());
        assert_eq!(devices(&[]), Ok(3));
        assert_eq!(devices(&["--devices", "4"]), Ok(4));
        assert!(devices(&["--devices", "0"]).is_err());
        // --tpb is a block size the simulator can launch, for both
        // commands that take it.
        for command in ["spmv", "kernels"] {
            let tpb = |value: &str| {
                let f = parse(command, &["--matrix", "m.rtdm", "--tpb", value]).unwrap();
                parse_tpb(&f)
            };
            assert_eq!(
                parse_tpb(&parse(command, &["--matrix", "m.rtdm"]).unwrap()),
                Ok(512)
            );
            assert_eq!(tpb("32"), Ok(32));
            assert_eq!(tpb("1024"), Ok(1024));
            for bad in ["0", "7", "48", "1056", "2048"] {
                let err = tpb(bad).unwrap_err();
                assert!(
                    err.starts_with("--tpb must be a multiple of 32"),
                    "{command} {bad}: {err}"
                );
            }
            assert!(tpb("-32")
                .unwrap_err()
                .starts_with("--tpb expects a number"));
        }
    }

    #[test]
    fn arguments_outside_the_flag_table_are_rejected() {
        let m = "m.rtdm";
        let rejected: [(&str, &[&str], &str); 10] = [
            (
                "stats",
                &["--matrix", m, "--bogus", "1"],
                "does not take --bogus",
            ),
            (
                "generate",
                &["--case", "liver", "--out", m, "--shards", "3"],
                "does not take --shards",
            ),
            (
                "spmv",
                &["--matrix", m, "--tiles", "4"],
                "does not take --tiles",
            ),
            (
                "spmv",
                &["--matrix", m, "--tpb", "256", "--tpb", "512"],
                "--tpb given more than once",
            ),
            (
                "kernels",
                &[m, "--matrix", m],
                "--matrix given more than once",
            ),
            ("spmv", &["--matrix"], "missing value for --matrix"),
            ("info", &["extra"], "does not take extra"),
            (
                "spmv",
                &["--matrix", m, "--device", "h100"],
                "--device must be a100|v100|p100",
            ),
            ("serve-demo", &["--shards", "0"], "--shards must be auto|K"),
            ("generate", &["--case", "liver"], "requires --out FILE"),
        ];
        for (command, args, expected) in rejected {
            match parse(command, args) {
                Ok(_) => panic!("rtdose {command} {args:?} parsed"),
                Err(e) => assert!(e.contains(expected), "rtdose {command} {args:?}: {e}"),
            }
        }
        let f = parse("kernels", &[m, "--device", "v100"]).unwrap();
        assert_eq!((f.get("matrix"), f.get("device")), (Some(m), Some("v100")));
        let f = parse("serve-demo", &["--shards", "auto", "--replicas", "2"]).unwrap();
        assert_eq!(
            (f.count("shards"), f.count("replicas")),
            (Some(None), Some(Some(2)))
        );
    }

    #[test]
    #[should_panic(expected = "flag read but not declared: --tile")]
    fn reading_an_undeclared_flag_panics() {
        parse("stats", &["--matrix", "m.rtdm"]).unwrap().get("tile");
    }

    #[test]
    fn usage_lists_every_flag_indented_under_its_command() {
        let usage = usage_text();
        for c in COMMANDS {
            let head = format!("\n  rtdose {}\n", c.name);
            let at = usage.find(&head).unwrap_or_else(|| panic!("no {head:?}"));
            let mut lines = usage[at + head.len()..].lines();
            for a in c.args {
                let line = lines.next().unwrap_or_default();
                let row = line.strip_prefix("      ").unwrap_or_default();
                assert!(row.starts_with(&a.spelled()), "{}: {line:?}", c.name);
            }
            let next = lines.next().unwrap_or_default();
            assert!(
                !next.starts_with("      "),
                "{} lists an undeclared row {next:?}",
                c.name
            );
        }
        let widths: Vec<String> = TILE_WIDTHS.iter().map(|w| w.to_string()).collect();
        assert_eq!(TILE.syntax, format!("auto|{}", widths.join("|")));
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
