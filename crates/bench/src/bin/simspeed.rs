//! Simulator throughput tracker: launches every kernel suite below on one
//! interleaved loop and emits machine-readable `BENCH_simspeed.json`, so
//! modeled device time and host time are tracked across changes side by
//! side, never mixed.
//!
//! Seven suites:
//!
//! 1. `prostate-paper`: the paper's prostate case, warp-per-row vector
//!    kernel and the reduced-precision baseline pipeline;
//! 2. `shortrow`: a deterministic short-row demo matrix (avg nnz per
//!    non-empty row ≈ 4.5) at every tile width — the shape the
//!    row-adaptive tiles exist for;
//! 3. `liver-beam-1`: a deterministic "liver beam 1" serving shape (85%
//!    empty rows, a short-row shell plus a dense tail) at every fixed
//!    width and as the bucketed row-partition dispatch — the shape
//!    empty-row elimination and per-bucket width dispatch exist for;
//! 4. `liver-beam-1-sharded`: the same liver shape **row-sharded across a
//!    3×A100 pool**, served through the engine's placement
//!    (`rt_engine::Engine`, one replica group of 3 throughput-weighted row
//!    shards, probe-pinned bucket widths): one dose `call` per launch, the
//!    interconnect gather of each shard's rows charged to the critical
//!    path. `sim_speedup_vs_one_device` compares it against the bucketed
//!    dispatch fully resident on one device;
//! 5. a **placement break-even sweep** on the mixed 4-device demo pool
//!    (2×A100 + V100 + P100): the shard count `ShardSpec::Auto` resolves
//!    to for the liver and prostate plans, the K=1..=4 evidence table, and
//!    the modeled throughput of two concurrent requests under R=2 replica
//!    groups vs R=1 serializing pool-wide fan-outs (the `placement` JSON
//!    object);
//! 6. `liver-grad`: a deterministic optimizer shape whose **transpose** is
//!    empty-row heavy, timing the backward pass `Aᵀ r` at every fixed
//!    whole-transpose width and as the bucketed partition of the
//!    transpose, with the forward pass at its probed width alongside;
//! 7. a **drain-recovery sweep** on the same pool: modeled R=2 group
//!    times and pool throughput before the P100 is drained, after the
//!    drain with the registration-time deal kept, and after the engine's
//!    live re-deal over the three survivors (the `rebalance` JSON object).
//!
//! Each distinct launch is one entry, timed once. Every entry's device
//! state is built first; then one warm-up round and [`ROUNDS`] timed
//! rounds each launch every entry once, in order, so host drift hits every
//! entry alike. Each entry reports its host p10/p50/p90 ns per launch
//! (`host_ns_per_launch`); `nnz_per_sec`, `sectors_per_sec` and the host
//! `speedup_*` ratios derive from p50. The modeled fields (`report`,
//! `buckets`, `shards`, `sim_*` and `grad_*` ratios) come from each
//! entry's last launch, on a warm simulated L2. The probe's whole-matrix
//! width picks are recorded as `shortrow_autotune` and `liverb1_autotune`,
//! and the host and modeled ratios against a pick read the fixed-width
//! entry at that width. The speedups:
//!
//! * `speedup_vs_warp32`, `sim_speedup_vs_warp32`: against the suite's
//!   width-32 entry on the same operand;
//! * `speedup_vs_autotuned_w`: `liverb1_partitioned` against the
//!   fixed-width entry at `liverb1_autotune`'s width;
//! * `sim_speedup_vs_best_fixed`: `liverb1_partitioned` against the
//!   suite's best fixed width;
//! * `grad_speedup_vs_whole`: the same on the liver-grad transpose;
//! * `sim_speedup_vs_one_device`: the sharded critical path against
//!   `liverb1_partitioned`.
//!
//! Both modes check the eight CI gates of [`gates`] on modeled time (host
//! timing is too noisy to gate on) and exit 1 when any fails. `--quick` is
//! the same run with [`QUICK_ROUNDS`] timed rounds, and writes no file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    choose_shard_count, modeled_pool_throughput, modeled_whole_seconds, profile_baseline,
    profile_half_double, rs_baseline_gpu_spmv, vector_csr_spmm, vector_csr_spmm_bucketed,
    GpuCsrMatrix, GpuRowPlan, GpuRsMatrix, KernelChoice, KernelSelect, PartitionStrategy,
    ShardBreakEven, TILE_WIDTHS,
};
use rt_dose::cases::{prostate_case, ScaleConfig};
use rt_engine::{Engine, EngineClient, ExecPolicy, ReplicaSpec, RequestKind, ShardSpec};
use rt_f16::F16;
use rt_gpusim::json::Json;
use rt_gpusim::{
    snake_partition, snake_partition_subset, timing, BucketReport, DeviceSpec, Gpu, GroupStats,
    KernelProfile, KernelStats, LaunchReport, ShardReport, ShardedReport,
};
use rt_sparse::stats::RowStats;
use rt_sparse::{Csr, RowPlan, RsCompressed};
use std::sync::Arc;
use std::time::Instant;

/// Untimed rounds before the timed ones: they warm each entry's simulated
/// L2 and the host's caches and allocator.
const WARMUP_ROUNDS: usize = 1;
/// Timed rounds of a full run: one host sample per entry per round.
const ROUNDS: usize = 15;
/// Timed rounds of a `--quick` run.
const QUICK_ROUNDS: usize = 3;

/// Host nanoseconds per launch over the timed rounds, as nearest-rank
/// percentiles (each is one of the samples).
#[derive(Debug, PartialEq)]
struct HostNs {
    p10: u64,
    p50: u64,
    p90: u64,
}

impl HostNs {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "at least one timed sample");
        samples.sort_unstable();
        let rank = |pct: usize| samples[(pct * samples.len()).div_ceil(100) - 1];
        HostNs {
            p10: rank(10),
            p50: rank(50),
            p90: rank(90),
        }
    }
}

/// The one launch loop: `warmup` untimed rounds, then `rounds` timed
/// rounds, each calling every launch once in slice order. Returns each
/// launch's host percentiles and the output of its last call.
fn run_rounds<T, F: FnMut() -> T>(
    launches: &mut [F],
    warmup: usize,
    rounds: usize,
) -> Vec<(HostNs, T)> {
    for _ in 0..warmup {
        for launch in launches.iter_mut() {
            launch();
        }
    }
    let mut samples = vec![Vec::with_capacity(rounds); launches.len()];
    let mut last: Vec<Option<T>> = launches.iter().map(|_| None).collect();
    for _ in 0..rounds {
        for ((launch, samples), last) in launches.iter_mut().zip(&mut samples).zip(&mut last) {
            let t = Instant::now();
            let out = launch();
            samples.push(t.elapsed().as_nanos() as u64);
            *last = Some(out);
        }
    }
    samples
        .into_iter()
        .zip(last)
        .map(|(s, out)| (HostNs::from_samples(s), out.expect("a timed round ran")))
        .collect()
}

/// What one launch returns: the merged counters, plus the breakdown the
/// bucketed and sharded entries report.
enum Outcome {
    Whole(KernelStats),
    Bucketed(Arc<RowPlan>, GroupStats),
    Sharded(ShardedReport),
}

/// One timed launch: what the report says about it, and the closure that
/// runs it on device state it owns (or, for the sharded entry, through
/// the engine client it borrows).
struct Entry<'a> {
    name: String,
    nnz: u64,
    device: DeviceSpec,
    profile: KernelProfile,
    /// Whole-matrix width entries: the width and its scheduled lane
    /// occupancy.
    occupancy: Option<(u32, f64)>,
    launch: Box<dyn FnMut() -> Outcome + 'a>,
}

struct Measurement {
    name: String,
    host: HostNs,
    nnz: u64,
    /// Whole-matrix width entries: the tile width this entry ran at and
    /// the fraction of *scheduled* lane slots carrying a stored entry
    /// ([`RowStats::scheduled_lanes_active_frac`](rt_sparse::stats::RowStats::scheduled_lanes_active_frac)
    /// — a whole-matrix kernel schedules a tile for every row, so empty
    /// rows' padded lanes count against its occupancy; they are never
    /// counted as *occupied* slots anywhere).
    occupancy: Option<(u32, f64)>,
    /// Speedups, rendered in push order (see the module docs for each
    /// key): a host ratio of p50s, or a `sim_`/`grad_` ratio of modeled
    /// seconds.
    ratios: Vec<(&'static str, f64)>,
    /// Partitioned entry only: per-bucket breakdown of the fused
    /// dispatch (width, rows, true lane occupancy, standalone estimate).
    buckets: Option<Vec<BucketReport>>,
    /// Sharded entry only: per-shard breakdown (home device, row range,
    /// nnz, standalone compute estimate, gather cost).
    shards: Option<Vec<ShardReport>>,
    /// Unified per-launch record (counters + modeled time) in the same
    /// shape the serving engine and the calculator emit.
    report: LaunchReport,
}

impl Entry<'_> {
    fn measure(self, host: HostNs, outcome: Outcome) -> Measurement {
        let Entry {
            name,
            nnz,
            device,
            profile,
            occupancy,
            ..
        } = self;
        let launch_report = |stats: KernelStats| {
            let estimate = timing::estimate(&device, &profile, &stats);
            LaunchReport::new(profile.name.clone(), device.name, stats, estimate)
        };
        let (report, buckets, shards) = match outcome {
            Outcome::Whole(stats) => {
                let mut report = launch_report(stats);
                if let Some((width, _)) = occupancy {
                    report.tile_width = width;
                }
                (report, None, None)
            }
            Outcome::Bucketed(plan, group) => {
                let buckets = rt_core::bucketed_group_report(&device, &profile, &plan, &group);
                (launch_report(group.merged), Some(buckets.buckets), None)
            }
            Outcome::Sharded(r) => {
                // Pool-level record: merged counters; seconds and the
                // derived rates rebuilt around the critical path (the
                // per-device estimator has no notion of concurrent shards
                // or the gather hop).
                let pool = r.shards.len();
                let mut report = launch_report(r.stats);
                let seconds = r.modeled_seconds;
                let dram = (report.stats.dram_read_bytes + report.stats.dram_write_bytes) as f64;
                let estimate = &mut report.estimate;
                estimate.seconds = seconds;
                estimate.gflops = report.stats.flops as f64 / seconds / 1e9;
                estimate.dram_bw_gbps = dram / seconds / 1e9;
                estimate.frac_peak_bw = dram / seconds / (device.dram_bw * pool as f64);
                report.device = format!("{} x{pool}", device.name);
                (report, None, Some(r.shards))
            }
        };
        Measurement {
            name,
            host,
            nnz,
            occupancy,
            ratios: Vec::new(),
            buckets,
            shards,
            report,
        }
    }
}

/// Stable suite id for a kernel entry — the grouping key trend tooling
/// keys on, independent of entry names.
fn suite_id(name: &str) -> &'static str {
    if name.starts_with("shortrow_") {
        "shortrow"
    } else if name.starts_with("livergrad_") {
        "liver-grad"
    } else if name.starts_with("liverb1_sharded") {
        "liver-beam-1-sharded"
    } else if name.starts_with("liverb1_") {
        "liver-beam-1"
    } else {
        "prostate-paper"
    }
}

/// Total simulated L2 sector transactions in one launch.
fn sectors(s: &KernelStats) -> u64 {
    s.l2_read_hits + s.l2_read_misses + s.l2_write_sectors + s.atomic_ops
}

/// Deterministic short-row demo matrix: 60k voxel rows over 4096 spots,
/// ~30% empty, non-empty rows hold 1–8 entries (avg ≈ 4.5 nnz per
/// non-empty row). Warp-per-row wastes ≥ 24 of 32 lanes on every row
/// here; this is the shape the sub-warp tiles are for.
fn short_row_matrix() -> Csr<F16, u32> {
    let mut rng = StdRng::seed_from_u64(42);
    let ncols = 4096;
    let rows: Vec<Vec<(usize, f64)>> = (0..60_000)
        .map(|_| {
            if rng.gen_bool(0.3) {
                return Vec::new();
            }
            let len = rng.gen_range(1..=8);
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

/// Deterministic "liver beam 1" serving shape: a large dose grid where
/// one beam's dose shell touches few voxels. ~95% of the 800k voxel
/// rows are empty; the non-empty rows split into a short-row shell
/// (1–2 nnz) and a dense core tail (~900 rows of 512–1024 nnz) that
/// carries most of the bytes — the Table I row-1 shape at serving
/// resolution. A whole-matrix kernel pays a tile per empty row here;
/// the bucketed partition drops them outright.
fn liver_beam1_matrix() -> Csr<F16, u32> {
    let mut rng = StdRng::seed_from_u64(1337);
    let ncols = 8192;
    let rows: Vec<Vec<(usize, f64)>> = (0..800_000)
        .map(|i| {
            if i % 889 == 0 {
                // Core voxel: hit by hundreds of overlapping spots.
                let len: usize = rng.gen_range(512..=1024);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..2.0)))
                    .collect()
            } else if rng.gen_bool(0.05) {
                // Shell voxel: grazed by one or two scattered spots.
                let len = rng.gen_range(1..=2);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..2.0)))
                    .collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let m: Csr<f64, u32> = Csr::from_rows(ncols, &rows).unwrap();
    m.convert_values()
}

/// Deterministic "liver gradient" optimizer shape: one beam's dose
/// shell over the *full plan's* beamlet axis (480k beamlets). The
/// interesting operand is the **transpose** (one beamlet per row —
/// what every gradient `Aᵀ r` runs over): ~98% of beamlet rows are
/// empty (beams that never graze this shell), a handful of
/// central-axis beamlets deposit along their whole track through the
/// grid (256–512 voxels each), and a ~2% fringe of edge beamlets
/// graze one or two shell voxels. No single tile width suits both
/// populations, and a whole-transpose kernel pays a tile per silent
/// beamlet on every gradient — the same Table I skew the forward-path
/// liver beam-1 suite has, now on the backward operand. The bucketed
/// partition of the transpose drops the silent rows and splits the
/// fringe from the tracks; this is the shape the §4g gradient
/// partition exists for. Built transpose-first, returned as the
/// forward voxels × beamlets operand.
fn liver_grad_matrix() -> Csr<F16, u32> {
    let mut rng = StdRng::seed_from_u64(2021);
    let nvoxels = 32_768;
    let beamlet_rows: Vec<Vec<(usize, f64)>> = (0..480_000)
        .map(|i| {
            if i % 4_666 == 0 {
                // Central-axis beamlet: deposits along its whole track.
                let len: usize = rng.gen_range(256..=512);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..nvoxels)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..2.0)))
                    .collect()
            } else if rng.gen_bool(0.02) {
                // Edge beamlet: grazes one or two shell voxels.
                let len = rng.gen_range(1..=2);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..nvoxels)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..2.0)))
                    .collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let t: Csr<f64, u32> = Csr::from_rows(nvoxels, &beamlet_rows).unwrap();
    let t: Csr<F16, u32> = t.convert_values();
    t.transpose()
}

/// A whole-matrix vector-CSR launch at `width` on its own device.
/// `row_stats` adds the width and its scheduled lane occupancy to the
/// entry: a whole-matrix launch gives every row — including every empty
/// row — a tile, so empty rows' padded lanes count against this figure
/// (they are never *occupied*).
fn whole_entry<'a>(
    name: impl Into<String>,
    csr: &Csr<F16, u32>,
    width: u32,
    row_stats: Option<&RowStats>,
    device: &DeviceSpec,
) -> Entry<'a> {
    let gpu = Gpu::new(device.clone());
    let m = GpuCsrMatrix::upload(&gpu, csr);
    let x = gpu.upload(&vec![1.0f64; csr.ncols()]);
    let y = gpu.alloc_out::<f64>(csr.nrows());
    Entry {
        name: name.into(),
        nnz: csr.nnz() as u64,
        device: device.clone(),
        profile: profile_half_double(),
        occupancy: row_stats.map(|s| (width, s.scheduled_lanes_active_frac(width))),
        launch: Box::new(move || {
            Outcome::Whole(vector_csr_spmm(&gpu, &m, &[&x], &[&y], 512, width))
        }),
    }
}

/// [`whole_entry`] at every tile width, named `{prefix}{w}`.
fn width_entries<'a>(
    prefix: &str,
    csr: &Csr<F16, u32>,
    row_stats: &RowStats,
    device: &DeviceSpec,
) -> Vec<Entry<'a>> {
    TILE_WIDTHS
        .iter()
        .map(|&w| whole_entry(format!("{prefix}{w}"), csr, w, Some(row_stats), device))
        .collect()
}

/// The paper's reduced-precision baseline pipeline on its own device. It
/// accumulates into the output with atomics, so each launch clears it.
fn baseline_entry<'a>(name: &str, csr: &Csr<F16, u32>, device: &DeviceSpec) -> Entry<'a> {
    let rs = RsCompressed::from_csr(csr);
    let gpu = Gpu::new(device.clone());
    let m = GpuRsMatrix::upload(&gpu, &rs);
    let x = gpu.upload(&vec![1.0f64; csr.ncols()]);
    let y = gpu.alloc_out::<f64>(rs.nrows());
    Entry {
        name: name.into(),
        nnz: csr.nnz() as u64,
        device: device.clone(),
        profile: profile_baseline(),
        occupancy: None,
        launch: Box::new(move || {
            y.clear();
            Outcome::Whole(rs_baseline_gpu_spmv(&gpu, &m, &x, &y, 128))
        }),
    }
}

/// The bucketed row-partition dispatch on its own device, at the
/// per-bucket widths the measured probe picks.
fn partitioned_entry<'a>(name: &str, csr: &Csr<F16, u32>, device: &DeviceSpec) -> Entry<'a> {
    let widths = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe)
        .choose(device, csr, 512)
        .expect("partitioned probe cannot fail on a valid matrix")
        .bucket_widths();
    let plan = Arc::new(RowPlan::from_csr(csr));
    let gpu = Gpu::new(device.clone());
    let m = GpuCsrMatrix::upload(&gpu, csr);
    let gplan = GpuRowPlan::upload(&gpu, plan.clone());
    let x = gpu.upload(&vec![1.0f64; csr.ncols()]);
    let y = gpu.alloc_out::<f64>(csr.nrows());
    Entry {
        name: name.into(),
        nnz: csr.nnz() as u64,
        device: device.clone(),
        profile: profile_half_double(),
        occupancy: None,
        launch: Box::new(move || {
            let group = vector_csr_spmm_bucketed(&gpu, &m, &[&x], &[&y], 512, &gplan, widths);
            Outcome::Bucketed(plan.clone(), group)
        }),
    }
}

/// An engine over `pool` identical devices holding `csr` as plan `name`,
/// placed as one replica group of `pool` throughput-weighted row shards
/// (one resident per device), every shard running the bucketed dispatch
/// at the widths the probe pinned from the whole matrix.
fn sharded_engine(name: &str, csr: &Csr<F16, u32>, device: &DeviceSpec, pool: usize) -> Engine {
    let policy = ExecPolicy::builder()
        .kernel_select(KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe))
        .shards(ShardSpec::Fixed(pool))
        .replicas(ReplicaSpec::Fixed(1))
        .build()
        .expect("a fixed shard and replica count is a valid policy");
    let mut engine = Engine::builder()
        .devices(vec![device.clone(); pool])
        .default_policy(policy)
        .build()
        .expect("a non-empty pool builds");
    engine
        .register_plan(name, &csr.convert_values())
        .expect("a valid matrix registers");
    engine
}

/// One dose request for plan `name` of [`sharded_engine`] per launch. Its
/// modeled figure is the fan-out's critical path — `max` over shards of
/// compute plus the interconnect gather of the shard's rows — i.e. what
/// one cooperative request finishes in.
fn sharded_entry<'a>(
    name: &str,
    csr: &Csr<F16, u32>,
    device: &DeviceSpec,
    client: &'a EngineClient<'_>,
) -> Entry<'a> {
    let plan = name.to_string();
    let x = vec![1.0f64; csr.ncols()];
    Entry {
        name: name.into(),
        nnz: csr.nnz() as u64,
        device: device.clone(),
        profile: profile_half_double(),
        occupancy: None,
        launch: Box::new(move || {
            let response = client
                .call(&plan, RequestKind::Dose, x.clone())
                .expect("a registered plan serves");
            Outcome::Sharded(response.shards.expect("every response carries its shards"))
        }),
    }
}

/// Modeled placement verdict for one plan on the mixed 4-device demo
/// pool (2×A100 + V100 + P100) — the same break-even model the serving
/// engine's `ShardSpec::Auto` runs at plan registration.
///
/// * `breakeven` sweeps K=1..=pool on the full pool (shard `i` homes on
///   the `i`-th fastest device, throughput-weighted cuts).
/// * `r2_throughput_ratio` compares two concurrent requests under R=2
///   (pool snake-dealt into two bandwidth-matched groups, each serving
///   one whole request at its own break-even K) against R=1 serializing
///   two pool-wide K=pool fan-outs back-to-back.
struct PlacementVerdict {
    breakeven: ShardBreakEven,
    t_k1: f64,
    t_kpool: f64,
    t_auto: f64,
    group_seconds: Vec<f64>,
    r2_throughput_ratio: f64,
}

fn placement_pool() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
    ]
}

/// `whole_seconds` is the plan's modeled whole-matrix time on the pool's
/// reference (fastest) device — a measured-probe figure where one
/// exists, the analytic [`modeled_whole_seconds`] otherwise.
fn placement_verdict(whole_seconds: f64, nonempty_rows: usize) -> PlacementVerdict {
    let pool = placement_pool();
    let breakeven = choose_shard_count(&pool, whole_seconds, nonempty_rows, pool.len());
    let t_k1 = breakeven.candidates[0].modeled_seconds;
    let t_kpool = breakeven.candidates[pool.len() - 1].modeled_seconds;
    let t_auto = breakeven.candidates[breakeven.k - 1].modeled_seconds;

    let weights: Vec<f64> = pool.iter().map(|d| d.effective_dram_bw()).collect();
    let group_seconds = group_seconds_over(
        &pool,
        &snake_partition(&weights, 2),
        whole_seconds,
        nonempty_rows,
    );
    let slowest_group = group_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
    PlacementVerdict {
        breakeven,
        t_k1,
        t_kpool,
        t_auto,
        group_seconds,
        r2_throughput_ratio: 2.0 * t_kpool / slowest_group,
    }
}

/// Modeled time of each replica group over `members` (absolute pool
/// indices), at the group's own break-even K. The whole-matrix time is
/// rescaled from the pool's reference device to the group's own
/// reference device — the same scaling the engine applies at placement.
fn group_seconds_over(
    pool: &[DeviceSpec],
    groups: &[Vec<usize>],
    whole_seconds: f64,
    nonempty_rows: usize,
) -> Vec<f64> {
    let reference = &pool[0];
    let work = (whole_seconds - reference.launch_overhead_s).max(0.0);
    groups
        .iter()
        .map(|members| {
            let devs: Vec<DeviceSpec> = members.iter().map(|&i| pool[i].clone()).collect();
            let scaled = devs[0].launch_overhead_s
                + work * reference.effective_dram_bw() / devs[0].effective_dram_bw();
            let gbe = choose_shard_count(&devs, scaled, nonempty_rows, devs.len());
            gbe.candidates[gbe.k - 1].modeled_seconds
        })
        .collect()
}

/// Modeled drain-recovery verdict on the mixed 4-device pool: R=2
/// snake-dealt groups pre-drain, then the P100 (pool device 3) taken
/// out for maintenance.
///
/// * `naive_throughput` keeps the registration-time deal — the group
///   that placed shards on the drained device can accept no new
///   fan-outs, so only the untouched groups keep serving;
/// * `redealt_throughput` is the engine's live re-deal
///   (`snake_partition_subset` over the survivors, each group back at
///   its own break-even K) — what `drain_device` swaps in.
struct RebalanceVerdict {
    drained_name: &'static str,
    pre_group_seconds: Vec<f64>,
    pre_throughput: f64,
    naive_throughput: f64,
    redealt_group_seconds: Vec<f64>,
    redealt_throughput: f64,
}

fn rebalance_verdict(whole_seconds: f64, nonempty_rows: usize) -> RebalanceVerdict {
    let pool = placement_pool();
    let weights: Vec<f64> = pool.iter().map(|d| d.effective_dram_bw()).collect();
    let drained = pool.len() - 1;
    let pre_groups = snake_partition(&weights, 2);
    let pre_group_seconds = group_seconds_over(&pool, &pre_groups, whole_seconds, nonempty_rows);
    let pre_throughput = modeled_pool_throughput(&pre_group_seconds);
    let naive: Vec<f64> = pre_groups
        .iter()
        .zip(&pre_group_seconds)
        .filter(|(members, _)| !members.contains(&drained))
        .map(|(_, &s)| s)
        .collect();
    let naive_throughput = modeled_pool_throughput(&naive);
    let live: Vec<usize> = (0..pool.len()).filter(|&d| d != drained).collect();
    let redealt = snake_partition_subset(&weights, &live, 2);
    let redealt_group_seconds = group_seconds_over(&pool, &redealt, whole_seconds, nonempty_rows);
    let redealt_throughput = modeled_pool_throughput(&redealt_group_seconds);
    RebalanceVerdict {
        drained_name: pool[drained].name,
        pre_group_seconds,
        pre_throughput,
        naive_throughput,
        redealt_group_seconds,
        redealt_throughput,
    }
}

/// Modeled seconds as a JSON array of microseconds (`{:.3}`).
fn us_array(seconds: &[f64]) -> Json {
    Json::arr(seconds.iter().map(|s| Json::fixed(s * 1e6, 3)))
}

fn rebalance_json(v: &RebalanceVerdict) -> Json {
    let per_s = |throughput: f64| Json::fixed(throughput, 1);
    let ratio = |throughput: f64| Json::fixed(throughput / v.pre_throughput, 3);
    Json::obj()
        .field("drained_device", v.drained_name)
        .field("pre_group_us", us_array(&v.pre_group_seconds))
        .field("pre_throughput_per_s", per_s(v.pre_throughput))
        .field("naive_throughput_per_s", per_s(v.naive_throughput))
        .field("redealt_group_us", us_array(&v.redealt_group_seconds))
        .field("redealt_throughput_per_s", per_s(v.redealt_throughput))
        .field("recovery_ratio", ratio(v.redealt_throughput))
        .field("naive_ratio", ratio(v.naive_throughput))
}

fn placement_json(liver: &PlacementVerdict, prostate: &PlacementVerdict) -> Json {
    let speedup = |seconds: f64| Json::fixed(seconds / liver.t_auto, 2);
    let breakeven = liver.breakeven.candidates.iter().map(|p| {
        Json::obj()
            .field("k", p.k)
            .field("modeled_us", Json::fixed(p.modeled_seconds * 1e6, 3))
    });
    Json::obj()
        .field("pool", Json::arr(placement_pool().iter().map(|d| d.name)))
        .field("liver_auto_k", liver.breakeven.k)
        .field("liver_breakeven_us", Json::arr(breakeven))
        .field("liver_auto_speedup_vs_k1", speedup(liver.t_k1))
        .field("liver_auto_speedup_vs_kpool", speedup(liver.t_kpool))
        .field("liver_r2_group_us", us_array(&liver.group_seconds))
        .field(
            "liver_r2_throughput_ratio_vs_r1",
            Json::fixed(liver.r2_throughput_ratio, 2),
        )
        .field("prostate_auto_k", prostate.breakeven.k)
}

fn kernel_json(m: &Measurement) -> Json {
    let per_sec = 1e9 / m.host.p50 as f64;
    let n_sectors = sectors(&m.report.stats);
    let host = Json::obj()
        .field("p10", m.host.p10)
        .field("p50", m.host.p50)
        .field("p90", m.host.p90);
    let mut k = Json::obj()
        .field("name", &m.name)
        .field("suite", suite_id(&m.name))
        .field("host_ns_per_launch", host)
        .field("nnz", m.nnz)
        .field("nnz_per_sec", Json::sci(m.nnz as f64 * per_sec, 4))
        .field("sectors_per_launch", n_sectors)
        .field("sectors_per_sec", Json::sci(n_sectors as f64 * per_sec, 4));
    if let Some((width, lanes_active_frac)) = m.occupancy {
        k = k
            .field("tile_width", width)
            .field("lanes_active_frac", Json::fixed(lanes_active_frac, 4));
    }
    for &(key, ratio) in &m.ratios {
        k = k.field(key, Json::fixed(ratio, 2));
    }
    if let Some(shards) = &m.shards {
        let shards = shards.iter().map(|s| {
            Json::obj()
                .field("shard", s.shard)
                .field("device", &s.device)
                .field("row_start", s.row_start)
                .field("rows", s.rows)
                .field("nnz", s.nnz)
                .field("modeled_us", Json::fixed(s.estimate.seconds * 1e6, 3))
                .field("gather_us", Json::fixed(s.gather_seconds * 1e6, 3))
        });
        k = k.field("shards", Json::arr(shards));
    }
    if let Some(buckets) = &m.buckets {
        let buckets = buckets.iter().map(|b| {
            Json::obj()
                .field("label", &b.label)
                .field("tile_width", b.tile_width)
                .field("rows", b.rows)
                .field("lanes_active_frac", Json::fixed(b.lanes_active_frac, 4))
        });
        k = k.field("buckets", Json::arr(buckets));
    }
    // The unified LaunchReport shape (same as the serving engine's
    // per-response reports and DoseCalculator results).
    k.field("report", &m.report)
}

fn autotune_json(choice: &KernelChoice) -> Json {
    Json::obj()
        .field("mode", choice.mode)
        .field("tile_width", choice.tile_width)
        .field("avg_nnz_nonempty", Json::fixed(choice.avg_nnz_nonempty, 2))
}

fn render_json(
    measurements: &[Measurement],
    rounds: usize,
    short_choice: &KernelChoice,
    liver_choice: &KernelChoice,
    placement: Json,
    rebalance: Json,
) -> String {
    let mut out = Json::obj()
        .field("bench", "sim_kernels")
        .field("schema_version", 4u32)
        .field("warmup_rounds", WARMUP_ROUNDS)
        .field("rounds", rounds)
        .field("shortrow_autotune", autotune_json(short_choice))
        .field("liverb1_autotune", autotune_json(liver_choice))
        .field("placement", placement)
        .field("rebalance", rebalance)
        .field("kernels", Json::arr(measurements.iter().map(kernel_json)))
        .render();
    out.push('\n');
    out
}

/// The modeled figures the CI gates read, all from one run.
struct GateInputs {
    /// The short-row whole-matrix probe's pick and how it was made.
    short_auto_width: u32,
    short_auto_mode: &'static str,
    /// Short-row fixed-width entries at the pick and at width 32.
    short_auto_s: f64,
    short_w32_s: f64,
    liver_part_s: f64,
    liver_best_fixed_s: f64,
    liver_sharded_s: f64,
    liver_place: PlacementVerdict,
    prostate_whole_s: f64,
    prostate_place: PlacementVerdict,
    grad_part_s: f64,
    grad_best_fixed_s: f64,
    rebalance: RebalanceVerdict,
}

/// One CI gate's verdict: a stable name and the modeled figures it read,
/// with its bar.
struct Gate {
    name: &'static str,
    passed: bool,
    detail: String,
}

/// The eight CI gates, on warm-cache modeled time — for the autotuners,
/// the cooperative pool, the placement engine, the backward-pass
/// partition and live rebalancing.
fn gates(g: &GateInputs) -> Vec<Gate> {
    let gate = |name, passed, detail| Gate {
        name,
        passed,
        detail,
    };
    let (liver, prostate, rebal) = (&g.liver_place, &g.prostate_place, &g.rebalance);
    let us = 1e6;
    let (sharded_bar, r2_bar, grad_bar, drain_bar) = (1.6, 1.5, 1.4, 0.8);
    vec![
        gate(
            "autotune_vs_warp32",
            g.short_auto_s <= g.short_w32_s,
            format!(
                "short-row autotuned w{} ({}): {:.3} us modeled vs warp32 {:.3} us ({:.2}x, bar >= 1x)",
                g.short_auto_width,
                g.short_auto_mode,
                g.short_auto_s * us,
                g.short_w32_s * us,
                g.short_w32_s / g.short_auto_s,
            ),
        ),
        gate(
            "partitioned_vs_best_fixed",
            g.liver_part_s <= g.liver_best_fixed_s,
            format!(
                "liver partitioned: {:.3} us modeled vs best fixed {:.3} us ({:.2}x, bar >= 1x)",
                g.liver_part_s * us,
                g.liver_best_fixed_s * us,
                g.liver_best_fixed_s / g.liver_part_s,
            ),
        ),
        gate(
            "sharded_vs_one_device",
            g.liver_part_s / g.liver_sharded_s >= sharded_bar,
            format!(
                "liver sharded x3: {:.3} us modeled critical path vs one device {:.3} us ({:.2}x, bar >= {sharded_bar}x)",
                g.liver_sharded_s * us,
                g.liver_part_s * us,
                g.liver_part_s / g.liver_sharded_s,
            ),
        ),
        gate(
            "auto_k_interior",
            liver.t_auto < liver.t_k1 && liver.t_auto < liver.t_kpool,
            format!(
                "liver auto K={} ({:.3} us) vs K=1 {:.3} us, K=pool {:.3} us (bar: below both)",
                liver.breakeven.k,
                liver.t_auto * us,
                liver.t_k1 * us,
                liver.t_kpool * us,
            ),
        ),
        gate(
            "r2_vs_r1_throughput",
            liver.r2_throughput_ratio > r2_bar,
            format!(
                "liver R=2 vs R=1 serialized throughput {:.2}x (bar > {r2_bar}x)",
                liver.r2_throughput_ratio,
            ),
        ),
        gate(
            "prostate_k1",
            prostate.breakeven.k == 1,
            format!(
                "prostate auto K={} (whole {:.3} us, bar K=1)",
                prostate.breakeven.k,
                g.prostate_whole_s * us,
            ),
        ),
        gate(
            "grad_partitioned_vs_whole",
            g.grad_best_fixed_s / g.grad_part_s >= grad_bar,
            format!(
                "gradient partitioned: {:.3} us modeled vs best fixed whole-transpose {:.3} us ({:.2}x, bar >= {grad_bar}x)",
                g.grad_part_s * us,
                g.grad_best_fixed_s * us,
                g.grad_best_fixed_s / g.grad_part_s,
            ),
        ),
        gate(
            "drain_recovery",
            rebal.redealt_throughput >= drain_bar * rebal.pre_throughput,
            format!(
                "drain {}: pre {:.0}/s -> naive {:.0}/s, re-dealt {:.0}/s (recovery {:.2}x, bar >= {drain_bar}x)",
                rebal.drained_name,
                rebal.pre_throughput,
                rebal.naive_throughput,
                rebal.redealt_throughput,
                rebal.redealt_throughput / rebal.pre_throughput,
            ),
        ),
    ]
}

fn probe(device: &DeviceSpec, csr: &Csr<F16, u32>) -> KernelChoice {
    KernelSelect::MeasuredProbe
        .choose(device, csr, 512)
        .expect("probe cannot fail on a valid matrix")
}

fn at(ms: &[Measurement], name: &str) -> usize {
    ms.iter()
        .position(|m| m.name == name)
        .unwrap_or_else(|| panic!("entry {name} is launched every run"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let device = DeviceSpec::a100();

    let prostate: Csr<F16, u32> = prostate_case(ScaleConfig { shrink: 12.0 })
        .remove(0)
        .matrix
        .convert_values();
    let short = short_row_matrix();
    let short_stats = RowStats::from_csr(&short);
    let short_choice = probe(&device, &short);
    let liver = liver_beam1_matrix();
    let liver_stats = RowStats::from_csr(&liver);
    let liver_choice = probe(&device, &liver);
    let grad_fwd = liver_grad_matrix();
    let grad_t: Csr<F16, u32> = grad_fwd.transpose();
    let fwd_stats = RowStats::from_csr(&grad_fwd);
    let bwd_stats = RowStats::from_csr(&grad_t);
    let fwd_choice = probe(&device, &grad_fwd);

    // Suite 4's pool serves for the whole loop; every other entry owns
    // its device.
    let sharded = "liverb1_sharded_x3";
    let engine = sharded_engine(sharded, &liver, &device, 3);
    let (mut ms, _) = engine.serve(|client| {
        let mut entries = vec![
            whole_entry("vector_csr_half_double", &prostate, 32, None, &device),
            baseline_entry("baseline_segment_atomic", &prostate, &device),
        ];
        entries.extend(width_entries(
            "shortrow_tiled_w",
            &short,
            &short_stats,
            &device,
        ));
        entries.extend(width_entries(
            "liverb1_tiled_w",
            &liver,
            &liver_stats,
            &device,
        ));
        entries.push(partitioned_entry("liverb1_partitioned", &liver, &device));
        entries.push(sharded_entry(sharded, &liver, &device, client));
        entries.push(whole_entry(
            "livergrad_forward_auto",
            &grad_fwd,
            fwd_choice.tile_width,
            Some(&fwd_stats),
            &device,
        ));
        entries.extend(width_entries(
            "livergrad_grad_w",
            &grad_t,
            &bwd_stats,
            &device,
        ));
        entries.push(partitioned_entry(
            "livergrad_grad_partitioned",
            &grad_t,
            &device,
        ));

        let mut launches: Vec<_> = entries.iter_mut().map(|e| &mut e.launch).collect();
        let runs = run_rounds(&mut launches, WARMUP_ROUNDS, rounds);
        entries
            .into_iter()
            .zip(runs)
            .map(|(e, (host, outcome))| e.measure(host, outcome))
            .collect::<Vec<_>>()
    });

    let seconds = |name: &str| ms[at(&ms, name)].report.estimate.seconds;
    let best_fixed_s = |prefix: &str| {
        TILE_WIDTHS
            .iter()
            .map(|w| seconds(&format!("{prefix}{w}")))
            .fold(f64::INFINITY, f64::min)
    };
    let liver_part_s = seconds("liverb1_partitioned");
    let liver_nonempty = liver.nrows() - liver_stats.empty_rows;
    // Suite 5: the placement model. Liver uses the measured partitioned
    // time as its whole-matrix figure; prostate uses the analytic
    // estimate (the engine's fallback when no probe ran).
    let prostate_whole_s = modeled_whole_seconds(
        &device,
        prostate.nrows(),
        prostate.ncols(),
        prostate.nnz(),
        2,
        4,
    );
    let prostate_nonempty = prostate.nrows() - RowStats::from_csr(&prostate).empty_rows;
    let g = GateInputs {
        short_auto_width: short_choice.tile_width,
        short_auto_mode: short_choice.mode,
        short_auto_s: seconds(&format!("shortrow_tiled_w{}", short_choice.tile_width)),
        short_w32_s: seconds("shortrow_tiled_w32"),
        liver_part_s,
        liver_best_fixed_s: best_fixed_s("liverb1_tiled_w"),
        liver_sharded_s: seconds(sharded),
        liver_place: placement_verdict(liver_part_s, liver_nonempty),
        prostate_whole_s,
        prostate_place: placement_verdict(prostate_whole_s, prostate_nonempty),
        grad_part_s: seconds("livergrad_grad_partitioned"),
        grad_best_fixed_s: best_fixed_s("livergrad_grad_w"),
        // Suite 7: what `drain_device` models when the P100 leaves
        // mid-session and the liver plan is re-dealt over the survivors.
        rebalance: rebalance_verdict(liver_part_s, liver_nonempty),
    };

    // Host and modeled speedups over each suite's warp-per-row entry, on
    // every entry that runs the same operand.
    for (prefix, w32) in [
        ("shortrow_", "shortrow_tiled_w32"),
        ("liverb1_", "liverb1_tiled_w32"),
        ("livergrad_grad_", "livergrad_grad_w32"),
    ] {
        let base = &ms[at(&ms, w32)];
        let (ns, s) = (base.host.p50 as f64, base.report.estimate.seconds);
        for m in ms
            .iter_mut()
            .filter(|m| m.name.starts_with(prefix) && suite_id(&m.name) == suite_id(w32))
        {
            m.ratios.push(("speedup_vs_warp32", ns / m.host.p50 as f64));
            m.ratios
                .push(("sim_speedup_vs_warp32", s / m.report.estimate.seconds));
        }
    }
    let p50 = |name: &str| ms[at(&ms, name)].host.p50 as f64;
    let part = "liverb1_partitioned";
    let auto = format!("liverb1_tiled_w{}", liver_choice.tile_width);
    let ratios = [
        (part, "speedup_vs_autotuned_w", p50(&auto) / p50(part)),
        (
            part,
            "sim_speedup_vs_best_fixed",
            g.liver_best_fixed_s / g.liver_part_s,
        ),
        (
            sharded,
            "sim_speedup_vs_one_device",
            g.liver_part_s / g.liver_sharded_s,
        ),
        (
            "livergrad_grad_partitioned",
            "grad_speedup_vs_whole",
            g.grad_best_fixed_s / g.grad_part_s,
        ),
    ];
    for (name, key, ratio) in ratios {
        let i = at(&ms, name);
        ms[i].ratios.push((key, ratio));
    }

    let json = render_json(
        &ms,
        rounds,
        &short_choice,
        &liver_choice,
        placement_json(&g.liver_place, &g.prostate_place),
        rebalance_json(&g.rebalance),
    );
    print!("{json}");
    if !quick {
        let path = "BENCH_simspeed.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("[saved {path}]"),
            Err(e) => eprintln!("[could not save {path}: {e}]"),
        }
    }
    let mut failed = false;
    for gate in gates(&g) {
        let verdict = if gate.passed { "pass" } else { "FAIL" };
        eprintln!("{verdict} {}: {}", gate.name, gate.detail);
        failed |= !gate.passed;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_gpusim::json::minify;
    use std::cell::RefCell;

    #[test]
    fn every_entry_runs_warmup_plus_rounds_interleaved() {
        let log = RefCell::new(Vec::new());
        let mut launches: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|name| {
                let log = &log;
                let mut calls = 0;
                move || {
                    log.borrow_mut().push(name);
                    calls += 1;
                    calls
                }
            })
            .collect();
        let runs = run_rounds(&mut launches, 2, 4);
        let expected: Vec<&str> = (0..2 + 4).flat_map(|_| ["a", "b", "c"]).collect();
        assert_eq!(*log.borrow(), expected);
        // Each entry hands back the output of its sixth and last call.
        assert!(runs.iter().all(|(_, last)| *last == 6));
    }

    #[test]
    fn host_percentiles_are_nearest_rank_samples() {
        // 15 samples, shuffled: ranks 2, 8 and 14 of 10, 20, ..., 150.
        let samples = vec![
            70, 150, 10, 120, 40, 90, 30, 140, 60, 110, 20, 130, 80, 50, 100,
        ];
        let host = HostNs::from_samples(samples);
        assert_eq!(
            host,
            HostNs {
                p10: 20,
                p50: 80,
                p90: 140
            }
        );
        // Three samples (a --quick run): min, median, max.
        let host = HostNs::from_samples(vec![9, 3, 5]);
        assert_eq!((host.p10, host.p50, host.p90), (3, 5, 9));
    }

    fn passing_inputs() -> GateInputs {
        GateInputs {
            short_auto_width: 2,
            short_auto_mode: "probe",
            short_auto_s: 4.7e-6,
            short_w32_s: 13.6e-6,
            liver_part_s: 9.4e-6,
            liver_best_fixed_s: 15.4e-6,
            liver_sharded_s: 5.3e-6,
            liver_place: placement_verdict(1e-5, 5000),
            prostate_whole_s: 2e-6,
            prostate_place: placement_verdict(2e-6, 500),
            grad_part_s: 6.6e-6,
            grad_best_fixed_s: 10.4e-6,
            rebalance: rebalance_verdict(1e-5, 5000),
        }
    }

    fn failed(g: &GateInputs) -> Vec<&'static str> {
        let all = gates(g);
        assert_eq!(all.len(), 8);
        all.into_iter()
            .filter(|gate| !gate.passed)
            .map(|gate| gate.name)
            .collect()
    }

    #[test]
    fn each_gate_fails_alone_on_its_own_figure() {
        assert!(failed(&passing_inputs()).is_empty());
        type BreakGate = fn(&mut GateInputs);
        let cases: [(&str, BreakGate); 8] = [
            ("autotune_vs_warp32", |g| g.short_auto_s = 14e-6),
            ("partitioned_vs_best_fixed", |g| g.liver_part_s = 16e-6),
            ("sharded_vs_one_device", |g| g.liver_sharded_s = 6e-6),
            ("auto_k_interior", |g| {
                g.liver_place.t_auto = g.liver_place.t_k1
            }),
            ("r2_vs_r1_throughput", |g| {
                g.liver_place.r2_throughput_ratio = 1.5
            }),
            ("prostate_k1", |g| g.prostate_place.breakeven.k = 2),
            ("grad_partitioned_vs_whole", |g| g.grad_part_s = 7.5e-6),
            ("drain_recovery", |g| {
                g.rebalance.redealt_throughput = 0.79 * g.rebalance.pre_throughput
            }),
        ];
        for (name, break_gate) in cases {
            let mut g = passing_inputs();
            break_gate(&mut g);
            assert_eq!(failed(&g), [name], "only {name} should fail");
        }
    }

    /// A one-kernel document with every optional field present, pinned to
    /// the schema-4 rendering of `BENCH_simspeed.json`.
    #[test]
    fn one_kernel_document_is_pinned() {
        let stats = KernelStats {
            flops: 2000,
            warps: 16,
            blocks: 2,
            threads_per_block: 512,
            requested_bytes: 8192,
            l2_read_hits: 40,
            l2_read_misses: 200,
            l2_write_sectors: 16,
            dram_writeback_sectors: 16,
            dram_read_bytes: 6400,
            dram_write_bytes: 512,
            atomic_ops: 0,
        };
        let entry = Entry {
            name: "vector_csr_half_double".into(),
            nnz: 1000,
            device: DeviceSpec::a100(),
            profile: profile_half_double(),
            occupancy: Some((4, 0.5625)),
            launch: Box::new(|| unreachable!("the document is built from a given outcome")),
        };
        // Host timing differs run to run; pin fixed figures.
        let host = HostNs {
            p10: 1_000_000,
            p50: 1_250_000,
            p90: 2_000_000,
        };
        let mut m = entry.measure(host, Outcome::Whole(stats.clone()));
        m.ratios = vec![
            ("speedup_vs_warp32", 1.5),
            ("sim_speedup_vs_warp32", 2.25),
            ("speedup_vs_autotuned_w", 1.125),
            ("sim_speedup_vs_best_fixed", 1.75),
            ("grad_speedup_vs_whole", 3.0),
            ("sim_speedup_vs_one_device", 2.5),
        ];
        let estimate = m.report.estimate.clone();
        m.buckets = Some(vec![BucketReport {
            label: "rows 1-2".into(),
            tile_width: 2,
            rows: 300,
            lanes_active_frac: 0.75,
            stats: stats.clone(),
            estimate: estimate.clone(),
        }]);
        m.shards = Some(vec![ShardReport {
            shard: 0,
            device: "A100".into(),
            row_start: 0,
            rows: 600,
            nnz: 1000,
            dispatch: "w=8".into(),
            stats,
            estimate,
            gather_bytes: 4800,
            gather_seconds: 2.0e-6,
        }]);
        let choice = |mode, tile_width, avg_nnz_nonempty| KernelChoice {
            tile_width,
            mode,
            avg_nnz_nonempty,
            candidates: Vec::new(),
            buckets: Vec::new(),
        };
        let j = render_json(
            &[m],
            15,
            &choice("probe", 2, 4.5),
            &choice("probe", 4, 1.8),
            placement_json(
                &placement_verdict(1e-5, 5000),
                &placement_verdict(2e-6, 500),
            ),
            rebalance_json(&rebalance_verdict(1e-5, 5000)),
        );
        assert_eq!(
            minify(&j),
            r#"{"bench":"sim_kernels","schema_version":4,"warmup_rounds":1,"rounds":15,"shortrow_autotune":{"mode":"probe","tile_width":2,"avg_nnz_nonempty":4.50},"liverb1_autotune":{"mode":"probe","tile_width":4,"avg_nnz_nonempty":1.80},"placement":{"pool":["A100","A100","V100","P100"],"liver_auto_k":2,"liver_breakeven_us":[{"k":1,"modeled_us":10.067},{"k":2,"modeled_us":9.533},{"k":3,"modeled_us":12.246},{"k":4,"modeled_us":16.506}],"liver_auto_speedup_vs_k1":1.06,"liver_auto_speedup_vs_kpool":1.73,"liver_r2_group_us":[10.067,10.067],"liver_r2_throughput_ratio_vs_r1":3.28,"prostate_auto_k":1},"rebalance":{"drained_device":"P100","pre_group_us":[10.067,10.067],"pre_throughput_per_s":198675.5,"naive_throughput_per_s":99337.7,"redealt_group_us":[10.067,10.067],"redealt_throughput_per_s":198675.5,"recovery_ratio":1.000,"naive_ratio":0.500},"kernels":[{"name":"vector_csr_half_double","suite":"prostate-paper","host_ns_per_launch":{"p10":1000000,"p50":1250000,"p90":2000000},"nnz":1000,"nnz_per_sec":8.0000e5,"sectors_per_launch":256,"sectors_per_sec":2.0480e5,"tile_width":4,"lanes_active_frac":0.5625,"speedup_vs_warp32":1.50,"sim_speedup_vs_warp32":2.25,"speedup_vs_autotuned_w":1.12,"sim_speedup_vs_best_fixed":1.75,"grad_speedup_vs_whole":3.00,"sim_speedup_vs_one_device":2.50,"shards":[{"shard":0,"device":"A100","row_start":0,"rows":600,"nnz":1000,"modeled_us":3.527,"gather_us":2.000}],"buckets":[{"label":"rows 1-2","tile_width":2,"rows":300,"lanes_active_frac":0.7500}],"report":{"kernel":"Half/double","device":"A100","tile_width":4,"stats":{"flops":2000,"warps":16,"blocks":2,"threads_per_block":512,"requested_bytes":8192,"l2_read_hits":40,"l2_read_misses":200,"l2_write_sectors":16,"atomic_ops":0,"dram_read_bytes":6400,"dram_write_bytes":512,"l2_hit_rate":0.1667,"operational_intensity":0.2894},"estimate":{"seconds":3.526951e-6,"gflops":0.57,"dram_bw_gbps":1.96,"frac_peak_bw":0.0013,"bound":"overhead"},"buffers":[]}}]}"#
        );
    }
}
