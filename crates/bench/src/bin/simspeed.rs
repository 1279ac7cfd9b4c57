//! Simulator throughput tracker: times the `sim_kernels` workloads and
//! emits machine-readable `BENCH_simspeed.json` so the perf trajectory is
//! tracked across PRs.
//!
//! Three suites:
//!
//! * the prostate case (paper workload) timing the warp-per-row vector
//!   kernel against the recorded pre-batching baseline,
//! * a deterministic short-row demo matrix (avg nnz per non-empty row
//!   ≈ 4.5) timing every sub-warp tile width plus the autotuned pick
//!   against fixed warp-per-row — the shape the row-adaptive tiles
//!   exist for, and
//! * a deterministic "liver beam 1" serving shape (85% empty rows, a
//!   short-row shell plus a dense tail) timing every fixed width, the
//!   whole-matrix autotuned pick, and the bucketed row-partition
//!   dispatch — the shape empty-row elimination and per-bucket width
//!   dispatch exist for, and
//! * the same liver shape **row-sharded across a 3×A100 pool**: one
//!   request executed cooperatively, 3 nnz-balanced row shards running
//!   concurrently, the interconnect gather of each shard's rows charged
//!   to the critical path. Its `sim_speedup_vs_one_device` compares the
//!   pool's modeled critical path against the same bucketed dispatch
//!   fully resident on one device, and
//! * a deterministic "liver gradient" optimizer shape (a wide beamlet
//!   axis where ~98% of beamlets never touch the dose shell, so the
//!   **transpose** is empty-row heavy) timing the backward pass `Aᵀ r`
//!   as every fixed-width whole-transpose kernel and as the bucketed
//!   partition of the transpose — the gradient-direction counterpart of
//!   the liver beam-1 suite, with the forward direction alongside so
//!   the report carries forward vs backward lane occupancy, and
//! * a **placement break-even sweep** on the mixed 4-device demo pool
//!   (2×A100 + V100 + P100): the shard count `ExecPolicy`'s
//!   `ShardSpec::Auto` resolves to for the liver and prostate plans,
//!   the full K=1..=4 evidence table, and the modeled throughput of two
//!   concurrent requests under R=2 replica groups vs R=1 serializing
//!   pool-wide fan-outs (the `placement` JSON object), and
//! * a **drain-recovery sweep** on the same pool: modeled R=2 group
//!   times and pool throughput before the P100 is drained, after the
//!   drain with the registration-time deal kept (the group that lost
//!   its member stops serving), and after the engine's live re-deal
//!   over the three survivors (the `rebalance` JSON object).
//!
//! The JSON carries `schema_version` and a stable `suite` id per kernel
//! entry (`prostate-paper`, `shortrow`, `liver-beam-1`,
//! `liver-beam-1-sharded`, `liver-grad`) so trend tooling can group
//! entries without parsing names.
//!
//! Reported per kernel: median wall-clock per launch, simulated non-zeros
//! per second, simulated L2 sector transactions per second, and (for the
//! short-row suites) `tile_width`, `lanes_active_frac` (scheduled
//! occupancy — empty rows still cost a whole-matrix kernel a tile), host
//! `speedup_vs_warp32` and modeled `sim_speedup_vs_warp32`. The
//! partitioned entry adds `speedup_vs_autotuned_w` (host wall-clock vs
//! the whole-matrix autotuned pick), `sim_speedup_vs_best_fixed`
//! (modeled vs the best fixed-width whole-matrix kernel) and a
//! per-bucket `buckets` breakdown with each bucket's true
//! `lanes_active_frac` (empty rows never count as occupied lane slots in
//! a partitioned launch).
//!
//! `--quick` runs a trimmed smoke check (no file write) and exits
//! non-zero if the autotuned pick is modeled slower than warp-per-row on
//! the short-row suite, if the partitioned pick is modeled slower than
//! the best fixed-width whole-matrix kernel on the liver beam-1 suite,
//! if the 3-device sharded dispatch models less than 1.6× one device
//! on the same suite, if the placement model's auto shard count fails
//! to beat both forced K=1 and K=pool on the liver plan (or R=2 fails
//! to model >1.5× R=1 serialized throughput), if the small prostate
//! plan is not auto-placed at K=1, or if the partitioned transpose
//! dispatch on the liver gradient suite models less than 1.4× the best
//! fixed-width whole-transpose kernel, or if draining the P100 and
//! re-dealing over the survivors recovers less than 80% of the
//! pre-drain modeled throughput — the CI gates for the autotuners, the
//! cooperative pool, the placement engine, live rebalancing, and the
//! backward-pass partition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{
    choose_shard_count, modeled_pool_throughput, modeled_whole_seconds, profile_baseline,
    profile_half_double, rs_baseline_gpu_spmv, vector_csr_spmv, vector_csr_spmv_bucketed,
    vector_csr_spmv_sharded, vector_csr_spmv_tiled, GpuCsrMatrix, GpuRowPlan, GpuRsMatrix,
    KernelChoice, KernelSelect, PartitionStrategy, ShardBreakEven, ShardDispatch, ShardedCsr,
    TILE_WIDTHS,
};
use rt_dose::cases::{prostate_case, ScaleConfig};
use rt_f16::F16;
use rt_gpusim::json::Json;
use rt_gpusim::{
    snake_partition, snake_partition_subset, timing, BucketReport, DeviceGroup, DeviceSpec, Gpu,
    GroupStats, KernelProfile, KernelStats, LaunchReport, ShardReport, ShardedReport,
};
use rt_sparse::stats::RowStats;
use rt_sparse::{Csr, RowPlan, RsCompressed, ShardPlan};
use std::sync::Arc;
use std::time::Instant;

/// Medians recorded from the pre-batching pipeline (same workload, same
/// harness, `ExecMode::Parallel`) immediately before the rework landed.
const BASELINE_NS: &[(&str, f64)] = &[
    ("vector_csr_half_double", 8_936_737.0),
    ("baseline_segment_atomic", 8_906_043.0),
];

struct Measurement {
    name: String,
    ns_per_iter: f64,
    nnz: u64,
    /// Short-row suite only: the tile width this entry ran at.
    tile_width: Option<u32>,
    /// Short-row suites only: fraction of *scheduled* lane slots carrying
    /// a stored entry at this width
    /// ([`RowStats::scheduled_lanes_active_frac`](rt_sparse::stats::RowStats::scheduled_lanes_active_frac)
    /// — a whole-matrix kernel schedules a tile for every row, so empty
    /// rows' padded lanes count against its occupancy; they are never
    /// counted as *occupied* slots anywhere).
    lanes_active_frac: Option<f64>,
    /// Host wall-clock speedup over the fixed warp-per-row entry.
    speedup_vs_warp32: Option<f64>,
    /// Modeled-time speedup over the fixed warp-per-row entry.
    sim_speedup_vs_warp32: Option<f64>,
    /// Partitioned entry only: host wall-clock speedup over the
    /// whole-matrix autotuned pick.
    speedup_vs_autotuned_w: Option<f64>,
    /// Partitioned entry only: modeled-time speedup over the best
    /// fixed-width whole-matrix kernel of the suite.
    sim_speedup_vs_best_fixed: Option<f64>,
    /// Partitioned entry only: per-bucket breakdown of the fused
    /// dispatch (width, rows, true lane occupancy, standalone estimate).
    buckets: Option<Vec<BucketReport>>,
    /// Liver-grad partitioned entry only: modeled speedup of the
    /// bucketed transpose dispatch over the best fixed-width
    /// whole-transpose kernel — the backward-pass counterpart of
    /// `sim_speedup_vs_best_fixed`, under the name the gradient CI gate
    /// keys on.
    grad_speedup_vs_whole: Option<f64>,
    /// Sharded entry only: modeled critical-path speedup of the pool
    /// over the same dispatch fully resident on one device.
    sim_speedup_vs_one_device: Option<f64>,
    /// Sharded entry only: per-shard breakdown (home device, row range,
    /// nnz, standalone compute estimate, gather cost).
    shards: Option<Vec<ShardReport>>,
    /// Unified per-launch record (counters + modeled time) in the same
    /// shape the serving engine and the calculator emit.
    report: LaunchReport,
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

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn time_kernel(
    name: &str,
    nnz: u64,
    device: &DeviceSpec,
    profile: &KernelProfile,
    warmup: usize,
    samples: usize,
    mut launch: impl FnMut() -> KernelStats,
) -> Measurement {
    let mut stats = KernelStats::default();
    for _ in 0..warmup {
        stats = launch();
    }
    let samples: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            stats = launch();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let estimate = timing::estimate(device, profile, &stats);
    Measurement {
        name: name.to_string(),
        ns_per_iter: median_ns(samples),
        nnz,
        tile_width: None,
        lanes_active_frac: None,
        speedup_vs_warp32: None,
        sim_speedup_vs_warp32: None,
        speedup_vs_autotuned_w: None,
        sim_speedup_vs_best_fixed: None,
        grad_speedup_vs_whole: None,
        buckets: None,
        sim_speedup_vs_one_device: None,
        shards: None,
        report: LaunchReport::new(profile.name.clone(), device.name, stats, estimate),
    }
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

/// Times one short-row entry. `classic` dispatches the paper's
/// warp-per-row kernel (what width 32 resolves to in the calculator);
/// otherwise the tiled kernel runs at `width`.
#[allow(clippy::too_many_arguments)]
fn time_shortrow(
    name: &str,
    csr: &Csr<F16, u32>,
    row_stats: &RowStats,
    width: u32,
    classic: bool,
    device: &DeviceSpec,
    warmup: usize,
    samples: usize,
) -> Measurement {
    let gpu = Gpu::new(device.clone());
    let m = GpuCsrMatrix::upload(&gpu, csr);
    let x = gpu.upload(&vec![1.0f64; csr.ncols()]);
    let y = gpu.alloc_out::<f64>(csr.nrows());
    let mut meas = time_kernel(
        name,
        csr.nnz() as u64,
        device,
        &profile_half_double(),
        warmup,
        samples,
        || {
            if classic {
                vector_csr_spmv(&gpu, &m, &x, &y, 512)
            } else {
                vector_csr_spmv_tiled(&gpu, &m, &x, &y, 512, width)
            }
        },
    );
    meas.report.tile_width = width;
    meas.tile_width = Some(width);
    // Scheduled occupancy: a whole-matrix launch gives every row —
    // including every empty row — a tile, so empty rows' padded lanes
    // count against this figure (they are never *occupied*).
    meas.lanes_active_frac = Some(row_stats.scheduled_lanes_active_frac(width));
    meas
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

/// Times the bucketed row-partition dispatch with its probe-autotuned
/// per-bucket widths; attaches the per-bucket breakdown of the last
/// (warm-cache) launch.
fn time_partitioned(
    name: &str,
    csr: &Csr<F16, u32>,
    device: &DeviceSpec,
    warmup: usize,
    samples: usize,
) -> Measurement {
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
    let profile = profile_half_double();
    let mut last: Option<GroupStats> = None;
    let mut meas = time_kernel(
        name,
        csr.nnz() as u64,
        device,
        &profile,
        warmup,
        samples,
        || {
            let g = vector_csr_spmv_bucketed(&gpu, &m, &x, &y, 512, &gplan, widths);
            let merged = g.merged.clone();
            last = Some(g);
            merged
        },
    );
    let group = last.expect("at least one timed launch");
    let report = rt_core::bucketed_group_report(device, &profile, &plan, &group);
    meas.buckets = Some(report.buckets);
    meas
}

/// Times the row-sharded multi-device dispatch: `pool` nnz-balanced row
/// shards, one resident per device of a `pool`-wide group of identical
/// devices, every shard running the bucketed dispatch at the globally
/// pinned (probe-autotuned) widths. The modeled figure is the pool's
/// critical path — `max` over shards of compute plus the interconnect
/// gather of the shard's rows — i.e. what one cooperative request
/// finishes in.
fn time_sharded(
    name: &str,
    csr: &Csr<F16, u32>,
    device: &DeviceSpec,
    pool: usize,
    warmup: usize,
    samples: usize,
) -> Measurement {
    let widths = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe)
        .choose(device, csr, 512)
        .expect("partitioned probe cannot fail on a valid matrix")
        .bucket_widths();
    let dispatch = ShardDispatch::Bucketed(widths);
    let plan = ShardPlan::build(csr, pool);
    let group = DeviceGroup::new(vec![device.clone(); pool]);
    let sm = ShardedCsr::upload(&group, &plan);
    let x = vec![1.0f64; csr.ncols()];
    let profile = profile_half_double();
    let mut last: Option<ShardedReport> = None;
    let mut meas = time_kernel(
        name,
        csr.nnz() as u64,
        device,
        &profile,
        warmup,
        samples,
        || {
            let r = vector_csr_spmv_sharded(&group, &sm, &x, 512, dispatch, &profile)
                .expect("sharded dispatch cannot fail on validated widths")
                .1;
            let stats = r.stats.clone();
            last = Some(r);
            stats
        },
    );
    let last = last.expect("at least one timed launch");

    // Pool-level record: merged counters; seconds and the derived rates
    // rebuilt around the critical path (the per-device estimator has no
    // notion of concurrent shards or the gather hop).
    let estimate = &mut meas.report.estimate;
    estimate.seconds = last.modeled_seconds;
    estimate.gflops = last.stats.flops as f64 / last.modeled_seconds / 1e9;
    let dram = (last.stats.dram_read_bytes + last.stats.dram_write_bytes) as f64;
    estimate.dram_bw_gbps = dram / last.modeled_seconds / 1e9;
    estimate.frac_peak_bw = dram / last.modeled_seconds / (device.dram_bw * pool as f64);
    meas.report.device = format!("{} x{}", device.name, pool);
    meas.shards = Some(last.shards);
    meas
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
    let per_sec = 1e9 / m.ns_per_iter;
    let n_sectors = sectors(&m.report.stats);
    let mut k = Json::obj()
        .field("name", &m.name)
        .field("suite", suite_id(&m.name))
        .field("ns_per_iter", Json::fixed(m.ns_per_iter, 1))
        .field("nnz", m.nnz)
        .field("nnz_per_sec", Json::sci(m.nnz as f64 * per_sec, 4))
        .field("sectors_per_launch", n_sectors)
        .field("sectors_per_sec", Json::sci(n_sectors as f64 * per_sec, 4));
    if let Some(w) = m.tile_width {
        k = k.field("tile_width", w);
    }
    if let Some(f) = m.lanes_active_frac {
        k = k.field("lanes_active_frac", Json::fixed(f, 4));
    }
    for (key, ratio) in [
        ("speedup_vs_warp32", m.speedup_vs_warp32),
        ("sim_speedup_vs_warp32", m.sim_speedup_vs_warp32),
        ("speedup_vs_autotuned_w", m.speedup_vs_autotuned_w),
        ("sim_speedup_vs_best_fixed", m.sim_speedup_vs_best_fixed),
        ("grad_speedup_vs_whole", m.grad_speedup_vs_whole),
        ("sim_speedup_vs_one_device", m.sim_speedup_vs_one_device),
    ] {
        if let Some(r) = ratio {
            k = k.field(key, Json::fixed(r, 2));
        }
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
    let baseline = BASELINE_NS
        .iter()
        .find(|(n, _)| *n == m.name)
        .map(|(_, ns)| *ns);
    k = k.field(
        "baseline_ns_per_iter",
        baseline.map(|ns| Json::fixed(ns, 1)),
    );
    if let Some(ns) = baseline {
        k = k.field("speedup_vs_baseline", Json::fixed(ns / m.ns_per_iter, 2));
    }
    // The unified LaunchReport shape (same as the serving engine's
    // per-response reports and DoseCalculator results).
    k.field("report", &m.report)
}

fn render_json(
    measurements: &[Measurement],
    workers: usize,
    auto: &KernelChoice,
    placement: Json,
    rebalance: Json,
) -> String {
    let autotune = Json::obj()
        .field("mode", auto.mode)
        .field("tile_width", auto.tile_width)
        .field("avg_nnz_nonempty", Json::fixed(auto.avg_nnz_nonempty, 2));
    let mut out = Json::obj()
        .field("bench", "sim_kernels")
        .field("schema_version", 2u32)
        .field("mode", "parallel")
        .field("workers", workers)
        .field("shortrow_autotune", autotune)
        .field("placement", placement)
        .field("rebalance", rebalance)
        .field("kernels", Json::arr(measurements.iter().map(kernel_json)))
        .render();
    out.push('\n');
    out
}

/// Trimmed CI gate. Two checks, both on warm-cache modeled time (host
/// timing is too noisy to gate on):
///
/// 1. short-row suite: the whole-matrix autotuned pick must not be
///    modeled slower than fixed warp-per-row;
/// 2. liver beam-1 suite: the partitioned autotuned pick must not be
///    modeled slower than the best fixed-width whole-matrix kernel.
fn quick_smoke() -> ! {
    let device = DeviceSpec::a100();
    let csr = short_row_matrix();
    let row_stats = RowStats::from_csr(&csr);
    let choice = KernelSelect::MeasuredProbe
        .choose(&device, &csr, 512)
        .expect("probe cannot fail on a valid matrix");
    let warp32 = time_shortrow("shortrow_warp32", &csr, &row_stats, 32, true, &device, 1, 5);
    let auto = time_shortrow(
        "shortrow_tiled_auto",
        &csr,
        &row_stats,
        choice.tile_width,
        choice.tile_width == 32,
        &device,
        1,
        5,
    );
    let (w32_s, auto_s) = (warp32.report.estimate.seconds, auto.report.estimate.seconds);
    println!(
        "quick: autotuned w{} ({}): {:.3} us modeled vs warp32 {:.3} us ({:.2}x), host {:.2}x",
        choice.tile_width,
        choice.mode,
        auto_s * 1e6,
        w32_s * 1e6,
        w32_s / auto_s,
        warp32.ns_per_iter / auto.ns_per_iter,
    );
    let mut failed = false;
    if auto_s > w32_s {
        eprintln!(
            "FAIL: autotuned tile width {} is modeled slower than warp-per-row",
            choice.tile_width
        );
        failed = true;
    }

    let liver = liver_beam1_matrix();
    let liver_stats = RowStats::from_csr(&liver);
    let best_fixed = TILE_WIDTHS
        .iter()
        .map(|&w| {
            time_shortrow(
                &format!("liverb1_tiled_w{w}"),
                &liver,
                &liver_stats,
                w,
                w == 32,
                &device,
                1,
                2,
            )
            .report
            .estimate
            .seconds
        })
        .fold(f64::INFINITY, f64::min);
    let part = time_partitioned("liverb1_partitioned", &liver, &device, 1, 2);
    let part_s = part.report.estimate.seconds;
    println!(
        "quick: partitioned: {:.3} us modeled vs best fixed {:.3} us ({:.2}x)",
        part_s * 1e6,
        best_fixed * 1e6,
        best_fixed / part_s,
    );
    if part_s > best_fixed {
        eprintln!("FAIL: partitioned dispatch is modeled slower than the best fixed width");
        failed = true;
    }

    // Gate 3: one request sharded across a 3-device pool must model a
    // real cooperative win over the same dispatch on one device — gather
    // cost and per-shard launch overhead included.
    let sharded = time_sharded("liverb1_sharded_x3", &liver, &device, 3, 1, 2);
    let shard_s = sharded.report.estimate.seconds;
    println!(
        "quick: sharded x3: {:.3} us modeled critical path vs one device {:.3} us ({:.2}x)",
        shard_s * 1e6,
        part_s * 1e6,
        part_s / shard_s,
    );
    if part_s / shard_s < 1.6 {
        eprintln!("FAIL: 3-device sharded dispatch models less than 1.6x one device");
        failed = true;
    }

    // Gates 4-6: the placement break-even model on the mixed 4-device
    // pool. The liver plan must find an interior optimum (auto-K strictly
    // beats both K=1 and K=pool), two R=2 concurrent requests must model
    // >1.5x the throughput of R=1 serializing pool-wide fan-outs, and
    // the small prostate plan must stay at K=1 (break-even sanity).
    let liver_place = placement_verdict(part_s, liver.nrows() - liver_stats.empty_rows);
    println!(
        "quick: placement: liver auto K={} ({:.3} us) vs K=1 {:.3} us, K=4 {:.3} us; R2/R1 throughput {:.2}x",
        liver_place.breakeven.k,
        liver_place.t_auto * 1e6,
        liver_place.t_k1 * 1e6,
        liver_place.t_kpool * 1e6,
        liver_place.r2_throughput_ratio,
    );
    if liver_place.t_auto >= liver_place.t_k1 || liver_place.t_auto >= liver_place.t_kpool {
        eprintln!("FAIL: liver auto shard count does not beat both forced K=1 and K=pool");
        failed = true;
    }
    if liver_place.r2_throughput_ratio <= 1.5 {
        eprintln!("FAIL: R=2 concurrent placement models <= 1.5x R=1 serialized fan-out");
        failed = true;
    }
    let prostate: Csr<F16, u32> = prostate_case(ScaleConfig { shrink: 12.0 })
        .remove(0)
        .matrix
        .convert_values();
    let prostate_stats = RowStats::from_csr(&prostate);
    let prostate_whole = modeled_whole_seconds(
        &device,
        prostate.nrows(),
        prostate.ncols(),
        prostate.nnz(),
        2,
        4,
    );
    let prostate_place =
        placement_verdict(prostate_whole, prostate.nrows() - prostate_stats.empty_rows);
    println!(
        "quick: placement: prostate auto K={} (whole {:.3} us)",
        prostate_place.breakeven.k,
        prostate_whole * 1e6,
    );
    if prostate_place.breakeven.k != 1 {
        eprintln!(
            "FAIL: small prostate plan auto-picked K={} instead of 1",
            prostate_place.breakeven.k
        );
        failed = true;
    }

    // Gate 7: the backward-pass partition. On the liver gradient shape
    // (the transpose is ~96% empty beamlet rows), the bucketed
    // transpose dispatch must model at least 1.4x the best fixed-width
    // whole-transpose kernel — the gradient-direction counterpart of
    // gate 2, and the acceptance bar for the §4g gradient partition.
    let grad_case = liver_grad_matrix();
    let grad_t: Csr<F16, u32> = grad_case.transpose();
    let bwd_stats = RowStats::from_csr(&grad_t);
    let grad_best_fixed = TILE_WIDTHS
        .iter()
        .map(|&w| {
            time_shortrow(
                &format!("livergrad_grad_w{w}"),
                &grad_t,
                &bwd_stats,
                w,
                w == 32,
                &device,
                1,
                2,
            )
            .report
            .estimate
            .seconds
        })
        .fold(f64::INFINITY, f64::min);
    let grad_part = time_partitioned("livergrad_grad_partitioned", &grad_t, &device, 1, 2);
    let grad_part_s = grad_part.report.estimate.seconds;
    println!(
        "quick: gradient partitioned: {:.3} us modeled vs best fixed whole-transpose {:.3} us ({:.2}x)",
        grad_part_s * 1e6,
        grad_best_fixed * 1e6,
        grad_best_fixed / grad_part_s,
    );
    if grad_best_fixed / grad_part_s < 1.4 {
        eprintln!(
            "FAIL: partitioned transpose dispatch models less than 1.4x the best fixed width"
        );
        failed = true;
    }
    // Gate 8: drain recovery. Taking the P100 out of the mixed pool
    // mid-session and re-dealing R=2 groups over the three survivors
    // must recover at least 80% of the pre-drain modeled throughput on
    // the liver plan (the naive no-re-deal figure is reported for
    // contrast: the group that lost its member stops serving).
    let rebal = rebalance_verdict(part_s, liver.nrows() - liver_stats.empty_rows);
    println!(
        "quick: rebalance: drain {}: pre {:.0}/s -> naive {:.0}/s, re-dealt {:.0}/s (recovery {:.2}x)",
        rebal.drained_name,
        rebal.pre_throughput,
        rebal.naive_throughput,
        rebal.redealt_throughput,
        rebal.redealt_throughput / rebal.pre_throughput,
    );
    if rebal.redealt_throughput < 0.8 * rebal.pre_throughput {
        eprintln!("FAIL: post-drain re-dealt throughput recovers less than 80% of pre-drain");
        failed = true;
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_smoke();
    }

    const WARMUP: usize = 3;
    const SAMPLES: usize = 15;
    let device = DeviceSpec::a100();

    // Suite 1: the paper's prostate case, warp-per-row vector kernel vs
    // the reduced-precision baseline pipeline.
    let case = prostate_case(ScaleConfig { shrink: 12.0 }).remove(0);
    let csr: Csr<F16, u32> = case.matrix.convert_values();
    let rs = RsCompressed::from_csr(&csr);
    let weights = vec![1.0f64; csr.ncols()];
    let nnz = csr.nnz() as u64;

    let vector = {
        let gpu = Gpu::new(device.clone());
        let m = GpuCsrMatrix::upload(&gpu, &csr);
        let x = gpu.upload(&weights);
        let y = gpu.alloc_out::<f64>(csr.nrows());
        time_kernel(
            "vector_csr_half_double",
            nnz,
            &device,
            &profile_half_double(),
            WARMUP,
            SAMPLES,
            || vector_csr_spmv(&gpu, &m, &x, &y, 512),
        )
    };
    let baseline = {
        let gpu = Gpu::new(device.clone());
        let m = GpuRsMatrix::upload(&gpu, &rs);
        let x = gpu.upload(&weights);
        let y = gpu.alloc_out::<f64>(rs.nrows());
        time_kernel(
            "baseline_segment_atomic",
            nnz,
            &device,
            &profile_baseline(),
            WARMUP,
            SAMPLES,
            || {
                y.clear();
                rs_baseline_gpu_spmv(&gpu, &m, &x, &y, 128)
            },
        )
    };

    // Suite 2: the short-row demo matrix across every tile width plus
    // the autotuned pick, all against fixed warp-per-row.
    let short = short_row_matrix();
    let short_stats = RowStats::from_csr(&short);
    let choice = KernelSelect::MeasuredProbe
        .choose(&device, &short, 512)
        .expect("probe cannot fail on a valid matrix");

    let warp32 = time_shortrow(
        "shortrow_warp32",
        &short,
        &short_stats,
        32,
        true,
        &device,
        WARMUP,
        SAMPLES,
    );
    let mut tiled: Vec<Measurement> = TILE_WIDTHS
        .iter()
        .map(|&w| {
            time_shortrow(
                &format!("shortrow_tiled_w{w}"),
                &short,
                &short_stats,
                w,
                false,
                &device,
                WARMUP,
                SAMPLES,
            )
        })
        .collect();
    tiled.push(time_shortrow(
        "shortrow_tiled_auto",
        &short,
        &short_stats,
        choice.tile_width,
        choice.tile_width == 32,
        &device,
        WARMUP,
        SAMPLES,
    ));
    let (w32_ns, w32_s) = (warp32.ns_per_iter, warp32.report.estimate.seconds);
    for m in &mut tiled {
        m.speedup_vs_warp32 = Some(w32_ns / m.ns_per_iter);
        m.sim_speedup_vs_warp32 = Some(w32_s / m.report.estimate.seconds);
    }

    // Suite 3: the liver beam-1 serving shape — every fixed width, the
    // whole-matrix autotuned pick, and the bucketed row partition.
    let liver = liver_beam1_matrix();
    let liver_stats = RowStats::from_csr(&liver);
    let liver_choice = KernelSelect::MeasuredProbe
        .choose(&device, &liver, 512)
        .expect("probe cannot fail on a valid matrix");
    let liver_fixed: Vec<Measurement> = TILE_WIDTHS
        .iter()
        .map(|&w| {
            time_shortrow(
                &format!("liverb1_tiled_w{w}"),
                &liver,
                &liver_stats,
                w,
                w == 32,
                &device,
                2,
                7,
            )
        })
        .collect();
    let liver_auto = time_shortrow(
        "liverb1_tiled_auto",
        &liver,
        &liver_stats,
        liver_choice.tile_width,
        liver_choice.tile_width == 32,
        &device,
        2,
        7,
    );
    let mut liver_part = time_partitioned("liverb1_partitioned", &liver, &device, 2, 7);
    let liver_w32 = liver_fixed
        .iter()
        .find(|m| m.tile_width == Some(32))
        .expect("width 32 is always timed");
    let (lw32_ns, lw32_s) = (liver_w32.ns_per_iter, liver_w32.report.estimate.seconds);
    let best_fixed_s = liver_fixed
        .iter()
        .map(|m| m.report.estimate.seconds)
        .fold(f64::INFINITY, f64::min);
    liver_part.speedup_vs_warp32 = Some(lw32_ns / liver_part.ns_per_iter);
    liver_part.sim_speedup_vs_warp32 = Some(lw32_s / liver_part.report.estimate.seconds);
    liver_part.speedup_vs_autotuned_w = Some(liver_auto.ns_per_iter / liver_part.ns_per_iter);
    liver_part.sim_speedup_vs_best_fixed = Some(best_fixed_s / liver_part.report.estimate.seconds);
    let mut liver_entries = liver_fixed;
    liver_entries.push(liver_auto);
    for m in &mut liver_entries {
        m.speedup_vs_warp32 = Some(lw32_ns / m.ns_per_iter);
        m.sim_speedup_vs_warp32 = Some(lw32_s / m.report.estimate.seconds);
    }
    let liver_part_s = liver_part.report.estimate.seconds;
    liver_entries.push(liver_part);

    // Suite 4: the same liver shape row-sharded across a 3×A100 pool —
    // one cooperative request, nnz-balanced shards, gather on the
    // critical path. Compared against the same bucketed dispatch fully
    // resident on one device.
    let mut liver_sharded = time_sharded("liverb1_sharded_x3", &liver, &device, 3, 2, 7);
    liver_sharded.sim_speedup_vs_one_device =
        Some(liver_part_s / liver_sharded.report.estimate.seconds);
    liver_entries.push(liver_sharded);

    // Suite 6: the liver gradient shape — the backward pass `Aᵀ r` as
    // every fixed-width whole-transpose kernel and as the bucketed
    // partition of the transpose (what `gradient_csr_spmv_bucketed`
    // runs), with one forward entry alongside so the report carries
    // forward vs backward lane occupancy for the same plan.
    let grad_case = liver_grad_matrix();
    let grad_t: Csr<F16, u32> = grad_case.transpose();
    let fwd_stats = RowStats::from_csr(&grad_case);
    let bwd_stats = RowStats::from_csr(&grad_t);
    let fwd_choice = KernelSelect::MeasuredProbe
        .choose(&device, &grad_case, 512)
        .expect("probe cannot fail on a valid matrix");
    let mut grad_entries = vec![time_shortrow(
        "livergrad_forward_auto",
        &grad_case,
        &fwd_stats,
        fwd_choice.tile_width,
        fwd_choice.tile_width == 32,
        &device,
        2,
        7,
    )];
    let grad_fixed: Vec<Measurement> = TILE_WIDTHS
        .iter()
        .map(|&w| {
            time_shortrow(
                &format!("livergrad_grad_w{w}"),
                &grad_t,
                &bwd_stats,
                w,
                w == 32,
                &device,
                2,
                7,
            )
        })
        .collect();
    let grad_w32 = grad_fixed
        .iter()
        .find(|m| m.tile_width == Some(32))
        .expect("width 32 is always timed");
    let (gw32_ns, gw32_s) = (grad_w32.ns_per_iter, grad_w32.report.estimate.seconds);
    let grad_best_fixed_s = grad_fixed
        .iter()
        .map(|m| m.report.estimate.seconds)
        .fold(f64::INFINITY, f64::min);
    let mut grad_part = time_partitioned("livergrad_grad_partitioned", &grad_t, &device, 2, 7);
    grad_part.speedup_vs_warp32 = Some(gw32_ns / grad_part.ns_per_iter);
    grad_part.sim_speedup_vs_warp32 = Some(gw32_s / grad_part.report.estimate.seconds);
    grad_part.grad_speedup_vs_whole = Some(grad_best_fixed_s / grad_part.report.estimate.seconds);
    grad_entries.extend(grad_fixed);
    for m in &mut grad_entries[1..] {
        m.speedup_vs_warp32 = Some(gw32_ns / m.ns_per_iter);
        m.sim_speedup_vs_warp32 = Some(gw32_s / m.report.estimate.seconds);
    }
    grad_entries.push(grad_part);

    // Suite 5: the placement break-even model on the mixed 4-device pool
    // — what `ExecPolicy` with `ShardSpec::Auto` resolves to for each
    // plan. Liver uses the measured partitioned time as its whole-matrix
    // figure; prostate uses the analytic estimate (the engine's fallback
    // when no probe ran).
    let liver_place = placement_verdict(liver_part_s, liver.nrows() - liver_stats.empty_rows);
    let prostate_stats = RowStats::from_csr(&csr);
    let prostate_whole = modeled_whole_seconds(&device, csr.nrows(), csr.ncols(), csr.nnz(), 2, 4);
    let prostate_place = placement_verdict(prostate_whole, csr.nrows() - prostate_stats.empty_rows);
    // Suite 7: drain recovery on the same pool — what `drain_device`
    // models when the P100 leaves mid-session and every placed plan is
    // re-dealt over the survivors (the `rebalance` JSON object).
    let liver_rebalance = rebalance_verdict(liver_part_s, liver.nrows() - liver_stats.empty_rows);

    let mut measurements = vec![vector, baseline, warp32];
    measurements.extend(tiled);
    measurements.extend(liver_entries);
    measurements.extend(grad_entries);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = render_json(
        &measurements,
        workers,
        &choice,
        placement_json(&liver_place, &prostate_place),
        rebalance_json(&liver_rebalance),
    );
    print!("{json}");
    let path = "BENCH_simspeed.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[saved {path}]"),
        Err(e) => eprintln!("[could not save {path}: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_gpusim::json::minify;

    /// A one-kernel document with every optional field present, pinned to
    /// the rendering `BENCH_simspeed.json` has always had.
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
        let mut m = time_kernel(
            "vector_csr_half_double",
            1000,
            &DeviceSpec::a100(),
            &profile_half_double(),
            0,
            1,
            || stats.clone(),
        );
        // Host timing differs run to run; pin a fixed figure.
        m.ns_per_iter = 1.25e6;
        m.report.tile_width = 4;
        m.tile_width = Some(4);
        m.lanes_active_frac = Some(0.5625);
        m.speedup_vs_warp32 = Some(1.5);
        m.sim_speedup_vs_warp32 = Some(2.25);
        m.speedup_vs_autotuned_w = Some(1.125);
        m.sim_speedup_vs_best_fixed = Some(1.75);
        m.grad_speedup_vs_whole = Some(3.0);
        m.sim_speedup_vs_one_device = Some(2.5);
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
        let auto = KernelChoice {
            tile_width: 2,
            mode: "probe",
            avg_nnz_nonempty: 4.5,
            candidates: Vec::new(),
            buckets: Vec::new(),
        };
        let j = render_json(
            &[m],
            2,
            &auto,
            placement_json(
                &placement_verdict(1e-5, 5000),
                &placement_verdict(2e-6, 500),
            ),
            rebalance_json(&rebalance_verdict(1e-5, 5000)),
        );
        assert_eq!(
            minify(&j),
            r#"{"bench":"sim_kernels","schema_version":2,"mode":"parallel","workers":2,"shortrow_autotune":{"mode":"probe","tile_width":2,"avg_nnz_nonempty":4.50},"placement":{"pool":["A100","A100","V100","P100"],"liver_auto_k":2,"liver_breakeven_us":[{"k":1,"modeled_us":10.067},{"k":2,"modeled_us":9.533},{"k":3,"modeled_us":12.246},{"k":4,"modeled_us":16.506}],"liver_auto_speedup_vs_k1":1.06,"liver_auto_speedup_vs_kpool":1.73,"liver_r2_group_us":[10.067,10.067],"liver_r2_throughput_ratio_vs_r1":3.28,"prostate_auto_k":1},"rebalance":{"drained_device":"P100","pre_group_us":[10.067,10.067],"pre_throughput_per_s":198675.5,"naive_throughput_per_s":99337.7,"redealt_group_us":[10.067,10.067],"redealt_throughput_per_s":198675.5,"recovery_ratio":1.000,"naive_ratio":0.500},"kernels":[{"name":"vector_csr_half_double","suite":"prostate-paper","ns_per_iter":1250000.0,"nnz":1000,"nnz_per_sec":8.0000e5,"sectors_per_launch":256,"sectors_per_sec":2.0480e5,"tile_width":4,"lanes_active_frac":0.5625,"speedup_vs_warp32":1.50,"sim_speedup_vs_warp32":2.25,"speedup_vs_autotuned_w":1.12,"sim_speedup_vs_best_fixed":1.75,"grad_speedup_vs_whole":3.00,"sim_speedup_vs_one_device":2.50,"shards":[{"shard":0,"device":"A100","row_start":0,"rows":600,"nnz":1000,"modeled_us":3.527,"gather_us":2.000}],"buckets":[{"label":"rows 1-2","tile_width":2,"rows":300,"lanes_active_frac":0.7500}],"baseline_ns_per_iter":8936737.0,"speedup_vs_baseline":7.15,"report":{"kernel":"Half/double","device":"A100","tile_width":4,"stats":{"flops":2000,"warps":16,"blocks":2,"threads_per_block":512,"requested_bytes":8192,"l2_read_hits":40,"l2_read_misses":200,"l2_write_sectors":16,"atomic_ops":0,"dram_read_bytes":6400,"dram_write_bytes":512,"l2_hit_rate":0.1667,"operational_intensity":0.2894},"estimate":{"seconds":3.526951e-6,"gflops":0.57,"dram_bw_gbps":1.96,"frac_peak_bw":0.0013,"bound":"overhead"},"buffers":[]}}]}"#
        );
    }
}
