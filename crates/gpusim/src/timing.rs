//! Analytic kernel timing from traffic counters.
//!
//! `T = launch + max(T_dram, T_l2, T_compute) + T_warp + T_dispatch`, with
//!
//! * `T_dram  = dram_bytes / effective_bandwidth` — the usual bound for
//!   SpMV. Effective bandwidth is the datasheet number times the device's
//!   streaming efficiency, an occupancy-derived latency-hiding factor, a
//!   block-granularity factor, a grid-utilization factor (kernels with too
//!   few warps cannot saturate DRAM — this is what ruins the GPU-baseline
//!   kernel on the ~5000-column prostate cases), and a per-kernel
//!   calibration multiplier from [`KernelProfile`].
//! * `T_l2 = l2_bytes / l2_bandwidth` — binds the atomic-heavy baseline
//!   kernel whose read-modify-write traffic stays inside the cache (the
//!   paper's explanation for its erratic measured DRAM bandwidth).
//! * `T_compute = flops / peak(precision)` — never binds for SpMV, kept
//!   for roofline completeness.
//! * `T_warp = warps * warp_cycles / (sm * schedulers * clock)` — fixed
//!   per-row work (row-pointer loads, the reduction) that is *not* hidden
//!   when rows are short. This term, fed by the measured warp count, is
//!   what separates the prostate cases (~300 nnz per non-empty row) from
//!   the liver cases (~1700) in achieved bandwidth, as in Fig. 5.
//! * `T_dispatch = blocks * block_dispatch_cycles / (sm * clock)` — makes
//!   very small thread blocks expensive (Fig. 4's left edge).
//!
//! Calibration constants live in [`DeviceSpec`] (per device) and
//! [`KernelProfile`] (per kernel family) and are set **once**; every
//! per-case, per-figure variation emerges from the measured counters.

use crate::counters::KernelStats;
use crate::device::DeviceSpec;
pub use crate::device::Precision;

/// Per-kernel-family calibration.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Display name ("Half/double", "GPU Baseline", ...).
    pub name: String,
    /// Arithmetic precision for the compute ceiling.
    pub precision: Precision,
    /// Fixed overhead cycles per executed warp (pointer chasing, intra-
    /// warp reduction, loop control).
    pub warp_cycles: f64,
    /// Streaming-efficiency multiplier relative to the device baseline
    /// (1.0 for our kernels; slightly below for library stand-ins whose
    /// published behaviour we calibrate to).
    pub bw_efficiency: f64,
}

impl KernelProfile {
    pub fn new(name: &str, precision: Precision) -> Self {
        KernelProfile {
            name: name.to_string(),
            precision,
            warp_cycles: 70.0,
            bw_efficiency: 1.0,
        }
    }

    pub fn with_warp_cycles(mut self, c: f64) -> Self {
        self.warp_cycles = c;
        self
    }

    pub fn with_bw_efficiency(mut self, e: f64) -> Self {
        self.bw_efficiency = e;
        self
    }
}

/// What bound a kernel's estimated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    Dram,
    L2,
    Compute,
    /// Serialized on atomic read-modify-write throughput.
    Atomic,
    Overhead,
}

/// Modeled execution time and derived rates.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeEstimate {
    pub seconds: f64,
    /// Useful GFLOP/s (`flops / seconds / 1e9`) — the bars of Figs. 4–7.
    pub gflops: f64,
    /// Achieved DRAM bandwidth in GB/s — the line series of Figs. 5–7.
    pub dram_bw_gbps: f64,
    /// Achieved bandwidth as a fraction of the datasheet peak.
    pub frac_peak_bw: f64,
    pub bound: Bound,
}

/// Occupancy-style scheduling efficiency of an execution configuration.
///
/// Returns `(resident_blocks_per_sm, latency_hiding_factor)`.
fn sched_factors(spec: &DeviceSpec, threads_per_block: u32) -> (u32, f64) {
    let tpb = threads_per_block.max(32);
    let blocks_per_sm = spec
        .max_blocks_per_sm
        .min(spec.max_threads_per_sm / tpb)
        .max(1);
    let resident = blocks_per_sm * tpb;
    let occupancy = resident as f64 / spec.max_threads_per_sm as f64;
    // Full latency hiding needs ~70% occupancy for streaming kernels;
    // below that, exposed memory latency eats bandwidth.
    let latency = (occupancy / 0.70).min(1.0);
    // Fewer resident blocks -> coarser work granularity at SM drain time.
    let granularity = 1.0 - 0.10 / blocks_per_sm as f64;
    (blocks_per_sm, latency * granularity)
}

/// Grid-size utilization: a kernel needs enough warps in flight across
/// the device to cover DRAM latency; tiny grids (the column-parallel
/// baseline on prostate's ~5000 columns) cannot.
fn grid_utilization(spec: &DeviceSpec, warps: u64) -> f64 {
    let needed = (spec.sm_count as u64) * 16;
    ((warps as f64) / (needed as f64)).min(1.0)
}

/// Estimates the execution time of a launch from its measured counters.
pub fn estimate(spec: &DeviceSpec, profile: &KernelProfile, stats: &KernelStats) -> TimeEstimate {
    let (_blocks_per_sm, sched) = sched_factors(spec, stats.threads_per_block);
    let util = grid_utilization(spec, stats.warps);

    let eff_bw = spec.dram_bw * spec.dram_efficiency * sched * util * profile.bw_efficiency;
    let t_dram = stats.dram_total_bytes() as f64 / eff_bw;

    let eff_l2 = spec.l2_bw * sched * util;
    let t_l2 = stats.l2_total_bytes() as f64 / eff_l2;

    let t_compute = stats.flops as f64 / spec.peak_flops(profile.precision);

    // Scattered atomics serialize on the L2 RMW ports; the scheduling
    // granularity factor applies here too (bursty issue from few large
    // resident blocks lowers sustained RMW throughput — why the paper's
    // baseline prefers 64-128-thread blocks).
    let t_atomic = stats.atomic_ops as f64 / (spec.atomic_ops_per_s * sched * util.max(1e-9));

    let warp_throughput = spec.sm_count as f64 * spec.warp_schedulers as f64 * spec.clock_hz;
    let t_warp = stats.warps as f64 * profile.warp_cycles / warp_throughput;

    let t_dispatch =
        stats.blocks as f64 * spec.block_dispatch_cycles / (spec.sm_count as f64 * spec.clock_hz);

    let (t_body, bound) = [
        (t_dram, Bound::Dram),
        (t_l2, Bound::L2),
        (t_compute, Bound::Compute),
        (t_atomic, Bound::Atomic),
    ]
    .into_iter()
    .max_by(|a, b| a.0.total_cmp(&b.0))
    .unwrap();

    let overheads = spec.launch_overhead_s + t_warp + t_dispatch;
    let seconds = t_body + overheads;
    let bound = if overheads > t_body {
        Bound::Overhead
    } else {
        bound
    };

    TimeEstimate {
        seconds,
        gflops: stats.flops as f64 / seconds / 1e9,
        dram_bw_gbps: stats.dram_total_bytes() as f64 / seconds / 1e9,
        frac_peak_bw: stats.dram_total_bytes() as f64 / seconds / spec.dram_bw,
        bound,
    }
}

/// Modeled time to move `bytes` of shard results off `spec` over the
/// inter-device interconnect during a sharded gather.
///
/// The transfer is one contiguous DMA of already-computed results, so no
/// occupancy or granularity derates apply — only the per-device link
/// budget. A zero-byte gather (a shard whose rows are all empty) is free.
pub fn gather_estimate(spec: &DeviceSpec, bytes: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    bytes as f64 / spec.interconnect_bw
}

/// Host CPU description for the RayStation clinical-baseline row.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    pub name: &'static str,
    pub cores: u32,
    pub clock_hz: f64,
    /// Sustainable DRAM bandwidth in bytes/s.
    pub dram_bw: f64,
    /// Peak double-precision FLOP/s (cores x clock x SIMD FMA width).
    pub peak_f64: f64,
    /// Last-level cache size in bytes.
    pub llc_bytes: usize,
}

impl CpuSpec {
    /// Intel i9-7940X: 14 Skylake-X cores, quad-channel DDR4-2666, the
    /// paper's clinical-baseline host.
    pub fn i9_7940x() -> Self {
        CpuSpec {
            name: "i9-7940X",
            cores: 14,
            clock_hz: 3.1e9,
            dram_bw: 75e9,
            peak_f64: 1.39e12,
            llc_bytes: 19 * (1 << 20),
        }
    }

    /// Roofline-style time estimate from analytic traffic (the CPU path
    /// is not simulated; its traffic is computed from the scratch-array
    /// algorithm's structure in `rt-core`).
    pub fn estimate(&self, traffic_bytes: f64, flops: f64) -> TimeEstimate {
        // Sustained bandwidth for the scatter-heavy mixed read/write
        // pattern of the scratch-array algorithm is well below STREAM
        // (partial-line RMW, TLB pressure, socket contention).
        let t_mem = traffic_bytes / (self.dram_bw * 0.65);
        let t_compute = flops / self.peak_f64;
        let seconds = t_mem.max(t_compute);
        TimeEstimate {
            seconds,
            gflops: flops / seconds / 1e9,
            dram_bw_gbps: traffic_bytes / seconds / 1e9,
            frac_peak_bw: traffic_bytes / seconds / self.dram_bw,
            bound: if t_mem >= t_compute {
                Bound::Dram
            } else {
                Bound::Compute
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic stats resembling a perfectly coalesced streaming SpMV:
    /// `bytes_per_flop` bytes of DRAM traffic per 2 flops per nnz.
    fn streaming_stats(nnz: u64, rows: u64, bytes_per_nnz: u64, tpb: u32) -> KernelStats {
        let grid_warps = rows;
        KernelStats {
            flops: 2 * nnz,
            requested_bytes: nnz * bytes_per_nnz,
            l2_read_misses: nnz * bytes_per_nnz / 32,
            dram_read_bytes: nnz * bytes_per_nnz,
            dram_writeback_sectors: rows * 8 / 32,
            dram_write_bytes: rows * 8,
            warps: grid_warps,
            blocks: grid_warps * 32 / tpb as u64,
            threads_per_block: tpb,
            ..Default::default()
        }
    }

    #[test]
    fn long_rows_reach_high_bandwidth_fraction() {
        // Liver-like: 1.48e9 nnz over 2.97e6 rows, 6.5 bytes per nnz.
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("Half/double", Precision::Double);
        let stats = streaming_stats(1_480_000_000, 2_970_000, 6, 512);
        let t = estimate(&spec, &profile, &stats);
        assert!(
            t.frac_peak_bw > 0.75 && t.frac_peak_bw < 0.92,
            "liver-like bandwidth fraction {}",
            t.frac_peak_bw
        );
        assert_eq!(t.bound, Bound::Dram);
    }

    #[test]
    fn short_rows_lose_bandwidth() {
        // Prostate-like: 9.5e7 nnz over 1.03e6 rows (short rows).
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("Half/double", Precision::Double);
        let liver = estimate(
            &spec,
            &profile,
            &streaming_stats(1_480_000_000, 2_970_000, 6, 512),
        );
        let prostate = estimate(
            &spec,
            &profile,
            &streaming_stats(95_000_000, 1_030_000, 6, 512),
        );
        assert!(
            prostate.frac_peak_bw < liver.frac_peak_bw - 0.05,
            "prostate {} vs liver {}",
            prostate.frac_peak_bw,
            liver.frac_peak_bw
        );
    }

    #[test]
    fn tpb_sweep_peaks_in_the_middle() {
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("Half/double", Precision::Double);
        let perf = |tpb: u32| {
            estimate(
                &spec,
                &profile,
                &streaming_stats(1_480_000_000, 2_970_000, 6, tpb),
            )
            .gflops
        };
        let g32 = perf(32);
        let g128 = perf(128);
        let g512 = perf(512);
        let g1024 = perf(1024);
        assert!(g32 < g512, "32 tpb should underperform: {g32} vs {g512}");
        assert!(g128 <= g512 * 1.001, "128 {g128} vs 512 {g512}");
        assert!(g1024 <= g512, "1024 {g1024} vs 512 {g512}");
    }

    #[test]
    fn tiny_grids_are_utilization_bound() {
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("baseline", Precision::Double);
        // Column-parallel baseline on prostate: ~5000 columns = 157 warps.
        let mut stats = streaming_stats(95_000_000, 1_030_000, 32, 128);
        stats.warps = 157;
        stats.blocks = 40;
        let t = estimate(&spec, &profile, &stats);
        assert!(t.frac_peak_bw < 0.2, "tiny grid frac {}", t.frac_peak_bw);
    }

    #[test]
    fn device_ordering_follows_bandwidth_and_derates() {
        let profile = KernelProfile::new("Half/double", Precision::Double);
        let stats = streaming_stats(1_480_000_000, 2_970_000, 6, 512);
        let a = estimate(&DeviceSpec::a100(), &profile, &stats);
        let v = estimate(&DeviceSpec::v100(), &profile, &stats);
        let p = estimate(&DeviceSpec::p100(), &profile, &stats);
        let av = a.gflops / v.gflops;
        let vp = v.gflops / p.gflops;
        assert!((1.4..=2.1).contains(&av), "A100/V100 ratio {av}");
        assert!((2.0..=3.0).contains(&vp), "V100/P100 ratio {vp}");
        // P100's anomalous low fraction of peak (paper: ~41%).
        assert!(p.frac_peak_bw < 0.5, "P100 frac {}", p.frac_peak_bw);
        assert!(v.frac_peak_bw > 0.75, "V100 frac {}", v.frac_peak_bw);
    }

    #[test]
    fn atomic_heavy_kernels_are_atomic_bound() {
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("atomic-heavy", Precision::Double);
        let stats = KernelStats {
            flops: 2_000_000_000,
            atomic_ops: 1_000_000_000,
            l2_read_hits: 1_000_000_000,
            dram_read_bytes: 32_000_000, // tiny DRAM traffic
            l2_read_misses: 1_000_000,
            warps: 3_000_000,
            blocks: 100_000,
            threads_per_block: 128,
            ..Default::default()
        };
        let t = estimate(&spec, &profile, &stats);
        assert_eq!(t.bound, Bound::Atomic);
        // 1e9 scattered fp64 atomics at 60 Gop/s: ~17 ms.
        assert!((0.012..0.03).contains(&t.seconds), "t {}", t.seconds);
    }

    #[test]
    fn l2_bound_kernels_report_l2() {
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("gather-heavy", Precision::Double);
        let stats = KernelStats {
            flops: 2_000_000_000,
            l2_read_hits: 3_000_000_000, // 96 GB of on-chip gather traffic
            dram_read_bytes: 32_000_000,
            l2_read_misses: 1_000_000,
            warps: 3_000_000,
            blocks: 100_000,
            threads_per_block: 128,
            ..Default::default()
        };
        let t = estimate(&spec, &profile, &stats);
        assert_eq!(t.bound, Bound::L2);
    }

    #[test]
    fn gather_cost_scales_with_bytes_and_link_generation() {
        let a = DeviceSpec::a100();
        let p = DeviceSpec::p100();
        assert_eq!(gather_estimate(&a, 0), 0.0);
        let t1 = gather_estimate(&a, 1 << 20);
        let t2 = gather_estimate(&a, 2 << 20);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!(gather_estimate(&p, 1 << 20) > t1);
        // ~330 KB of non-empty liver rows over NVLink 3 is well under the
        // kernel launch overhead — sharding must stay profitable.
        assert!(gather_estimate(&a, 330_000) < a.launch_overhead_s);
    }

    #[test]
    fn cpu_estimate_is_memory_bound_for_spmv() {
        let cpu = CpuSpec::i9_7940x();
        // Liver-like CPU traffic: ~18 bytes per nnz (see rt-core docs).
        let t = cpu.estimate(18.0 * 1.48e9, 2.0 * 1.48e9);
        assert_eq!(t.bound, Bound::Dram);
        assert!(t.gflops < 15.0, "CPU SpMV should be slow: {}", t.gflops);
        assert!(t.seconds > 0.1);
    }

    #[test]
    fn launch_overhead_binds_tiny_kernels() {
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("tiny", Precision::Double);
        let stats = KernelStats {
            flops: 1000,
            dram_read_bytes: 32,
            l2_read_misses: 1,
            warps: 1,
            blocks: 1,
            threads_per_block: 32,
            ..Default::default()
        };
        let t = estimate(&spec, &profile, &stats);
        assert_eq!(t.bound, Bound::Overhead);
        assert!(t.seconds >= spec.launch_overhead_s);
    }
}
