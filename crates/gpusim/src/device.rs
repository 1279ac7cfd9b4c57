//! Device specifications for the modeled GPUs.
//!
//! Numbers are the public datasheet values for the three cards the paper
//! evaluates, plus two calibration constants per device:
//!
//! * `dram_efficiency` — the fraction of datasheet bandwidth a perfectly
//!   coalesced streaming kernel can actually sustain (DRAM refresh, ECC,
//!   command overhead). ~0.9 on HBM2e parts; set to 0.48 on the P100,
//!   where the paper measured only ~41% of peak and explicitly deferred
//!   the explanation to future work (§V, Fig. 7) — we model it as an
//!   architectural derate (pre-Volta scheduler + first-generation HBM
//!   controller) so the published V100/P100 ≈ 2.5x gap is reproduced.
//! * `block_dispatch_cycles` — fixed cost to schedule one thread block,
//!   which penalizes tiny blocks in the Figure 4 sweep.

/// Floating-point precision of a kernel's arithmetic, selecting the
/// compute ceiling in the roofline/timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    Half,
    Single,
    Double,
}

/// Static description of a simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Warp schedulers per SM (warps issued per cycle per SM).
    pub warp_schedulers: u32,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// L2 associativity used by the cache model: 1 to 256 ways
    /// ([`L2Cache::new`](crate::cache::L2Cache::new) panics otherwise).
    /// Every shipped spec uses 16.
    pub l2_ways: usize,
    /// Peak DRAM bandwidth in bytes/s (datasheet).
    pub dram_bw: f64,
    /// Aggregate on-chip cache bandwidth in bytes/s servicing hit traffic
    /// (the model has no separate L1, so this stands for L1+L2 combined —
    /// what bounds gather-heavy and atomic-heavy kernels).
    pub l2_bw: f64,
    /// Peak double-precision FLOP/s.
    pub peak_f64: f64,
    /// Peak single-precision FLOP/s.
    pub peak_f32: f64,
    /// Peak half-precision FLOP/s.
    pub peak_f16: f64,
    /// Kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Sustainable fraction of `dram_bw` for a perfect streaming kernel.
    pub dram_efficiency: f64,
    /// Cycles to dispatch one thread block (amortized over the block).
    pub block_dispatch_cycles: f64,
    /// Peak scattered floating-point atomicAdd throughput (read-modify-
    /// write operations per second at the L2). Far below raw cache
    /// bandwidth: each atomic serializes a slice's RMW port.
    pub atomic_ops_per_s: f64,
    /// Modeled inter-device interconnect bandwidth in bytes/s per device
    /// (NVLink-class link budget out of this card), charged when a
    /// row-sharded launch gathers partial results to one destination.
    pub interconnect_bw: f64,
}

impl DeviceSpec {
    /// Nvidia A100-SXM4-40GB (Ampere), the paper's primary system.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100",
            sm_count: 108,
            clock_hz: 1.41e9,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_schedulers: 4,
            l2_bytes: 40 << 20,
            l2_ways: 16,
            dram_bw: 1555e9,
            l2_bw: 13000e9,
            peak_f64: 9.7e12,
            peak_f32: 19.5e12,
            peak_f16: 78e12,
            launch_overhead_s: 3e-6,
            dram_efficiency: 0.94,
            block_dispatch_cycles: 100.0,
            atomic_ops_per_s: 65e9,
            // NVLink 3: 12 links x 50 GB/s.
            interconnect_bw: 600e9,
        }
    }

    /// Nvidia V100-SXM2-16GB (Volta), the Kebnekaise nodes in the paper.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "V100",
            sm_count: 80,
            clock_hz: 1.53e9,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_schedulers: 4,
            l2_bytes: 6 << 20,
            l2_ways: 16,
            dram_bw: 897e9,
            l2_bw: 8000e9,
            peak_f64: 7.8e12,
            peak_f32: 15.7e12,
            peak_f16: 31.4e12,
            launch_overhead_s: 3.5e-6,
            dram_efficiency: 0.94,
            block_dispatch_cycles: 100.0,
            atomic_ops_per_s: 35e9,
            // NVLink 2: 6 links x 50 GB/s.
            interconnect_bw: 300e9,
        }
    }

    /// Nvidia P100-SXM2-16GB (Pascal), on the POWER8 host in the paper.
    pub fn p100() -> Self {
        DeviceSpec {
            name: "P100",
            sm_count: 56,
            clock_hz: 1.48e9,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_schedulers: 2,
            l2_bytes: 4 << 20,
            l2_ways: 16,
            dram_bw: 732e9,
            l2_bw: 4000e9,
            peak_f64: 5.3e12,
            peak_f32: 10.6e12,
            peak_f16: 21.2e12,
            launch_overhead_s: 5e-6,
            // See module docs: reproduces the paper's measured ~41% of
            // peak (vs ~85% on A100/V100) that it left unexplained.
            dram_efficiency: 0.48,
            block_dispatch_cycles: 100.0,
            atomic_ops_per_s: 15e9,
            // NVLink 1: 4 links x 40 GB/s.
            interconnect_bw: 160e9,
        }
    }

    /// Peak FLOP/s ceiling for a given precision.
    pub fn peak_flops(&self, p: Precision) -> f64 {
        match p {
            Precision::Half => self.peak_f16,
            Precision::Single => self.peak_f32,
            Precision::Double => self.peak_f64,
        }
    }

    /// Returns a copy with the L2 capacity scaled by `1 / factor`.
    ///
    /// Experiments run on matrices geometrically scaled down by `factor`;
    /// scaling the L2 by the same factor preserves the capacity *ratios*
    /// the paper's analysis hinges on (e.g. "the input vector fits
    /// entirely in the 40 MB L2"). Ceilings (bandwidths, FLOP/s) are left
    /// untouched — the timing model extrapolates traffic back up.
    pub fn scaled_l2(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "scale factor must be >= 1");
        let mut d = self.clone();
        // Keep at least one line per set per way so the model stays sane.
        d.l2_bytes = ((self.l2_bytes as f64 / factor) as usize).max(d.l2_ways * 32 * 4);
        d
    }

    /// Returns a copy with the L2 capacity set explicitly (used by the
    /// experiment harness, which clamps the scaled L2 so the capacity
    /// *relations* of the clinical problem survive — input vector
    /// resident, matrix streaming; see `rt-repro::runner`).
    pub fn with_l2_bytes(&self, bytes: usize) -> Self {
        let mut d = self.clone();
        d.l2_bytes = bytes.max(d.l2_ways * 32 * 4);
        d
    }

    /// Warp slots across the whole device (resident warps at 100%
    /// occupancy).
    pub fn total_warp_slots(&self) -> u32 {
        self.sm_count * self.max_threads_per_sm / 32
    }

    /// Sustainable streaming bandwidth in bytes/s — `dram_bw` derated by
    /// `dram_efficiency`. The single number that ranks devices for a
    /// bandwidth-bound SpMV, used as the throughput weight when sharding
    /// across a heterogeneous pool and when dealing devices into replica
    /// groups.
    #[inline]
    pub fn effective_dram_bw(&self) -> f64 {
        self.dram_bw * self.dram_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table() {
        let a = DeviceSpec::a100();
        assert_eq!(a.l2_bytes, 40 * 1024 * 1024);
        assert_eq!(a.dram_bw, 1555e9);
        let v = DeviceSpec::v100();
        assert_eq!(v.l2_bytes, 6 * 1024 * 1024);
        assert_eq!(v.dram_bw, 897e9);
        let p = DeviceSpec::p100();
        assert_eq!(p.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(p.dram_bw, 732e9);
    }

    #[test]
    fn precision_ceilings_ordered() {
        let a = DeviceSpec::a100();
        assert!(a.peak_flops(Precision::Half) > a.peak_flops(Precision::Single));
        assert!(a.peak_flops(Precision::Single) > a.peak_flops(Precision::Double));
    }

    #[test]
    fn scaling_shrinks_l2_only() {
        let a = DeviceSpec::a100();
        let s = a.scaled_l2(64.0);
        assert_eq!(s.l2_bytes, (40 << 20) / 64);
        assert_eq!(s.dram_bw, a.dram_bw);
        assert_eq!(s.peak_f64, a.peak_f64);
    }

    #[test]
    fn scaling_floors_at_minimum_cache() {
        let a = DeviceSpec::a100();
        let s = a.scaled_l2(1e12);
        assert!(s.l2_bytes >= s.l2_ways * 32 * 4);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaling_rejects_upscale() {
        let _ = DeviceSpec::a100().scaled_l2(0.5);
    }

    #[test]
    fn interconnect_generations_ordered() {
        let a = DeviceSpec::a100();
        let v = DeviceSpec::v100();
        let p = DeviceSpec::p100();
        assert!(a.interconnect_bw > v.interconnect_bw);
        assert!(v.interconnect_bw > p.interconnect_bw);
        // The link is always the narrow pipe relative to local DRAM.
        assert!(a.interconnect_bw < a.dram_bw);
    }

    #[test]
    fn warp_slots() {
        assert_eq!(DeviceSpec::a100().total_warp_slots(), 108 * 64);
    }
}
