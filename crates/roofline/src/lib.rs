//! Roofline analysis (Williams, Waterman, Patterson 2009) — Figure 3.
//!
//! A kernel's attainable performance is bounded by
//! `min(peak_flops, operational_intensity * peak_bandwidth)`. The paper
//! measures operational intensity (OI) with Nsight's `dram_bytes`
//! counter and validates it against an analytic upper bound assuming an
//! infinite cache (§V): for the Half/double CSR SpMV,
//!
//! ```text
//! traffic = 6*nnz + 12*nr + 8*nc   bytes   (2B value + 4B index per nnz,
//!                                           4B row-ptr + 8B output per row,
//!                                           8B input per column)
//! flops   = 2*nnz
//! OI      = 2*nnz / (6*nnz + 12*nr + 8*nc)   ~ 0.332 for liver beam 1
//! ```
//!
//! This crate provides the model (ceilings + attainable performance),
//! the paper's analytic OI bounds for every kernel configuration, and a
//! [`RooflinePoint`] builder that pairs measured simulator counters with
//! a modeled time estimate.

use rt_gpusim::{DeviceSpec, KernelProfile, KernelStats, Precision, TimeEstimate};

/// Byte cost per matrix element of a CSR SpMV configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CsrTrafficModel {
    /// Bytes per non-zero for the stored value.
    pub value_bytes: usize,
    /// Bytes per non-zero for the column index.
    pub index_bytes: usize,
    /// Bytes per element of the input vector.
    pub x_bytes: usize,
    /// Bytes per element of the output vector.
    pub y_bytes: usize,
}

impl CsrTrafficModel {
    /// The paper's Half/double configuration: f16 values, u32 indices,
    /// f64 vectors.
    pub fn half_double() -> Self {
        CsrTrafficModel {
            value_bytes: 2,
            index_bytes: 4,
            x_bytes: 8,
            y_bytes: 8,
        }
    }

    /// Pure single precision (the library-comparison configuration).
    pub fn single() -> Self {
        CsrTrafficModel {
            value_bytes: 4,
            index_bytes: 4,
            x_bytes: 4,
            y_bytes: 4,
        }
    }

    /// Half values with 16-bit column indices — the paper's future-work
    /// proposal (§V).
    pub fn half_double_u16() -> Self {
        CsrTrafficModel {
            value_bytes: 2,
            index_bytes: 2,
            x_bytes: 8,
            y_bytes: 8,
        }
    }

    /// Minimum DRAM traffic in bytes for an `nr x nc` matrix with `nnz`
    /// stored entries, under the paper's infinite-cache assumption:
    /// every byte read once, one extra 4-byte row-pointer load per row,
    /// the whole output written.
    pub fn min_traffic_bytes(&self, nnz: u64, nr: u64, nc: u64) -> u64 {
        (self.value_bytes + self.index_bytes) as u64 * nnz
            + (4 + self.y_bytes as u64) * nr
            + self.x_bytes as u64 * nc
    }

    /// Analytic upper bound on operational intensity (FLOP per DRAM
    /// byte): `2*nnz / min_traffic`.
    pub fn oi_upper_bound(&self, nnz: u64, nr: u64, nc: u64) -> f64 {
        2.0 * nnz as f64 / self.min_traffic_bytes(nnz, nr, nc) as f64
    }
}

/// The roofline: a compute ceiling and a memory ceiling.
#[derive(Clone, Debug, PartialEq)]
pub struct Roofline {
    pub peak_flops: f64,
    pub peak_bw: f64,
    pub device: String,
    pub precision: Precision,
}

impl Roofline {
    pub fn for_device(spec: &DeviceSpec, precision: Precision) -> Self {
        Roofline {
            peak_flops: spec.peak_flops(precision),
            peak_bw: spec.dram_bw,
            device: spec.name.to_string(),
            precision,
        }
    }

    /// Attainable FLOP/s at operational intensity `oi`.
    pub fn attainable(&self, oi: f64) -> f64 {
        (oi * self.peak_bw).min(self.peak_flops)
    }

    /// The ridge point: the OI where the kernel stops being
    /// memory-bound.
    pub fn ridge(&self) -> f64 {
        self.peak_flops / self.peak_bw
    }

    /// True if a kernel at OI `oi` is under the memory slope.
    pub fn is_memory_bound(&self, oi: f64) -> bool {
        oi < self.ridge()
    }

    /// Samples the roofline curve at logarithmically spaced OIs, for
    /// plotting (Figure 3's ceilings).
    pub fn curve(&self, oi_min: f64, oi_max: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(oi_min > 0.0 && oi_max > oi_min && points >= 2);
        (0..points)
            .map(|i| {
                let t = i as f64 / (points - 1) as f64;
                let oi = oi_min * (oi_max / oi_min).powf(t);
                (oi, self.attainable(oi))
            })
            .collect()
    }
}

/// One kernel's position on the roofline plot.
#[derive(Clone, Debug)]
pub struct RooflinePoint {
    pub kernel: String,
    pub case: String,
    /// Measured operational intensity (from simulator DRAM counters).
    pub oi: f64,
    /// Modeled achieved GFLOP/s.
    pub gflops: f64,
    /// Attainable GFLOP/s at this OI (the roof overhead this point).
    pub attainable_gflops: f64,
    /// Fraction of attainable achieved.
    pub efficiency: f64,
}

impl RooflinePoint {
    /// Builds a point from measured counters and a time estimate.
    pub fn from_stats(
        kernel: &str,
        case: &str,
        roof: &Roofline,
        stats: &KernelStats,
        estimate: &TimeEstimate,
    ) -> Self {
        let oi = stats.operational_intensity();
        let attainable = roof.attainable(oi);
        RooflinePoint {
            kernel: kernel.to_string(),
            case: case.to_string(),
            oi,
            gflops: estimate.gflops,
            attainable_gflops: attainable / 1e9,
            efficiency: estimate.gflops * 1e9 / attainable,
        }
    }
}

/// Convenience: measured counters -> modeled estimate -> roofline point.
pub fn analyze(
    kernel_name: &str,
    case: &str,
    spec: &DeviceSpec,
    profile: &KernelProfile,
    stats: &KernelStats,
) -> RooflinePoint {
    let estimate = rt_gpusim::timing::estimate(spec, profile, stats);
    let roof = Roofline::for_device(spec, profile.precision);
    RooflinePoint::from_stats(kernel_name, case, &roof, stats, &estimate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_oi_bound_for_liver_beam_1() {
        // Table I: liver 1 = 2.97e6 rows, 6.80e4 cols, 1.48e9 nnz.
        // §V computes an OI upper bound of 0.332 for Half/double.
        let oi = CsrTrafficModel::half_double().oi_upper_bound(1_480_000_000, 2_970_000, 68_000);
        assert!((oi - 0.332).abs() < 0.002, "OI bound {oi}");
    }

    #[test]
    fn single_precision_has_lower_oi() {
        let hd = CsrTrafficModel::half_double();
        let sp = CsrTrafficModel::single();
        let (nnz, nr, nc) = (1_480_000_000, 2_970_000, 68_000);
        assert!(sp.oi_upper_bound(nnz, nr, nc) < hd.oi_upper_bound(nnz, nr, nc));
    }

    #[test]
    fn u16_indices_raise_oi() {
        let hd = CsrTrafficModel::half_double();
        let h16 = CsrTrafficModel::half_double_u16();
        let (nnz, nr, nc) = (95_000_000, 1_030_000, 5_090);
        let gain = h16.oi_upper_bound(nnz, nr, nc) / hd.oi_upper_bound(nnz, nr, nc);
        // 6 bytes/nnz -> 4 bytes/nnz: roughly a 1.5x OI gain.
        assert!((1.3..1.6).contains(&gain), "gain {gain}");
    }

    #[test]
    fn roofline_geometry() {
        let spec = DeviceSpec::a100();
        let roof = Roofline::for_device(&spec, Precision::Double);
        // SpMV-like OI is far under the ridge.
        assert!(roof.is_memory_bound(0.33));
        assert!((roof.ridge() - 9.7e12 / 1555e9).abs() < 1e-9);
        // On the memory slope, attainable = oi * bw.
        assert_eq!(roof.attainable(0.1), 0.1 * 1555e9);
        // Far right, compute-bound.
        assert_eq!(roof.attainable(1e6), 9.7e12);
    }

    #[test]
    fn curve_is_monotonic_and_capped() {
        let roof = Roofline::for_device(&DeviceSpec::a100(), Precision::Single);
        let curve = roof.curve(0.01, 1e4, 64);
        assert_eq!(curve.len(), 64);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve.last().unwrap().1, roof.peak_flops);
    }

    #[test]
    fn point_efficiency_is_bounded() {
        let spec = DeviceSpec::a100();
        let profile = KernelProfile::new("test", Precision::Double);
        let stats = KernelStats {
            flops: 2_000_000,
            dram_read_bytes: 6_000_000,
            l2_read_misses: 187_500,
            warps: 10_000,
            blocks: 700,
            threads_per_block: 512,
            ..Default::default()
        };
        let p = analyze("test", "case", &spec, &profile, &stats);
        assert!(p.oi > 0.0);
        assert!(
            p.efficiency > 0.0 && p.efficiency <= 1.05,
            "eff {}",
            p.efficiency
        );
        assert!(p.gflops <= p.attainable_gflops * 1.05);
    }
}
