//! The unified launch report: one serializable record per kernel launch.
//!
//! Before this module, every consumer assembled its own triple of
//! [`KernelStats`], [`TimeEstimate`] and per-buffer [`BufferTraffic`] and
//! rendered its own JSON. [`LaunchReport`] is the single shape they all
//! share — the calculator returns it, the serving engine attaches it to
//! every response, and the benchmark binaries emit it verbatim — so any
//! tool that parses one source parses them all.
//!
//! Every report renders through the one [`Json`] writer: the workspace
//! has no serializer dependency, and a stable, diff-friendly shape
//! matters more here than generality. Keys follow
//! field declaration order; each number keeps the precision its field
//! has always had.

use crate::counters::KernelStats;
use crate::json::Json;
use crate::mem::BufferTraffic;
use crate::timing::{Bound, TimeEstimate};

/// Everything measured and modeled about one kernel launch (or one batch
/// of launches accumulated with [`KernelStats::accumulate`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchReport {
    /// Kernel family name ("Half/double", "Single", ...).
    pub kernel: String,
    /// Device the launch was modeled on ("A100", ...).
    pub device: String,
    /// Cooperative-group tile width the kernel ran at (32 = classic
    /// warp-per-row; narrower widths come from the sub-warp tiled family).
    pub tile_width: u32,
    /// Merged traffic counters of the launch.
    pub stats: KernelStats,
    /// Modeled execution time derived from `stats`.
    pub estimate: TimeEstimate,
    /// Optional per-named-buffer traffic decomposition (empty when the
    /// launch used unnamed buffers).
    pub buffers: Vec<BufferTraffic>,
}

impl LaunchReport {
    pub fn new(
        kernel: impl Into<String>,
        device: impl Into<String>,
        stats: KernelStats,
        estimate: TimeEstimate,
    ) -> Self {
        LaunchReport {
            kernel: kernel.into(),
            device: device.into(),
            tile_width: 32,
            stats,
            estimate,
            buffers: Vec::new(),
        }
    }

    /// Records the cooperative-group tile width the launch ran at.
    pub fn with_tile_width(mut self, tile_width: u32) -> Self {
        self.tile_width = tile_width;
        self
    }

    /// Attaches a per-buffer traffic decomposition.
    pub fn with_buffers(mut self, buffers: Vec<BufferTraffic>) -> Self {
        self.buffers = buffers;
        self
    }

    /// Stable JSON encoding shared by `simspeed`, the figure binaries and
    /// the serving engine.
    pub fn to_json(&self) -> String {
        Json::from(self).render()
    }
}

impl From<&LaunchReport> for Json {
    fn from(r: &LaunchReport) -> Json {
        let buffers = r.buffers.iter().map(|b| {
            Json::obj()
                .field("name", &b.name)
                .field("read_sectors", b.read_sectors)
                .field("dram_read_sectors", b.dram_read_sectors)
                .field("write_sectors", b.write_sectors)
        });
        Json::obj()
            .field("kernel", &r.kernel)
            .field("device", &r.device)
            .field("tile_width", r.tile_width)
            .field("stats", &r.stats)
            .field("estimate", &r.estimate)
            .field("buffers", Json::arr(buffers))
    }
}

impl From<&KernelStats> for Json {
    fn from(s: &KernelStats) -> Json {
        Json::obj()
            .field("flops", s.flops)
            .field("warps", s.warps)
            .field("blocks", s.blocks)
            .field("threads_per_block", s.threads_per_block)
            .field("requested_bytes", s.requested_bytes)
            .field("l2_read_hits", s.l2_read_hits)
            .field("l2_read_misses", s.l2_read_misses)
            .field("l2_write_sectors", s.l2_write_sectors)
            .field("atomic_ops", s.atomic_ops)
            .field("dram_read_bytes", s.dram_read_bytes)
            .field("dram_write_bytes", s.dram_write_bytes)
            .field("l2_hit_rate", Json::fixed(s.l2_hit_rate(), 4))
            .field(
                "operational_intensity",
                Json::fixed(s.operational_intensity(), 4),
            )
    }
}

impl From<&TimeEstimate> for Json {
    fn from(e: &TimeEstimate) -> Json {
        Json::obj()
            .field("seconds", Json::sci(e.seconds, 6))
            .field("gflops", Json::fixed(e.gflops, 2))
            .field("dram_bw_gbps", Json::fixed(e.dram_bw_gbps, 2))
            .field("frac_peak_bw", Json::fixed(e.frac_peak_bw, 4))
            .field("bound", bound_name(e.bound))
    }
}

/// One row bucket's slice of a [`GroupReport`]: which rows it covered, at
/// what width, with what occupancy, and the traffic/time attributable to
/// its member launch alone.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketReport {
    /// Member label (e.g. `"rows 1-2"`, `"zero_fill"`).
    pub label: String,
    /// Tile width the member launched at.
    pub tile_width: u32,
    /// Rows the member covered.
    pub rows: u64,
    /// Fraction of the member's scheduled lane slots carrying a stored
    /// entry (1.0 for the zero-fill member, which has no padding).
    pub lanes_active_frac: f64,
    /// The member launch's own counters.
    pub stats: KernelStats,
    /// Time the member would cost *as a standalone launch* (its own
    /// launch-overhead charge included) — the sum over members exceeds the
    /// fused group estimate by construction.
    pub estimate: TimeEstimate,
}

/// The fused record of a [`crate::Gpu::launch_group`] dispatch: merged
/// counters and a single modeled time (one launch-overhead charge — the
/// members ran back-to-back on the same sim state), with the per-bucket
/// breakdown retained.
///
/// Like [`LaunchReport`], it renders through the one [`Json`] writer.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupReport {
    /// Kernel family name ("Half/double", ...).
    pub kernel: String,
    /// Device the group was modeled on ("A100", ...).
    pub device: String,
    /// All member counters merged.
    pub stats: KernelStats,
    /// Modeled time of the fused dispatch (one launch overhead).
    pub estimate: TimeEstimate,
    /// Per-member breakdown, in launch order.
    pub buckets: Vec<BucketReport>,
}

impl GroupReport {
    /// Stable JSON encoding (keys in declaration order).
    pub fn to_json(&self) -> String {
        let buckets = self.buckets.iter().map(|b| {
            Json::obj()
                .field("label", &b.label)
                .field("tile_width", b.tile_width)
                .field("rows", b.rows)
                .field("lanes_active_frac", Json::fixed(b.lanes_active_frac, 4))
                .field("stats", &b.stats)
                .field("estimate", &b.estimate)
        });
        Json::obj()
            .field("kernel", &self.kernel)
            .field("device", &self.device)
            .field("stats", &self.stats)
            .field("estimate", &self.estimate)
            .field("buckets", Json::arr(buckets))
            .render()
    }
}

/// One shard's slice of a [`ShardedReport`]: the contiguous row range it
/// owned, the device it ran on, its dispatch choice, its own counters and
/// standalone time estimate, and the modeled cost of gathering its
/// partial result over the inter-device link.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// Shard index within the plan (also selects the device: `i % pool`).
    pub shard: usize,
    /// Device the shard ran on ("A100", ...).
    pub device: String,
    /// First row (inclusive) of the shard's range in the full matrix.
    pub row_start: u64,
    /// Rows in the shard's range (empty rows included).
    pub rows: u64,
    /// Non-zeros the shard owns — the balancing target.
    pub nnz: u64,
    /// Dispatch the shard ran ("w=8" fixed-width or "bucketed").
    pub dispatch: String,
    /// The shard launch's own counters (this device only).
    pub stats: KernelStats,
    /// Modeled compute time of the shard on its device, as a standalone
    /// launch (its own launch-overhead charge included).
    pub estimate: TimeEstimate,
    /// Result bytes the shard ships to the destination buffer (only its
    /// non-empty rows travel; empty rows are zero-filled once at the
    /// destination).
    pub gather_bytes: u64,
    /// `gather_bytes` over the device's interconnect bandwidth
    /// ([`crate::timing::gather_estimate`]).
    pub gather_seconds: f64,
}

/// The merged record of one row-sharded request: per-shard breakdown
/// plus the pool-level model.
///
/// `modeled_seconds` is the critical path: shards run concurrently on
/// distinct devices, and each shard's result is usable once its compute
/// *and* its gather finish, so the launch completes at
/// `max_i(compute_i + gather_i)` — not the sum.
///
/// Like [`LaunchReport`], it renders through the one [`Json`] writer.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedReport {
    /// Kernel family name ("Half/double", ...).
    pub kernel: String,
    /// Devices in the pool, in shard order (deduplicated).
    pub devices: Vec<String>,
    /// All shard counters merged (total traffic across the pool).
    pub stats: KernelStats,
    /// Critical-path time of the sharded launch (see type docs).
    pub modeled_seconds: f64,
    /// Total result bytes moved over the interconnect.
    pub gather_bytes: u64,
    /// Per-shard breakdown, in row order.
    pub shards: Vec<ShardReport>,
}

impl ShardedReport {
    /// Merges per-shard records into the pool-level report.
    pub fn new(kernel: impl Into<String>, shards: Vec<ShardReport>) -> Self {
        let mut stats = KernelStats::default();
        let mut devices: Vec<String> = Vec::new();
        let mut modeled_seconds = 0.0f64;
        let mut gather_bytes = 0u64;
        for s in &shards {
            stats.accumulate(&s.stats);
            if !devices.contains(&s.device) {
                devices.push(s.device.clone());
            }
            modeled_seconds = modeled_seconds.max(s.estimate.seconds + s.gather_seconds);
            gather_bytes += s.gather_bytes;
        }
        ShardedReport {
            kernel: kernel.into(),
            devices,
            stats,
            modeled_seconds,
            gather_bytes,
            shards,
        }
    }

    /// Stable JSON encoding (keys in declaration order).
    pub fn to_json(&self) -> String {
        let shards = self.shards.iter().map(|s| {
            Json::obj()
                .field("shard", s.shard)
                .field("device", &s.device)
                .field("row_start", s.row_start)
                .field("rows", s.rows)
                .field("nnz", s.nnz)
                .field("dispatch", &s.dispatch)
                .field("stats", &s.stats)
                .field("estimate", &s.estimate)
                .field("gather_bytes", s.gather_bytes)
                .field("gather_seconds", Json::sci(s.gather_seconds, 6))
        });
        Json::obj()
            .field("kernel", &self.kernel)
            .field("devices", Json::arr(&self.devices))
            .field("stats", &self.stats)
            .field("modeled_seconds", Json::sci(self.modeled_seconds, 6))
            .field("gather_bytes", self.gather_bytes)
            .field("shards", Json::arr(shards))
            .render()
    }
}

fn bound_name(b: Bound) -> &'static str {
    match b {
        Bound::Dram => "dram",
        Bound::L2 => "l2",
        Bound::Compute => "compute",
        Bound::Atomic => "atomic",
        Bound::Overhead => "overhead",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::json::minify;
    use crate::timing::{estimate, KernelProfile, Precision};

    fn sample() -> LaunchReport {
        let stats = KernelStats {
            flops: 1000,
            warps: 10,
            blocks: 2,
            threads_per_block: 512,
            requested_bytes: 4096,
            l2_read_hits: 32,
            l2_read_misses: 96,
            l2_write_sectors: 8,
            dram_writeback_sectors: 8,
            dram_read_bytes: 96 * 32,
            dram_write_bytes: 8 * 32,
            atomic_ops: 0,
        };
        let est = estimate(
            &DeviceSpec::a100(),
            &KernelProfile::new("Half/double", Precision::Double),
            &stats,
        );
        LaunchReport::new("Half/double", "A100", stats, est)
    }

    #[test]
    fn json_has_stable_keys() {
        let j = sample().to_json();
        for key in [
            "\"kernel\"",
            "\"device\"",
            "\"tile_width\"",
            "\"stats\"",
            "\"estimate\"",
            "\"buffers\"",
            "\"flops\"",
            "\"dram_read_bytes\"",
            "\"seconds\"",
            "\"gflops\"",
            "\"bound\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"tile_width\": 32"));
        let narrow = sample().with_tile_width(4).to_json();
        assert!(narrow.contains("\"tile_width\": 4"));
    }

    #[test]
    fn json_includes_buffers_when_attached() {
        let r = sample().with_buffers(vec![BufferTraffic {
            name: "values".into(),
            read_sectors: 100,
            dram_read_sectors: 90,
            write_sectors: 0,
        }]);
        let j = r.to_json();
        assert!(j.contains("\"values\""));
        assert!(j.contains("\"dram_read_sectors\": 90"));
        assert_eq!(
            minify(&j),
            r#"{"kernel":"Half/double","device":"A100","tile_width":32,"stats":{"flops":1000,"warps":10,"blocks":2,"threads_per_block":512,"requested_bytes":4096,"l2_read_hits":32,"l2_read_misses":96,"l2_write_sectors":8,"atomic_ops":0,"dram_read_bytes":3072,"dram_write_bytes":256,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"estimate":{"seconds":3.405982e-6,"gflops":0.29,"dram_bw_gbps":0.98,"frac_peak_bw":0.0006,"bound":"overhead"},"buffers":[{"name":"values","read_sectors":100,"dram_read_sectors":90,"write_sectors":0}]}"#
        );
    }

    #[test]
    fn group_json_has_stable_keys_and_buckets() {
        let base = sample();
        let bucket = BucketReport {
            label: "rows 1-2".into(),
            tile_width: 2,
            rows: 100,
            lanes_active_frac: 0.875,
            stats: base.stats.clone(),
            estimate: base.estimate.clone(),
        };
        let g = GroupReport {
            kernel: "Half/double".into(),
            device: "A100".into(),
            stats: base.stats.clone(),
            estimate: base.estimate.clone(),
            buckets: vec![bucket],
        };
        let j = g.to_json();
        for key in [
            "\"kernel\"",
            "\"device\"",
            "\"stats\"",
            "\"estimate\"",
            "\"buckets\"",
            "\"label\"",
            "\"rows 1-2\"",
            "\"lanes_active_frac\": 0.8750",
            "\"tile_width\": 2",
            "\"rows\": 100",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.starts_with('{') && j.ends_with('}'));
        // The stats/estimate objects render identically to LaunchReport's.
        let launch = base.to_json();
        let stats_block =
            &launch[launch.find("\"stats\"").unwrap()..launch.find("\"estimate\"").unwrap()];
        assert!(j.contains(stats_block.trim_end_matches([' ', ',', '\n'])));
        assert_eq!(
            minify(&j),
            r#"{"kernel":"Half/double","device":"A100","stats":{"flops":1000,"warps":10,"blocks":2,"threads_per_block":512,"requested_bytes":4096,"l2_read_hits":32,"l2_read_misses":96,"l2_write_sectors":8,"atomic_ops":0,"dram_read_bytes":3072,"dram_write_bytes":256,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"estimate":{"seconds":3.405982e-6,"gflops":0.29,"dram_bw_gbps":0.98,"frac_peak_bw":0.0006,"bound":"overhead"},"buckets":[{"label":"rows 1-2","tile_width":2,"rows":100,"lanes_active_frac":0.8750,"stats":{"flops":1000,"warps":10,"blocks":2,"threads_per_block":512,"requested_bytes":4096,"l2_read_hits":32,"l2_read_misses":96,"l2_write_sectors":8,"atomic_ops":0,"dram_read_bytes":3072,"dram_write_bytes":256,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"estimate":{"seconds":3.405982e-6,"gflops":0.29,"dram_bw_gbps":0.98,"frac_peak_bw":0.0006,"bound":"overhead"}}]}"#
        );
    }

    #[test]
    fn sharded_report_merges_counters_and_models_the_critical_path() {
        let base = sample();
        let mk = |shard: usize, device: &str, seconds: f64, gather: f64| ShardReport {
            shard,
            device: device.into(),
            row_start: shard as u64 * 100,
            rows: 100,
            nnz: 5000,
            dispatch: "w=8".into(),
            stats: base.stats.clone(),
            estimate: TimeEstimate {
                seconds,
                ..base.estimate.clone()
            },
            gather_bytes: 800,
            gather_seconds: gather,
        };
        let r = ShardedReport::new(
            "Half/double",
            vec![
                mk(0, "A100", 2e-5, 1e-6),
                mk(1, "V100", 3e-5, 2e-6),
                mk(2, "A100", 1e-5, 1e-6),
            ],
        );
        // Critical path = slowest shard's compute + its gather, not a sum.
        assert!((r.modeled_seconds - 3.2e-5).abs() < 1e-12);
        assert_eq!(r.stats.flops, 3 * base.stats.flops);
        assert_eq!(r.gather_bytes, 3 * 800);
        assert_eq!(r.devices, vec!["A100".to_string(), "V100".to_string()]);
        let j = r.to_json();
        for key in [
            "\"kernel\"",
            "\"devices\": [\"A100\", \"V100\"]",
            "\"modeled_seconds\"",
            "\"gather_bytes\": 2400",
            "\"shards\"",
            "\"shard\": 2",
            "\"row_start\": 100",
            "\"dispatch\": \"w=8\"",
            "\"gather_seconds\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(
            minify(&j),
            r#"{"kernel":"Half/double","devices":["A100","V100"],"stats":{"flops":3000,"warps":30,"blocks":6,"threads_per_block":512,"requested_bytes":12288,"l2_read_hits":96,"l2_read_misses":288,"l2_write_sectors":24,"atomic_ops":0,"dram_read_bytes":9216,"dram_write_bytes":768,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"modeled_seconds":3.200000e-5,"gather_bytes":2400,"shards":[{"shard":0,"device":"A100","row_start":0,"rows":100,"nnz":5000,"dispatch":"w=8","stats":{"flops":1000,"warps":10,"blocks":2,"threads_per_block":512,"requested_bytes":4096,"l2_read_hits":32,"l2_read_misses":96,"l2_write_sectors":8,"atomic_ops":0,"dram_read_bytes":3072,"dram_write_bytes":256,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"estimate":{"seconds":2.000000e-5,"gflops":0.29,"dram_bw_gbps":0.98,"frac_peak_bw":0.0006,"bound":"overhead"},"gather_bytes":800,"gather_seconds":1.000000e-6},{"shard":1,"device":"V100","row_start":100,"rows":100,"nnz":5000,"dispatch":"w=8","stats":{"flops":1000,"warps":10,"blocks":2,"threads_per_block":512,"requested_bytes":4096,"l2_read_hits":32,"l2_read_misses":96,"l2_write_sectors":8,"atomic_ops":0,"dram_read_bytes":3072,"dram_write_bytes":256,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"estimate":{"seconds":3.000000e-5,"gflops":0.29,"dram_bw_gbps":0.98,"frac_peak_bw":0.0006,"bound":"overhead"},"gather_bytes":800,"gather_seconds":2.000000e-6},{"shard":2,"device":"A100","row_start":200,"rows":100,"nnz":5000,"dispatch":"w=8","stats":{"flops":1000,"warps":10,"blocks":2,"threads_per_block":512,"requested_bytes":4096,"l2_read_hits":32,"l2_read_misses":96,"l2_write_sectors":8,"atomic_ops":0,"dram_read_bytes":3072,"dram_write_bytes":256,"l2_hit_rate":0.2500,"operational_intensity":0.3005},"estimate":{"seconds":1.000000e-5,"gflops":0.29,"dram_bw_gbps":0.98,"frac_peak_bw":0.0006,"bound":"overhead"},"gather_bytes":800,"gather_seconds":1.000000e-6}]}"#
        );
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
