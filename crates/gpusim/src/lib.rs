//! A warp-synchronous SIMT GPU simulator for memory-bound kernel studies.
//!
//! The paper evaluates its SpMV kernels on Nvidia A100/V100/P100 hardware
//! with Nsight Compute counters. This crate substitutes that hardware with
//! a simulator that:
//!
//! * **executes kernels functionally** — warp-centric kernels written
//!   against [`WarpCtx`] compute real, testable numeric results with the
//!   exact reduction orders of the CUDA originals (so the paper's bitwise
//!   reproducibility requirement can be asserted, not assumed);
//! * **counts memory traffic mechanistically** — every load/store goes
//!   through a sectored, set-associative, write-back L2 cache model
//!   ([`cache::L2Cache`]; 32-byte sectors, the DRAM transaction granularity
//!   of the modeled GPUs), producing Nsight-style `dram_bytes` counters,
//!   per-warp coalescing behaviour and atomic read-modify-write traffic;
//! * **estimates kernel time analytically** — [`timing`] combines the
//!   measured traffic with per-device ceilings (peak DRAM bandwidth, L2
//!   bandwidth, peak FLOP/s per precision), an occupancy/scheduling model
//!   of the execution configuration, and a per-warp fixed-overhead term
//!   that penalizes short rows. Constants are calibrated once, globally —
//!   per-case results *emerge* from the traffic counters.
//!
//! The simulator is deliberately not cycle-accurate: the paper's results
//! are bandwidth results, and DRAM traffic divided by achievable bandwidth
//! predicts them well (the paper itself validates its operational-intensity
//! model the same way in §V).
//!
//! # Example
//!
//! ```
//! use rt_gpusim::{DeviceSpec, Gpu, Grid};
//!
//! let gpu = Gpu::new(DeviceSpec::a100());
//! let data = gpu.upload(&[1.0f64, 2.0, 3.0, 4.0]);
//! let out = gpu.alloc_out::<f64>(4);
//! let grid = Grid::warp_per_item(4, 128); // one warp per item
//! let stats = gpu.launch(grid, |w| {
//!     let i = w.warp_id();
//!     if i < 4 {
//!         let v = w.load_scalar(&data, i);
//!         w.store_scalar(&out, i, v * 2.0);
//!     }
//! });
//! assert_eq!(out.to_vec(), vec![2.0, 4.0, 6.0, 8.0]);
//! assert!(stats.dram_read_bytes > 0);
//! ```

pub mod buffer;
pub mod cache;
pub mod counters;
pub mod device;
pub mod devicegroup;
pub mod exec;
pub mod json;
pub mod mem;
pub mod report;
pub mod timing;

pub use buffer::{DeviceBuffer, DeviceOutBuffer};
pub use counters::KernelStats;
pub use device::DeviceSpec;
pub use devicegroup::{snake_partition, snake_partition_subset};
pub use exec::{
    reduce_sum, Gpu, Grid, GroupMember, GroupStats, MemberStats, MemoCounts, WarpCtx, SPLIT_FLOPS,
    TILE_WIDTHS, WARP_SIZE,
};
pub use mem::BufferTraffic;
pub use report::{BucketReport, GroupReport, LaunchReport, ShardReport, ShardedReport};
pub use timing::{gather_estimate, CpuSpec, KernelProfile, Precision, TimeEstimate};
