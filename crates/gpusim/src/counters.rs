//! Performance counters.
//!
//! Each launch accumulates into a private [`LocalCounters`] (plain
//! `Cell`s — no atomic traffic on the hot path) and merges it into a
//! [`KernelStats`] snapshot, the simulator's equivalent of an Nsight
//! Compute section.

use crate::mem::RegionMeta;
use std::cell::Cell;
use std::sync::Arc;

/// Launch-local per-region traffic tallies: plain `Cell`s, no shared
/// atomics. Indices parallel the region snapshot in [`RegionAttr`].
#[derive(Debug, Default)]
pub(crate) struct RegionCounts {
    pub read_sectors: Cell<u64>,
    pub dram_read_sectors: Cell<u64>,
    pub write_sectors: Cell<u64>,
}

/// Launch-local region-attribution state, populated by
/// `MemSystem::local_counters`. A `LocalCounters::default()` has no
/// snapshot (`meta: None`): the memory system then falls back to
/// attributing directly into the shared per-region atomics, which keeps
/// detached counters (unit tests, ad-hoc probes) fully functional.
#[derive(Debug, Default)]
pub(crate) struct RegionAttr {
    /// Immutable snapshot of the named regions at launch start, sorted
    /// by start address (the allocator is monotonic, the region list
    /// append-only).
    pub meta: Option<Arc<Vec<RegionMeta>>>,
    /// One tally per snapshot entry; flushed to the shared totals at
    /// launch end by `MemSystem::flush_region_counts`.
    pub counts: Vec<RegionCounts>,
    /// Index of the region that served the previous lookup — warp
    /// accesses stream through one buffer at a time, so this cache hits
    /// almost always and skips the binary search.
    pub last: Cell<usize>,
}

/// Per-launch counter block. All fields are extensive (sum-mergeable).
#[derive(Debug, Default)]
pub struct LocalCounters {
    /// Useful floating-point operations (the kernel's own accounting;
    /// SpMV kernels report `2 * nnz`).
    pub flops: Cell<u64>,
    /// Bytes the kernel asked for (before sector rounding).
    pub requested_bytes: Cell<u64>,
    /// 32-byte sectors read that hit in L2.
    pub l2_read_hits: Cell<u64>,
    /// 32-byte sectors read that missed and were fetched from DRAM.
    pub l2_read_misses: Cell<u64>,
    /// 32-byte sectors written (write-allocate; DRAM cost paid at
    /// eviction/flush).
    pub l2_write_sectors: Cell<u64>,
    /// Dirty sectors written back to DRAM (evictions + final flush).
    pub dram_writeback_sectors: Cell<u64>,
    /// Atomic read-modify-write operations performed.
    pub atomic_ops: Cell<u64>,
    /// Warps that executed.
    pub warps: Cell<u64>,
    /// Per-region attribution state (empty for detached counters).
    pub(crate) attr: RegionAttr,
}

impl LocalCounters {
    #[inline]
    pub fn add_flops(&self, n: u64) {
        self.flops.set(self.flops.get() + n);
    }

    #[inline]
    pub fn add(&self, field: &Cell<u64>, n: u64) {
        field.set(field.get() + n);
    }
}

/// Merged, immutable counter snapshot of one kernel launch, with derived
/// metrics. This is what the roofline and timing models consume.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    pub flops: u64,
    pub requested_bytes: u64,
    pub l2_read_hits: u64,
    pub l2_read_misses: u64,
    pub l2_write_sectors: u64,
    pub dram_writeback_sectors: u64,
    pub atomic_ops: u64,
    pub warps: u64,
    /// Blocks in the launch grid.
    pub blocks: u64,
    /// Threads per block of the launch.
    pub threads_per_block: u32,
    /// Bytes read from DRAM (L2 read misses * 32).
    pub dram_read_bytes: u64,
    /// Bytes written back to DRAM.
    pub dram_write_bytes: u64,
}

impl KernelStats {
    /// Merges launch-local counters plus launch geometry into a snapshot.
    pub fn merge(locals: &[LocalCounters], blocks: u64, threads_per_block: u32) -> Self {
        let mut s = KernelStats {
            blocks,
            threads_per_block,
            ..Default::default()
        };
        for l in locals {
            s.flops += l.flops.get();
            s.requested_bytes += l.requested_bytes.get();
            s.l2_read_hits += l.l2_read_hits.get();
            s.l2_read_misses += l.l2_read_misses.get();
            s.l2_write_sectors += l.l2_write_sectors.get();
            s.dram_writeback_sectors += l.dram_writeback_sectors.get();
            s.atomic_ops += l.atomic_ops.get();
            s.warps += l.warps.get();
        }
        s.dram_read_bytes = s.l2_read_misses * 32;
        s.dram_write_bytes = s.dram_writeback_sectors * 32;
        s
    }

    /// Adds another launch's extensive counters into this snapshot —
    /// used when one logical operation (a batched request chunked over
    /// several launches) should be reported as a single record. Grid
    /// geometry accumulates block counts; `threads_per_block` keeps the
    /// first launch's value (chunks share an execution configuration).
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.flops += other.flops;
        self.requested_bytes += other.requested_bytes;
        self.l2_read_hits += other.l2_read_hits;
        self.l2_read_misses += other.l2_read_misses;
        self.l2_write_sectors += other.l2_write_sectors;
        self.dram_writeback_sectors += other.dram_writeback_sectors;
        self.atomic_ops += other.atomic_ops;
        self.warps += other.warps;
        self.blocks += other.blocks;
        if self.threads_per_block == 0 {
            self.threads_per_block = other.threads_per_block;
        }
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
    }

    /// Total DRAM traffic in bytes — Nsight's `dram_bytes`.
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total L2 traffic in bytes (all sector transactions, both hit and
    /// miss, plus atomic RMWs which move two sectors' worth).
    pub fn l2_total_bytes(&self) -> u64 {
        (self.l2_read_hits + self.l2_read_misses + self.l2_write_sectors) * 32
            + self.atomic_ops * 16
    }

    /// Operational intensity in FLOP per DRAM byte — the roofline x-axis.
    pub fn operational_intensity(&self) -> f64 {
        let bytes = self.dram_total_bytes();
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// L2 read hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_read_hits + self.l2_read_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_read_hits as f64 / total as f64
        }
    }

    /// Fraction of transferred read bytes the kernel actually requested —
    /// the coalescing efficiency (1.0 = perfectly coalesced).
    pub fn coalescing_efficiency(&self) -> f64 {
        let moved = (self.l2_read_hits + self.l2_read_misses + self.l2_write_sectors) * 32;
        if moved == 0 {
            1.0
        } else {
            (self.requested_bytes as f64 / moved as f64).min(1.0)
        }
    }

    /// Scales every extensive counter by `factor`, extrapolating a run on
    /// a geometrically scaled-down matrix back to the paper's full-size
    /// problem (cache *ratios* were preserved by [`DeviceSpec::scaled_l2`],
    /// so traffic scales linearly).
    ///
    /// [`DeviceSpec::scaled_l2`]: crate::DeviceSpec::scaled_l2
    pub fn scale(&self, factor: f64) -> KernelStats {
        let f = |x: u64| (x as f64 * factor).round() as u64;
        KernelStats {
            flops: f(self.flops),
            requested_bytes: f(self.requested_bytes),
            l2_read_hits: f(self.l2_read_hits),
            l2_read_misses: f(self.l2_read_misses),
            l2_write_sectors: f(self.l2_write_sectors),
            dram_writeback_sectors: f(self.dram_writeback_sectors),
            atomic_ops: f(self.atomic_ops),
            warps: f(self.warps),
            blocks: f(self.blocks),
            threads_per_block: self.threads_per_block,
            dram_read_bytes: f(self.l2_read_misses) * 32,
            dram_write_bytes: f(self.dram_writeback_sectors) * 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_local() -> LocalCounters {
        let l = LocalCounters::default();
        l.add_flops(100);
        l.add(&l.l2_read_hits, 3);
        l.add(&l.l2_read_misses, 7);
        l.add(&l.l2_write_sectors, 2);
        l.add(&l.dram_writeback_sectors, 2);
        l.add(&l.requested_bytes, 200);
        l.add(&l.warps, 5);
        l
    }

    #[test]
    fn merge_sums_workers() {
        let a = sample_local();
        let b = sample_local();
        let s = KernelStats::merge(&[a, b], 10, 256);
        assert_eq!(s.flops, 200);
        assert_eq!(s.l2_read_misses, 14);
        assert_eq!(s.dram_read_bytes, 14 * 32);
        assert_eq!(s.dram_write_bytes, 4 * 32);
        assert_eq!(s.blocks, 10);
        assert_eq!(s.threads_per_block, 256);
        assert_eq!(s.warps, 10);
    }

    #[test]
    fn derived_metrics() {
        let s = KernelStats::merge(&[sample_local()], 1, 32);
        assert_eq!(s.dram_total_bytes(), (7 + 2) * 32);
        assert!((s.l2_hit_rate() - 0.3).abs() < 1e-12);
        assert!((s.operational_intensity() - 100.0 / 288.0).abs() < 1e-12);
        // 200 requested / (12 sectors * 32 bytes).
        assert!((s.coalescing_efficiency() - 200.0 / 384.0).abs() < 1e-12);
    }

    #[test]
    fn scale_is_linear() {
        let s = KernelStats::merge(&[sample_local()], 4, 64);
        let t = s.scale(10.0);
        assert_eq!(t.flops, 1000);
        assert_eq!(t.dram_read_bytes, 70 * 32);
        assert_eq!(t.warps, 50);
        // Intensive metrics unchanged.
        assert!((t.operational_intensity() - s.operational_intensity()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = KernelStats::default();
        assert_eq!(s.operational_intensity(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
        assert_eq!(s.coalescing_efficiency(), 1.0);
    }
}
