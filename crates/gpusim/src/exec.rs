//! The warp-synchronous executor and the kernel-facing [`WarpCtx`] API.
//!
//! Kernels are written per-warp, mirroring the cooperative-groups style of
//! the paper's Listing 1: the CUDA `tiled_partition<32>` tile becomes one
//! [`WarpCtx`]; per-lane loads become [`WarpCtx::load_gather`]; the
//! cooperative-groups `reduce` becomes [`reduce_sum`], which performs the
//! exact shuffle-down tree the hardware primitive does — in a fixed order,
//! which is what makes the vector kernel bitwise reproducible.
//!
//! A launch runs its blocks in order on the calling thread, and the warps
//! of a block in order, owning the L2 model from its first access to its
//! end-of-kernel flush. Functional results and traffic counters are
//! therefore exactly reproducible. Host parallelism lives above the
//! executor: a [`Gpu`] is `Sync`, so callers launch on different `Gpu`s
//! from different threads (the engine runs one worker per simulated
//! device), and concurrent launches on one `Gpu` take its L2 in turn.
//!
//! # Launch memo
//!
//! A caller that sends the same launch sequence again and again — the
//! same matrix, the same staging addresses, new vector values — can name
//! its whole address stream with a key: [`Gpu::launch_group`] with
//! `Some(key)`. The group then holds the L2 port and the memo lock from
//! its first member to its last, and the memo answers it by one of two
//! exact rules (argument in [`crate::cache`]).
//!
//! * **Saturating rule.** The memo remembers the counters of each (start
//!   L2 state, key) pair, recorded only from `Cold` or `After(_)` and
//!   only for saturating groups (every L2 set overwritten), and the L2
//!   contents each key leaves behind. When the start state is known and
//!   the pair has been seen, it installs the key's snapshot.
//! * **Resident rule.** The first interpreted run of a key records its
//!   footprint, the distinct sectors in last-touch order, unless the raw
//!   stream outgrows the L2's sectors. A later run that finds the whole
//!   footprint resident is interpreted once for its counters. From then
//!   on, a group whose footprint is resident queues its restamp in
//!   last-touch order instead of probing. Both steps of a hit cost O(1)
//!   L2 work: the residency check scans the footprint only when the L2
//!   has filled, restored or invalidated since the key's last scan found
//!   it resident ([`MemoCounts::footprint_scans`] counts the scans), and
//!   the queued restamps are applied only before the next probe or
//!   stamp read, one per key however often it hit.
//!
//! A hit by either rule runs the same kernel closures on the calling
//! thread with memory tracing off — the arithmetic, and so every output
//! bit, is unchanged — and returns the remembered [`GroupStats`], equal
//! to what interpretation would return. Otherwise the group interprets
//! and records. Un-keyed launches, non-saturating groups (resident hits
//! included) and [`Gpu::reset_cache`] move the state to `Unknown` (or
//! `Cold`), so a later saturating hit never assumes contents the cache
//! does not hold. A `Gpu` with named buffers never memoizes, so
//! per-buffer attribution ([`Gpu::traffic_report`]) stays interpreted.

use crate::buffer::{DeviceBuffer, DeviceOutBuffer, OutScalar};
use crate::cache::{L2Port, L2Snapshot, L2State};
use crate::counters::{KernelStats, LocalCounters};
use crate::device::DeviceSpec;
use crate::mem::MemSystem;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lanes per warp on every modeled device.
pub const WARP_SIZE: usize = 32;

/// Cooperative-groups tile widths the executor supports
/// (`tiled_partition<w>` with `w` a power of two dividing the warp).
pub const TILE_WIDTHS: [u32; 5] = [2, 4, 8, 16, 32];

/// A launch grid: number of thread blocks and threads per block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    pub blocks: u64,
    pub threads_per_block: u32,
}

impl Grid {
    /// Creates a grid. `threads_per_block` must be a multiple of the warp
    /// size in `32..=1024`, like on real hardware.
    pub fn new(blocks: u64, threads_per_block: u32) -> Self {
        assert!(
            (32..=1024).contains(&threads_per_block) && threads_per_block.is_multiple_of(32),
            "threads_per_block must be a multiple of 32 in 32..=1024, got {threads_per_block}"
        );
        Grid {
            blocks,
            threads_per_block,
        }
    }

    /// The paper's configuration: one warp per item (matrix row), i.e.
    /// `32 * items` total threads split into `threads_per_block`-sized
    /// blocks.
    pub fn warp_per_item(items: usize, threads_per_block: u32) -> Self {
        let total_threads = items as u64 * WARP_SIZE as u64;
        let blocks = total_threads.div_ceil(threads_per_block as u64).max(1);
        Grid::new(blocks, threads_per_block)
    }

    /// One *thread* per item (scalar kernels): each warp covers 32 items.
    pub fn thread_per_item(items: usize, threads_per_block: u32) -> Self {
        let blocks = (items as u64).div_ceil(threads_per_block as u64).max(1);
        Grid::new(blocks, threads_per_block)
    }

    /// One sub-warp tile of `tile_width` lanes per item: `tile_width *
    /// items` total threads, so each warp covers `32 / tile_width` items.
    /// With `tile_width == 32` this is exactly [`Grid::warp_per_item`].
    pub fn tile_per_item(items: usize, tile_width: u32, threads_per_block: u32) -> Self {
        assert!(
            TILE_WIDTHS.contains(&tile_width),
            "tile width must be one of {TILE_WIDTHS:?}, got {tile_width}"
        );
        let total_threads = items as u64 * tile_width as u64;
        let blocks = total_threads.div_ceil(threads_per_block as u64).max(1);
        Grid::new(blocks, threads_per_block)
    }

    #[inline]
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block / WARP_SIZE as u32
    }

    #[inline]
    pub fn total_warps(&self) -> u64 {
        self.blocks * self.warps_per_block() as u64
    }

    #[inline]
    pub fn total_threads(&self) -> u64 {
        self.blocks * self.threads_per_block as u64
    }
}

/// A simulated GPU: device spec + memory system + executor.
pub struct Gpu {
    spec: DeviceSpec,
    mem: MemSystem,
    memo: Mutex<Memo>,
}

/// Keyed launch groups remembered by a [`Gpu`] (module docs, *Launch
/// memo*).
#[derive(Default)]
struct Memo {
    /// Counters of each (start state, key) pair.
    stats: HashMap<(L2State, u64), GroupStats>,
    /// The L2 contents each key leaves behind.
    after: HashMap<u64, L2Snapshot>,
    /// Each interpreted key's footprint, or `None` when its raw stream
    /// outgrew the L2 and the resident rule never answers it.
    resident: HashMap<u64, Option<Footprint>>,
    counts: MemoCounts,
}

/// What the resident rule knows of one key.
struct Footprint {
    /// The key's distinct sectors in last-touch order.
    sectors: Arc<[u64]>,
    /// The counters of a run that found every sector resident.
    stats: Option<GroupStats>,
    /// The L2's [`L2Port::removals`] when a scan last found every sector
    /// resident.
    confirmed: Option<u64>,
}

impl Footprint {
    /// Whether every sector is resident in `l2`. Free while the L2 has
    /// removed nothing since a scan last said yes; otherwise one
    /// [`L2Port::holds_all`] scan, counted in `scans`.
    fn resident(&mut self, l2: &L2Port, scans: &mut u64) -> bool {
        let removals = l2.removals();
        if self.confirmed == Some(removals) {
            return true;
        }
        *scans += 1;
        let resident = l2.holds_all(&self.sectors);
        self.confirmed = resident.then_some(removals);
        resident
    }
}

/// How often a [`Gpu`]'s keyed launch groups were answered from its
/// launch memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Keyed [`Gpu::launch_group`] calls.
    pub keyed: u64,
    /// Keyed calls answered from the memo, by either rule.
    pub hits: u64,
    /// Those of `hits` answered because the key's whole footprint was
    /// resident (the resident rule).
    pub resident_hits: u64,
    /// Remembered (start state, key) pairs of the saturating rule.
    pub entries: usize,
    /// Keys whose footprint the resident rule recorded.
    pub resident_entries: usize,
    /// Scans of a whole footprint for residency: a check the L2's removal
    /// count could not answer.
    pub footprint_scans: u64,
}

impl Gpu {
    /// Creates a GPU with a cold cache.
    pub fn new(spec: DeviceSpec) -> Self {
        let mem = MemSystem::new(&spec);
        Gpu {
            spec,
            mem,
            memo: Mutex::new(Memo::default()),
        }
    }

    /// How often keyed launch groups hit the launch memo.
    pub fn memo_counts(&self) -> MemoCounts {
        let memo = self.memo();
        MemoCounts {
            entries: memo.stats.len(),
            resident_entries: memo.resident.values().flatten().count(),
            ..memo.counts
        }
    }

    /// Locks the launch memo, recovering from poisoning: a keyed group
    /// holds it while kernel code runs (see [`crate::cache`], *Lock
    /// poisoning*).
    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Copies host data into a fresh device buffer ("cudaMemcpy H2D").
    pub fn upload<T: Copy>(&self, data: &[T]) -> DeviceBuffer<T> {
        let base = self.mem.alloc(std::mem::size_of_val(data));
        DeviceBuffer::new(base, data.to_vec())
    }

    /// Like [`Gpu::upload`], registering the buffer for per-buffer
    /// traffic attribution (see [`Gpu::traffic_report`]).
    pub fn upload_named<T: Copy>(&self, name: &str, data: &[T]) -> DeviceBuffer<T> {
        let base = self.mem.alloc_named(std::mem::size_of_val(data), name);
        DeviceBuffer::new(base, data.to_vec())
    }

    /// Allocates a zero-initialized output buffer.
    pub fn alloc_out<T: OutScalar + Default>(&self, len: usize) -> DeviceOutBuffer<T> {
        let base = self.mem.alloc(len * core::mem::size_of::<T>());
        DeviceOutBuffer::new_zeroed(base, len)
    }

    /// Like [`Gpu::alloc_out`], registering the buffer for traffic
    /// attribution.
    pub fn alloc_out_named<T: OutScalar + Default>(
        &self,
        name: &str,
        len: usize,
    ) -> DeviceOutBuffer<T> {
        let base = self.mem.alloc_named(len * core::mem::size_of::<T>(), name);
        DeviceOutBuffer::new_zeroed(base, len)
    }

    /// Per-named-buffer traffic snapshot (cumulative across launches;
    /// reset with [`Gpu::reset_traffic`]).
    pub fn traffic_report(&self) -> Vec<crate::mem::BufferTraffic> {
        self.mem.traffic_report()
    }

    /// Zeroes the per-buffer traffic counters.
    pub fn reset_traffic(&self) {
        self.mem.reset_traffic();
    }

    /// Invalidates the L2 model (cold-cache start for an experiment).
    pub fn reset_cache(&self) {
        self.mem.invalidate_cache();
    }

    /// Launches `kernel` once per warp of `grid` and returns the merged
    /// traffic counters. The kernel closure receives a [`WarpCtx`] and
    /// must only store to indices it owns (standard CUDA discipline).
    pub fn launch<F>(&self, grid: Grid, kernel: F) -> KernelStats
    where
        F: Fn(&mut WarpCtx),
    {
        self.launch_tiled(grid, WARP_SIZE as u32, kernel)
    }

    /// Like [`Gpu::launch`], with each warp partitioned into cooperative
    /// sub-warp tiles of `tile_width` lanes (`tiled_partition<w>`). The
    /// kernel closure still runs once per *warp* — it iterates its warp's
    /// [`WarpCtx::tiles_per_warp`] tiles itself, which lets row-pointer
    /// loads and result stores coalesce warp-wide exactly as they do on
    /// hardware (same PC across tiles), while per-tile gathers are issued
    /// with at most `tile_width` lanes and [`reduce_sum`] folds
    /// `tile_width` partials in the fixed tree order.
    pub fn launch_tiled<F>(&self, grid: Grid, tile_width: u32, kernel: F) -> KernelStats
    where
        F: Fn(&mut WarpCtx),
    {
        assert!(
            TILE_WIDTHS.contains(&tile_width),
            "tile width must be one of {TILE_WIDTHS:?}, got {tile_width}"
        );
        self.run_in_order(Some(&self.mem.l2().owned()), grid, tile_width, &kernel)
    }

    /// Runs every block in order on the calling thread, and each block's
    /// warps in order, through an owned port (ending with the write-back
    /// flush) or untraced. An untraced run counts no traffic.
    fn run_in_order<F>(
        &self,
        l2: Option<&L2Port>,
        grid: Grid,
        tile_width: u32,
        kernel: &F,
    ) -> KernelStats
    where
        F: Fn(&mut WarpCtx) + ?Sized,
    {
        let counters = match l2 {
            Some(_) => self.mem.local_counters(),
            None => LocalCounters::default(),
        };
        for b in 0..grid.blocks {
            for w in 0..grid.warps_per_block() {
                let mut ctx = WarpCtx {
                    warp_id: (b * grid.warps_per_block() as u64 + w as u64) as usize,
                    block_id: b,
                    warp_in_block: w,
                    tile_width,
                    grid,
                    mem: &self.mem,
                    l2,
                    counters: &counters,
                };
                counters.add(&counters.warps, 1);
                kernel(&mut ctx);
            }
        }
        let flush = LocalCounters::default();
        if let Some(l2) = l2 {
            self.mem.flush_region_counts(&counters);
            self.mem.flush_dirty(l2, &flush);
        }
        KernelStats::merge(&[counters, flush], grid.blocks, grid.threads_per_block)
    }

    /// Runs a group of tiled launches back-to-back on the *same* sim state
    /// — the L2 stays warm across members, exactly as consecutive kernel
    /// launches share the cache on hardware — and merges their counters
    /// into one [`GroupStats`] (per-member breakdown retained). This is
    /// the multi-launch entry used by the bucketed SpMV dispatch: one
    /// width-matched member per non-empty row bucket.
    ///
    /// `key`, when given, must name the group's whole address stream:
    /// two groups with one key touch the same sectors in the same order.
    /// A keyed group may then be answered from the launch memo (module
    /// docs) with the same counters and outputs; on a GPU with named
    /// buffers the key is ignored.
    pub fn launch_group(&self, key: Option<u64>, members: Vec<GroupMember<'_>>) -> GroupStats {
        let memoizable = !self.mem.has_named_regions();
        let Some(key) = key.filter(|_| memoizable) else {
            if key.is_some() {
                self.memo().counts.keyed += 1;
            }
            return group_stats(members, |m| {
                self.launch_tiled(m.grid, m.tile_width, &m.kernel)
            });
        };
        let l2 = self.mem.l2().owned();
        let mut guard = self.memo();
        let memo = &mut *guard;
        memo.counts.keyed += 1;
        let start = l2.start_state();
        if let (Some(stats), Some(after)) = (memo.stats.get(&(start, key)), memo.after.get(&key)) {
            self.run_untraced(&members);
            l2.restore(after);
            l2.set_state(L2State::After(key));
            memo.counts.hits += 1;
            return stats.clone();
        }
        // The resident rule: a first run records the footprint; a run
        // that finds it resident is interpreted once for its counters,
        // and answered from them after that.
        let mut all_resident = false;
        match memo.resident.get_mut(&key) {
            None => l2.record_stream(),
            Some(Some(fp)) => {
                if fp.resident(&l2, &mut memo.counts.footprint_scans) {
                    if let Some(stats) = &fp.stats {
                        self.run_untraced(&members);
                        l2.defer_restamp(key, &fp.sectors);
                        memo.counts.hits += 1;
                        memo.counts.resident_hits += 1;
                        return stats.clone();
                    }
                    all_resident = true;
                }
            }
            Some(None) => {}
        }
        let stamps = l2.stamps();
        let group = group_stats(members, |m| {
            self.run_in_order(Some(&l2), m.grid, m.tile_width, &m.kernel)
        });
        match memo.resident.get_mut(&key) {
            None => {
                let fp = l2.take_footprint().map(|sectors| Footprint {
                    sectors,
                    stats: None,
                    confirmed: None,
                });
                memo.resident.insert(key, fp);
            }
            Some(Some(fp)) if all_resident => {
                debug_assert_eq!(group.merged.l2_read_misses, 0, "a resident run only hits");
                fp.stats = Some(group.clone());
            }
            Some(_) => {}
        }
        let s = &group.merged;
        let probes = s.l2_read_hits + s.l2_read_misses + s.l2_write_sectors;
        if probes >= self.mem.l2().sectors() && l2.overwrote_every_set(&stamps) {
            l2.set_state(L2State::After(key));
            if start != L2State::Unknown {
                memo.after.entry(key).or_insert_with(|| l2.snapshot());
                memo.stats.insert((start, key), group.clone());
            }
        }
        group
    }

    /// Runs a memo hit's kernel closures with memory tracing off.
    fn run_untraced(&self, members: &[GroupMember<'_>]) {
        for m in members {
            self.run_in_order(None, m.grid, m.tile_width, &m.kernel);
        }
    }
}

/// Runs each member with `run` in order and merges the counters.
fn group_stats(
    members: Vec<GroupMember<'_>>,
    mut run: impl FnMut(&GroupMember<'_>) -> KernelStats,
) -> GroupStats {
    let mut merged = KernelStats::default();
    let mut out = Vec::with_capacity(members.len());
    for m in members {
        let stats = run(&m);
        merged.accumulate(&stats);
        out.push(MemberStats {
            label: m.label,
            tile_width: m.tile_width,
            stats,
        });
    }
    GroupStats {
        merged,
        members: out,
    }
}

/// One launch of a [`Gpu::launch_group`] sequence: a labeled tiled kernel
/// with its own grid and tile width.
pub struct GroupMember<'a> {
    /// Human-readable member name (e.g. `"rows 1-2"` for a row bucket).
    pub label: String,
    pub grid: Grid,
    pub tile_width: u32,
    kernel: Box<dyn Fn(&mut WarpCtx) + 'a>,
}

impl<'a> GroupMember<'a> {
    pub fn new<F>(label: impl Into<String>, grid: Grid, tile_width: u32, kernel: F) -> Self
    where
        F: Fn(&mut WarpCtx) + 'a,
    {
        GroupMember {
            label: label.into(),
            grid,
            tile_width,
            kernel: Box::new(kernel),
        }
    }
}

/// Counters of one member launch of a group.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemberStats {
    pub label: String,
    pub tile_width: u32,
    pub stats: KernelStats,
}

/// Merged counters of a [`Gpu::launch_group`] sequence plus the per-member
/// breakdown. The merged stats describe the whole fused dispatch — one
/// launch-overhead charge when fed to the timing model — while the members
/// retain each bucket's individual traffic for reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupStats {
    /// All member counters accumulated ([`KernelStats::accumulate`]).
    pub merged: KernelStats,
    /// Per-member counters, in launch order.
    pub members: Vec<MemberStats>,
}

impl GroupStats {
    /// Folds another group run into this one member-by-member (labels must
    /// line up) — used to accumulate repeated group launches, mirroring
    /// [`KernelStats::accumulate`] for single launches.
    pub fn accumulate(&mut self, other: &GroupStats) {
        assert_eq!(
            self.members.len(),
            other.members.len(),
            "group member count mismatch"
        );
        self.merged.accumulate(&other.merged);
        for (a, b) in self.members.iter_mut().zip(&other.members) {
            assert_eq!(a.label, b.label, "group member label mismatch");
            a.stats.accumulate(&b.stats);
        }
    }
}

/// The per-warp execution context handed to kernels: its place in the
/// grid and the lane-collective memory operations, each traced through
/// the L2 model unless the launch runs untraced ([`WarpCtx::traced`]).
pub struct WarpCtx<'a, 'p> {
    warp_id: usize,
    block_id: u64,
    warp_in_block: u32,
    tile_width: u32,
    grid: Grid,
    mem: &'a MemSystem,
    /// `None` when memory tracing is off (a launch-memo hit).
    l2: Option<&'a L2Port<'p>>,
    counters: &'a LocalCounters,
}

impl WarpCtx<'_, '_> {
    /// Global warp index (`blockIdx.x * warpsPerBlock + warpIdInBlock`).
    #[inline]
    pub fn warp_id(&self) -> usize {
        self.warp_id
    }

    #[inline]
    pub fn block_id(&self) -> u64 {
        self.block_id
    }

    #[inline]
    pub fn warp_in_block(&self) -> u32 {
        self.warp_in_block
    }

    /// Lanes per cooperative tile (32 for a plain [`Gpu::launch`]).
    #[inline]
    pub fn tile_width(&self) -> u32 {
        self.tile_width
    }

    /// Sub-warp tiles in this warp (`32 / tile_width`).
    #[inline]
    pub fn tiles_per_warp(&self) -> u32 {
        WARP_SIZE as u32 / self.tile_width
    }

    /// Global index of this warp's first tile (item index under
    /// [`Grid::tile_per_item`]): `warp_id * tiles_per_warp`.
    #[inline]
    pub fn tile_base(&self) -> usize {
        self.warp_id * self.tiles_per_warp() as usize
    }

    #[inline]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Records `n` useful floating-point operations.
    #[inline]
    pub fn add_flops(&self, n: u64) {
        self.counters.add_flops(n);
    }

    /// Uniform (broadcast) load: one element read once for the whole warp.
    #[inline]
    pub fn load_scalar<T: Copy>(&self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        if let Some(l2) = self.l2 {
            self.mem.read_contiguous(
                l2,
                buf.addr_of(idx),
                core::mem::size_of::<T>() as u64,
                self.counters,
            );
        }
        buf.as_slice()[idx]
    }

    /// Whether this warp's memory operations are traced through the L2
    /// model. A launch-memo hit runs its kernels untraced: a kernel may
    /// then skip work whose only product is the address stream.
    #[inline]
    pub fn traced(&self) -> bool {
        self.l2.is_some()
    }

    /// Coalesced vector load: consecutive lanes read the consecutive
    /// elements `range`. Spans longer than a warp are traced as multiple
    /// back-to-back fully-coalesced transactions. Returns the slice.
    #[inline]
    pub fn load_span<'b, T: Copy>(
        &self,
        buf: &'b DeviceBuffer<T>,
        range: core::ops::Range<usize>,
    ) -> &'b [T] {
        self.trace_span(buf, range.clone());
        &buf.as_slice()[range]
    }

    /// The traffic of [`WarpCtx::load_span`] without its data: for a
    /// kernel that reads the elements through [`DeviceBuffer::as_slice`]
    /// in its own order. Does nothing when untraced.
    #[inline]
    pub fn trace_span<T: Copy>(&self, buf: &DeviceBuffer<T>, range: core::ops::Range<usize>) {
        if let Some(l2) = self.l2 {
            let bytes = (range.len() * core::mem::size_of::<T>()) as u64;
            self.mem
                .read_contiguous(l2, buf.addr_of(range.start), bytes, self.counters);
        }
    }

    /// Gather load: lane `k` reads element `idxs[k]`. Lanes landing in the
    /// same 32-byte sector are coalesced into one transaction. At most 32
    /// active lanes. Results are appended to `out`.
    pub fn load_gather<T: Copy>(&self, buf: &DeviceBuffer<T>, idxs: &[usize], out: &mut [T]) {
        assert!(out.len() >= idxs.len());
        for (o, &i) in out.iter_mut().zip(idxs) {
            *o = buf.as_slice()[i];
        }
        self.trace_gather(buf, idxs);
    }

    /// The traffic of [`WarpCtx::load_gather`] without its data. Does
    /// nothing when untraced.
    pub fn trace_gather<T: Copy>(&self, buf: &DeviceBuffer<T>, idxs: &[usize]) {
        assert!(idxs.len() <= WARP_SIZE, "a warp has at most 32 lanes");
        if let Some(l2) = self.l2 {
            let mut addrs = [0u64; WARP_SIZE];
            for (a, &i) in addrs.iter_mut().zip(idxs) {
                *a = buf.addr_of(i);
            }
            self.mem.read_gather(
                l2,
                &addrs[..idxs.len()],
                core::mem::size_of::<T>() as u64,
                self.counters,
            );
        }
    }

    /// Single-lane store. The caller must own index `idx` (no other warp
    /// stores there during this launch).
    #[inline]
    pub fn store_scalar<T: OutScalar>(&self, buf: &DeviceOutBuffer<T>, idx: usize, v: T) {
        if let Some(l2) = self.l2 {
            self.mem.write_contiguous(
                l2,
                buf.addr_of(idx),
                core::mem::size_of::<T>() as u64,
                self.counters,
            );
        }
        buf.raw_store(idx, v);
    }

    /// Coalesced vector store: consecutive lanes store `vals` to the
    /// consecutive elements starting at `start`. Callers own the range.
    pub fn store_span<T: OutScalar>(&self, buf: &DeviceOutBuffer<T>, start: usize, vals: &[T]) {
        debug_assert!(vals.len() <= WARP_SIZE);
        if vals.is_empty() {
            return;
        }
        if let Some(l2) = self.l2 {
            let bytes = std::mem::size_of_val(vals) as u64;
            self.mem
                .write_contiguous(l2, buf.addr_of(start), bytes, self.counters);
        }
        for (k, &v) in vals.iter().enumerate() {
            buf.raw_store(start + k, v);
        }
    }

    /// Atomic add, like CUDA `atomicAdd`. On hardware the result is
    /// order-dependent; the simulator adds in launch order and models
    /// the atomic's traffic and count (see [`crate::buffer`]).
    #[inline]
    pub fn atomic_add<T: OutScalar>(&self, buf: &DeviceOutBuffer<T>, idx: usize, v: T) {
        if let Some(l2) = self.l2 {
            self.mem.atomic_rmw(
                l2,
                buf.addr_of(idx),
                core::mem::size_of::<T>() as u64,
                self.counters,
            );
        }
        buf.raw_fetch_add(idx, v);
    }
}

/// Sum of `lanes` by the fixed shuffle-down tree of the cooperative-groups
/// `reduce` over a `tiled_partition<lanes.len()>`: at offsets `len / 2`,
/// `len / 4`, ..., 1, lane `i` adds lane `i + offset`. A full warp folds at
/// offsets 16, 8, 4, 2, 1; a width-`w` tile runs the same tree truncated to
/// `log2(w)` levels. `lanes.len()` must be a power of two no wider than a
/// warp; inactive lanes must hold the additive identity. Every kernel's
/// partial sums fold through this one function, so the order is fixed.
pub fn reduce_sum<T>(lanes: &mut [T]) -> T
where
    T: Copy + core::ops::Add<Output = T>,
{
    // One fixed-size tree per width, which the compiler unrolls.
    fn tree<T: Copy + core::ops::Add<Output = T>, const W: usize>(lanes: &mut [T]) -> T {
        let lanes: &mut [T; W] = lanes.try_into().expect("the width matched W");
        let mut offset = W / 2;
        while offset > 0 {
            for i in 0..offset {
                lanes[i] = lanes[i] + lanes[i + offset];
            }
            offset /= 2;
        }
        lanes[0]
    }
    match lanes.len() {
        32 => tree::<T, 32>(lanes),
        16 => tree::<T, 16>(lanes),
        8 => tree::<T, 8>(lanes),
        4 => tree::<T, 4>(lanes),
        2 => tree::<T, 2>(lanes),
        1 => lanes[0],
        n => panic!("reduce_sum takes a power of two up to {WARP_SIZE} lanes, got {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = Grid::warp_per_item(1000, 512);
        assert_eq!(g.warps_per_block(), 16);
        assert_eq!(g.total_warps(), g.blocks * 16);
        assert!(g.total_warps() >= 1000);
        let g2 = Grid::thread_per_item(1000, 128);
        assert_eq!(g2.blocks, 8);
    }

    #[test]
    #[should_panic(expected = "threads_per_block")]
    fn grid_rejects_bad_tpb() {
        let _ = Grid::new(1, 48);
    }

    #[test]
    fn launch_runs_every_warp_once() {
        let gpu = Gpu::new(DeviceSpec::a100());
        let out = gpu.alloc_out::<f64>(4096);
        let grid = Grid::new(64, 256); // 64 * 8 = 512 warps
        let stats = gpu.launch(grid, |w| {
            w.store_scalar(&out, w.warp_id(), w.warp_id() as f64);
        });
        assert_eq!(stats.warps, 512);
        for i in 0..512 {
            assert_eq!(out.get(i), i as f64);
        }
    }

    #[test]
    fn traffic_is_reproducible() {
        let run = || {
            let gpu = Gpu::new(DeviceSpec::a100());
            let data: Vec<f32> = vec![1.0; 100_000];
            let buf = gpu.upload(&data);
            let out = gpu.alloc_out::<f32>(100_000 / 32);
            let grid = Grid::warp_per_item(100_000 / 32, 256);
            gpu.launch(grid, |w| {
                let i = w.warp_id();
                if i < 100_000 / 32 {
                    let span = w.load_span(&buf, i * 32..(i + 1) * 32);
                    let s: f32 = span.iter().sum();
                    w.store_scalar(&out, i, s);
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_matches_sequential_sum_order_independence_check() {
        let gpu = Gpu::new(DeviceSpec::a100());
        let out = gpu.alloc_out::<f64>(1);
        let grid = Grid::new(1, 32);
        gpu.launch(grid, |w| {
            let mut lanes = [0.0f64; WARP_SIZE];
            for (i, l) in lanes.iter_mut().enumerate() {
                *l = (i + 1) as f64;
            }
            let s = reduce_sum(&mut lanes);
            w.store_scalar(&out, 0, s);
        });
        assert_eq!(out.get(0), (32 * 33 / 2) as f64);
    }

    #[test]
    fn store_span_is_coalesced_and_correct() {
        let gpu = Gpu::new(DeviceSpec::a100());
        let out = gpu.alloc_out::<f64>(64);
        let grid = Grid::new(1, 64); // 2 warps
        let stats = gpu.launch(grid, |w| {
            let base = w.warp_id() * WARP_SIZE;
            let vals: Vec<f64> = (0..WARP_SIZE).map(|k| (base + k) as f64).collect();
            w.store_span(&out, base, &vals);
        });
        for i in 0..64 {
            assert_eq!(out.get(i), i as f64);
        }
        // 64 f64 stores = 512 bytes = 16 sectors, one transaction each.
        assert_eq!(stats.l2_write_sectors, 16);
    }

    #[test]
    fn tile_grid_geometry() {
        // 1000 items at width 4 = 4000 threads; warps cover 8 items each.
        let g = Grid::tile_per_item(1000, 4, 512);
        assert_eq!(g.total_threads(), g.blocks * 512);
        assert!(g.total_threads() >= 4000);
        // Width 32 degenerates to warp_per_item.
        assert_eq!(
            Grid::tile_per_item(1000, 32, 512),
            Grid::warp_per_item(1000, 512)
        );
    }

    #[test]
    #[should_panic(expected = "tile width")]
    fn tiled_launch_rejects_bad_width() {
        let gpu = Gpu::new(DeviceSpec::a100());
        let _ = gpu.launch_tiled(Grid::new(1, 32), 3, |_| {});
    }

    #[test]
    fn tiled_launch_covers_every_tile_once() {
        let gpu = Gpu::new(DeviceSpec::a100());
        let items = 1000usize;
        for &w in &TILE_WIDTHS {
            let grid = Grid::tile_per_item(items, w, 256);
            let out = gpu.alloc_out::<f64>(items);
            let stats = gpu.launch_tiled(grid, w, |ctx| {
                assert_eq!(ctx.tile_width(), w);
                assert_eq!(ctx.tiles_per_warp(), 32 / w);
                let base = ctx.tile_base();
                for t in 0..ctx.tiles_per_warp() as usize {
                    if base + t < items {
                        ctx.store_scalar(&out, base + t, (base + t) as f64);
                    }
                }
            });
            // Fewer warps at narrower widths: ceil(items * w / 32) of them
            // carry items (grid rounding adds idle warps, never removes).
            assert!(stats.warps >= (items as u64 * w as u64).div_ceil(32));
            for i in 0..items {
                assert_eq!(out.get(i), i as f64, "width {w} item {i}");
            }
        }
    }

    #[test]
    fn reduce_sum_at_width_32_folds_at_offsets_16_to_1() {
        let vals: Vec<f64> = (0..32).map(|i| ((i * 37) as f64 * 0.013).sin()).collect();
        let mut lanes = [0.0f64; WARP_SIZE];
        lanes.copy_from_slice(&vals);
        // The cooperative-groups order, spelled out level by level.
        let mut want = vals.clone();
        for offset in [16, 8, 4, 2, 1] {
            for i in 0..offset {
                want[i] += want[i + offset];
            }
        }
        assert_eq!(reduce_sum(&mut lanes).to_bits(), want[0].to_bits());
    }

    #[test]
    fn reduce_sum_uses_fixed_tree_per_width() {
        // At width 4, lanes [a,b,c,d] must fold as (a+c) + (b+d).
        let (a, b, c, d) = (0.1f64, 0.2, 0.3, 0.4);
        assert_eq!(
            reduce_sum(&mut [a, b, c, d]).to_bits(),
            ((a + c) + (b + d)).to_bits()
        );
        // A one-lane tile is its lane.
        assert_eq!(reduce_sum(&mut [a]).to_bits(), a.to_bits());
    }

    #[test]
    fn grid_thread_accounting() {
        let g = Grid::new(7, 96);
        assert_eq!(g.total_threads(), 7 * 96);
        assert_eq!(g.warps_per_block(), 3);
        assert_eq!(g.total_warps(), 21);
    }

    #[test]
    fn atomic_add_sums_every_warp() {
        // A launch owns the L2: atomics go through its port rather than
        // lock the cache again.
        let gpu = Gpu::new(DeviceSpec::a100());
        let out = gpu.alloc_out::<f64>(1);
        let grid = Grid::new(256, 256);
        let stats = gpu.launch(grid, |w| {
            w.atomic_add(&out, 0, 1.0);
        });
        assert_eq!(out.get(0), grid.total_warps() as f64);
        assert_eq!(stats.atomic_ops, grid.total_warps());
    }

    #[test]
    fn launch_group_merges_members_and_shares_cache() {
        let gpu = Gpu::new(DeviceSpec::a100());
        let n = 1024usize;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let buf = gpu.upload(&data);
        let out = gpu.alloc_out::<f64>(n);
        let grid = Grid::warp_per_item(n / 2, 256);
        let halves: Vec<GroupMember<'_>> = (0..2)
            .map(|h| {
                let buf = &buf;
                let out = &out;
                GroupMember::new(format!("half {h}"), grid, 32, move |w| {
                    let i = w.warp_id();
                    if i < n / 2 {
                        let idx = h * n / 2 + i;
                        let v = w.load_scalar(buf, idx);
                        w.store_scalar(out, idx, v * 2.0);
                    }
                })
            })
            .collect();
        let group = gpu.launch_group(None, halves);
        assert_eq!(
            out.to_vec(),
            data.iter().map(|v| v * 2.0).collect::<Vec<_>>()
        );
        assert_eq!(group.members.len(), 2);
        assert_eq!(group.members[0].label, "half 0");
        // Merged counters are the member sum.
        let warp_sum: u64 = group.members.iter().map(|m| m.stats.warps).sum();
        assert_eq!(group.merged.warps, warp_sum);
        let req_sum: u64 = group.members.iter().map(|m| m.stats.requested_bytes).sum();
        assert_eq!(group.merged.requested_bytes, req_sum);

        // Accumulating a second identical group doubles every member.
        let mut acc = group.clone();
        acc.accumulate(&group);
        assert_eq!(acc.merged.warps, 2 * group.merged.warps);
        assert_eq!(acc.members[1].stats.warps, 2 * group.members[1].stats.warps);
    }

    /// Sums each 32-element span of `buf` into `out`, keyed by `key`.
    fn keyed_sum(
        gpu: &Gpu,
        key: Option<u64>,
        buf: &DeviceBuffer<f64>,
        out: &DeviceOutBuffer<f64>,
    ) -> GroupStats {
        let rows = out.len();
        let member = GroupMember::new("sum", Grid::warp_per_item(rows, 256), 32, move |w| {
            let i = w.warp_id();
            if i < rows {
                let mut lanes = [0.0f64; WARP_SIZE];
                lanes.copy_from_slice(w.load_span(buf, i * 32..(i + 1) * 32));
                w.store_scalar(out, i, reduce_sum(&mut lanes));
            }
        });
        gpu.launch_group(key, vec![member])
    }

    #[test]
    fn keyed_groups_hit_the_memo_with_interpreted_counters() {
        // A 64 KB stream through a 16 KB L2 overwrites every set.
        let spec = DeviceSpec::a100().with_l2_bytes(16 << 10);
        let data: Vec<f64> = (0..8192).map(|i| (i % 97) as f64).collect();
        let want: Vec<f64> = data.chunks(32).map(|c| c.iter().sum()).collect();
        let gpus = [true, false].map(|_| Gpu::new(spec.clone()));
        let bufs = gpus.each_ref().map(|g| (g.upload(&data), g.alloc_out(256)));
        for reset in [true, false, true, false, false] {
            let mut runs = gpus
                .iter()
                .zip(&bufs)
                .zip([Some(7), None])
                .map(|((g, (b, o)), key)| {
                    if reset {
                        g.reset_cache();
                    }
                    o.clear();
                    let stats = keyed_sum(g, key, b, o);
                    assert_eq!(o.to_vec(), want);
                    stats
                });
            assert_eq!(runs.next(), runs.next(), "reset {reset}");
        }
        // Cold and After(7) were each seen, then answered from the memo.
        let counts = gpus[0].memo_counts();
        assert_eq!((counts.keyed, counts.hits, counts.entries), (5, 3, 2));
        assert_eq!(gpus[1].memo_counts(), MemoCounts::default());

        // Named buffers keep per-buffer attribution interpreted.
        let named = Gpu::new(spec);
        let (b, o) = (named.upload_named("x", &data), named.alloc_out(256));
        for _ in 0..3 {
            keyed_sum(&named, Some(7), &b, &o);
        }
        assert_eq!(named.memo_counts().hits, 0);
        assert_eq!(named.traffic_report()[0].read_sectors, 3 * 2048);
    }

    #[test]
    fn a_resident_footprint_is_scanned_again_only_after_a_removal() {
        let data: Vec<f64> = (0..8192).map(|i| (i % 97) as f64).collect();
        let want: Vec<f64> = data.chunks(32).map(|c| c.iter().sum()).collect();
        let gpus = [0, 1].map(|_| Gpu::new(DeviceSpec::a100()));
        let bufs = gpus.each_ref().map(|g| (g.upload(&data), g.alloc_out(256)));
        let others = gpus.each_ref().map(|g| (g.upload(&data), g.alloc_out(256)));
        // Runs key 7 on the first GPU and un-keyed on the second; returns
        // the first's footprint scans and resident hits so far.
        let step = || {
            let [a, b] = [(Some(7), 0), (None, 1)].map(|(key, i)| {
                let (buf, out) = &bufs[i];
                out.clear();
                let stats = keyed_sum(&gpus[i], key, buf, out);
                assert_eq!(out.to_vec(), want);
                stats
            });
            assert_eq!(a, b);
            let counts = gpus[0].memo_counts();
            (counts.footprint_scans, counts.resident_hits)
        };
        // The first run records the footprint; the second scans it,
        // finds it resident and is interpreted for its counters; later
        // runs hit without a scan.
        assert_eq!(step(), (0, 0));
        assert_eq!(step(), (1, 0));
        for hits in 1..4 {
            assert_eq!(step(), (1, hits));
        }
        // An un-keyed launch fills other sectors: the next check scans,
        // still finds the footprint resident, and hits.
        for (g, (buf, out)) in gpus.iter().zip(&others) {
            keyed_sum(g, None, buf, out);
        }
        assert_eq!(step(), (2, 4));
        assert_eq!(step(), (2, 5));
        // A reset removes everything: the scan fails and the run is
        // interpreted; its fills force the next scan, which hits.
        for g in &gpus {
            g.reset_cache();
        }
        assert_eq!(step(), (3, 5));
        assert_eq!(step(), (4, 6));
        assert_eq!(step(), (4, 7));
    }

    #[test]
    fn a_panicking_kernel_leaves_the_gpu_usable_and_exact() {
        let spec = DeviceSpec::a100().with_l2_bytes(16 << 10);
        let data: Vec<f64> = (0..8192).map(|i| (i % 97) as f64).collect();
        let want: Vec<f64> = data.chunks(32).map(|c| c.iter().sum()).collect();
        let gpus = [0, 1].map(|_| Gpu::new(spec.clone()));
        let bufs = gpus.each_ref().map(|g| (g.upload(&data), g.alloc_out(256)));
        for (g, (b, o)) in gpus.iter().zip(&bufs) {
            keyed_sum(g, Some(7), b, o);
        }
        // Panicking mid-launch with the owned L2 port and the memo lock
        // held poisons both.
        let input = &bufs[1].0;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let member = GroupMember::new("panics", Grid::warp_per_item(256, 256), 32, |w| {
                let i = w.warp_id();
                w.load_span(input, i * 32..(i + 1) * 32);
                assert!(i < 100, "kernel panic at warp {i}");
            });
            gpus[1].launch_group(Some(8), vec![member])
        }));
        assert!(panicked.is_err());
        for g in &gpus {
            g.reset_cache();
        }
        for run in 0..3 {
            let [a, b] = [0, 1].map(|i| {
                let (buf, out) = &bufs[i];
                out.clear();
                let stats = keyed_sum(&gpus[i], Some(7), buf, out);
                assert_eq!(out.to_vec(), want, "gpu {i}, run {run}");
                stats
            });
            assert_eq!(a, b, "run {run}");
        }
        // Cold and After(7) were answered from the memo on both.
        let hits = gpus.each_ref().map(|g| g.memo_counts().hits);
        assert_eq!(hits, [2, 2]);
    }

    #[test]
    fn traffic_reflects_streamed_bytes() {
        let gpu = Gpu::new(DeviceSpec::a100().scaled_l2(100.0));
        let n = 1 << 18; // 256K f32 = 1 MB, larger than the 400 KB L2
        let data: Vec<f32> = vec![1.0; n];
        let buf = gpu.upload(&data);
        let out = gpu.alloc_out::<f32>(n / 32);
        let grid = Grid::warp_per_item(n / 32, 256);
        let stats = gpu.launch(grid, |w| {
            let i = w.warp_id();
            if i < n / 32 {
                let span = w.load_span(&buf, i * 32..(i + 1) * 32);
                let s: f32 = span.iter().sum();
                w.add_flops(31);
                w.store_scalar(&out, i, s);
            }
        });
        let expected = (n * 4) as u64;
        assert!(
            stats.dram_read_bytes >= expected,
            "read {}",
            stats.dram_read_bytes
        );
        // No gratuitous amplification for a fully coalesced stream.
        assert!(stats.dram_read_bytes < expected + expected / 8);
        // Output written back: n/32 * 4 bytes.
        assert!(stats.dram_write_bytes >= (n / 32 * 4) as u64);
    }
}
