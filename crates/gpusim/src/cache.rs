//! Sectored, set-associative, write-back L2 cache model.
//!
//! The unit of transfer between L2 and DRAM on the modeled GPUs is the
//! 32-byte sector, so the model tracks 32-byte sectors directly (a
//! "line" here is one sector). Sets are LRU; the set array is sharded
//! across mutexes so executor workers can probe concurrently — shard
//! contention is low because consecutive sectors map to consecutive sets.
//!
//! Launches reach the cache through an [`L2Port`], in one of two modes
//! that share the single `probe` policy function:
//!
//! * **Shared** ([`L2Cache::shared`]): one port per executor worker of a
//!   multi-worker launch. A warp access is a short ordered list of
//!   sectors; consecutive sectors that land in the same shard are probed
//!   under one shard-lock acquisition instead of one per sector.
//! * **Owned** ([`L2Cache::owned`]): a one-worker launch takes the whole
//!   cache once at launch start and probes with no per-access lock.
//!
//! Probe *order* is exactly the scalar order in both modes, so hit/miss
//! and eviction sequences — and therefore all traffic counters — do not
//! depend on the mode; only the locking granularity differs.
//!
//! Each shard stores its sets as a structure of arrays (tags, LRU stamps,
//! dirty bits). Every array starts all-zero (a stored tag is `sector + 1`,
//! 0 meaning empty), so a fresh cache is lazily allocated, untouched
//! memory. [`L2Cache::invalidate`] bumps each shard's generation
//! (O(shards), independent of capacity); a set whose generation is behind
//! is cleared on its next probe, which behaves exactly like physically
//! clearing the arrays.
//!
//! Each set also remembers its newest way (the one `probe` last stamped).
//! A probe that re-hits that way answers after one tag compare, without
//! the way scan or a stamp bump. This is exact: victims are chosen only by
//! comparing stamps within one set, the newest way already holds the
//! set's largest stamp, so skipping the bump leaves every within-set order
//! — and therefore every hit, miss, victim, write-back and flush count —
//! unchanged. A write re-hit still marks the way dirty.
//!
//! The model intentionally omits the L1/SMEM level: for streaming SpMV
//! kernels L1 hit rates are negligible for the matrix (each element is
//! touched once) and the input-vector reuse the paper discusses is an L2
//! capacity effect.

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::cell::RefCell;

/// Transfer granularity between L2 and DRAM, in bytes.
pub const SECTOR_BYTES: u64 = 32;

const SHARDS: usize = 64;

/// One shard's sets as parallel arrays: `sets_per_shard * ways` way
/// entries, set-major, plus one generation per set.
struct Shard {
    /// Sector tag + 1 per way; 0 marks an empty way.
    tags: Vec<u64>,
    /// LRU stamp per way; larger = more recently used.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    /// Shard generation each set was last probed in; a set behind `gen`
    /// was invalidated wholesale and is cleared on its next probe.
    set_gen: Vec<u64>,
    /// Way index `probe` last stamped, per set: the set's newest way.
    mru: Vec<u8>,
    stamp: u64,
    /// Current generation; bumped by [`L2Cache::invalidate`].
    gen: u64,
    /// Number of dirty ways in live sets — lets the end-of-kernel flush
    /// skip clean shards entirely and stop scanning a dirty shard as soon
    /// as every dirty way has been visited, making the flush O(dirty
    /// data) instead of O(cache capacity).
    dirty_ways: u64,
}

impl Shard {
    fn new(sets: usize, ways: usize) -> Self {
        Shard {
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            set_gen: vec![0; sets],
            mru: vec![0; sets],
            stamp: 0,
            gen: 0,
            dirty_ways: 0,
        }
    }

    /// Marks every live dirty way clean and returns how many there were.
    fn flush(&mut self, ways: usize) -> u64 {
        let mut remaining = self.dirty_ways;
        if remaining == 0 {
            return 0; // O(1) skip: nothing dirty in this shard
        }
        for (set, bits) in self.dirty.chunks_exact_mut(ways).enumerate() {
            if self.set_gen[set] != self.gen {
                continue; // stale dirty bits are discarded, never flushed
            }
            for d in bits.iter_mut().filter(|d| **d) {
                *d = false;
                remaining -= 1;
            }
            if remaining == 0 {
                break; // all dirty ways visited; stop scanning
            }
        }
        debug_assert_eq!(remaining, 0, "dirty count out of sync");
        std::mem::take(&mut self.dirty_ways)
    }
}

/// One set lookup in a shard the caller has exclusive access to. This is
/// the whole cache policy: LRU hit update, or a victim fill (first empty
/// way, else the least-recently stamped one; write-allocate — GPU L2
/// write misses do not read DRAM, so the caller should count DRAM read
/// traffic only for read misses).
///
/// A re-hit on the set's newest way takes a fast path: one tag compare,
/// no way scan and no stamp bump. The newest way's stamp is already the
/// largest in its set and victims are chosen by comparing stamps within a
/// set only, so skipping the bump changes no later result. A stale set
/// (generation behind) never takes the fast path.
#[inline]
fn probe(shard: &mut Shard, set: usize, ways: usize, sector: u64, write: bool) -> AccessResult {
    let key = sector + 1;
    let base = set * ways;
    let newest = base + shard.mru[set] as usize;
    if shard.set_gen[set] == shard.gen && shard.tags[newest] == key {
        if write && !shard.dirty[newest] {
            shard.dirty[newest] = true;
            shard.dirty_ways += 1;
        }
        return AccessResult {
            hit: true,
            writeback: false,
        };
    }

    shard.stamp += 1;
    let stamp = shard.stamp;
    let tags = &mut shard.tags[base..base + ways];
    let stamps = &mut shard.stamps[base..base + ways];
    let dirty = &mut shard.dirty[base..base + ways];
    if shard.set_gen[set] != shard.gen {
        // Invalidated since its last probe: its dirty data was already
        // dropped from `dirty_ways` and is discarded without write-back.
        shard.set_gen[set] = shard.gen;
        tags.fill(0);
        dirty.fill(false);
    }

    if let Some(w) = tags.iter().position(|&t| t == key) {
        stamps[w] = stamp;
        shard.mru[set] = w as u8;
        if write && !dirty[w] {
            dirty[w] = true;
            shard.dirty_ways += 1;
        }
        return AccessResult {
            hit: true,
            writeback: false,
        };
    }
    // Stamps are unique within a shard, so the least one is unambiguous.
    let victim = tags.iter().position(|&t| t == 0).unwrap_or_else(|| {
        (0..ways)
            .min_by_key(|&w| stamps[w])
            .expect("a set has at least one way")
    });
    let writeback = tags[victim] != 0 && dirty[victim];
    tags[victim] = key;
    stamps[victim] = stamp;
    dirty[victim] = write;
    shard.mru[set] = victim as u8;
    shard.dirty_ways += write as u64;
    shard.dirty_ways -= writeback as u64;
    AccessResult {
        hit: false,
        writeback,
    }
}

/// Result of one sector access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    pub hit: bool,
    /// A dirty sector was evicted (costs one DRAM write-back).
    pub writeback: bool,
}

/// The cache model. Cheap to probe, safe to share across threads.
pub struct L2Cache {
    /// Read-locked by every shared port, write-locked by an owned one.
    shards: RwLock<Box<[Mutex<Shard>]>>,
    nsets: u64,
    ways: usize,
    /// `nsets - 1`; set count is a power of two, so set selection is a
    /// mask instead of a 64-bit division (the probe path runs tens of
    /// thousands of times per simulated launch).
    set_mask: u64,
    /// `log2(sets_per_shard)`.
    shard_shift: u32,
    /// `sets_per_shard - 1`.
    local_mask: u64,
}

impl L2Cache {
    /// Builds a cache of `capacity_bytes` with `ways`-way sets.
    ///
    /// # Panics
    ///
    /// If `ways` is 0 or above 256: each set keeps its newest way as a
    /// `u8` index.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(
            (1..=256).contains(&ways),
            "L2 associativity must be 1..=256 ways, got {ways}"
        );
        let nsets =
            ((capacity_bytes as u64 / SECTOR_BYTES / ways as u64).max(1)).next_power_of_two();
        let sets_per_shard = (nsets / SHARDS as u64).max(1);
        let shard_count = nsets.div_ceil(sets_per_shard) as usize;
        let shards = (0..shard_count)
            .map(|_| Mutex::new(Shard::new(sets_per_shard as usize, ways)))
            .collect();
        L2Cache {
            shards: RwLock::new(shards),
            nsets,
            ways,
            set_mask: nsets - 1,
            shard_shift: sets_per_shard.trailing_zeros(),
            local_mask: sets_per_shard - 1,
        }
    }

    /// Capacity in bytes (rounded to the power-of-two set count).
    pub fn capacity_bytes(&self) -> u64 {
        self.nsets * self.ways as u64 * SECTOR_BYTES
    }

    #[inline]
    fn shard_of(&self, sector: u64) -> (usize, usize) {
        let set = sector & self.set_mask;
        (
            (set >> self.shard_shift) as usize,
            (set & self.local_mask) as usize,
        )
    }

    /// A port that shares the cache with other shared ports: each run of
    /// sectors in one shard is probed under that shard's lock. Blocks
    /// while an owned port is live.
    pub fn shared(&self) -> L2Port<'_> {
        L2Port {
            cache: self,
            shards: Shards::Shared(self.shards.read()),
        }
    }

    /// A port with sole use of the cache until it is dropped: probes take
    /// no lock. Blocks until every other port is dropped, so a thread
    /// must not hold another port of the same cache.
    pub fn owned(&self) -> L2Port<'_> {
        L2Port {
            cache: self,
            shards: Shards::Owned(RefCell::new(self.shards.write())),
        }
    }

    /// Invalidates everything (cold-cache reset between experiments) by
    /// bumping each shard's generation: O(shards), independent of cache
    /// capacity. Stale sets are cleared on their next probe, so counters
    /// are unaffected by the representation. Waits for live ports.
    pub fn invalidate(&self) {
        for shard in self.shards.write().iter_mut() {
            let s = shard.get_mut();
            s.gen += 1;
            // Stale dirty data is discarded, never written back.
            s.dirty_ways = 0;
        }
    }
}

enum Shards<'a> {
    Shared(RwLockReadGuard<'a, Box<[Mutex<Shard>]>>),
    /// `RefCell` because ports are probed through `&self` from the warp
    /// API; an owned port never leaves its thread.
    Owned(RefCell<RwLockWriteGuard<'a, Box<[Mutex<Shard>]>>>),
}

/// A launch worker's access to an [`L2Cache`]: shared with other workers
/// ([`L2Cache::shared`]) or owned for the whole launch
/// ([`L2Cache::owned`]). Both modes probe in the same order with the same
/// policy, so results do not depend on the mode.
pub struct L2Port<'a> {
    cache: &'a L2Cache,
    shards: Shards<'a>,
}

impl L2Port<'_> {
    /// Accesses the sector containing byte address `addr`. `write` marks
    /// the sector dirty.
    pub fn access(&self, addr: u64, write: bool) -> AccessResult {
        let mut result = None;
        self.access_batch([addr / SECTOR_BYTES], write, |r| result = Some(r));
        result.expect("one sector probed")
    }

    /// Probes an ordered batch of sector indices (one warp access,
    /// already deduplicated by the coalescer), calling `sink` with each
    /// result in order. On a shared port, runs of sectors mapping to the
    /// same shard are probed under a single lock acquisition; for
    /// coalesced warp accesses the whole batch is typically one run.
    pub fn access_batch<I, F>(&self, sectors: I, write: bool, mut sink: F)
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(AccessResult),
    {
        let cache = self.cache;
        match &self.shards {
            Shards::Owned(shards) => {
                let mut shards = shards.borrow_mut();
                for sector in sectors {
                    let (shard, set) = cache.shard_of(sector);
                    sink(probe(
                        shards[shard].get_mut(),
                        set,
                        cache.ways,
                        sector,
                        write,
                    ));
                }
            }
            Shards::Shared(shards) => {
                let mut it = sectors.into_iter();
                let Some(mut sector) = it.next() else { return };
                'runs: loop {
                    let (shard_idx, mut set) = cache.shard_of(sector);
                    let mut shard = shards[shard_idx].lock();
                    loop {
                        sink(probe(&mut shard, set, cache.ways, sector, write));
                        sector = match it.next() {
                            Some(s) => s,
                            None => break 'runs,
                        };
                        let (next_shard, next_set) = cache.shard_of(sector);
                        if next_shard != shard_idx {
                            continue 'runs; // drop the lock, start the next run
                        }
                        set = next_set;
                    }
                }
            }
        }
    }

    /// Marks every dirty sector clean and returns how many there were —
    /// the end-of-kernel write-back flush.
    pub fn flush_dirty(&self) -> u64 {
        let ways = self.cache.ways;
        match &self.shards {
            Shards::Owned(shards) => shards
                .borrow_mut()
                .iter_mut()
                .map(|s| s.get_mut().flush(ways))
                .sum(),
            Shards::Shared(shards) => shards.iter().map(|s| s.lock().flush(ways)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `probe` without the newest-way fast path: a full way scan and a
    /// stamp bump on every access. The differential tests check the
    /// production `probe` against it.
    fn reference_probe(
        shard: &mut Shard,
        set: usize,
        ways: usize,
        sector: u64,
        write: bool,
    ) -> AccessResult {
        shard.stamp += 1;
        let stamp = shard.stamp;
        let base = set * ways;
        let tags = &mut shard.tags[base..base + ways];
        let stamps = &mut shard.stamps[base..base + ways];
        let dirty = &mut shard.dirty[base..base + ways];
        if shard.set_gen[set] != shard.gen {
            shard.set_gen[set] = shard.gen;
            tags.fill(0);
            dirty.fill(false);
        }

        let key = sector + 1;
        if let Some(w) = tags.iter().position(|&t| t == key) {
            stamps[w] = stamp;
            if write && !dirty[w] {
                dirty[w] = true;
                shard.dirty_ways += 1;
            }
            return AccessResult {
                hit: true,
                writeback: false,
            };
        }
        let victim = tags.iter().position(|&t| t == 0).unwrap_or_else(|| {
            (0..ways)
                .min_by_key(|&w| stamps[w])
                .expect("a set has at least one way")
        });
        let writeback = tags[victim] != 0 && dirty[victim];
        tags[victim] = key;
        stamps[victim] = stamp;
        dirty[victim] = write;
        shard.dirty_ways += write as u64;
        shard.dirty_ways -= writeback as u64;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Access(u64, bool),
        Invalidate,
        Flush,
    }

    #[derive(Debug, PartialEq, Eq)]
    enum Outcome {
        Access(AccessResult),
        Flushed(u64),
    }

    /// Seeded op sequence over a few times the cache's sectors: about one
    /// write in three, an invalidate every ~97 ops and a flush every ~53.
    /// Sectors often repeat the previous one or come from a small recent
    /// window, so both fast-path re-hits and older-way hits occur.
    fn ops(seed: u64, sectors: u64, len: usize) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut last = 0u64;
        (0..len)
            .map(|_| {
                if rng.gen_range(0..97u32) == 0 {
                    return Op::Invalidate;
                }
                if rng.gen_range(0..53u32) == 0 {
                    return Op::Flush;
                }
                last = match rng.gen_range(0..4u32) {
                    0 => last,
                    1 => last.saturating_sub(rng.gen_range(0..8u64)),
                    _ => rng.gen_range(0..sectors),
                };
                Op::Access(last, rng.gen_range(0..3u32) == 0)
            })
            .collect()
    }

    /// Runs `ops` through `reference_probe` on a cache's own shards.
    fn run_reference(c: &L2Cache, ops: &[Op]) -> Vec<Outcome> {
        ops.iter()
            .filter_map(|&op| match op {
                Op::Access(sector, write) => {
                    let (shard, set) = c.shard_of(sector);
                    let mut shards = c.shards.write();
                    let shard = shards[shard].get_mut();
                    Some(Outcome::Access(reference_probe(
                        shard, set, c.ways, sector, write,
                    )))
                }
                Op::Invalidate => {
                    c.invalidate();
                    None
                }
                Op::Flush => Some(Outcome::Flushed(c.owned().flush_dirty())),
            })
            .collect()
    }

    /// Runs `ops` through an owned or a shared port.
    fn run_port(c: &L2Cache, ops: &[Op], owned: bool) -> Vec<Outcome> {
        let port = || if owned { c.owned() } else { c.shared() };
        ops.iter()
            .filter_map(|&op| match op {
                Op::Access(sector, write) => {
                    Some(Outcome::Access(port().access(sector * SECTOR_BYTES, write)))
                }
                Op::Invalidate => {
                    c.invalidate();
                    None
                }
                Op::Flush => Some(Outcome::Flushed(port().flush_dirty())),
            })
            .collect()
    }

    fn stamps_issued(c: &L2Cache) -> u64 {
        c.shards.write().iter_mut().map(|s| s.get_mut().stamp).sum()
    }

    #[test]
    fn newest_way_fast_path_matches_the_reference_probe() {
        for ways in [1usize, 2, 4, 16] {
            for sets in [1usize, 2, 4, 8] {
                let capacity = sets * ways * SECTOR_BYTES as usize;
                let sectors = 3 * (sets * ways) as u64 + 1;
                let mut all = Vec::new();
                for seed in 0..8u64 {
                    let ops = ops(seed * 1000 + (ways * 10 + sets) as u64, sectors, 2000);
                    let reference = L2Cache::new(capacity, ways);
                    let want = run_reference(&reference, &ops);
                    let accesses =
                        ops.iter().filter(|op| matches!(op, Op::Access(..))).count() as u64;
                    assert_eq!(stamps_issued(&reference), accesses);
                    for owned in [true, false] {
                        let c = L2Cache::new(capacity, ways);
                        let got = run_port(&c, &ops, owned);
                        assert_eq!(
                            got, want,
                            "ways {ways}, sets {sets}, seed {seed}, owned {owned}"
                        );
                        assert!(
                            stamps_issued(&c) < accesses,
                            "the fast path fired (ways {ways}, sets {sets})"
                        );
                    }
                    all.extend(want);
                }
                // Every config exercises hits, misses, write-backs and
                // non-empty flushes.
                let seen = |f: fn(&Outcome) -> bool| all.iter().any(f);
                assert!(seen(|o| matches!(o, Outcome::Access(r) if r.hit)));
                assert!(seen(|o| matches!(o, Outcome::Access(r) if !r.hit)));
                assert!(
                    seen(|o| matches!(o, Outcome::Access(r) if r.writeback)),
                    "no write-back with ways {ways}, sets {sets}"
                );
                assert!(seen(|o| matches!(o, Outcome::Flushed(n) if *n > 0)));
            }
        }
    }

    #[test]
    fn fast_path_rehit_leaves_the_other_way_as_victim() {
        // One set of 2 ways.
        let c = L2Cache::new(2 * SECTOR_BYTES as usize, 2);
        let (a, b, x) = (0, SECTOR_BYTES, 2 * SECTOR_BYTES);
        let port = c.owned();
        assert!(!port.access(a, false).hit); // way 0
        assert!(!port.access(b, false).hit); // way 1, newest
        assert!(port.access(b, false).hit); // fast path
        assert!(port.access(a, false).hit); // scan hit: way 0 newest
        assert!(port.access(a, true).hit); // fast path, marks a dirty
        let r = port.access(x, false);
        assert!(!r.hit && !r.writeback, "x evicts clean b, not a");
        assert!(port.access(a, false).hit);
        let r = port.access(b, false);
        assert!(!r.hit && !r.writeback, "b evicts x, the least recent");
        assert_eq!(port.flush_dirty(), 1, "a's fast-path write is flushed");
    }

    #[test]
    #[should_panic(expected = "1..=256 ways")]
    fn more_than_256_ways_is_rejected() {
        L2Cache::new(1 << 20, 257);
    }

    #[test]
    fn repeated_access_hits() {
        let c = L2Cache::new(1 << 16, 8);
        assert!(!c.shared().access(0x1000, false).hit);
        assert!(c.shared().access(0x1000, false).hit);
        // Same sector, different byte.
        assert!(c.shared().access(0x101f, false).hit);
        // Next sector misses.
        assert!(!c.shared().access(0x1020, false).hit);
    }

    #[test]
    fn capacity_eviction() {
        // Tiny cache: 4 sets * 2 ways * 32 B = 256 B.
        let c = L2Cache::new(256, 2);
        assert_eq!(c.capacity_bytes(), 256);
        // Fill one set (sectors mapping to set 0: multiples of nsets*32).
        let stride = c.capacity_bytes() / 2; // nsets * 32 = capacity / ways
        assert!(!c.shared().access(0, false).hit);
        assert!(!c.shared().access(stride, false).hit);
        // Both resident.
        assert!(c.shared().access(0, false).hit);
        assert!(c.shared().access(stride, false).hit);
        // Third distinct sector in the same set evicts the LRU (addr 0).
        assert!(!c.shared().access(2 * stride, false).hit);
        assert!(!c.shared().access(0, false).hit);
        // `stride` was more recently used than 0 at eviction time, but the
        // re-miss of 0 evicted 2*stride (LRU then). Just check the set
        // still functions.
        assert!(c.shared().access(0, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let c = L2Cache::new(256, 2);
        let stride = c.capacity_bytes() / 2;
        assert!(!c.shared().access(0, true).hit); // dirty
        c.shared().access(stride, false);
        let r = c.shared().access(2 * stride, false); // evicts addr 0 (dirty LRU)
        assert!(r.writeback);
    }

    #[test]
    fn flush_counts_and_cleans() {
        let c = L2Cache::new(1 << 16, 8);
        c.shared().access(0, true);
        c.shared().access(64, true);
        c.shared().access(128, false);
        assert_eq!(c.shared().flush_dirty(), 2);
        assert_eq!(c.shared().flush_dirty(), 0);
        // Still resident after flush.
        assert!(c.shared().access(0, false).hit);
    }

    #[test]
    fn invalidate_clears() {
        let c = L2Cache::new(1 << 16, 8);
        c.shared().access(0, true);
        c.invalidate();
        assert!(!c.shared().access(0, false).hit);
        // The dirty pre-invalidate fill must not write back or flush.
        assert_eq!(c.shared().flush_dirty(), 0);
    }

    #[test]
    fn invalidate_discards_dirty_data_without_writeback() {
        let c = L2Cache::new(256, 2);
        let stride = c.capacity_bytes() / 2;
        c.shared().access(0, true);
        c.shared().access(stride, true);
        c.invalidate();
        // Refilling the set evicts only stale ways: no writebacks.
        assert!(!c.shared().access(0, false).writeback);
        assert!(!c.shared().access(stride, false).writeback);
        assert!(!c.shared().access(2 * stride, false).hit);
    }

    #[test]
    fn repeated_invalidate_generations_stay_distinct() {
        let c = L2Cache::new(1 << 12, 4);
        for round in 0..5 {
            assert!(
                !c.shared().access(0x40, true).hit,
                "round {round}: must be cold"
            );
            assert!(c.shared().access(0x40, false).hit);
            c.invalidate();
        }
    }

    #[test]
    fn batch_probes_in_order_match_scalar_probes() {
        // Same sector sequence driven through access() and
        // access_batch() must produce identical results.
        let seq: Vec<u64> = [0u64, 1, 2, 3, 2, 1, 64, 65, 0, 512, 2, 600]
            .iter()
            .map(|s| s * 7919 % 4096) // scatter across sets
            .collect();
        let scalar = L2Cache::new(1 << 12, 2);
        let want: Vec<AccessResult> = seq
            .iter()
            .map(|&s| scalar.shared().access(s * SECTOR_BYTES, false))
            .collect();
        let batched = L2Cache::new(1 << 12, 2);
        let mut got = Vec::new();
        batched
            .shared()
            .access_batch(seq.iter().copied(), false, |r| got.push(r));
        assert_eq!(got, want);
    }

    #[test]
    fn owned_port_matches_shared_port() {
        // 4 sets x 2 ways per shard-sized cache: the sequence below
        // revisits, dirties and evicts, then invalidates while sets hold
        // dirty data and keeps going over the stale sets.
        let sectors: Vec<(u64, bool)> = (0..400u64)
            .map(|i| ((i * 7919 + i / 3) % 97, i % 3 == 0))
            .collect();
        let (before, after) = sectors.split_at(150);

        let locked = L2Cache::new(1 << 10, 2);
        let mut want = Vec::new();
        for &(s, w) in before {
            want.push(locked.shared().access(s * SECTOR_BYTES, w));
        }
        locked.invalidate();
        for &(s, w) in after {
            want.push(locked.shared().access(s * SECTOR_BYTES, w));
        }
        let want_flush = locked.shared().flush_dirty();

        let owned = L2Cache::new(1 << 10, 2);
        let mut got = Vec::new();
        {
            let port = owned.owned();
            for &(s, w) in before {
                port.access_batch([s], w, |r| got.push(r));
            }
        }
        owned.invalidate();
        let port = owned.owned();
        for &(s, w) in after {
            port.access_batch([s], w, |r| got.push(r));
        }
        assert_eq!(got, want);
        assert!(want.iter().any(|r| r.writeback), "evictions exercised");
        assert!(want_flush > 0, "dirty data left to flush");
        assert_eq!(port.flush_dirty(), want_flush);
        assert_eq!(port.flush_dirty(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let c = L2Cache::new(1 << 12, 2);
        let mut calls = 0;
        c.shared()
            .access_batch(std::iter::empty(), true, |_| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(c.shared().flush_dirty(), 0);
    }

    #[test]
    fn streaming_larger_than_cache_always_misses_on_second_pass() {
        let c = L2Cache::new(1 << 12, 4); // 4 KB
        let n = 1 << 14; // 16 KB of data
        let mut misses = 0;
        for pass in 0..2 {
            for addr in (0..n).step_by(32) {
                if !c.shared().access(addr, false).hit {
                    misses += 1;
                }
            }
            if pass == 0 {
                assert_eq!(misses, n / 32);
            }
        }
        // Second pass misses everything too: LRU streaming eviction.
        assert_eq!(misses, 2 * n / 32);
    }

    #[test]
    fn working_set_smaller_than_cache_stays_resident() {
        let c = L2Cache::new(1 << 16, 16); // 64 KB
        let n = 1 << 12; // 4 KB working set
        for addr in (0..n).step_by(32) {
            c.shared().access(addr, false);
        }
        for addr in (0..n).step_by(32) {
            assert!(
                c.shared().access(addr, false).hit,
                "addr {addr} not resident"
            );
        }
    }
}
