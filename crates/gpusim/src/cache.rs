//! Sectored, set-associative, write-back L2 cache model.
//!
//! The unit of transfer between L2 and DRAM on the modeled GPUs is the
//! 32-byte sector, so the model tracks 32-byte sectors directly (a
//! "line" here is one sector). Sets are LRU and split into up to 64
//! shards, so the end-of-kernel flush skips clean shards and invalidation
//! costs O(shards).
//!
//! A launch reaches the cache through one [`L2Port`] ([`L2Cache::owned`]):
//! it takes the whole cache once at launch start and probes with no
//! per-access lock, in exactly the order the warps issue their accesses,
//! through the single `probe` policy function.
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
//! # Known states and the launch memo
//!
//! The executor's launch memo (see [`crate::exec`]) skips the probes of a
//! keyed launch whose start state it knows (steps 1–5), or whose every
//! sector is already resident (step 6). It rests on this argument:
//!
//! 1. A set's future behaviour depends only on its resident tags in LRU
//!    order. Way positions and absolute stamps never decide a hit, a
//!    victim or a write-back, and the end-of-kernel flush clears every
//!    dirty bit, so every launch starts clean.
//! 2. A launch *overwrites* a set when every way of that set holds a tag
//!    stamped during the launch. The set then holds the last `ways`
//!    distinct sectors the launch touched there, in last-touch order: a
//!    function of the launch's sector stream alone. A newest-way
//!    fast-path hit does not restamp, so a pre-launch tag re-hit that
//!    way keeps its old stamp and the set does not count as overwritten;
//!    the test is conservative, never wrong.
//! 3. A launch is *saturating* when it overwrites every set
//!    (`L2Port::overwrote_every_set`). Its end state then depends only
//!    on its stream. That needs at least `L2Cache::sectors` probes, so
//!    the executor checks that cheap bound before the O(sets × ways)
//!    scan, which then costs no more than the probes did.
//! 4. The cache tracks an `L2State`: `Cold` when new or invalidated,
//!    `After(key)` once the executor installs it after a saturating keyed
//!    launch, `Unknown` otherwise. Taking an owned port moves the state
//!    to `Unknown` (the port remembers the state it started from), so
//!    only a launch that declares what it left behind
//!    (`L2Port::set_state`) leaves a known state.
//! 5. A memo hit installs an `L2Snapshot` of the arrays a saturating run
//!    of the same key left behind (`L2Port::restore`). Its tags and
//!    within-set stamp order are what interpretation would leave, so every
//!    later probe behaves identically.
//! 6. The memo's second rule needs no known state. A launch whose
//!    *footprint* (its distinct sectors) is all resident in live sets at
//!    its start fills nothing, so it evicts nothing and every probe hits.
//!    Its counters are then a function of its stream alone: every read
//!    hits, nothing is written back in-launch, and each member's flush
//!    writes back the distinct sectors it wrote (every launch starts
//!    clean). Each set it touched ends with its untouched tags in their
//!    old order, then its touched tags in last-touch order. A fast-path
//!    re-hit skips the stamp bump only on the set's newest way, which is
//!    then also the set's last-touched tag.
//!    - `L2Port::holds_all` checks a footprint; a set whose generation is
//!      behind holds nothing.
//!    - The cache counts every event that can remove a resident tag
//!      (`L2Port::removals`): each fill (every miss `probe` returns
//!      fills), counted once per `L2Port::access_batch`, and each
//!      `restore` and `invalidate`. The count only grows. A footprint
//!      that `holds_all` confirmed at count `c` is still resident while
//!      the count is `c`, so the executor scans it again only after the
//!      count moves. Once every key of a serving loop has run, a loop
//!      whose footprints fit fills nothing and scans nothing.
//!    - A restamp stamps the footprint in last-touch order and makes each
//!      set's last one its newest way. Like the fast path, it leaves a
//!      sector that already is its set's newest way as it is. Dirty bits
//!      stay as they are, all clean between launches.
//!    - A hit does not restamp at once: `L2Port::defer_restamp` appends
//!      `(key, footprint)` to a pending list, moving a key already there
//!      to the end, so the list holds at most one entry per key. The list
//!      is applied in order before anything that reads or changes stamps
//!      or LRU order: any probe, `L2Port::stamps`,
//!      `L2Port::overwrote_every_set` and `L2Port::snapshot`. `restore`
//!      and `invalidate` replace or clear every set and drop it. This is
//!      exact: restamps never fill, so they leave residency as it is, and
//!      a set's within-set order depends only on each sector's last touch.
//!      Restamping a key again moves the last touch of each of its
//!      sectors past everything restamped before, so dropping the key's
//!      earlier entry loses no last touch. Applying the list before
//!      `stamps` keeps its restamps out of the next launch's overwrite
//!      test (step 2), which would otherwise count them as stamped during
//!      that launch.
//!    - The footprint comes from one interpreted run:
//!      `L2Port::record_stream` keeps every probed sector, and
//!      `L2Port::take_footprint` reduces them to distinct sectors in
//!      last-touch order. The recording is dropped once the raw stream
//!      outgrows `L2Cache::sectors`. A key with a longer stream, as every
//!      key the saturating rule serves has, is never answered by this
//!      rule and costs at most that much memory, once.
//!
//! # Lock poisoning
//!
//! Only the shard array with its pending restamps (locked by a port for
//! a whole launch or keyed group) and the executor's launch memo are held
//! while kernel code runs, so only they can be poisoned by a panicking
//! kernel, and every acquisition of them recovers with
//! `PoisonError::into_inner`: `probe`, the flush and the pending list
//! never call kernel code, taking a port already leaves the state
//! `Unknown`, and the memo records only after a group returns.
//! Every other simulator lock (the L2 state, and `MemSystem`'s regions
//! and snapshot) is held only inside simulator code and takes
//! `.unwrap()`.
//!
//! The model intentionally omits the L1/SMEM level: for streaming SpMV
//! kernels L1 hit rates are negligible for the matrix (each element is
//! touched once) and the input-vector reuse the paper discusses is an L2
//! capacity effect.

use std::cell::{RefCell, RefMut};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Transfer granularity between L2 and DRAM, in bytes.
pub const SECTOR_BYTES: u64 = 32;

const SHARDS: usize = 64;

/// One shard's sets as parallel arrays: `sets_per_shard * ways` way
/// entries, set-major, plus one generation per set.
#[derive(Clone)]
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

    /// Whether every set is live and every way holds a tag stamped after
    /// `since` (argument step 2 in the module docs).
    fn overwritten_since(&self, since: u64) -> bool {
        self.set_gen.iter().all(|&g| g == self.gen)
            && self
                .tags
                .iter()
                .zip(&self.stamps)
                .all(|(&tag, &stamp)| tag != 0 && stamp > since)
    }

    /// The way of live set `set` holding `sector`, trying its newest way
    /// first; a stale set (generation behind) holds nothing.
    fn way_of(&self, set: usize, ways: usize, sector: u64) -> Option<usize> {
        if self.set_gen[set] != self.gen {
            return None;
        }
        let base = set * ways;
        let newest = self.mru[set] as usize;
        if self.tags[base + newest] == sector + 1 {
            return Some(newest);
        }
        self.tags[base..base + ways]
            .iter()
            .position(|&t| t == sector + 1)
    }

    /// Becomes a copy of `src`, reusing this shard's allocations.
    fn copy_from(&mut self, src: &Shard) {
        self.tags.copy_from_slice(&src.tags);
        self.stamps.copy_from_slice(&src.stamps);
        self.dirty.copy_from_slice(&src.dirty);
        self.set_gen.copy_from_slice(&src.set_gen);
        self.mru.copy_from_slice(&src.mru);
        self.stamp = src.stamp;
        self.gen = src.gen;
        self.dirty_ways = src.dirty_ways;
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

/// What is known about a cache's contents between launches (module docs,
/// step 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum L2State {
    /// Empty: a new cache, or one just invalidated.
    Cold,
    /// Exactly what a saturating launch keyed `key` leaves behind.
    After(u64),
    /// Anything else.
    Unknown,
}

/// A copy of every shard's arrays, taken after a saturating launch and
/// installed in place of re-running it: `sets × (ways × 17 + 9)` bytes
/// (tag, stamp and dirty bit per way; generation and newest way per set).
pub(crate) struct L2Snapshot(Box<[Shard]>);

/// The shard array and what the launch memo keeps beside it (module
/// docs, step 6).
struct Sets {
    shards: Box<[Shard]>,
    /// Events that can remove a resident tag so far: fills, restores and
    /// invalidations.
    removals: u64,
    /// Deferred restamps in the order they are due, at most one per key.
    pending: Vec<(u64, Arc<[u64]>)>,
}

impl Sets {
    /// Applies the deferred restamps in order.
    fn settle(&mut self, cache: &L2Cache) {
        for (_, footprint) in self.pending.drain(..) {
            restamp(&mut self.shards, cache, &footprint);
        }
    }

    /// Forgets the deferred restamps and counts a removal: the arrays are
    /// about to be replaced or invalidated wholesale.
    fn discard(&mut self) {
        self.pending.clear();
        self.removals += 1;
    }
}

/// Stamps each sector of `footprint`, all resident, in order, leaving the
/// last one of each set its newest way: the LRU order a launch that only
/// hits leaves behind (module docs, step 6). Like the probe fast path, a
/// sector that is already its set's newest way keeps its stamp. Dirty
/// bits are untouched.
fn restamp(shards: &mut [Shard], cache: &L2Cache, footprint: &[u64]) {
    for &sector in footprint {
        let (shard, set) = cache.shard_of(sector);
        let s = &mut shards[shard];
        let w = s
            .way_of(set, cache.ways, sector)
            .expect("a restamped sector is resident");
        if s.mru[set] as usize != w {
            s.stamp += 1;
            s.stamps[set * cache.ways + w] = s.stamp;
            s.mru[set] = w as u8;
        }
    }
}

/// The cache model. Safe to share across threads: each launch locks it
/// whole through its [`L2Port`].
pub struct L2Cache {
    /// Locked by a port for its whole life.
    sets: Mutex<Sets>,
    /// Written only by a holder of the shard lock, so a port reads the
    /// state the previous holder left.
    state: Mutex<L2State>,
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
            .map(|_| Shard::new(sets_per_shard as usize, ways))
            .collect();
        L2Cache {
            sets: Mutex::new(Sets {
                shards,
                removals: 0,
                pending: Vec::new(),
            }),
            state: Mutex::new(L2State::Cold),
            nsets,
            ways,
            set_mask: nsets - 1,
            shard_shift: sets_per_shard.trailing_zeros(),
            local_mask: sets_per_shard - 1,
        }
    }

    /// Capacity in bytes (rounded to the power-of-two set count).
    pub fn capacity_bytes(&self) -> u64 {
        self.sectors() * SECTOR_BYTES
    }

    /// Capacity in sectors (`sets × ways`): the fewest probes that can
    /// overwrite every set.
    pub(crate) fn sectors(&self) -> u64 {
        self.nsets * self.ways as u64
    }

    #[inline]
    fn shard_of(&self, sector: u64) -> (usize, usize) {
        let set = sector & self.set_mask;
        (
            (set >> self.shard_shift) as usize,
            (set & self.local_mask) as usize,
        )
    }

    /// A port with sole use of the cache until it is dropped: probes take
    /// no lock. Blocks until the previous port is dropped, so a thread
    /// must not hold another port of the same cache. The port remembers
    /// the state the cache was in and leaves it unknown unless told
    /// otherwise (module docs, step 4).
    pub fn owned(&self) -> L2Port<'_> {
        let sets = self.lock_sets();
        let start = std::mem::replace(&mut *self.state.lock().unwrap(), L2State::Unknown);
        L2Port {
            cache: self,
            inner: RefCell::new(PortInner { sets, stream: None }),
            start,
        }
    }

    /// Invalidates everything (cold-cache reset between experiments) by
    /// bumping each shard's generation: O(shards), independent of cache
    /// capacity. Stale sets are cleared on their next probe, so counters
    /// are unaffected by the representation. Waits for live ports.
    pub fn invalidate(&self) {
        let mut sets = self.lock_sets();
        sets.discard();
        for s in sets.shards.iter_mut() {
            s.gen += 1;
            // Stale dirty data is discarded, never written back.
            s.dirty_ways = 0;
        }
        *self.state.lock().unwrap() = L2State::Cold;
    }

    /// Locks the shard array and its bookkeeping, recovering from
    /// poisoning (module docs,
    /// *Lock poisoning*).
    fn lock_sets(&self) -> MutexGuard<'_, Sets> {
        self.sets.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A launch's sole use of an [`L2Cache`] ([`L2Cache::owned`]), held from
/// its first access to its end-of-kernel flush.
pub struct L2Port<'a> {
    cache: &'a L2Cache,
    /// `RefCell` because ports are probed through `&self` from the warp
    /// API; a port never leaves its thread.
    inner: RefCell<PortInner<'a>>,
    /// The cache's state when the port was taken.
    start: L2State,
}

struct PortInner<'a> {
    sets: MutexGuard<'a, Sets>,
    /// Every probed sector in order, while [`L2Port::record_stream`] is
    /// on and the stream fits in the cache's sectors.
    stream: Option<Vec<u64>>,
}

impl<'a> L2Port<'a> {
    /// Accesses the sector containing byte address `addr`. `write` marks
    /// the sector dirty.
    pub fn access(&self, addr: u64, write: bool) -> AccessResult {
        let mut result = None;
        self.access_batch([addr / SECTOR_BYTES], write, |r| result = Some(r));
        result.expect("one sector probed")
    }

    /// Probes an ordered batch of sector indices (one warp access,
    /// already deduplicated by the coalescer), calling `sink` with each
    /// result in order.
    pub fn access_batch<I, F>(&self, sectors: I, write: bool, mut sink: F)
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(AccessResult),
    {
        let cache = self.cache;
        let mut inner = self.inner.borrow_mut();
        let PortInner { sets, stream } = &mut *inner;
        if !sets.pending.is_empty() {
            sets.settle(cache);
        }
        let Sets {
            shards, removals, ..
        } = &mut **sets;
        // Every miss fills a way (module docs, step 6).
        let mut fills = 0;
        let Some(recorded) = stream else {
            for sector in sectors {
                let (shard, set) = cache.shard_of(sector);
                let r = probe(&mut shards[shard], set, cache.ways, sector, write);
                fills += !r.hit as u64;
                sink(r);
            }
            *removals += fills;
            return;
        };
        for sector in sectors {
            recorded.push(sector);
            let (shard, set) = cache.shard_of(sector);
            let r = probe(&mut shards[shard], set, cache.ways, sector, write);
            fills += !r.hit as u64;
            sink(r);
        }
        *removals += fills;
        if recorded.len() as u64 > cache.sectors() {
            *stream = None; // the recording cutoff (module docs, step 6)
        }
    }

    /// Marks every dirty sector clean and returns how many there were —
    /// the end-of-kernel write-back flush.
    pub fn flush_dirty(&self) -> u64 {
        let ways = self.cache.ways;
        self.inner
            .borrow_mut()
            .sets
            .shards
            .iter_mut()
            .map(|s| s.flush(ways))
            .sum()
    }

    /// The cache's state when this port was taken.
    pub(crate) fn start_state(&self) -> L2State {
        self.start
    }

    /// Declares what the cache holds when this port is dropped.
    pub(crate) fn set_state(&self, state: L2State) {
        *self.cache.state.lock().unwrap() = state;
    }

    /// The shard array with every deferred restamp applied.
    fn settled(&self) -> RefMut<'_, Sets> {
        let mut inner = self.inner.borrow_mut();
        inner.sets.settle(self.cache);
        RefMut::map(inner, |i| &mut *i.sets)
    }

    /// Each shard's stamp counter: pass it to
    /// [`L2Port::overwrote_every_set`] after the launch. Applies the
    /// deferred restamps first, so none of them counts as the launch's.
    pub(crate) fn stamps(&self) -> Vec<u64> {
        self.settled().shards.iter().map(|s| s.stamp).collect()
    }

    /// Whether every way of every set holds a tag stamped since `stamps`
    /// were read: the launch in between was saturating (module docs,
    /// step 3). O(sets × ways).
    pub(crate) fn overwrote_every_set(&self, stamps: &[u64]) -> bool {
        self.settled()
            .shards
            .iter()
            .zip(stamps)
            .all(|(s, &since)| s.overwritten_since(since))
    }

    /// A copy of the whole cache.
    pub(crate) fn snapshot(&self) -> L2Snapshot {
        L2Snapshot(self.settled().shards.clone())
    }

    /// Makes the cache a copy of `snapshot`, taken from this cache.
    pub(crate) fn restore(&self, snapshot: &L2Snapshot) {
        let sets = &mut self.inner.borrow_mut().sets;
        sets.discard();
        for (s, src) in sets.shards.iter_mut().zip(snapshot.0.iter()) {
            s.copy_from(src);
        }
    }

    /// Starts recording every probed sector, for
    /// [`L2Port::take_footprint`]. The recording is dropped once it
    /// outgrows the cache's sectors (module docs, step 6).
    pub(crate) fn record_stream(&self) {
        self.inner.borrow_mut().stream = Some(Vec::new());
    }

    /// The distinct sectors probed since [`L2Port::record_stream`], in
    /// last-touch order, or `None` once the stream outgrew the cache.
    pub(crate) fn take_footprint(&self) -> Option<Arc<[u64]>> {
        let mut stream = self.inner.borrow_mut().stream.take()?;
        // Walk back from the end, moving each sector's last touch into
        // place in the stream's own buffer.
        let mut seen = HashSet::new();
        let mut first = stream.len();
        for i in (0..stream.len()).rev() {
            let sector = stream[i];
            if seen.insert(sector) {
                first -= 1;
                stream[first] = sector;
            }
        }
        stream.drain(..first);
        Some(stream.into())
    }

    /// Events so far that can have removed a resident tag: fills,
    /// restores and invalidations. A footprint found resident stays
    /// resident while this count is unchanged (module docs, step 6).
    pub(crate) fn removals(&self) -> u64 {
        self.inner.borrow().sets.removals
    }

    /// Whether every sector of `footprint` is resident in a live set
    /// (module docs, step 6).
    pub(crate) fn holds_all(&self, footprint: &[u64]) -> bool {
        let cache = self.cache;
        let inner = self.inner.borrow();
        footprint.iter().all(|&sector| {
            let (shard, set) = cache.shard_of(sector);
            inner.sets.shards[shard]
                .way_of(set, cache.ways, sector)
                .is_some()
        })
    }

    /// Queues the restamp of `footprint`, all resident, under `key`: the
    /// LRU order a launch that only hits leaves behind, applied before
    /// anything reads or changes that order (module docs, step 6). A key
    /// already queued moves to the end.
    pub(crate) fn defer_restamp(&self, key: u64, footprint: &Arc<[u64]>) {
        let pending = &mut self.inner.borrow_mut().sets.pending;
        match pending.iter().position(|&(k, _)| k == key) {
            Some(i) => pending[i..].rotate_left(1),
            None => pending.push((key, footprint.clone())),
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
    /// production `probe` against it. It keeps each set's newest way up
    /// to date, so the production `probe` can continue from its state.
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
                    let mut sets = c.lock_sets();
                    Some(Outcome::Access(reference_probe(
                        &mut sets.shards[shard],
                        set,
                        c.ways,
                        sector,
                        write,
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

    /// Runs `ops` through a port per op.
    fn run_port(c: &L2Cache, ops: &[Op]) -> Vec<Outcome> {
        ops.iter()
            .filter_map(|&op| match op {
                Op::Access(sector, write) => Some(Outcome::Access(
                    c.owned().access(sector * SECTOR_BYTES, write),
                )),
                Op::Invalidate => {
                    c.invalidate();
                    None
                }
                Op::Flush => Some(Outcome::Flushed(c.owned().flush_dirty())),
            })
            .collect()
    }

    fn stamps_issued(c: &L2Cache) -> u64 {
        c.lock_sets().shards.iter().map(|s| s.stamp).sum()
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
                    let c = L2Cache::new(capacity, ways);
                    let got = run_port(&c, &ops);
                    assert_eq!(got, want, "ways {ways}, sets {sets}, seed {seed}");
                    assert!(
                        stamps_issued(&c) < accesses,
                        "the fast path fired (ways {ways}, sets {sets})"
                    );
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

    /// Each set's live tags, least recently used first, sets in index
    /// order, once the deferred restamps are applied.
    fn lru_order(c: &L2Cache) -> Vec<Vec<u64>> {
        let ways = c.ways;
        let mut out = Vec::new();
        let mut sets = c.lock_sets();
        sets.settle(c);
        for s in sets.shards.iter() {
            for set in 0..s.set_gen.len() {
                let mut live: Vec<(u64, u64)> = (set * ways..(set + 1) * ways)
                    .filter(|&w| s.set_gen[set] == s.gen && s.tags[w] != 0)
                    .map(|w| (s.stamps[w], s.tags[w]))
                    .collect();
                live.sort_unstable();
                out.push(live.into_iter().map(|(_, tag)| tag).collect());
            }
        }
        out
    }

    /// Two caches of `sets × ways` in different seeded start states: one
    /// warmed through `reference_probe`, one through ports. Both
    /// end clean, as every launch does, with `last` as the newest way of
    /// its set.
    fn twin_starts(sets: usize, ways: usize, last: u64) -> [L2Cache; 2] {
        let capacity = sets * ways * SECTOR_BYTES as usize;
        let sectors = 3 * (sets * ways) as u64;
        let a = L2Cache::new(capacity, ways);
        run_reference(&a, &ops(11, sectors, 900));
        run_reference(&a, &[Op::Access(last, false)]);
        let b = L2Cache::new(capacity, ways);
        run_port(&b, &ops(12, sectors, 900));
        run_port(&b, &[Op::Access(last, false)]);
        for c in [&a, &b] {
            c.owned().flush_dirty();
        }
        [a, b]
    }

    /// Feeds `stream` through one port as one launch; returns whether
    /// it overwrote every set, and the access results.
    fn launch(c: &L2Cache, stream: &[(u64, bool)]) -> (bool, Vec<AccessResult>) {
        let port = c.owned();
        let stamps = port.stamps();
        let results = stream
            .iter()
            .map(|&(sector, write)| port.access(sector * SECTOR_BYTES, write))
            .collect();
        port.flush_dirty();
        (port.overwrote_every_set(&stamps), results)
    }

    /// A seeded stream over three times the cache's sectors, about one
    /// write in three, with no access to `skip`.
    fn stream(seed: u64, sets: usize, ways: usize, len: usize, skip: u64) -> Vec<(u64, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sectors = 3 * (sets * ways) as u64;
        std::iter::repeat_with(|| (rng.gen_range(0..sectors), rng.gen_range(0..3u32) == 0))
            .filter(|&(sector, _)| sector != skip)
            .take(len)
            .collect()
    }

    #[test]
    fn a_saturating_launch_leaves_the_same_lru_order_from_any_start() {
        for (sets, ways) in [(8usize, 4usize), (128, 16), (256, 2)] {
            let caches = twin_starts(sets, ways, 0);
            assert_ne!(
                lru_order(&caches[0]),
                lru_order(&caches[1]),
                "starts differ"
            );
            let s = stream(7, sets, ways, 10 * sets * ways, u64::MAX);
            for c in &caches {
                assert!(launch(c, &s).0, "saturates ({sets} sets x {ways} ways)");
            }
            assert_eq!(lru_order(&caches[0]), lru_order(&caches[1]));

            // A snapshot installed over a third start state behaves the
            // same from here on.
            let [a, b] = &caches;
            let c = &twin_starts(sets, ways, 5)[1];
            c.owned().restore(&a.owned().snapshot());
            let next = stream(8, sets, ways, 4 * sets * ways, u64::MAX);
            let want = launch(a, &next);
            assert_eq!(launch(b, &next), want);
            assert_eq!(launch(c, &next), want);
        }
    }

    #[test]
    fn a_short_set_or_an_old_tag_kept_by_the_fast_path_is_not_saturation() {
        let (sets, ways) = (64usize, 8usize);
        let in_set_0 = |sector: u64| sector.is_multiple_of(sets as u64);
        let others = stream(9, sets, ways, 20 * sets * ways, u64::MAX);
        let others = others.into_iter().filter(|&(s, _)| !in_set_0(s));

        // Set 0 sees only `ways - 1` distinct sectors.
        let short: Vec<(u64, bool)> = (1..ways as u64)
            .map(|k| (k * sets as u64, false))
            .chain(others.clone())
            .collect();
        for c in &twin_starts(sets, ways, 0) {
            assert!(!launch(c, &short).0, "set 0 is short of {ways} sectors");
        }

        // Set 0 sees `ways` distinct sectors, but the first is sector 0,
        // already its newest way: the fast-path re-hit keeps the
        // pre-launch stamp.
        let rehit: Vec<(u64, bool)> = std::iter::once((0, false))
            .chain(short.iter().copied())
            .collect();
        for c in &twin_starts(sets, ways, 0) {
            let (saturated, results) = launch(c, &rehit);
            assert!(results[0].hit);
            assert!(!saturated, "sector 0 kept its pre-launch stamp");
        }

        // The same stream saturates once sector 0 is not resident first.
        for c in &twin_starts(sets, ways, 0) {
            c.invalidate();
            assert!(launch(c, &rehit).0);
        }
    }

    /// `n` seeded streams of `sets × ways` accesses each (the longest
    /// stream the recorder keeps), about one write in three, over random parts of one pool of at most `ways` distinct
    /// sectors per set, so all their footprints can be resident at once.
    fn fitting_streams(
        rng: &mut StdRng,
        sets: usize,
        ways: usize,
        n: usize,
    ) -> Vec<Vec<(u64, bool)>> {
        let mut pool = Vec::new();
        for set in 0..sets as u64 {
            let mut tags: Vec<u64> = (0..3 * ways as u64).collect();
            for _ in 0..rng.gen_range(0..=ways) {
                let k = tags.swap_remove(rng.gen_range(0..tags.len()));
                pool.push(set + k * sets as u64);
            }
        }
        (0..n)
            .map(|_| {
                let part: Vec<u64> = pool
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_range(0..2u32) == 0)
                    .collect();
                let part = if part.is_empty() { &pool } else { &part };
                (0..sets * ways)
                    .map(|_| {
                        (
                            part[rng.gen_range(0..part.len())],
                            rng.gen_range(0..3u32) == 0,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// A cache with the same arrays as `c` and nothing deferred.
    fn copy_of(c: &L2Cache) -> L2Cache {
        let copy = L2Cache::new(c.capacity_bytes() as usize, c.ways);
        copy.owned().restore(&c.owned().snapshot());
        copy
    }

    #[test]
    fn restamping_a_resident_footprint_leaves_what_interpretation_leaves() {
        let (mut resident, mut not_resident) = (0, 0);
        for (sets, ways) in [(8usize, 4usize), (64, 8), (16, 16), (32, 1)] {
            let capacity = sets * ways * SECTOR_BYTES as usize;
            let sectors = 3 * (sets * ways) as u64;
            for seed in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let keys = fitting_streams(&mut rng, sets, ways, 3);
                // Each key's first run, from a seeded start, records its
                // footprint; other accesses may then evict parts of them,
                // and every fourth case invalidates the cache.
                let a = L2Cache::new(capacity, ways);
                run_port(&a, &ops(seed, sectors, 300));
                a.owned().flush_dirty();
                let footprints: Vec<Arc<[u64]>> = keys
                    .iter()
                    .map(|key| {
                        let port = a.owned();
                        port.record_stream();
                        for &(sector, write) in key {
                            port.access(sector * SECTOR_BYTES, write);
                        }
                        port.flush_dirty();
                        port.take_footprint().expect("fits in the cache")
                    })
                    .collect();
                run_port(&a, &ops(seed + 100, sectors, rng.gen_range(0..3 * ways)));
                if seed % 4 == 0 {
                    a.invalidate();
                }
                a.owned().flush_dirty();

                // The keys launch interleaved, with repeats. `a`
                // interprets them; the copies restamp each key's
                // footprint, `b` at once, `c`, `d` and `e` deferred.
                let order: Vec<usize> = (0..6).map(|_| rng.gen_range(0..keys.len())).collect();
                let [b, c, d, e] = [(); 4].map(|_| copy_of(&a));
                let holds = order.iter().all(|&k| b.owned().holds_all(&footprints[k]));
                let all_hit = order
                    .iter()
                    .all(|&k| launch(&a, &keys[k]).1.iter().all(|r| r.hit));
                let what = format!("{sets}x{ways}, seed {seed}, keys {order:?}");
                assert_eq!(holds, all_hit, "{what}");
                if !holds {
                    not_resident += 1;
                    continue;
                }
                resident += 1;
                let mut due = Vec::new();
                for &k in &order {
                    restamp(&mut b.lock_sets().shards, &b, &footprints[k]);
                    for deferred in [&c, &d, &e] {
                        deferred.owned().defer_restamp(k as u64, &footprints[k]);
                    }
                    due.retain(|&q| q != k as u64);
                    due.push(k as u64);
                }
                // One entry per key, in the order of last occurrence.
                let pending: Vec<u64> = c.lock_sets().pending.iter().map(|p| p.0).collect();
                assert_eq!(pending, due, "{what}");
                assert_eq!(lru_order(&a), lru_order(&b), "{what}");
                assert_eq!(lru_order(&a), lru_order(&c), "{what}: deferred");
                // A later launch, with its overwrite verdict, on copies of
                // `a` and `b`; `e` applies its list before `stamps`.
                let next = stream(seed + 200, sets, ways, 4 * sets * ways, u64::MAX);
                let want = launch(&copy_of(&a), &next);
                assert_eq!(launch(&copy_of(&b), &next), want, "{what}");
                assert_eq!(launch(&e, &next), want, "{what}: deferred");
                // Later probes, with invalidations and flushes; `d`
                // applies its list at its first probe.
                let next = ops(seed + 200, sectors, 4 * sets * ways);
                let want = run_port(&a, &next);
                assert_eq!(run_port(&b, &next), want, "{what}");
                assert_eq!(run_port(&d, &next), want, "{what}: deferred");
            }
        }
        assert!(
            resident > 20 && not_resident > 20,
            "{resident}, {not_resident}"
        );
    }

    #[test]
    fn a_deferred_restamp_is_not_counted_as_the_next_groups_stamping() {
        // Two sets of 4 ways, filled by one footprint in fill order, so
        // its restamp stamps every way anew.
        let (sets, ways) = (2usize, 4usize);
        let c = L2Cache::new(sets * ways * SECTOR_BYTES as usize, ways);
        let port = c.owned();
        port.record_stream();
        for sector in 0..(sets * ways) as u64 {
            port.access(sector * SECTOR_BYTES, false);
        }
        let footprint = port.take_footprint().expect("fits in the cache");
        drop(port);
        assert!(c.owned().holds_all(&footprint));

        // Stamped inside a group, the restamp alone overwrites every set.
        let twin = copy_of(&c);
        let port = twin.owned();
        let stamps = port.stamps();
        port.defer_restamp(1, &footprint);
        assert!(port.overwrote_every_set(&stamps));
        drop(port);

        // A resident hit of key 1, then an interpreted group of another
        // key that touches one sector: that group overwrote no set.
        c.owned().defer_restamp(1, &footprint);
        let (saturated, results) = launch(&c, &[(0, false)]);
        assert!(results[0].hit);
        assert!(!saturated, "the deferred restamp predates the group");
    }

    #[test]
    fn fills_restores_and_invalidations_count_as_removals() {
        let c = L2Cache::new(1 << 12, 4);
        let removals = || c.owned().removals();
        c.owned().access(0, true);
        c.owned().access(32, false);
        assert_eq!(removals(), 2, "two fills");
        c.owned().access(0, false);
        c.owned().flush_dirty();
        assert_eq!(removals(), 2, "a hit and a flush remove nothing");
        // A restore moves the count on: installing arrays from an
        // earlier count never brings the count back to it.
        let snapshot = c.owned().snapshot();
        c.owned().access(64, false);
        c.owned().restore(&snapshot);
        assert_eq!(removals(), 4, "a third fill and a restore");
        c.invalidate();
        assert_eq!(removals(), 5);
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
        assert!(!c.owned().access(0x1000, false).hit);
        assert!(c.owned().access(0x1000, false).hit);
        // Same sector, different byte.
        assert!(c.owned().access(0x101f, false).hit);
        // Next sector misses.
        assert!(!c.owned().access(0x1020, false).hit);
    }

    #[test]
    fn capacity_eviction() {
        // Tiny cache: 4 sets * 2 ways * 32 B = 256 B.
        let c = L2Cache::new(256, 2);
        assert_eq!(c.capacity_bytes(), 256);
        // Fill one set (sectors mapping to set 0: multiples of nsets*32).
        let stride = c.capacity_bytes() / 2; // nsets * 32 = capacity / ways
        assert!(!c.owned().access(0, false).hit);
        assert!(!c.owned().access(stride, false).hit);
        // Both resident.
        assert!(c.owned().access(0, false).hit);
        assert!(c.owned().access(stride, false).hit);
        // Third distinct sector in the same set evicts the LRU (addr 0).
        assert!(!c.owned().access(2 * stride, false).hit);
        assert!(!c.owned().access(0, false).hit);
        // `stride` was more recently used than 0 at eviction time, but the
        // re-miss of 0 evicted 2*stride (LRU then). Just check the set
        // still functions.
        assert!(c.owned().access(0, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let c = L2Cache::new(256, 2);
        let stride = c.capacity_bytes() / 2;
        assert!(!c.owned().access(0, true).hit); // dirty
        c.owned().access(stride, false);
        let r = c.owned().access(2 * stride, false); // evicts addr 0 (dirty LRU)
        assert!(r.writeback);
    }

    #[test]
    fn flush_counts_and_cleans() {
        let c = L2Cache::new(1 << 16, 8);
        c.owned().access(0, true);
        c.owned().access(64, true);
        c.owned().access(128, false);
        assert_eq!(c.owned().flush_dirty(), 2);
        assert_eq!(c.owned().flush_dirty(), 0);
        // Still resident after flush.
        assert!(c.owned().access(0, false).hit);
    }

    #[test]
    fn invalidate_clears() {
        let c = L2Cache::new(1 << 16, 8);
        c.owned().access(0, true);
        c.invalidate();
        assert!(!c.owned().access(0, false).hit);
        // The dirty pre-invalidate fill must not write back or flush.
        assert_eq!(c.owned().flush_dirty(), 0);
    }

    #[test]
    fn invalidate_discards_dirty_data_without_writeback() {
        let c = L2Cache::new(256, 2);
        let stride = c.capacity_bytes() / 2;
        c.owned().access(0, true);
        c.owned().access(stride, true);
        c.invalidate();
        // Refilling the set evicts only stale ways: no writebacks.
        assert!(!c.owned().access(0, false).writeback);
        assert!(!c.owned().access(stride, false).writeback);
        assert!(!c.owned().access(2 * stride, false).hit);
    }

    #[test]
    fn repeated_invalidate_generations_stay_distinct() {
        let c = L2Cache::new(1 << 12, 4);
        for round in 0..5 {
            assert!(
                !c.owned().access(0x40, true).hit,
                "round {round}: must be cold"
            );
            assert!(c.owned().access(0x40, false).hit);
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
            .map(|&s| scalar.owned().access(s * SECTOR_BYTES, false))
            .collect();
        let batched = L2Cache::new(1 << 12, 2);
        let mut got = Vec::new();
        batched
            .owned()
            .access_batch(seq.iter().copied(), false, |r| got.push(r));
        assert_eq!(got, want);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let c = L2Cache::new(1 << 12, 2);
        let mut calls = 0;
        c.owned()
            .access_batch(std::iter::empty(), true, |_| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(c.owned().flush_dirty(), 0);
    }

    #[test]
    fn streaming_larger_than_cache_always_misses_on_second_pass() {
        let c = L2Cache::new(1 << 12, 4); // 4 KB
        let n = 1 << 14; // 16 KB of data
        let mut misses = 0;
        for pass in 0..2 {
            for addr in (0..n).step_by(32) {
                if !c.owned().access(addr, false).hit {
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
            c.owned().access(addr, false);
        }
        for addr in (0..n).step_by(32) {
            assert!(
                c.owned().access(addr, false).hit,
                "addr {addr} not resident"
            );
        }
    }
}
