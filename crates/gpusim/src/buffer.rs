//! Device buffers.
//!
//! [`DeviceBuffer`] is read-only input data (matrix arrays, input vector);
//! [`DeviceOutBuffer`] is writable output storage backed by atomic cells,
//! so a `Gpu` shared across threads stays data-race-free *by
//! construction*. That includes the float `fetch_add` behind the
//! GPU-baseline kernel's `atomicAdd`. On hardware that kernel's sum
//! depends on the order the atomics land in — the paper's
//! bitwise-non-reproducibility observation. That order dependence is
//! stated, not simulated: a launch runs its warps in order, so the
//! simulated sum follows launch order, and the simulator models the
//! atomics' traffic and counts.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Read-only data resident in simulated global memory.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    base: u64,
    data: Vec<T>,
}

impl<T: Copy> DeviceBuffer<T> {
    pub(crate) fn new(base: u64, data: Vec<T>) -> Self {
        DeviceBuffer { base, data }
    }

    /// Simulated global-memory base address.
    #[inline]
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Byte address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx * core::mem::size_of::<T>()) as u64
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Size of the payload in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<T>()
    }

    /// Overwrites the payload in place ("cudaMemcpy H2D" into an existing
    /// allocation): the buffer keeps its base address, so a launch that
    /// reads it again touches the same sectors.
    ///
    /// # Panics
    ///
    /// If `data` is not exactly [`DeviceBuffer::len`] elements long.
    pub fn refill(&mut self, data: &[T]) {
        self.data.copy_from_slice(data);
    }
}

/// A scalar type that can live in an output buffer: it round-trips
/// through an atomic bit cell.
pub trait OutScalar: Copy + Send + Sync + 'static {
    #[doc(hidden)]
    type Atomic: Send + Sync;

    #[doc(hidden)]
    fn new_cell(v: Self) -> Self::Atomic;
    #[doc(hidden)]
    fn load_cell(cell: &Self::Atomic) -> Self;
    #[doc(hidden)]
    fn store_cell(cell: &Self::Atomic, v: Self);
    /// Atomic floating-point add (CAS loop, like CUDA's `atomicAdd` on
    /// hardware without a native FP64 atomic unit). Returns the previous
    /// value.
    #[doc(hidden)]
    fn fetch_add_cell(cell: &Self::Atomic, v: Self) -> Self;
}

impl OutScalar for f64 {
    type Atomic = AtomicU64;

    fn new_cell(v: Self) -> AtomicU64 {
        AtomicU64::new(v.to_bits())
    }
    fn load_cell(cell: &AtomicU64) -> f64 {
        f64::from_bits(cell.load(Ordering::Relaxed))
    }
    fn store_cell(cell: &AtomicU64, v: f64) {
        cell.store(v.to_bits(), Ordering::Relaxed);
    }
    fn fetch_add_cell(cell: &AtomicU64, v: f64) -> f64 {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

impl OutScalar for f32 {
    type Atomic = AtomicU32;

    fn new_cell(v: Self) -> AtomicU32 {
        AtomicU32::new(v.to_bits())
    }
    fn load_cell(cell: &AtomicU32) -> f32 {
        f32::from_bits(cell.load(Ordering::Relaxed))
    }
    fn store_cell(cell: &AtomicU32, v: f32) {
        cell.store(v.to_bits(), Ordering::Relaxed);
    }
    fn fetch_add_cell(cell: &AtomicU32, v: f32) -> f32 {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f32::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Writable output storage in simulated global memory.
pub struct DeviceOutBuffer<T: OutScalar> {
    base: u64,
    cells: Vec<T::Atomic>,
}

impl<T: OutScalar + Default> DeviceOutBuffer<T> {
    pub(crate) fn new_zeroed(base: u64, len: usize) -> Self {
        DeviceOutBuffer {
            base,
            cells: (0..len).map(|_| T::new_cell(T::default())).collect(),
        }
    }
}

impl<T: OutScalar> DeviceOutBuffer<T> {
    #[inline]
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx * core::mem::size_of::<T>()) as u64
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Untraced host-side read of one element.
    #[inline]
    pub fn get(&self, idx: usize) -> T {
        T::load_cell(&self.cells[idx])
    }

    /// Untraced host-side write of one element.
    #[inline]
    pub fn set(&self, idx: usize, v: T) {
        T::store_cell(&self.cells[idx], v);
    }

    /// Untraced device-side store (the executor's traced path calls this
    /// after recording the transaction).
    #[inline]
    pub(crate) fn raw_store(&self, idx: usize, v: T) {
        T::store_cell(&self.cells[idx], v);
    }

    #[inline]
    pub(crate) fn raw_fetch_add(&self, idx: usize, v: T) -> T {
        T::fetch_add_cell(&self.cells[idx], v)
    }

    /// Copies the contents back to the host ("cudaMemcpy D2H").
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(|c| T::load_cell(c)).collect()
    }

    /// Zeroes the buffer (untraced host-side reset between launches).
    pub fn clear(&self)
    where
        T: Default,
    {
        for c in &self.cells {
            T::store_cell(c, T::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_contiguous() {
        let b = DeviceBuffer::new(1024, vec![0f64; 8]);
        assert_eq!(b.addr_of(0), 1024);
        assert_eq!(b.addr_of(3), 1024 + 24);
        assert_eq!(b.size_bytes(), 64);
    }

    #[test]
    fn refill_keeps_the_address() {
        let mut b = DeviceBuffer::new(4096, vec![1.0f64, 2.0]);
        b.refill(&[3.0, 4.0]);
        assert_eq!(b.as_slice(), &[3.0, 4.0]);
        assert_eq!(b.base_addr(), 4096);
    }

    #[test]
    fn out_buffer_roundtrip() {
        let b = DeviceOutBuffer::<f64>::new_zeroed(0, 4);
        assert_eq!(b.to_vec(), vec![0.0; 4]);
        b.set(2, 3.5);
        assert_eq!(b.get(2), 3.5);
        b.clear();
        assert_eq!(b.get(2), 0.0);
    }

    #[test]
    fn fetch_add_accumulates() {
        let b = DeviceOutBuffer::<f64>::new_zeroed(0, 1);
        for _ in 0..10 {
            b.raw_fetch_add(0, 0.5);
        }
        assert_eq!(b.get(0), 5.0);
    }

    #[test]
    fn fetch_add_is_atomic_under_contention() {
        let b = DeviceOutBuffer::<f64>::new_zeroed(0, 1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        b.raw_fetch_add(0, 1.0);
                    }
                });
            }
        });
        // Integer-valued adds are exact in f64 up to 2^53: no updates may
        // be lost.
        assert_eq!(b.get(0), 80_000.0);
    }

    #[test]
    fn f32_out_buffer() {
        let b = DeviceOutBuffer::<f32>::new_zeroed(64, 2);
        b.raw_store(1, 1.5f32);
        assert_eq!(b.get(1), 1.5);
        assert_eq!(b.addr_of(1), 68);
    }
}
