//! Bounded MPMC request queue with blocking and non-blocking admission.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the workspace's `parking_lot`
//! shim has no condvar). Two admission paths implement the engine's two
//! load-control policies:
//!
//! * [`BoundedQueue::push`] **blocks** the submitter while the queue is
//!   full — backpressure propagates to the client.
//! * [`BoundedQueue::try_push`] **fails fast** with
//!   [`RtError::QueueFull`] — load is shed at admission.
//!
//! Closing the queue wakes everyone: pending pushes fail with
//! [`RtError::EngineShutdown`], pops drain the remaining items and then
//! return `None`.
//!
//! Row-sharded dispatch adds two internal paths on top of admission:
//! [`BoundedQueue::push_all_internal`] enqueues shard sub-tasks for an
//! already-admitted request (exempt from capacity and close — see its
//! doc), and [`BoundedQueue::pop_matching`] lets each worker pop only
//! requests or sub-tasks pinned to its device, staying parked after
//! close while a fan-out is still in flight.

use rt_core::RtError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark of the queue depth (an engine-report gauge).
    /// Counts internal shard sub-tasks as well as admitted requests.
    max_depth: usize,
    /// Fan-outs currently in flight (created but not yet fully drained).
    /// While nonzero, matching pops keep blocking after close instead of
    /// returning `None` — a worker must not exit while shard sub-tasks
    /// for its device may still be enqueued.
    inflight: usize,
}

pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                max_depth: 0,
                inflight: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues, blocking while the queue is at capacity (backpressure).
    pub fn push(&self, item: T) -> Result<(), RtError> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(RtError::EngineShutdown);
            }
            if g.items.len() < self.capacity {
                break;
            }
            g = self.not_full.wait(g).unwrap();
        }
        g.items.push_back(item);
        g.max_depth = g.max_depth.max(g.items.len());
        drop(g);
        // notify_all, not notify_one: poppers are *selective*
        // (`pop_matching`), so a single wakeup could land on a worker
        // whose predicate rejects the new item — e.g. a drained device
        // refusing requests — which would re-sleep and strand the item.
        self.not_empty.notify_all();
        Ok(())
    }

    /// Enqueues or fails immediately — [`RtError::QueueFull`] at
    /// capacity, [`RtError::EngineShutdown`] after close.
    pub fn try_push(&self, item: T) -> Result<(), RtError> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(RtError::EngineShutdown);
        }
        if g.items.len() >= self.capacity {
            return Err(RtError::QueueFull {
                capacity: self.capacity,
            });
        }
        g.items.push_back(item);
        g.max_depth = g.max_depth.max(g.items.len());
        drop(g);
        // Same selective-popper rationale as `push`.
        self.not_empty.notify_all();
        Ok(())
    }

    /// Enqueues continuation work (shard sub-tasks) for requests that are
    /// already admitted: exempt from both the capacity bound and the
    /// closed flag. Capacity exemption keeps fan-out deadlock-free (every
    /// worker could otherwise block pushing sub-tasks into a queue only
    /// workers drain); close exemption preserves the drain guarantee
    /// (queued requests popped after shutdown still fan out and
    /// complete). The item count is bounded by in-flight fan-outs, which
    /// the bounded *request* admission already limits.
    pub fn push_all_internal(&self, items: impl IntoIterator<Item = T>) {
        let mut g = self.inner.lock().unwrap();
        for item in items {
            g.items.push_back(item);
        }
        g.max_depth = g.max_depth.max(g.items.len());
        drop(g);
        self.not_empty.notify_all();
    }

    /// Dequeues the oldest item matching `pred` (FIFO among matches; the
    /// rest keep their order), blocking while none matches. Returns
    /// `None` once the queue is closed, no match remains, *and* no
    /// fan-out is in flight — an in-flight fan-out may still enqueue
    /// shard sub-tasks this popper is pinned to.
    pub fn pop_matching(&self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(i) = g.items.iter().position(&pred) {
                let item = g.items.remove(i).unwrap();
                drop(g);
                self.not_full.notify_all();
                return Some(item);
            }
            if g.closed && g.inflight == 0 {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Registers a fan-out whose shard sub-tasks may still be enqueued.
    pub fn inflight_inc(&self) {
        self.inner.lock().unwrap().inflight += 1;
    }

    /// Retires a fan-out; wakes blocked poppers so workers can re-check
    /// their exit condition once the last fan-out drains after close.
    /// Before close no popper waits on the in-flight count, so a fan-out
    /// that queued nothing retires without waking anyone.
    pub fn inflight_dec(&self) {
        let mut g = self.inner.lock().unwrap();
        g.inflight -= 1;
        let wake = g.inflight == 0 && g.closed;
        drop(g);
        if wake {
            self.not_empty.notify_all();
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    #[cfg(test)]
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_all();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Removes up to `max` queued items matching `pred`, preserving FIFO
    /// order among both the taken and the remaining items. Non-blocking —
    /// this is how a worker gathers batch mates for the request it just
    /// popped.
    pub fn drain_matching(&self, max: usize, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut g = self.inner.lock().unwrap();
        let mut taken = Vec::new();
        let mut i = 0;
        while i < g.items.len() && taken.len() < max {
            if pred(&g.items[i]) {
                taken.push(g.items.remove(i).unwrap());
            } else {
                i += 1;
            }
        }
        drop(g);
        if !taken.is_empty() {
            self.not_full.notify_all();
        }
        taken
    }

    /// Closes the queue: pending and future pushes fail, pops drain what
    /// remains and then return `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    pub fn max_depth(&self) -> usize {
        self.inner.lock().unwrap().max_depth
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(
            q.try_push(3).unwrap_err(),
            RtError::QueueFull { capacity: 2 }
        );
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(10).unwrap();
        q.push(11).unwrap();
        q.close();
        assert_eq!(q.push(12).unwrap_err(), RtError::EngineShutdown);
        assert_eq!(q.try_push(12).unwrap_err(), RtError::EngineShutdown);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_blocks_until_space() {
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        thread::scope(|s| {
            s.spawn(|| {
                // Blocks until the main thread pops.
                q.push(2).unwrap();
            });
            thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop(), Some(1));
            // The blocked push completes and the item arrives.
            assert_eq!(q.pop(), Some(2));
        });
    }

    #[test]
    fn pop_blocks_until_item_or_close() {
        let q = BoundedQueue::new(4);
        thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            thread::sleep(Duration::from_millis(20));
            q.push(7).unwrap();
            assert_eq!(h.join().unwrap(), Some(7));
            let h = s.spawn(|| q.pop());
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn pop_matching_skips_non_matching_and_respects_inflight() {
        let q = BoundedQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        // Takes the first even item, leaving the rest in order.
        assert_eq!(q.pop_matching(|v| v % 2 == 0), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));

        // Closed + empty + an in-flight fan-out: the popper must block
        // (sub-tasks may still arrive), then drain them after they land.
        q.inflight_inc();
        q.close();
        thread::scope(|s| {
            let h = s.spawn(|| q.pop_matching(|v| v % 2 == 0));
            thread::sleep(Duration::from_millis(20));
            q.push_all_internal([4]);
            assert_eq!(h.join().unwrap(), Some(4));
            let h = s.spawn(|| q.pop_matching(|v| v % 2 == 0));
            thread::sleep(Duration::from_millis(20));
            // Retiring the last fan-out releases the blocked popper.
            q.inflight_dec();
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn push_all_internal_ignores_capacity_and_close() {
        let q = BoundedQueue::new(1);
        q.push(10).unwrap();
        q.close();
        assert_eq!(q.try_push(11).unwrap_err(), RtError::EngineShutdown);
        q.push_all_internal([20, 21]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.max_depth(), 3);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(21));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_matching_preserves_order() {
        let q = BoundedQueue::new(8);
        for v in [1, 2, 3, 4, 5, 6] {
            q.push(v).unwrap();
        }
        let even = q.drain_matching(2, |v| v % 2 == 0);
        assert_eq!(even, vec![2, 4]);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), Some(6));
    }
}
