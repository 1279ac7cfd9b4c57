//! Bounded MPMC request queue with blocking and non-blocking admission.
//!
//! Built on `std::sync::{Mutex, Condvar}`. Two admission paths implement
//! the engine's two load-control policies:
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
//! doc), and [`BoundedQueue::pop_batch`] lets each worker pop only
//! requests or sub-tasks pinned to its device — together with the
//! head's batch mates, under one lock — staying parked after close
//! while a fan-out is still in flight.

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
        // (`pop_batch`), so a single wakeup could land on a worker
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

    /// Dequeues a batch in one critical section: the oldest item
    /// matching `pred` (the head), then up to `max - 1` later items that
    /// `mate(&head, item)` accepts, head first and FIFO among the mates;
    /// everything else keeps its order. Blocks while nothing matches
    /// `pred`. Returns `None` once the queue is closed, no match remains,
    /// *and* no fan-out is in flight — an in-flight fan-out may still
    /// enqueue shard sub-tasks this popper is pinned to.
    ///
    /// Taking the mates under the head's lock is what keeps a batch
    /// whole: no other popper can take a mate between the two.
    pub fn pop_batch(
        &self,
        max: usize,
        pred: impl Fn(&T) -> bool,
        mate: impl Fn(&T, &T) -> bool,
    ) -> Option<Vec<T>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(i) = g.items.iter().position(&pred) {
                let mut batch = vec![g.items.remove(i).unwrap()];
                let mut j = i;
                while j < g.items.len() && batch.len() < max {
                    if mate(&batch[0], &g.items[j]) {
                        batch.push(g.items.remove(j).unwrap());
                    } else {
                        j += 1;
                    }
                }
                drop(g);
                self.not_full.notify_all();
                return Some(batch);
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

    /// Pops the oldest item alone — the unfiltered pop the admission
    /// tests need.
    fn pop(q: &BoundedQueue<i32>) -> Option<i32> {
        q.pop_batch(1, |_| true, |_, _| false).map(|b| b[0])
    }

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(
            q.try_push(3).unwrap_err(),
            RtError::QueueFull { capacity: 2 }
        );
        assert_eq!(pop(&q), Some(1));
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
        assert_eq!(pop(&q), Some(10));
        assert_eq!(pop(&q), Some(11));
        assert_eq!(pop(&q), None);
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
            assert_eq!(pop(&q), Some(1));
            // The blocked push completes and the item arrives.
            assert_eq!(pop(&q), Some(2));
        });
    }

    #[test]
    fn pop_blocks_until_item_or_close() {
        let q = BoundedQueue::new(4);
        thread::scope(|s| {
            let h = s.spawn(|| pop(&q));
            thread::sleep(Duration::from_millis(20));
            q.push(7).unwrap();
            assert_eq!(h.join().unwrap(), Some(7));
            let h = s.spawn(|| pop(&q));
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn pop_batch_skips_non_matching_and_respects_inflight() {
        let q = BoundedQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        // Takes the first even item, leaving the rest in order.
        assert_eq!(q.pop_batch(1, |v| v % 2 == 0, |_, _| true), Some(vec![2]));
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(3));

        // Closed + empty + an in-flight fan-out: the popper must block
        // (sub-tasks may still arrive), then drain them after they land.
        q.inflight_inc();
        q.close();
        let even = |v: &i32| v % 2 == 0;
        thread::scope(|s| {
            let h = s.spawn(|| q.pop_batch(4, even, |_, _| false));
            thread::sleep(Duration::from_millis(20));
            q.push_all_internal([4]);
            assert_eq!(h.join().unwrap(), Some(vec![4]));
            let h = s.spawn(|| q.pop_batch(4, even, |_, _| false));
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
        assert_eq!(pop(&q), Some(10));
        assert_eq!(pop(&q), Some(20));
        assert_eq!(pop(&q), Some(21));
        assert_eq!(pop(&q), None);
    }

    #[test]
    fn pop_batch_takes_later_mates_in_order_up_to_max() {
        let q = BoundedQueue::new(8);
        for v in [1, 2, 3, 4, 5, 6, 7] {
            q.push(v).unwrap();
        }
        let same_parity = |h: &i32, v: &i32| h % 2 == v % 2;
        // Head 3 (first >= 3), then odd mates after it, capped at 3.
        assert_eq!(
            q.pop_batch(3, |v| *v >= 3, same_parity),
            Some(vec![3, 5, 7])
        );
        // Head 2, one mate allowed: 4; 6 stays queued.
        assert_eq!(
            q.pop_batch(2, |v| v % 2 == 0, same_parity),
            Some(vec![2, 4])
        );
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(6));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn concurrent_poppers_never_split_a_batch() {
        // Two poppers race for a queue of same-key items: each batch
        // is taken whole under one lock, so one popper gets all of them
        // and the other gets none.
        for _ in 0..50 {
            let q = BoundedQueue::new(8);
            for v in [10, 11, 12, 13] {
                q.push(v).unwrap();
            }
            q.close();
            let batches: Vec<Option<Vec<i32>>> = thread::scope(|s| {
                let hs: Vec<_> = (0..2)
                    .map(|_| s.spawn(|| q.pop_batch(8, |_| true, |_, _| true)))
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut sizes: Vec<usize> = batches
                .iter()
                .map(|b| b.as_ref().map_or(0, Vec::len))
                .collect();
            sizes.sort_unstable();
            assert_eq!(sizes, vec![0, 4]);
        }
    }
}
