//! Bounded job queue with explicit backpressure.
//!
//! One FIFO holds at most `capacity` queued jobs. A full queue refuses the
//! push — the server answers with a REJECTED frame (HTTP 429) instead of
//! buffering unboundedly, so memory under overload is capped by
//! construction and clients get an honest retry signal. Executors block
//! on a condvar while the queue is empty.
//!
//! Cancellation is logical, not physical: a cancelled job's id stays
//! queued and the executor that eventually pops it discards it (its
//! `JobTable::claim` fails).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity: backpressure, retry later.
    Full,
    /// The queue is closed (server draining); no new work is accepted.
    Closed,
}

/// The queued items and the closed flag, under one lock.
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO of job ids.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            ready: Condvar::new(),
        }
    }

    /// Recovers the state from a poisoned lock: every update to it is a
    /// single statement and cannot be observed torn.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Maximum queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` at the back.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the queue is at capacity (backpressure);
    /// [`PushError::Closed`] once [`close`](Self::close) was called.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        {
            let mut state = self.lock();
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.items.len() >= self.capacity {
                return Err(PushError::Full);
            }
            state.items.push_back(item);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the front item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked poppers return `None` once empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn capacity_bounds_the_whole_queue_whatever_the_ids() {
        // Repeated, consecutive and widely spaced ids: the bound is on the
        // queue, never on a subset of ids.
        for ids in [[7u64; 5], [0, 1, 2, 3, 4], [0, 64, 128, 192, 256]] {
            let q = BoundedQueue::new(4);
            assert_eq!(q.capacity(), 4);
            for &id in &ids[..4] {
                assert_eq!(q.push(id), Ok(()), "{ids:?}: push {id} under capacity");
            }
            assert_eq!(
                q.push(ids[4]),
                Err(PushError::Full),
                "{ids:?}: the fifth push into a capacity-4 queue must be refused"
            );
            assert_eq!(q.len(), 4);
        }
    }

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5u64 {
            q.push(i).expect("push");
        }
        for i in 0..5u64 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = BoundedQueue::new(8);
        q.push(1u64).expect("push");
        q.close();
        assert_eq!(q.push(2), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1), "queued work still drains after close");
        assert_eq!(q.pop(), None, "closed and empty");
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::<u64>::new(16));
        let seen = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    while q.pop().is_some() {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut pushed = 0usize;
                    for i in 0..500u64 {
                        // Retry on Full: consumers are draining concurrently.
                        loop {
                            match q.push(p * 1_000 + i) {
                                Ok(()) => {
                                    pushed += 1;
                                    break;
                                }
                                Err(PushError::Full) => std::thread::yield_now(),
                                Err(PushError::Closed) => unreachable!(),
                            }
                        }
                    }
                    pushed
                })
            })
            .collect();
        let total: usize = producers
            .into_iter()
            .map(|p| p.join().expect("producer"))
            .sum();
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        for c in consumers {
            c.join().expect("consumer");
        }
        assert_eq!(seen.load(Ordering::Relaxed), total);
        assert!(q.is_empty());
    }
}
