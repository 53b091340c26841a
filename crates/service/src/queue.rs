//! A bounded MPMC job queue with backpressure.
//!
//! Producers (connection threads) never block: [`BoundedQueue::try_push`]
//! fails immediately when the queue is at capacity, which the HTTP layer
//! turns into `503 Service Unavailable` + `Retry-After`. Consumers (worker
//! threads) block on a condvar until an item arrives or the queue is
//! closed. Closing stops admission but lets consumers drain what is
//! already queued — the graceful-shutdown contract.

use crate::{locked, recover};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; retry later.
    Full(T),
    /// The queue no longer admits work (shutdown in progress).
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A Mutex+Condvar bounded MPMC queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        locked(&self.inner).items.len()
    }

    /// Non-blocking push; fails with [`PushError::Full`] at capacity and
    /// [`PushError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = locked(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop. Returns `None` only once the queue is closed *and*
    /// fully drained, so workers always finish admitted jobs.
    pub fn pop(&self) -> Option<T> {
        let mut inner = locked(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = recover(self.not_empty.wait(inner));
        }
    }

    /// Stops admission; queued items remain poppable. Idempotent.
    pub fn close(&self) {
        let mut inner = locked(&self.inner);
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_waiting_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_items() {
        let q = Arc::new(BoundedQueue::new(16));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let v = p * 1000 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u32> = (0..4u32)
            .flat_map(|p| (0..100u32).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
