//! # klotski-parallel
//!
//! Lanes for the incremental engine's destination advance, on
//! `std::thread::scope` (std only, all safe code). A [`WorkerPool`] is a lane
//! count: a call spawns up to `lanes − 1` named helpers, works as lane 0 on
//! the caller and joins every helper before it returns, so tasks may borrow
//! the caller's stack and no thread outlives a call. Lanes claim tasks one
//! at a time, so fast lanes take the tail; each task writes only its own
//! slot. One lane spawns nothing and runs the tasks inline, in order. A
//! panicking task re-panics on the caller once every lane has stopped.

use std::sync::{Arc, Mutex};

/// A lane count: the calling thread plus `lanes − 1` helpers per call.
#[derive(Debug)]
pub struct WorkerPool {
    lanes: usize,
}

impl WorkerPool {
    /// `lanes` execution lanes, clamped to at least 1.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        Self { lanes }
    }

    /// [`new`](Self::new) behind an `Arc`, for callers that hand one lane
    /// count to many jobs.
    pub fn shared(lanes: usize) -> Arc<Self> {
        Arc::new(Self::new(lanes))
    }

    /// Total execution lanes (helpers + the calling thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `f(lane, task)` once for every `task` in `0..tasks`; `lane` in
    /// `0..lanes()` names the lane that ran it (0 is the caller), which
    /// varies run to run.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let mut lanes: Vec<usize> = (0..self.lanes).collect();
        self.run_scratch_tasks_into(&mut lanes, &mut vec![(); tasks], |&mut l, t, _| f(l, t));
    }

    /// Like [`run`](Self::run), with exclusive slots: task `t` runs as
    /// `f(&mut scratch[lane], t, &mut out[t])`, and `scratch` holds at
    /// least [`lanes()`](Self::lanes) slots — reusable scratch per lane, one
    /// output per task, merged in task order afterwards.
    pub fn run_scratch_tasks_into<S, T, F>(&self, scratch: &mut [S], out: &mut [T], f: F)
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize, &mut T) + Sync,
    {
        assert!(scratch.len() >= self.lanes, "one scratch slot per lane");
        let lanes = self.lanes.min(out.len()).max(1);
        let tasks = Mutex::new(out.iter_mut().enumerate());
        // The claim drops the lock before the task runs.
        let claim = || tasks.lock().expect("no task runs under the lock").next();
        let drain = |s: &mut S| std::iter::from_fn(&claim).for_each(|(task, o)| f(s, task, o));
        let (caller, helpers) = scratch[..lanes].split_at_mut(1);
        std::thread::scope(|scope| {
            for (lane, s) in (1..).zip(helpers) {
                std::thread::Builder::new()
                    .name(format!("klotski-lane-{lane}"))
                    .spawn_scoped(scope, || drain(s))
                    .expect("failed to spawn a lane thread");
            }
            drain(&mut caller[0]);
        });
    }
}

/// The machine's available parallelism (≥ 1), memoized: callers gate
/// per-evaluation dispatch decisions on it, and the underlying
/// `available_parallelism` re-reads cgroup quota files on every call.
pub fn default_lanes() -> usize {
    static LANES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LANES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Splits `0..total` into at most `chunks` contiguous ranges of
/// near-equal size, in order. The split depends only on `total` and
/// `chunks`, never on thread scheduling.
pub fn chunk_ranges(total: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.clamp(1, total.max(1));
    (0..chunks)
        .map(|i| total * i / chunks..total * (i + 1) / chunks)
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn single_lane_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(), 1);
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        pool.run(17, |lane, task| {
            assert_eq!(lane, 0);
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(ran.fetch_add(1, Ordering::Relaxed), task, "in task order");
        });
        assert_eq!(ran.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.lanes(), 4);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, |_lane, task| {
            counts[task].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        for round in 1..=10u64 {
            pool.run(64, |_lane, task| {
                total.fetch_add(round * task as u64, Ordering::Relaxed);
            });
        }
        let per_round: u64 = (0..64u64).sum();
        let expect: u64 = (1..=10u64).map(|r| r * per_round).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn helpers_are_named_after_their_lane() {
        // Every lane blocks in its first task until all three have one, so
        // each lane runs exactly one task.
        let pool = WorkerPool::new(3);
        let barrier = std::sync::Barrier::new(3);
        let names = Mutex::new(Vec::new());
        pool.run(3, |lane, _task| {
            barrier.wait();
            let name = std::thread::current().name().map(str::to_owned);
            names.lock().unwrap().push((lane, name));
        });
        let mut names = names.into_inner().unwrap();
        names.sort();
        assert_eq!(names.len(), 3);
        for (lane, name) in &names[1..] {
            assert_eq!(
                name.as_deref(),
                Some(format!("klotski-lane-{lane}").as_str())
            );
        }
    }

    #[test]
    fn scratch_and_task_slots_compose() {
        let pool = WorkerPool::new(4);
        let mut scratch = vec![0usize; pool.lanes()];
        let mut out = vec![0usize; 300];
        pool.run_scratch_tasks_into(&mut scratch, &mut out, |s, task, o| {
            *s += 1;
            *o = task + 1;
        });
        assert_eq!(scratch.iter().sum::<usize>(), 300, "every task ran once");
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, |_lane, task| {
                if task == 63 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a call whose task panicked.
        let hits = AtomicUsize::new(0);
        pool.run(10, |_lane, _task| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 5, 64, 1000] {
            for chunks in [1usize, 2, 3, 7, 64] {
                let ranges = chunk_ranges(total, chunks);
                let mut covered = 0usize;
                let mut expect_start = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect_start);
                    assert!(r.end > r.start);
                    covered += r.len();
                    expect_start = r.end;
                }
                assert_eq!(covered, total);
                assert!(ranges.len() <= chunks.max(1));
            }
        }
    }

    #[test]
    fn default_lanes_is_positive() {
        assert!(default_lanes() >= 1);
    }
}
