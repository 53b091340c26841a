//! # klotski-parallel
//!
//! A reusable scoped worker pool built directly on `std::thread` /
//! `std::sync` (no external dependencies). Satisfiability checking routes
//! the full demand matrix per planner expansion, and per-destination groups
//! are embarrassingly parallel — this crate provides the substrate: a pool
//! of persistent worker threads draining a chunked work queue, with the
//! calling thread participating as lane 0.
//!
//! Design:
//!
//! - **Persistent threads.** `WorkerPool::new(n)` spawns `n - 1` workers
//!   once; each `run` wakes them through a condvar instead of re-spawning.
//!   `n == 1` spawns nothing and executes inline, byte-identical to a
//!   sequential call.
//! - **Chunked work queue.** Tasks are claimed from an atomic counter, so
//!   fast lanes steal the tail from slow ones. Task *results* must not
//!   depend on which lane ran them — callers that need determinism write
//!   per-task output slots and merge in task order afterwards.
//! - **Scoped jobs.** Closures may borrow the caller's stack: `run` erases
//!   the closure lifetime behind a raw pointer but never returns before
//!   every worker has finished the epoch, so the borrow cannot dangle.
//! - **Panic propagation.** A panicking task poisons the epoch; `run`
//!   re-panics on the calling thread after all lanes have stopped.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The erased job a worker runs for one epoch: `f(lane)` where `lane` is in
/// `1..lanes`. The pointee lives on the stack of the `run` caller, which
/// blocks until every worker finishes — see `WorkerPool::run`.
#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` and outlives every access (the caller of
// `run` waits for all workers before the referent leaves scope).
unsafe impl Send for RawJob {}

struct PoolState {
    job: Option<RawJob>,
    /// Bumped per `run`; workers match it to detect fresh work.
    epoch: u64,
    /// Workers still running the current epoch's job.
    active: usize,
    /// Set when any worker's job panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A pool of persistent worker threads plus the calling thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `lanes` total execution lanes: the calling
    /// thread plus `lanes - 1` persistent workers. `lanes` is clamped to at
    /// least 1; with one lane no threads are spawned and `run` executes
    /// inline.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("klotski-worker-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// A reference-counted pool with `lanes` lanes, for callers that share
    /// one pool across many jobs (every `run` epoch is independent, so a
    /// pool outliving any single job is safe by construction).
    pub fn shared(lanes: usize) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::new(lanes))
    }

    /// Total execution lanes (workers + the calling thread).
    pub fn lanes(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `tasks` independent tasks across all lanes and returns when
    /// every task has finished. `f(lane, task)` is called exactly once per
    /// `task` in `0..tasks`; `lane` is in `0..lanes()` and identifies which
    /// execution lane ran it (lane 0 is the calling thread). Tasks are
    /// claimed dynamically, so per-lane task sets vary run-to-run — results
    /// must be written to per-task locations, not accumulated per lane, if
    /// determinism matters.
    ///
    /// Panics (on the calling thread) if any task panicked.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        if self.workers.is_empty() || tasks == 1 {
            for task in 0..tasks {
                f(0, task);
            }
            return;
        }

        let next = AtomicUsize::new(0);
        let job = |lane: usize| loop {
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= tasks {
                break;
            }
            f(lane, task);
        };

        // Publish the job. SAFETY: we erase the closure's lifetime, but the
        // wait loop below keeps this stack frame alive until every worker
        // has dropped out of the epoch.
        let job_ref: &(dyn Fn(usize) + Sync) = &job;
        let raw = RawJob(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job_ref as *const _)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(raw);
            st.epoch += 1;
            st.active = self.workers.len();
            st.panicked = false;
        }
        self.shared.work_cv.notify_all();

        // Participate as lane 0. Catch panics so workers are always waited
        // for before unwinding out of this frame.
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));

        let worker_panicked = {
            let mut st = self.shared.state.lock().unwrap();
            while st.active > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
            st.job = None;
            st.panicked
        };

        match caller {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("worker pool task panicked"),
            Ok(()) => {}
        }
    }

    /// Like [`run`](Self::run), but hands each lane exclusive access to its
    /// own scratch slot and each task exclusive access to its own output
    /// slot: task `t` runs as `f(&mut scratch[lane], t, &mut out[t])`.
    /// `scratch` must provide at least [`lanes()`](Self::lanes) slots. This
    /// is the shape of deterministic parallel routing — per-lane reusable
    /// scratch engines, per-task output buffers merged in task order
    /// afterwards, so the result is independent of the lane assignment.
    pub fn run_scratch_tasks_into<S, T, F>(&self, scratch: &mut [S], out: &mut [T], f: F)
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize, &mut T) + Sync,
    {
        assert!(
            scratch.len() >= self.lanes(),
            "scratch slots ({}) < pool lanes ({})",
            scratch.len(),
            self.lanes()
        );
        let tasks = out.len();
        let sbase = SharedPtr(scratch.as_mut_ptr());
        let obase = SharedPtr(out.as_mut_ptr());
        self.run(tasks, |lane, task| {
            // SAFETY: lane indices are exclusive to one thread at a time and
            // task indices are handed out exactly once, so neither `&mut`
            // aliases.
            let s = unsafe { &mut *sbase.get().add(lane) };
            let o = unsafe { &mut *obase.get().add(task) };
            f(s, task, o);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(RawJob(ptr)) = st.job {
                        seen_epoch = st.epoch;
                        break ptr;
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: the publisher of `job` blocks in `run` until this lane
        // decrements `active` below, so the referent is alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(lane) }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A raw pointer that asserts cross-thread shareability. Used to hand
/// disjoint `&mut` slots of one slice to different lanes/tasks.
struct SharedPtr<T>(*mut T);

impl<T> SharedPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: callers guarantee disjoint access per lane/task (see call sites).
unsafe impl<T: Send> Send for SharedPtr<T> {}
unsafe impl<T: Send> Sync for SharedPtr<T> {}

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
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let end = total * (i + 1) / chunks;
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn pool_is_reusable_across_epochs() {
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
        // The pool must stay usable after a panicked epoch.
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
