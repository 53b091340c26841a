//! The job board. Every accepted submission becomes a [`Job`] that
//! connection threads wait on or poll; the [`JobTable`] indexes them by id
//! (a bounded history, for pollers) and by singleflight slot (live jobs
//! only, for coalescing). A job goes `Queued → Running → Settled`, and the
//! board owns both ends: [`JobTable::admit`] and [`JobTable::settle`].

use crate::pipeline::PlanArtifact;
use crate::{locked, recover};
use klotski_controller::ControllerReport;
use klotski_npd::api::JobState;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// `(npd_digest, options_digest)`: what a plan/audit computes, and so the
/// key of the plan cache, the journal and the singleflight index alike.
pub type JobKey = (u64, u64);

/// What kind of work a job carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// `POST /v1/plan`: respond with the plan-attached NPD bytes.
    Plan,
    /// `POST /v1/audit`: respond with the summary + safety audit.
    Audit,
    /// `POST /v1/run`: execute a scripted controller scenario.
    Run,
}

impl JobKind {
    /// Wire label used in job status responses.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Plan => "plan",
            JobKind::Audit => "audit",
            JobKind::Run => "run",
        }
    }
}

/// A finished controller run: the full report plus its JSON, serialized
/// once at completion so every poller gets the same bytes.
#[derive(Debug)]
pub struct RunArtifact {
    /// The controller's full run trace.
    pub report: ControllerReport,
    /// `report` as pretty JSON, the `POST /v1/run` response body.
    pub json: Vec<u8>,
}

/// What a successfully finished job publishes.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Plan/audit pipeline artifact.
    Plan(Arc<PlanArtifact>),
    /// Controller run report.
    Run(Arc<RunArtifact>),
}

impl JobOutput {
    /// The plan artifact, when this is a plan/audit job.
    pub fn plan(&self) -> Option<&Arc<PlanArtifact>> {
        match self {
            JobOutput::Plan(a) => Some(a),
            JobOutput::Run(_) => None,
        }
    }
}

/// A terminal failure, carrying the HTTP status the serving layer should
/// answer with (422 infeasible/invalid, 504 deadline, 500 internal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// HTTP status code for this failure class.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

/// Internal lifecycle cell.
#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    Settled(Result<JobOutput, JobError>),
}

/// One accepted submission.
pub struct Job {
    /// Monotonic job id, also the `/v1/jobs/{id}` path segment.
    pub id: u64,
    /// Plan, audit or run.
    pub kind: JobKind,
    /// What the job computes; with `kind`, its singleflight slot. `None`
    /// for runs: executions, not pure functions of a document, never
    /// coalesce.
    pub key: Option<JobKey>,
    /// When the job was admitted (drives the end-to-end latency metric).
    pub admitted: Instant,
    /// Telemetry stream id: the worker tags its thread with this while the
    /// job runs, so `GET /v1/jobs/{id}/events` subscribers receive exactly
    /// this job's events from the process-global bus.
    pub stream: u64,
    phase: Mutex<Phase>,
    done: Condvar,
}

impl Job {
    fn new(id: u64, kind: JobKind, key: Option<JobKey>) -> Self {
        Self {
            id,
            kind,
            key,
            admitted: Instant::now(),
            stream: klotski_telemetry::bus().next_stream_id(),
            phase: Mutex::new(Phase::Queued),
            done: Condvar::new(),
        }
    }

    /// Marks the job running (worker picked it up).
    pub fn set_running(&self) {
        *locked(&self.phase) = Phase::Running;
    }

    /// Publishes the terminal outcome and wakes all waiters. Only
    /// [`JobTable::settle`] calls it, after releasing the job's slot.
    fn publish(&self, outcome: Result<JobOutput, JobError>) {
        *locked(&self.phase) = Phase::Settled(outcome);
        self.done.notify_all();
    }

    /// Current state, plus the outcome once settled, without blocking.
    pub fn status(&self) -> (JobState, Option<Result<JobOutput, JobError>>) {
        match &*locked(&self.phase) {
            Phase::Queued => (JobState::Queued, None),
            Phase::Running => (JobState::Running, None),
            Phase::Settled(Ok(o)) => (JobState::Done, Some(Ok(o.clone()))),
            Phase::Settled(Err(e)) => (JobState::Failed, Some(Err(e.clone()))),
        }
    }

    /// Blocks until the job settles or `timeout` passes. Returns `None` on
    /// timeout (the job keeps running; poll later).
    pub fn wait(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let deadline = Instant::now() + timeout;
        let mut phase = locked(&self.phase);
        loop {
            if let Phase::Settled(outcome) = &*phase {
                return Some(outcome.clone());
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, wait) = recover(self.done.wait_timeout(phase, remaining));
            phase = next;
            if wait.timed_out() {
                return match &*phase {
                    Phase::Settled(outcome) => Some(outcome.clone()),
                    _ => None,
                };
            }
        }
    }
}

/// What [`JobTable::admit`] made of a submission.
pub enum Admission {
    /// First of its slot (or keyless): a new job for the caller to enqueue.
    Leader(Arc<Job>),
    /// The slot is already being computed: the live job to follow.
    Follower(Arc<Job>),
}

/// A singleflight slot: the key plus the job kind. The kind is part of it
/// because a job's polled result is rendered by the job's own kind: an
/// audit must never follow a plan.
type Slot = (JobKey, JobKind);

/// Bounded registry of live and recently finished jobs, and the
/// singleflight index over the live ones.
pub struct JobTable {
    board: Mutex<Board>,
    capacity: usize,
}

struct Board {
    jobs: HashMap<u64, Arc<Job>>,
    order: VecDeque<u64>,
    next_id: u64,
    /// The job computing each slot, from its admission to its settlement.
    slots: HashMap<Slot, Arc<Job>>,
}

impl JobTable {
    /// A table remembering at most `capacity` jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            board: Mutex::new(Board {
                jobs: HashMap::new(),
                order: VecDeque::new(),
                next_id: 1,
                slots: HashMap::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Admits a submission: follows the live job of its `(key, kind)` slot
    /// if there is one, else registers a new job (evicting the oldest once
    /// over capacity) that leads the slot. Check and insert share one lock
    /// hold, so exactly one concurrent submission per slot leads. A keyless
    /// submission always leads and takes no slot.
    pub fn admit(&self, kind: JobKind, key: Option<JobKey>) -> Admission {
        let mut board = locked(&self.board);
        let slot = key.map(|key| (key, kind));
        if let Some(live) = slot.and_then(|slot| board.slots.get(&slot)) {
            return Admission::Follower(Arc::clone(live));
        }
        let id = board.next_id;
        board.next_id += 1;
        let job = Arc::new(Job::new(id, kind, key));
        board.jobs.insert(id, Arc::clone(&job));
        board.order.push_back(id);
        while board.order.len() > self.capacity {
            if let Some(old) = board.order.pop_front() {
                board.jobs.remove(&old);
            }
        }
        if let Some(slot) = slot {
            board.slots.insert(slot, Arc::clone(&job));
        }
        Admission::Leader(job)
    }

    /// Settles a job: releases its slot, then publishes `outcome` to every
    /// waiter. The release is guarded by pointer identity, so settling a
    /// job that no longer leads its slot never evicts the leader that
    /// replaced it; the board's lock is dropped before the job's is taken.
    pub fn settle(&self, job: &Arc<Job>, outcome: Result<JobOutput, JobError>) {
        if let Some(key) = job.key {
            let mut board = locked(&self.board);
            let slot = (key, job.kind);
            if board.slots.get(&slot).is_some_and(|j| Arc::ptr_eq(j, job)) {
                board.slots.remove(&slot);
            }
        }
        job.publish(outcome);
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        locked(&self.board).jobs.get(&id).cloned()
    }

    /// Slots currently led by a live job.
    #[cfg(test)]
    pub fn live_slots(&self) -> usize {
        locked(&self.board).slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::report::PlanAudit;
    use klotski_npd::api::PlanSummary;

    fn artifact() -> Arc<PlanArtifact> {
        Arc::new(PlanArtifact::new(
            PlanSummary {
                name: "t".into(),
                npd_digest: "0".into(),
                options_digest: "0".into(),
                planner: "klotski-a*".into(),
                cost: 1.0,
                phases: 1,
                steps: 1,
                states_visited: 1,
                states_generated: 1,
                states_pruned: 0,
                states_deduped: 0,
                sat_checks: 1,
                cache_hits: 0,
                full_evaluations: 1,
                incremental_clean: 0,
                incremental_dirty: 0,
                esc_entries: 0,
                esc_bytes: 0,
                satcheck_ms: 0,
                planning_ms: 0,
                ensemble_matrices: 0,
                ensemble_matrix_checks: 0,
                ensemble_short_circuits: 0,
                ensemble: vec![],
                cached: false,
            },
            b"{}".to_vec(),
            PlanAudit {
                migration: "t".into(),
                theta: 0.75,
                phases: vec![],
            },
        ))
    }

    fn leader(table: &JobTable, kind: JobKind, key: Option<JobKey>) -> Arc<Job> {
        match table.admit(kind, key) {
            Admission::Leader(job) => job,
            Admission::Follower(job) => panic!("followed job {} instead of leading", job.id),
        }
    }

    fn failure(status: u16, message: &str) -> Result<JobOutput, JobError> {
        Err(JobError {
            status,
            message: message.into(),
        })
    }

    #[test]
    fn lifecycle_transitions_publish_to_pollers() {
        let table = JobTable::new(8);
        let job = leader(&table, JobKind::Plan, Some((1, 2)));
        assert_eq!(job.status().0, JobState::Queued);
        job.set_running();
        assert_eq!(job.status().0, JobState::Running);
        table.settle(&job, Ok(JobOutput::Plan(artifact())));
        let (state, outcome) = job.status();
        assert_eq!(state, JobState::Done);
        assert!(outcome.is_some_and(|o| o.is_ok_and(|o| o.plan().is_some())));
    }

    #[test]
    fn wait_blocks_until_worker_publishes() {
        let table = Arc::new(JobTable::new(8));
        let job = leader(&table, JobKind::Audit, Some((1, 2)));
        let worker = {
            let (table, job) = (Arc::clone(&table), Arc::clone(&job));
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                table.settle(&job, failure(422, "infeasible"));
            })
        };
        let outcome = job.wait(Duration::from_secs(5)).expect("terminal");
        let err = outcome.unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.message, "infeasible");
        worker.join().unwrap();
    }

    #[test]
    fn wait_times_out_on_stuck_job() {
        let job = Job::new(2, JobKind::Plan, None);
        assert!(job.wait(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn table_evicts_oldest_beyond_capacity() {
        let table = JobTable::new(3);
        let ids: Vec<u64> = (0..5)
            .map(|_| leader(&table, JobKind::Run, None).id)
            .collect();
        // Ids are monotonic and unique; exactly the newest three remain.
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        let kept: Vec<bool> = ids.iter().map(|id| table.get(*id).is_some()).collect();
        assert_eq!(kept, [false, false, true, true, true]);
    }

    #[test]
    fn concurrent_admits_of_one_slot_yield_exactly_one_leader() {
        let table = JobTable::new(64);
        let barrier = std::sync::Barrier::new(8);
        let admissions: Vec<Admission> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        table.admit(JobKind::Plan, Some((7, 7)))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let leaders: Vec<u64> = admissions
            .iter()
            .filter_map(|a| match a {
                Admission::Leader(job) => Some(job.id),
                Admission::Follower(_) => None,
            })
            .collect();
        assert_eq!(leaders.len(), 1, "{leaders:?}");
        for admission in &admissions {
            let (Admission::Leader(job) | Admission::Follower(job)) = admission;
            assert_eq!(job.id, leaders[0], "every follower shares the leader's job");
        }
        assert_eq!(table.live_slots(), 1);
    }

    #[test]
    fn a_slot_is_a_key_and_a_kind_and_runs_take_none() {
        let table = JobTable::new(8);
        let plan = leader(&table, JobKind::Plan, Some((1, 2)));
        // The same document under the other kind leads its own job: a
        // polled result is rendered by the job's kind, so an audit that
        // followed a plan would be handed plan bytes.
        let audit = leader(&table, JobKind::Audit, Some((1, 2)));
        assert_ne!(plan.id, audit.id);
        assert_eq!(table.live_slots(), 2);
        assert!(matches!(
            table.admit(JobKind::Audit, Some((1, 2))),
            Admission::Follower(job) if job.id == audit.id
        ));
        // Keyless runs never enter the index, however many are live.
        let runs = [
            leader(&table, JobKind::Run, None),
            leader(&table, JobKind::Run, None),
        ];
        assert_ne!(runs[0].id, runs[1].id);
        assert_eq!(table.live_slots(), 2);
        table.settle(&runs[0], failure(422, "bad scenario"));
        assert_eq!(table.live_slots(), 2);
    }

    #[test]
    fn stale_settle_does_not_evict_the_replacement_leader() {
        let table = JobTable::new(8);
        let old = leader(&table, JobKind::Plan, Some((3, 4)));
        table.settle(&old, failure(500, "first"));
        let new = leader(&table, JobKind::Plan, Some((3, 4)));
        // The old job settling again finds the slot led by someone else.
        table.settle(&old, failure(500, "again"));
        assert_eq!(table.live_slots(), 1);
        assert!(matches!(
            table.admit(JobKind::Plan, Some((3, 4))),
            Admission::Follower(job) if job.id == new.id
        ));
    }

    #[test]
    fn a_waiter_woken_by_settle_leads_the_slot_it_readmits() {
        // Release precedes publish: whoever `settle` wakes — a follower
        // told `503`, a poller retrying at once — must never find the dead
        // job still leading the slot and follow it.
        let table = JobTable::new(8);
        let first = leader(&table, JobKind::Plan, Some((5, 6)));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let outcome = first.wait(Duration::from_secs(30)).expect("settled");
                assert_eq!(outcome.unwrap_err().status, 503);
                table.admit(JobKind::Plan, Some((5, 6)))
            });
            table.settle(&first, failure(503, "queue full"));
            match waiter.join().unwrap() {
                Admission::Leader(job) => assert_ne!(job.id, first.id),
                Admission::Follower(job) => panic!("followed settled job {}", job.id),
            }
        });
    }
}
