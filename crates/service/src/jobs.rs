//! Job lifecycle tracking: every accepted submission becomes a [`Job`]
//! that connection threads can wait on (synchronous requests) or poll
//! (`GET /v1/jobs/{id}` after a `?wait=0` submission).
//!
//! A job's phase is a Mutex+Condvar cell; workers publish exactly one
//! terminal transition (`Done` or `Failed`), waking every waiter. The
//! [`JobTable`] keeps a bounded history of finished jobs so pollers can
//! fetch results after the fact without the table growing forever.

use crate::pipeline::PlanArtifact;
use klotski_controller::ControllerReport;
use klotski_npd::api::JobState;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    Done(JobOutput),
    Failed(JobError),
}

/// One accepted submission.
pub struct Job {
    /// Monotonic job id, also the `/v1/jobs/{id}` path segment.
    pub id: u64,
    /// Plan or audit.
    pub kind: JobKind,
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
    /// A freshly admitted job.
    pub fn new(id: u64, kind: JobKind) -> Self {
        Self {
            id,
            kind,
            admitted: Instant::now(),
            stream: klotski_telemetry::bus().next_stream_id(),
            phase: Mutex::new(Phase::Queued),
            done: Condvar::new(),
        }
    }

    /// Marks the job running (worker picked it up).
    pub fn set_running(&self) {
        *self.phase.lock().unwrap() = Phase::Running;
    }

    /// Publishes success and wakes all waiters.
    pub fn complete(&self, output: JobOutput) {
        *self.phase.lock().unwrap() = Phase::Done(output);
        self.done.notify_all();
    }

    /// Publishes failure and wakes all waiters.
    pub fn fail(&self, status: u16, message: impl Into<String>) {
        *self.phase.lock().unwrap() = Phase::Failed(JobError {
            status,
            message: message.into(),
        });
        self.done.notify_all();
    }

    /// Current state plus outcome, without blocking.
    pub fn status(&self) -> (JobState, Option<JobOutput>, Option<JobError>) {
        match &*self.phase.lock().unwrap() {
            Phase::Queued => (JobState::Queued, None, None),
            Phase::Running => (JobState::Running, None, None),
            Phase::Done(o) => (JobState::Done, Some(o.clone()), None),
            Phase::Failed(e) => (JobState::Failed, None, Some(e.clone())),
        }
    }

    /// Blocks until the job reaches a terminal state or `timeout` passes.
    /// Returns `None` on timeout (the job keeps running; poll later).
    pub fn wait(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let deadline = Instant::now() + timeout;
        let mut phase = self.phase.lock().unwrap();
        loop {
            match &*phase {
                Phase::Done(o) => return Some(Ok(o.clone())),
                Phase::Failed(e) => return Some(Err(e.clone())),
                _ => {}
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, timed_out) = self.done.wait_timeout(phase, remaining).unwrap();
            phase = next;
            if timed_out.timed_out() {
                match &*phase {
                    Phase::Done(o) => return Some(Ok(o.clone())),
                    Phase::Failed(e) => return Some(Err(e.clone())),
                    _ => return None,
                }
            }
        }
    }
}

/// Bounded registry of live and recently finished jobs.
pub struct JobTable {
    inner: Mutex<TableInner>,
    capacity: usize,
}

struct TableInner {
    jobs: HashMap<u64, Arc<Job>>,
    order: VecDeque<u64>,
    next_id: u64,
}

impl JobTable {
    /// A table remembering at most `capacity` jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(TableInner {
                jobs: HashMap::new(),
                order: VecDeque::new(),
                next_id: 1,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Registers a new job, evicting the oldest once over capacity.
    pub fn create(&self, kind: JobKind) -> Arc<Job> {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job::new(id, kind));
        inner.jobs.insert(id, Arc::clone(&job));
        inner.order.push_back(id);
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.jobs.remove(&old);
            }
        }
        job
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner.lock().unwrap().jobs.get(&id).cloned()
    }

    /// Number of remembered jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// True when no jobs are remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    #[test]
    fn lifecycle_transitions_publish_to_pollers() {
        let table = JobTable::new(8);
        let job = table.create(JobKind::Plan);
        assert_eq!(job.status().0, JobState::Queued);
        job.set_running();
        assert_eq!(job.status().0, JobState::Running);
        job.complete(JobOutput::Plan(artifact()));
        let (state, result, error) = job.status();
        assert_eq!(state, JobState::Done);
        assert!(result.is_some_and(|o| o.plan().is_some()));
        assert!(error.is_none());
    }

    #[test]
    fn wait_blocks_until_worker_publishes() {
        let job = Arc::new(Job::new(1, JobKind::Audit));
        let worker = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                job.fail(422, "infeasible");
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
        let job = Job::new(2, JobKind::Plan);
        assert!(job.wait(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn table_evicts_oldest_beyond_capacity() {
        let table = JobTable::new(3);
        let ids: Vec<u64> = (0..5).map(|_| table.create(JobKind::Plan).id).collect();
        assert_eq!(table.len(), 3);
        assert!(table.get(ids[0]).is_none(), "oldest evicted");
        assert!(table.get(ids[4]).is_some(), "newest kept");
        // Ids are monotonic and unique.
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }
}
