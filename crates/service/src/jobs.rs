//! The job board. Every accepted submission becomes a [`Job`] that
//! connection threads wait on or poll; the [`JobTable`] indexes them by id
//! (a bounded history, for pollers) and by singleflight slot (live jobs
//! only, for coalescing), and holds the bounded list of jobs waiting for a
//! worker. A job goes `Queued → Running → Settled`, and the board owns
//! every transition: [`JobTable::admit`], [`JobTable::next`] and
//! [`JobTable::settle`].

use crate::pipeline::PlanArtifact;
use crate::state::StateStore;
use crate::work::Work;
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

    /// Publishes the terminal outcome and wakes all waiters. Only
    /// [`JobTable::settle`] calls it, after releasing the job's slot.
    fn publish(&self, outcome: Result<JobOutput, JobError>) {
        *locked(&self.phase) = Phase::Settled(outcome);
        self.done.notify_all();
    }

    /// Whether the job has settled.
    fn settled(&self) -> bool {
        matches!(*locked(&self.phase), Phase::Settled(_))
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
    /// First of its slot (or keyless): a new job, waiting for a worker.
    Leader(Arc<Job>),
    /// The slot is already being computed: the live job to follow.
    Follower(Arc<Job>),
    /// Refused before a job existed, because the board is closed or full:
    /// the message of the `503` to answer with.
    Refused(String),
}

/// Where a submission comes from.
pub(crate) enum Source<'a> {
    /// A client. Refused once the board is closed or full; a leading plan
    /// or audit is journaled in the store, if the daemon keeps one.
    Client(Option<&'a StateStore>),
    /// An admit replayed from the journal: already acknowledged and already
    /// journaled, so it is never refused.
    Replay,
}

/// A singleflight slot: the key plus the job kind. The kind is part of it
/// because a job's polled result is rendered by the job's own kind: an
/// audit must never follow a plan.
type Slot = (JobKey, JobKind);

/// Bounded registry of live and recently finished jobs, the singleflight
/// index over the live ones, and the bounded list of those still waiting.
pub struct JobTable {
    board: Mutex<Board>,
    /// Signalled when a job starts waiting or the board closes.
    ready: Condvar,
    /// Jobs remembered for polling.
    capacity: usize,
    /// Jobs that may wait for a worker before clients are refused.
    depth: usize,
}

struct Board {
    /// Every remembered job in id order: every live one, and the newest
    /// settled ones up to the table's capacity.
    jobs: VecDeque<Arc<Job>>,
    /// The id the next job gets.
    next_id: u64,
    /// The job computing each slot, from its admission to its settlement.
    slots: HashMap<Slot, Arc<Job>>,
    /// Leaders no worker has taken yet, oldest first, with their work.
    waiting: VecDeque<(Arc<Job>, Work)>,
    /// Set by [`JobTable::close`]: clients are refused, workers drain.
    closed: bool,
}

impl JobTable {
    /// A table remembering every live job and, past `capacity` (min 1) jobs,
    /// forgetting the oldest settled ones; at most `depth` (min 1) jobs wait
    /// for a worker before clients are refused.
    pub fn new(capacity: usize, depth: usize) -> Self {
        Self {
            board: Mutex::new(Board {
                jobs: VecDeque::new(),
                next_id: 1,
                slots: HashMap::new(),
                waiting: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            depth: depth.max(1),
        }
    }

    /// Admits a submission in one hold of the board's lock: it follows the
    /// live job of its `(key, kind)` slot if there is one; else a client is
    /// refused if the board is closed or full; else a new job (forgetting
    /// the oldest settled ones once over capacity) takes the slot, has its
    /// admit journaled and waits for a worker. Journaling inside the hold
    /// puts the admit before anything a worker writes for the job. A
    /// keyless submission always leads and takes no slot. Lock order:
    /// board, then journal.
    pub(crate) fn admit(&self, kind: JobKind, work: Work, source: Source<'_>) -> Admission {
        let mut board = locked(&self.board);
        let key = work.key();
        let slot = key.map(|key| (key, kind));
        if let Some(live) = slot.and_then(|slot| board.slots.get(&slot)) {
            return Admission::Follower(Arc::clone(live));
        }
        if let Source::Client(journal) = source {
            if board.closed {
                return Admission::Refused("draining; not accepting work".into());
            }
            if board.waiting.len() >= self.depth {
                let full = format!("queue full ({} jobs queued); retry later", self.depth);
                return Admission::Refused(full);
            }
            if let (
                Some(state),
                Work::Plan {
                    options, key, body, ..
                },
            ) = (journal, &work)
            {
                state.admit(*key, kind.label(), body, options);
            }
        }
        let job = Arc::new(Job::new(board.next_id, kind, key));
        board.next_id += 1;
        board.jobs.push_back(Arc::clone(&job));
        // A job still waiting or running is never forgotten: its id was
        // answered with a `202` and must keep answering.
        while board.jobs.len() > self.capacity {
            let Some(oldest) = board.jobs.iter().position(|job| job.settled()) else {
                break;
            };
            board.jobs.remove(oldest);
        }
        if let Some(slot) = slot {
            board.slots.insert(slot, Arc::clone(&job));
        }
        board.waiting.push_back((Arc::clone(&job), work));
        drop(board);
        self.ready.notify_one();
        Admission::Leader(job)
    }

    /// Blocks for the oldest waiting job, marks it running and hands it to
    /// the calling worker with its work. Returns `None` only once the board
    /// is closed *and* nothing waits, so workers finish every admitted job.
    pub(crate) fn next(&self) -> Option<(Arc<Job>, Work)> {
        let mut board = locked(&self.board);
        loop {
            if let Some((job, work)) = board.waiting.pop_front() {
                *locked(&job.phase) = Phase::Running;
                return Some((job, work));
            }
            if board.closed {
                return None;
            }
            board = recover(self.ready.wait(board));
        }
    }

    /// Stops admitting clients and wakes every idle worker; what waits is
    /// still handed out. Idempotent.
    pub fn close(&self) {
        locked(&self.board).closed = true;
        self.ready.notify_all();
    }

    /// Jobs waiting for a worker.
    pub fn waiting(&self) -> usize {
        locked(&self.board).waiting.len()
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

    /// Looks up a remembered job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        let board = locked(&self.board);
        let index = board.jobs.binary_search_by_key(&id, |job| job.id).ok()?;
        Some(Arc::clone(&board.jobs[index]))
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
    use klotski_controller::Scenario;
    use klotski_core::report::PlanAudit;
    use klotski_npd::api::{PlanRequestOptions, PlanSummary};
    use klotski_npd::convert::region_to_npd;
    use klotski_npd::Npd;
    use klotski_topology::presets::{self, PresetId};
    use std::sync::OnceLock;

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

    /// Plan work under `key`, or a run for `None`: the board reads only
    /// the key.
    fn work(key: Option<JobKey>) -> Work {
        static NPD: OnceLock<Npd> = OnceLock::new();
        match key {
            Some(key) => Work::Plan {
                npd: Box::new(
                    NPD.get_or_init(|| region_to_npd(&presets::config(PresetId::A)))
                        .clone(),
                ),
                options: PlanRequestOptions::default(),
                key,
                body: String::new(),
            },
            None => Work::Run {
                scenario: Scenario::sample(),
                deadline_ms: None,
            },
        }
    }

    fn admit(table: &JobTable, kind: JobKind, key: Option<JobKey>) -> Admission {
        table.admit(kind, work(key), Source::Client(None))
    }

    fn leader(table: &JobTable, kind: JobKind, key: Option<JobKey>) -> Arc<Job> {
        match admit(table, kind, key) {
            Admission::Leader(job) => job,
            Admission::Follower(job) => panic!("followed job {} instead of leading", job.id),
            Admission::Refused(why) => panic!("refused: {why}"),
        }
    }

    fn refusal(admission: Admission) -> String {
        match admission {
            Admission::Refused(why) => why,
            Admission::Leader(job) | Admission::Follower(job) => panic!("admitted job {}", job.id),
        }
    }

    /// The id of the job [`JobTable::next`] hands out, if any.
    fn next_id(table: &JobTable) -> Option<u64> {
        table.next().map(|(job, _)| job.id)
    }

    fn failure(status: u16, message: &str) -> Result<JobOutput, JobError> {
        Err(JobError {
            status,
            message: message.into(),
        })
    }

    #[test]
    fn lifecycle_transitions_publish_to_pollers() {
        let table = JobTable::new(8, 8);
        let job = leader(&table, JobKind::Plan, Some((1, 2)));
        assert_eq!(job.status().0, JobState::Queued);
        let (next, _) = table.next().expect("a waiting job");
        assert!(Arc::ptr_eq(&next, &job));
        assert_eq!(job.status().0, JobState::Running);
        table.settle(&job, Ok(JobOutput::Plan(artifact())));
        let (state, outcome) = job.status();
        assert_eq!(state, JobState::Done);
        assert!(outcome.is_some_and(|o| o.is_ok_and(|o| o.plan().is_some())));
    }

    #[test]
    fn wait_blocks_until_worker_publishes() {
        let table = Arc::new(JobTable::new(8, 8));
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
        let table = JobTable::new(3, 8);
        let ids: Vec<u64> = (0..5)
            .map(|_| {
                let job = leader(&table, JobKind::Run, None);
                table.settle(&job, failure(500, "settled"));
                job.id
            })
            .collect();
        // Ids are monotonic and unique; exactly the newest three remain.
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        let kept: Vec<bool> = ids.iter().map(|id| table.get(*id).is_some()).collect();
        assert_eq!(kept, [false, false, true, true, true]);
        assert!(table.get(0).is_none() && table.get(6).is_none());
    }

    /// An id answered with a `202` keeps answering until its job settles,
    /// however many jobs are admitted after it: past capacity only settled
    /// jobs are forgotten, oldest first.
    #[test]
    fn a_live_job_past_capacity_is_remembered() {
        let table = JobTable::new(3, 8);
        let running = leader(&table, JobKind::Run, None);
        assert_eq!(next_id(&table), Some(running.id));
        let waiting = leader(&table, JobKind::Run, None);
        for _ in 0..5 {
            let job = leader(&table, JobKind::Run, None);
            table.settle(&job, failure(500, "settled"));
        }
        let state = |id| table.get(id).map(|job| job.status().0);
        assert_eq!(state(running.id), Some(JobState::Running));
        assert_eq!(state(waiting.id), Some(JobState::Queued));
        let kept: Vec<bool> = (1..=7).map(|id| table.get(id).is_some()).collect();
        assert_eq!(kept, [true, true, false, false, false, false, true]);

        // Once they settle, the two are the oldest settled jobs, and the
        // next admissions forget them first.
        table.settle(&running, failure(500, "settled"));
        table.settle(&waiting, failure(500, "settled"));
        let newest = leader(&table, JobKind::Run, None).id;
        let kept: Vec<u64> = (1..=newest).filter(|id| table.get(*id).is_some()).collect();
        assert_eq!(kept, [2, 7, 8]);
    }

    #[test]
    fn concurrent_admits_of_one_slot_yield_exactly_one_leader() {
        let table = JobTable::new(64, 64);
        let barrier = std::sync::Barrier::new(8);
        let admissions: Vec<Admission> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        admit(&table, JobKind::Plan, Some((7, 7)))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let leaders: Vec<u64> = admissions
            .iter()
            .filter_map(|a| match a {
                Admission::Leader(job) => Some(job.id),
                _ => None,
            })
            .collect();
        assert_eq!(leaders.len(), 1, "{leaders:?}");
        for admission in &admissions {
            let (Admission::Leader(job) | Admission::Follower(job)) = admission else {
                panic!("a follower is never refused");
            };
            assert_eq!(job.id, leaders[0], "every follower shares the leader's job");
        }
        assert_eq!(table.live_slots(), 1);
    }

    #[test]
    fn a_slot_is_a_key_and_a_kind_and_runs_take_none() {
        let table = JobTable::new(8, 8);
        let plan = leader(&table, JobKind::Plan, Some((1, 2)));
        // The same document under the other kind leads its own job: a
        // polled result is rendered by the job's kind, so an audit that
        // followed a plan would be handed plan bytes.
        let audit = leader(&table, JobKind::Audit, Some((1, 2)));
        assert_ne!(plan.id, audit.id);
        assert_eq!(table.live_slots(), 2);
        assert!(matches!(
            admit(&table, JobKind::Audit, Some((1, 2))),
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
        let table = JobTable::new(8, 8);
        let old = leader(&table, JobKind::Plan, Some((3, 4)));
        table.settle(&old, failure(500, "first"));
        let new = leader(&table, JobKind::Plan, Some((3, 4)));
        // The old job settling again finds the slot led by someone else.
        table.settle(&old, failure(500, "again"));
        assert_eq!(table.live_slots(), 1);
        assert!(matches!(
            admit(&table, JobKind::Plan, Some((3, 4))),
            Admission::Follower(job) if job.id == new.id
        ));
    }

    #[test]
    fn a_waiter_woken_by_settle_leads_the_slot_it_readmits() {
        // Release precedes publish: whoever `settle` wakes — a follower
        // told `500`, a poller retrying at once — must never find the dead
        // job still leading the slot and follow it.
        let table = JobTable::new(8, 8);
        let first = leader(&table, JobKind::Plan, Some((5, 6)));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let outcome = first.wait(Duration::from_secs(30)).expect("settled");
                assert_eq!(outcome.unwrap_err().status, 500);
                admit(&table, JobKind::Plan, Some((5, 6)))
            });
            table.settle(&first, failure(500, "panicked"));
            match waiter.join().unwrap() {
                Admission::Leader(job) => assert_ne!(job.id, first.id),
                Admission::Follower(job) => panic!("followed settled job {}", job.id),
                Admission::Refused(why) => panic!("refused: {why}"),
            }
        });
    }

    #[test]
    fn the_board_hands_out_jobs_oldest_first() {
        let table = JobTable::new(8, 4);
        let ids: Vec<u64> = (0..4)
            .map(|_| leader(&table, JobKind::Run, None).id)
            .collect();
        assert_eq!(table.waiting(), 4);
        for id in ids {
            let (job, _) = table.next().expect("a waiting job");
            assert_eq!((job.id, job.status().0), (id, JobState::Running));
        }
        assert_eq!(table.waiting(), 0);
    }

    #[test]
    fn a_full_board_refuses_clients_without_blocking() {
        let table = JobTable::new(8, 2);
        let first = leader(&table, JobKind::Plan, Some((1, 1)));
        leader(&table, JobKind::Plan, Some((2, 2)));
        let why = refusal(admit(&table, JobKind::Plan, Some((3, 3))));
        assert_eq!(why, "queue full (2 jobs queued); retry later");
        // A refusal takes no slot and no id; a duplicate of a waiting job
        // still follows it, and a replayed admit is never refused.
        assert_eq!(table.live_slots(), 2);
        assert!(matches!(
            admit(&table, JobKind::Plan, Some((1, 1))),
            Admission::Follower(job) if job.id == first.id
        ));
        let replayed = table.admit(JobKind::Plan, work(Some((4, 4))), Source::Replay);
        assert!(matches!(replayed, Admission::Leader(job) if job.id == 3));
        assert_eq!(table.waiting(), 3);
        // Taking jobs frees room below the depth.
        assert_eq!(next_id(&table), Some(1));
        assert_eq!(next_id(&table), Some(2));
        assert_eq!(leader(&table, JobKind::Plan, Some((3, 3))).id, 4);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let table = JobTable::new(8, 8);
        leader(&table, JobKind::Run, None);
        leader(&table, JobKind::Run, None);
        table.close();
        let why = refusal(admit(&table, JobKind::Run, None));
        assert_eq!(why, "draining; not accepting work");
        assert_eq!(next_id(&table), Some(1));
        assert_eq!(next_id(&table), Some(2));
        assert_eq!(next_id(&table), None);
    }

    #[test]
    fn close_wakes_a_blocked_next() {
        let table = JobTable::new(8, 1);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| next_id(&table));
            // Give the consumer a moment to block, then close.
            std::thread::sleep(Duration::from_millis(20));
            table.close();
            assert_eq!(consumer.join().unwrap(), None);
        });
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let table = JobTable::new(1024, 16);
        let mut taken: Vec<u64> = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(id) = next_id(&table) {
                            got.push(id);
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            while let Admission::Refused(why) = admit(&table, JobKind::Run, None) {
                                assert!(why.starts_with("queue full"), "{why}");
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for producer in producers {
                producer.join().unwrap();
            }
            table.close();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        taken.sort_unstable();
        assert_eq!(taken, (1..=400).collect::<Vec<u64>>());
    }
}
