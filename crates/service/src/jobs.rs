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
use klotski_telemetry::Sink;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// `(npd_digest, options_digest)`: what a plan/audit computes, and so the
/// key of the plan cache, the journal and the singleflight index alike.
pub(crate) type JobKey = (u64, u64);

/// What kind of work a job carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum JobKind {
    /// `POST /v1/plan`: respond with the plan-attached NPD bytes.
    Plan,
    /// `POST /v1/audit`: respond with the summary + safety audit.
    Audit,
    /// `POST /v1/run`: execute a scripted controller scenario.
    Run,
}

impl JobKind {
    /// Wire label used in job status responses.
    pub(crate) fn label(self) -> &'static str {
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
pub(crate) struct RunArtifact {
    /// The controller's full run trace.
    pub report: ControllerReport,
    /// `report` as pretty JSON, the `POST /v1/run` response body.
    pub json: Vec<u8>,
}

/// What a successfully finished job publishes.
#[derive(Debug, Clone)]
pub(crate) enum JobOutput {
    /// Plan/audit pipeline artifact.
    Plan(Arc<PlanArtifact>),
    /// Controller run report.
    Run(Arc<RunArtifact>),
}

impl JobOutput {
    /// The plan artifact, when this is a plan/audit job.
    pub(crate) fn plan(&self) -> Option<&Arc<PlanArtifact>> {
        match self {
            JobOutput::Plan(a) => Some(a),
            JobOutput::Run(_) => None,
        }
    }
}

/// A terminal failure, carrying the HTTP status the serving layer should
/// answer with (422 infeasible/invalid, 504 deadline, 500 internal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobError {
    /// HTTP status code for this failure class.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

/// Trace lines a job keeps: past it the oldest are evicted and counted, so
/// a reader that falls behind a run loses lines and never slows it.
pub(crate) const TRACE_CAPACITY: usize = 1024;

/// Internal lifecycle cell.
#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    Settled(Result<JobOutput, JobError>),
}

/// A job's phase and its trace — the newest [`TRACE_CAPACITY`] lines it
/// emitted on its worker thread — under one lock.
struct Life {
    phase: Phase,
    lines: VecDeque<Arc<str>>,
    /// Lines evicted so far: `lines[0]` is this line of the whole trace.
    evicted: u64,
    /// A client was handed the job's id, so the trace outlives the settle;
    /// otherwise the settle evicts it.
    kept: bool,
}

impl Life {
    fn settled(&self) -> bool {
        matches!(self.phase, Phase::Settled(_))
    }

    fn outcome(&self) -> Option<Result<JobOutput, JobError>> {
        match &self.phase {
            Phase::Settled(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }
}

/// A reader's place in a job's trace.
#[derive(Default)]
pub(crate) struct Cursor {
    /// The next line to read, counted over the whole trace.
    next: u64,
    /// Lines evicted before this reader reached them.
    pub missed: u64,
}

/// One accepted submission.
pub(crate) struct Job {
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
    life: Mutex<Life>,
    /// Signalled when the job settles.
    done: Condvar,
    /// Signalled when the job's trace grows or the job settles: event
    /// readers wait on it, apart from `done`, so that a synchronous
    /// submitter waiting for the outcome is not woken by every line.
    grew: Condvar,
}

impl Job {
    fn new(id: u64, kind: JobKind, key: Option<JobKey>, kept: bool) -> Self {
        Self {
            id,
            kind,
            key,
            admitted: Instant::now(),
            life: Mutex::new(Life {
                phase: Phase::Queued,
                lines: VecDeque::new(),
                evicted: 0,
                kept,
            }),
            done: Condvar::new(),
            grew: Condvar::new(),
        }
    }

    /// Publishes the terminal outcome and wakes all waiters; the trace goes
    /// unless it is kept. Only [`JobTable::settle`] calls it, after
    /// releasing the job's slot.
    fn publish(&self, outcome: Result<JobOutput, JobError>) {
        let mut life = locked(&self.life);
        life.phase = Phase::Settled(outcome);
        if !life.kept {
            life.evicted += life.lines.len() as u64;
            life.lines = VecDeque::new();
        }
        drop(life);
        self.done.notify_all();
        self.grew.notify_all();
    }

    /// Current state, plus the outcome once settled, without blocking.
    pub(crate) fn status(&self) -> (JobState, Option<Result<JobOutput, JobError>>) {
        match &locked(&self.life).phase {
            Phase::Queued => (JobState::Queued, None),
            Phase::Running => (JobState::Running, None),
            Phase::Settled(Ok(o)) => (JobState::Done, Some(Ok(o.clone()))),
            Phase::Settled(Err(e)) => (JobState::Failed, Some(Err(e.clone()))),
        }
    }

    /// The job's lock, once `ready` holds of it or `timeout` has passed;
    /// `signal` is the condvar that announces a change `ready` may see.
    fn wait_for(
        &self,
        signal: &Condvar,
        timeout: Duration,
        ready: impl Fn(&Life) -> bool,
    ) -> MutexGuard<'_, Life> {
        let deadline = Instant::now() + timeout;
        let mut life = locked(&self.life);
        while !ready(&life) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            life = recover(signal.wait_timeout(life, remaining)).0;
        }
        life
    }

    /// Blocks until the job settles or `timeout` passes. Returns `None` on
    /// timeout (the job keeps running; poll later), and the job then keeps
    /// its trace: the caller answers with its id.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let mut life = self.wait_for(&self.done, timeout, Life::settled);
        let outcome = life.outcome();
        life.kept |= outcome.is_none();
        outcome
    }

    /// Waits up to `timeout` for trace lines past `cursor` or for the
    /// settlement, then returns the lines kept past it (moving it on, and
    /// counting the evicted lines it skips as missed) — with the outcome
    /// once the job has settled, when no line follows them.
    pub(crate) fn follow(
        &self,
        cursor: &mut Cursor,
        timeout: Duration,
    ) -> (Vec<Arc<str>>, Option<Result<JobOutput, JobError>>) {
        let life = self.wait_for(&self.grew, timeout, |life| {
            let end = life.evicted + life.lines.len() as u64;
            cursor.next < end || life.settled()
        });
        let first = cursor.next.max(life.evicted);
        cursor.missed += first - cursor.next;
        let lines: Vec<Arc<str>> = life
            .lines
            .range((first - life.evicted) as usize..)
            .cloned()
            .collect();
        cursor.next = first + lines.len() as u64;
        (lines, life.outcome())
    }
}

/// The job is the scoped sink of its worker thread while it runs
/// ([`klotski_telemetry::scope`]): each line it emits joins its trace.
impl Sink for Job {
    fn write_line(&self, line: &str) {
        let mut life = locked(&self.life);
        if life.lines.len() == TRACE_CAPACITY {
            life.lines.pop_front();
            life.evicted += 1;
        }
        life.lines.push_back(line.into());
        drop(life);
        self.grew.notify_all();
    }
}

/// What [`JobTable::admit`] made of a submission.
pub(crate) enum Admission {
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
    /// or audit is journaled in the store, if the daemon keeps one. When
    /// the client is answered with the job's id (`?wait=0`), the job it
    /// leads or follows keeps its trace past its settlement.
    Client {
        journal: Option<&'a StateStore>,
        by_id: bool,
    },
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
pub(crate) struct JobTable {
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
    pub(crate) fn new(capacity: usize, depth: usize) -> Self {
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
    /// puts the admit before anything a worker writes for the job, and
    /// marking a job kept inside it puts the mark before the settle, which
    /// releases the slot under this lock before it publishes. A keyless
    /// submission always leads and takes no slot. Lock order: board, then
    /// journal or job.
    pub(crate) fn admit(&self, kind: JobKind, work: Work, source: Source<'_>) -> Admission {
        let mut board = locked(&self.board);
        let key = work.key();
        let slot = key.map(|key| (key, kind));
        let by_id = matches!(source, Source::Client { by_id: true, .. });
        if let Some(live) = slot.and_then(|slot| board.slots.get(&slot)) {
            if by_id {
                locked(&live.life).kept = true;
            }
            return Admission::Follower(Arc::clone(live));
        }
        if let Source::Client { journal, .. } = source {
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
        let job = Arc::new(Job::new(board.next_id, kind, key, by_id));
        board.next_id += 1;
        board.jobs.push_back(Arc::clone(&job));
        // A job still waiting or running is never forgotten: its id was
        // answered with a `202` and must keep answering.
        while board.jobs.len() > self.capacity {
            let Some(oldest) = board
                .jobs
                .iter()
                .position(|job| locked(&job.life).settled())
            else {
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
                locked(&job.life).phase = Phase::Running;
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
    pub(crate) fn close(&self) {
        locked(&self.board).closed = true;
        self.ready.notify_all();
    }

    /// Jobs waiting for a worker.
    pub(crate) fn waiting(&self) -> usize {
        locked(&self.board).waiting.len()
    }

    /// Settles a job: releases its slot, then publishes `outcome` to every
    /// waiter and reader (evicting the job's trace unless it is kept). The
    /// release is guarded by pointer identity, so settling a
    /// job that no longer leads its slot never evicts the leader that
    /// replaced it; the board's lock is dropped before the job's is taken.
    pub(crate) fn settle(&self, job: &Arc<Job>, outcome: Result<JobOutput, JobError>) {
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
    pub(crate) fn get(&self, id: u64) -> Option<Arc<Job>> {
        let board = locked(&self.board);
        let index = board.jobs.binary_search_by_key(&id, |job| job.id).ok()?;
        Some(Arc::clone(&board.jobs[index]))
    }

    /// Slots currently led by a live job.
    #[cfg(test)]
    pub(crate) fn live_slots(&self) -> usize {
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
        table.admit(kind, work(key), client(false))
    }

    fn client(by_id: bool) -> Source<'static> {
        Source::Client {
            journal: None,
            by_id,
        }
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
        let job = Job::new(2, JobKind::Plan, None, false);
        assert!(job.wait(Duration::from_millis(10)).is_none());
        // Its waiter answers with the id, so the trace outlives the settle.
        job.write_line("kept");
        job.publish(failure(500, "settled"));
        assert_eq!(read_all(&job).0, ["kept"]);
    }

    /// Every line a new reader finds in `job`'s trace, and how many it
    /// missed; the job must have settled.
    fn read_all(job: &Job) -> (Vec<String>, u64) {
        let mut cursor = Cursor::default();
        let (lines, settled) = job.follow(&mut cursor, Duration::ZERO);
        assert!(settled.is_some(), "the job has settled");
        let lines = lines.iter().map(|line| line.to_string()).collect();
        (lines, cursor.missed)
    }

    #[test]
    fn a_trace_keeps_its_newest_lines_and_counts_the_rest() {
        let job = Job::new(1, JobKind::Run, None, true);
        for i in 0..TRACE_CAPACITY + 5 {
            job.write_line(&format!("l{i}"));
        }
        let mut early = Cursor::default();
        let (lines, settled) = job.follow(&mut early, Duration::ZERO);
        assert!(settled.is_none());
        assert_eq!((lines.len(), early.missed), (TRACE_CAPACITY, 5));
        assert_eq!(&*lines[0], "l5");
        // A reader that has read everything waits for the next line, and
        // misses nothing more.
        job.write_line("next");
        let (lines, _) = job.follow(&mut early, Duration::ZERO);
        assert_eq!(lines.iter().map(|l| &**l).collect::<Vec<_>>(), ["next"]);
        job.publish(failure(500, "settled"));
        let (lines, settled) = job.follow(&mut early, Duration::from_secs(5));
        assert!(lines.is_empty() && settled.is_some());
        assert_eq!(early.missed, 5);
        // A reader that comes after the settle replays the same lines.
        let (lines, missed) = read_all(&job);
        assert_eq!((lines.len(), missed), (TRACE_CAPACITY, 6));
        assert_eq!(lines.last().map(String::as_str), Some("next"));
    }

    #[test]
    fn follow_wakes_on_a_line_and_on_the_settle() {
        let job = Arc::new(Job::new(1, JobKind::Run, None, true));
        let writer = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                job.write_line("one");
                std::thread::sleep(Duration::from_millis(20));
                job.publish(failure(500, "settled"));
            })
        };
        let mut cursor = Cursor::default();
        let start = Instant::now();
        let (lines, settled) = job.follow(&mut cursor, Duration::from_secs(30));
        assert_eq!((lines.len(), settled.is_none()), (1, true));
        let (lines, settled) = job.follow(&mut cursor, Duration::from_secs(30));
        assert_eq!((lines.len(), settled.is_some()), (0, true));
        assert!(start.elapsed() < Duration::from_secs(5));
        writer.join().unwrap();
    }

    /// A settled job keeps its trace only when a client was handed its id:
    /// a `?wait=0` leader or follower marks it at admission.
    #[test]
    fn only_a_job_whose_id_was_handed_out_keeps_its_trace() {
        let table = JobTable::new(8, 8);
        let settle_with_a_line = |job: &Arc<Job>| {
            job.write_line("line");
            table.settle(job, failure(500, "settled"));
            read_all(job)
        };
        let sync = leader(&table, JobKind::Run, None);
        assert_eq!(settle_with_a_line(&sync), (vec![], 1));
        let Admission::Leader(by_id) = table.admit(JobKind::Run, work(None), client(true)) else {
            panic!("a keyless job leads");
        };
        assert_eq!(settle_with_a_line(&by_id), (vec!["line".into()], 0));
        // A synchronous leader, then a `?wait=0` follower of its slot.
        let followed = leader(&table, JobKind::Plan, Some((1, 2)));
        let follower = table.admit(JobKind::Plan, work(Some((1, 2))), client(true));
        assert!(matches!(follower, Admission::Follower(job) if job.id == followed.id));
        assert_eq!(settle_with_a_line(&followed), (vec!["line".into()], 0));
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
