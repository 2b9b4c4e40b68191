//! The admission queue: bounded, priority-ordered, cancellable.
//!
//! [`Queue::submit`] validates a job (the plan expansion catches unknown
//! benches/specs/configs before admission), enforces the capacity bound
//! (`queue full` is an error the client sees, not silent backpressure),
//! and parks the job pending. Scheduler threads [`Queue::claim`] jobs in
//! priority order (higher first, ties in submit order); each claimed job
//! is driven by [`crate::server`]. Every job carries its own event stream
//! — batches of serialized ledger records, then one terminal [`Summary`] —
//! that the submitting connection drains to the client.
//!
//! Cancellation is two-phase by design: a *queued* job is removed before
//! it ever starts; a *running* job has its cancel flag set and stops at
//! the next chunk boundary (the "interval boundary" of the service layer),
//! leaving the store consistent — completed runs were already written
//! through, the rest were never started.
//!
//! A finished job is forgotten down to its status row ([`JobInfo`]): the
//! queue drops its plan and any undelivered events, so a long-running
//! daemon's memory does not grow with the jobs it has served.
//!
//! The queue also keeps the daemon's one count of running jobs: claim
//! raises it, finish lowers it. Drivers size their worker share from it
//! ([`Queue::running_count`]) and shutdown waits on it
//! ([`Queue::wait_idle`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::proto::JobDesc;
use techniques::jobs::JobPlan;

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a scheduler slot.
    Queued,
    /// Claimed by a scheduler thread and executing.
    Running,
    /// Every run item finished.
    Done,
    /// Cancelled (before start, at a chunk boundary, or by shutdown).
    Cancelled,
    /// The driver failed (plan panic or I/O loss).
    Failed,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job can make no further progress.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// Terminal accounting for one job, derived from the records it streamed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Terminal state name (`done` / `cancelled` / `failed`).
    pub state: &'static str,
    /// Ledger records streamed.
    pub records: u64,
    /// Records served from the persistent store (`store-restore`).
    pub store_hits: u64,
    /// Records served from the in-memory run cache (`cache`).
    pub cache_hits: u64,
    /// Records actually simulated this time (everything else).
    pub computed: u64,
    /// Run items that were Table 2 N/A cells (no record).
    pub na: u64,
    /// Total modeled cost across records, in work units — store and cache
    /// hits charge their full stored `Cost`, exactly like offline runs.
    pub work_units: f64,
    /// Wall milliseconds from claim to finish.
    pub wall_ms: u64,
}

impl Summary {
    /// The `{"serve":"done",...}` control line for job `id`.
    pub fn done_line(&self, id: u64) -> String {
        format!(
            "{{\"serve\":\"done\",\"ok\":{},\"id\":{id},\"state\":\"{}\",\"records\":{},\
             \"store_hits\":{},\"cache_hits\":{},\"computed\":{},\"na\":{},\
             \"work_units\":{},\"wall_ms\":{}}}",
            self.state == "done",
            self.state,
            self.records,
            self.store_hits,
            self.cache_hits,
            self.computed,
            self.na,
            sim_obs::json::num(self.work_units),
            self.wall_ms,
        )
    }
}

/// One item on a job's event stream.
#[derive(Debug, Clone)]
pub enum Event {
    /// A batch of serialized ledger record lines, run-key sorted within
    /// the batch.
    Records(Vec<String>),
    /// The job finished; no further events follow.
    Finished(Summary),
}

/// An admitted job: its description, expanded plan, and event stream.
pub struct Job {
    /// Daemon-unique id (submit order).
    pub id: u64,
    /// The wire description it was built from.
    pub desc: JobDesc,
    /// The expanded run plan.
    pub plan: JobPlan,
    /// Run items completed so far (progress reporting).
    pub done_runs: AtomicUsize,
    cancel: AtomicBool,
    state: Mutex<JobState>,
    events: Mutex<VecDeque<Event>>,
    events_cv: Condvar,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("state", &self.state())
            .field("runs", &self.plan.len())
            .finish_non_exhaustive()
    }
}

impl Job {
    fn new(id: u64, desc: JobDesc, plan: JobPlan) -> Arc<Job> {
        Arc::new(Job {
            id,
            desc,
            plan,
            done_runs: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            state: Mutex::new(JobState::Queued),
            events: Mutex::new(VecDeque::new()),
            events_cv: Condvar::new(),
        })
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        *self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_state(&self, s: JobState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = s;
    }

    /// Ask the driver to stop at the next chunk boundary.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Append a batch of record lines to the event stream.
    pub fn push_records(&self, lines: Vec<String>) {
        if lines.is_empty() {
            return;
        }
        let mut ev = self.events.lock().unwrap_or_else(|e| e.into_inner());
        ev.push_back(Event::Records(lines));
        self.events_cv.notify_all();
    }

    /// Mark the job terminal and append the final event. Daemon code goes
    /// through [`Queue::finish`], which also retires the job.
    fn finish(&self, summary: Summary) {
        let state = match summary.state {
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            _ => JobState::Failed,
        };
        self.set_state(state);
        let mut ev = self.events.lock().unwrap_or_else(|e| e.into_inner());
        ev.push_back(Event::Finished(summary));
        self.events_cv.notify_all();
    }

    /// Pop the next event, waiting up to `timeout`. `None` on timeout —
    /// poll again (the streaming connection interleaves liveness checks).
    pub fn next_event(&self, timeout: Duration) -> Option<Event> {
        let mut ev = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if ev.is_empty() {
            let (guard, _) = self
                .events_cv
                .wait_timeout(ev, timeout)
                .unwrap_or_else(|e| e.into_inner());
            ev = guard;
        }
        ev.pop_front()
    }
}

/// One row of a status snapshot — all that is kept of a finished job.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// Job id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Admission priority.
    pub priority: i64,
    /// Total run items.
    pub runs: usize,
    /// Completed run items.
    pub done: usize,
}

impl Job {
    fn info(&self) -> JobInfo {
        JobInfo {
            id: self.id,
            state: self.state(),
            priority: self.desc.priority,
            runs: self.plan.len(),
            done: self.done_runs.load(Ordering::Relaxed),
        }
    }
}

struct Inner {
    /// Pending jobs, sorted by (priority desc, id asc).
    pending: Vec<Arc<Job>>,
    /// Admitted jobs that have not finished, by id (status and cancel
    /// lookups).
    jobs: HashMap<u64, Arc<Job>>,
    /// Status rows of finished jobs, by id.
    finished: BTreeMap<u64, JobInfo>,
    /// Claimed jobs that have not finished.
    running: usize,
    next_id: u64,
    closed: bool,
}

/// The bounded admission queue (see module docs).
pub struct Queue {
    inner: Mutex<Inner>,
    /// Signalled when a job is admitted or the queue closes (claimers).
    cv: Condvar,
    /// Signalled when a running job finishes (the shutdown drain).
    idle: Condvar,
    capacity: usize,
}

impl Queue {
    /// A queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Arc<Queue> {
        Arc::new(Queue {
            inner: Mutex::new(Inner {
                pending: Vec::new(),
                jobs: HashMap::new(),
                finished: BTreeMap::new(),
                running: 0,
                next_id: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Validate and admit a job. Errors: invalid description (bad bench /
    /// spec / config / scale), `queue full`, or a closed (shutting-down)
    /// queue. Plan expansion runs outside the queue lock.
    pub fn submit(&self, desc: JobDesc) -> Result<Arc<Job>, String> {
        let plan = JobPlan::build(&desc.benches, desc.scale, &desc.specs, &desc.configs)?;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err("daemon is shutting down".to_string());
        }
        if inner.pending.len() >= self.capacity {
            return Err("queue full".to_string());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Job::new(id, desc, plan);
        let pos = inner
            .pending
            .iter()
            .position(|j| j.desc.priority < job.desc.priority)
            .unwrap_or(inner.pending.len());
        inner.pending.insert(pos, Arc::clone(&job));
        inner.jobs.insert(id, Arc::clone(&job));
        self.cv.notify_one();
        Ok(job)
    }

    /// Block until a pending job is available and claim it (it transitions
    /// to `Running`). `None` once the queue is closed and drained — the
    /// scheduler thread's exit signal.
    pub fn claim(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !inner.pending.is_empty() {
                let job = inner.pending.remove(0);
                job.set_state(JobState::Running);
                inner.running += 1;
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Finish `job` with `summary` (its terminal event) and retire it: only
    /// its status row stays, while its plan and any events no connection
    /// drained are dropped with the last reference.
    pub fn finish(&self, job: &Job, summary: Summary) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if job.state() == JobState::Running {
            inner.running -= 1;
            self.idle.notify_all();
        }
        job.finish(summary);
        Self::retire(&mut inner, job);
    }

    fn retire(inner: &mut Inner, job: &Job) {
        inner.jobs.remove(&job.id);
        inner.finished.insert(job.id, job.info());
    }

    /// Cancel job `id`. A queued job is removed and finished immediately
    /// (it never starts); a running job gets its flag set and stops at the
    /// next chunk boundary. Terminal jobs are an error.
    pub fn cancel(&self, id: u64) -> Result<&'static str, String> {
        let job = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.finished.contains_key(&id) {
                return Err(format!("job {id} already finished"));
            }
            let job = inner
                .jobs
                .get(&id)
                .cloned()
                .ok_or_else(|| format!("no such job {id}"))?;
            if let Some(pos) = inner.pending.iter().position(|j| j.id == id) {
                inner.pending.remove(pos);
                job.request_cancel();
                job.finish(Summary {
                    state: "cancelled",
                    ..Summary::default()
                });
                Self::retire(&mut inner, &job);
                return Ok("cancelled before start");
            }
            job
        };
        if job.state().terminal() {
            return Err(format!("job {id} already finished"));
        }
        job.request_cancel();
        Ok("cancel requested; stops at the next chunk boundary")
    }

    /// Close admission and cancel every still-pending job (shutdown).
    /// Running jobs are untouched — the server drains or cancels them on
    /// its own timetable.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        for job in std::mem::take(&mut inner.pending) {
            job.request_cancel();
            job.finish(Summary {
                state: "cancelled",
                ..Summary::default()
            });
            Self::retire(&mut inner, &job);
        }
        self.cv.notify_all();
    }

    /// Look up an unfinished job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .get(&id)
            .cloned()
    }

    /// Status rows for every known job, in id order.
    pub fn snapshot(&self) -> Vec<JobInfo> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<JobInfo> = inner.jobs.values().map(|j| j.info()).collect();
        rows.extend(inner.finished.values().cloned());
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Jobs claimed and not yet finished.
    pub fn running_count(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).running
    }

    /// Wait until no job is running or `timeout` passes; `true` if none is
    /// running.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (inner, _) = self
            .idle
            .wait_timeout_while(inner, timeout, |i| i.running > 0)
            .unwrap_or_else(|e| e.into_inner());
        inner.running == 0
    }

    /// Jobs currently running (shutdown cancels these past the drain).
    pub fn running(&self) -> Vec<Arc<Job>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .jobs
            .values()
            .filter(|j| j.state() == JobState::Running)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(priority: i64) -> JobDesc {
        JobDesc {
            benches: vec!["gzip".into()],
            scale: 0.05,
            specs: vec!["runz:z=5k".into()],
            configs: vec!["table3:1".into()],
            priority,
        }
    }

    #[test]
    fn submit_validates_and_claims_in_priority_order() {
        let q = Queue::new(8);
        let low = q.submit(tiny_job(0)).unwrap();
        let high = q.submit(tiny_job(5)).unwrap();
        let mid = q.submit(tiny_job(3)).unwrap();
        assert!(
            q.submit(JobDesc::default()).map(|j| j.id).is_err(),
            "empty job rejected"
        );
        assert_eq!(q.claim().unwrap().id, high.id);
        assert_eq!(q.claim().unwrap().id, mid.id);
        let last = q.claim().unwrap();
        assert_eq!(last.id, low.id);
        assert_eq!(last.state(), JobState::Running);
    }

    #[test]
    fn capacity_bound_rejects_with_queue_full() {
        let q = Queue::new(2);
        q.submit(tiny_job(0)).unwrap();
        q.submit(tiny_job(0)).unwrap();
        let err = q.submit(tiny_job(0)).map(|j| j.id).unwrap_err();
        assert_eq!(err, "queue full");
        // Claiming frees a slot.
        q.claim().unwrap();
        q.submit(tiny_job(0)).unwrap();
    }

    #[test]
    fn cancelling_a_queued_job_finishes_it_without_running() {
        let q = Queue::new(8);
        let a = q.submit(tiny_job(0)).unwrap();
        let b = q.submit(tiny_job(0)).unwrap();
        assert_eq!(q.cancel(b.id).unwrap(), "cancelled before start");
        assert_eq!(b.state(), JobState::Cancelled);
        match b.next_event(Duration::from_millis(10)).unwrap() {
            Event::Finished(s) => assert_eq!(s.state, "cancelled"),
            other => panic!("unexpected event {other:?}"),
        }
        // Only the surviving job is claimable.
        assert_eq!(q.claim().unwrap().id, a.id);
        assert!(q.cancel(b.id).is_err(), "terminal jobs cannot re-cancel");
        assert!(q.cancel(99).is_err(), "unknown id");
    }

    #[test]
    fn close_cancels_pending_and_unblocks_claim() {
        let q = Queue::new(8);
        let a = q.submit(tiny_job(0)).unwrap();
        q.close();
        assert_eq!(a.state(), JobState::Cancelled);
        assert!(q.claim().is_none(), "closed queue drains to None");
        assert!(q.submit(tiny_job(0)).is_err(), "closed queue rejects");
    }

    #[test]
    fn events_stream_in_order_and_timeout_cleanly() {
        let q = Queue::new(8);
        let job = q.submit(tiny_job(0)).unwrap();
        assert!(job.next_event(Duration::from_millis(5)).is_none());
        job.push_records(vec!["r1".into(), "r2".into()]);
        q.finish(
            &job,
            Summary {
                state: "done",
                records: 2,
                ..Summary::default()
            },
        );
        match job.next_event(Duration::from_millis(5)).unwrap() {
            Event::Records(lines) => assert_eq!(lines, vec!["r1", "r2"]),
            other => panic!("unexpected {other:?}"),
        }
        match job.next_event(Duration::from_millis(5)).unwrap() {
            Event::Finished(s) => {
                assert_eq!(s.records, 2);
                assert!(s.done_line(job.id).contains("\"serve\":\"done\""));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(job.state(), JobState::Done);
    }

    #[test]
    fn wait_idle_returns_when_the_last_running_job_finishes() {
        let q = Queue::new(8);
        assert!(q.wait_idle(Duration::ZERO), "an empty queue is idle");
        q.submit(tiny_job(0)).unwrap();
        let job = q.claim().unwrap();
        assert_eq!(q.running_count(), 1);
        assert!(!q.wait_idle(Duration::from_millis(1)), "a job is running");
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_idle(Duration::from_secs(60)))
        };
        q.finish(
            &job,
            Summary {
                state: "done",
                ..Summary::default()
            },
        );
        assert!(waiter.join().unwrap(), "finish wakes the drain");
        assert_eq!(q.running_count(), 0);
    }

    #[test]
    fn finished_jobs_keep_only_their_status_rows() {
        let q = Queue::new(8);
        let mut plans = Vec::new();
        for i in 0..6 {
            let job = q.submit(tiny_job(i)).unwrap();
            // Undelivered events must go with the job.
            job.push_records(vec!["r".into()]);
            plans.push(Arc::downgrade(&job));
        }
        // Two cancelled while queued, four claimed and finished.
        q.cancel(0).unwrap();
        q.cancel(1).unwrap();
        for _ in 0..4 {
            let job = q.claim().unwrap();
            job.done_runs.fetch_add(job.plan.len(), Ordering::Relaxed);
            q.finish(
                &job,
                Summary {
                    state: "done",
                    ..Summary::default()
                },
            );
        }
        for (i, weak) in plans.iter().enumerate() {
            assert!(weak.upgrade().is_none(), "job {i} still holds its plan");
            assert!(q.get(i as u64).is_none());
        }
        let rows = q.snapshot();
        assert_eq!(rows.len(), 6, "every job keeps a status row");
        for r in &rows {
            let want = if r.id < 2 {
                JobState::Cancelled
            } else {
                JobState::Done
            };
            assert_eq!(r.state, want, "job {}", r.id);
            assert_eq!(r.runs, 1);
        }
        assert_eq!(rows[5].priority, 5);
        assert_eq!(rows[5].done, 1);
        assert!(q.cancel(3).unwrap_err().contains("already finished"));
    }
}
