//! The persistent worker pool behind the threaded engines.
//!
//! Historically every threaded run paid a full `std::thread::scope`
//! spawn/join cycle per invocation. The pool keeps its workers alive and
//! parked on a condvar between jobs, so steady traffic through a
//! [`crate::service::WavefrontService`] (or repeated [`crate::Session`]
//! runs sharing one core) re-dispatches onto already-running threads.
//!
//! Tasks are plain boxed closures. A task that panics is contained by
//! the worker (`catch_unwind`), which survives to serve the next task;
//! the threaded engine catches its own cells' panics before that, so a
//! run still completes (see [`crate::exec_threads`]).
//!
//! # Runs of several jobs at once
//!
//! The service's dispatcher does not wait for a plain threaded job: it
//! launches the job and starts the next one as soon as
//! [`WorkerPool::wait_idle`] sees an idle worker and an empty queue, so
//! one job's drain runs under the next one's fill. The tasks of one job
//! wait on each other — a cell on its upstream neighbours' tiles (flow),
//! and across sweeps on the readers of its rows in sweep `s − L` (drain,
//! `L` the run's drain lag), which may have
//! been queued *after* it, as in a descending wave. That cannot deadlock,
//! because of three facts:
//!
//! 1. the queue is FIFO, and one thread enqueues (the dispatcher, or the
//!    one caller of a `Session`), so all tasks of a job are queued
//!    before any task of a later job;
//! 2. the pool has at least as many workers as the widest job
//!    ([`WorkerPool::ensure_workers`] runs before a job's tasks are
//!    queued, and the pool never shrinks);
//! 3. a task waits only on tasks of its own job.
//!
//! Take the earliest job J with a task not yet ended; every earlier job
//! has ended. While a task of J is still queued, no task of a later job
//! has been dequeued (1), so each worker is idle or runs a task of J —
//! and there are at least as many workers as J has tasks (2), so the
//! idle ones dequeue the rest of J. Once all of J's tasks run, J is a
//! single run with a worker per cell, whose waits all resolve (the
//! engine's own argument: waits point upstream within a sweep and at
//! earlier tiles across sweeps); tasks of later jobs running beside it
//! never hold J up (3). So J ends, and by induction every job does.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Task>,
    /// Workers spawned so far.
    workers: usize,
    /// Workers running a task now.
    running: usize,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    /// Signalled whenever a worker ends a task, or empties the queue
    /// while another worker is free: the moments
    /// [`WorkerPool::wait_idle`]'s condition can turn true.
    idle: Condvar,
}

/// A grow-on-demand pool of parked OS threads.
///
/// The engines enqueue one task per active rank (or mesh cell) and the
/// tasks of one job wait on each other (progress counters, or bounded
/// channels), so the caller **must** size the pool to the job's
/// concurrency with [`WorkerPool::ensure_workers`] before enqueueing — a
/// job whose tasks outnumber the workers could otherwise deadlock on its
/// own internal waits. [`execute`](WorkerPool::ensure_workers) never shrinks.
pub(crate) struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Total OS threads ever spawned by this pool — the observable the
    /// service tests assert on ("no per-job thread spawn").
    spawned: AtomicU64,
}

impl WorkerPool {
    /// An empty pool; workers are spawned lazily by `ensure_workers`.
    pub(crate) fn new() -> Self {
        WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    workers: 0,
                    running: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                idle: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
        }
    }

    /// Grow the pool to at least `n` parked workers (never shrinks).
    pub(crate) fn ensure_workers(&self, n: usize) {
        let mut workers = self.workers.lock().unwrap();
        while workers.len() < n {
            let inner = Arc::clone(&self.inner);
            self.spawned.fetch_add(1, Ordering::Relaxed);
            workers.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        let mut state = self.inner.state.lock().unwrap();
        state.workers = state.workers.max(workers.len());
    }

    /// Enqueue one task; a parked worker picks it up.
    pub(crate) fn execute(&self, task: Task) {
        let mut state = self.inner.state.lock().unwrap();
        debug_assert!(!state.shutdown, "task submitted to a shut-down pool");
        state.queue.push_back(task);
        drop(state);
        self.inner.work_ready.notify_one();
    }

    /// Block until the queue is empty and a worker is free: with `all`,
    /// until no task runs at all (every job launched so far has ended,
    /// its completion included); otherwise until some worker is idle,
    /// or none runs (a pool with no workers is idle).
    pub(crate) fn wait_idle(&self, all: bool) {
        let mut state = self.inner.state.lock().unwrap();
        while !(state.queue.is_empty()
            && (state.running == 0 || (!all && state.running < state.workers)))
        {
            state = self.inner.idle.wait(state).unwrap();
        }
    }

    /// Total OS threads this pool has ever spawned.
    pub(crate) fn spawn_count(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Workers currently alive (parked or running a task).
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.lock().unwrap().len()
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let task = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(task) = state.queue.pop_front() {
                    state.running += 1;
                    if state.queue.is_empty() && state.running < state.workers {
                        inner.idle.notify_all();
                    }
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).unwrap();
            }
        };
        // Contain task panics: the worker must survive to serve the next
        // job. (The task and what it captured are dropped before the
        // worker counts itself free.)
        let _ = catch_unwind(AssertUnwindSafe(task));
        inner.state.lock().unwrap().running -= 1;
        inner.idle.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.state.lock().unwrap().shutdown = true;
        self.inner.work_ready.notify_all();
        for h in self.workers.get_mut().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn tasks_run_and_workers_are_reused() {
        let pool = WorkerPool::new();
        pool.ensure_workers(3);
        assert_eq!(pool.spawn_count(), 3);
        for _ in 0..5 {
            let (tx, rx) = channel();
            for i in 0..3usize {
                let tx = tx.clone();
                pool.execute(Box::new(move || tx.send(i).unwrap()));
            }
            drop(tx);
            let mut got: Vec<usize> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2]);
        }
        // Five rounds of work, still only the initial three spawns.
        assert_eq!(pool.spawn_count(), 3);
        assert_eq!(pool.worker_count(), 3);
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_worker() {
        let pool = WorkerPool::new();
        pool.ensure_workers(1);
        pool.execute(Box::new(|| panic!("contained")));
        let (tx, rx) = channel();
        pool.execute(Box::new(move || tx.send(42u32).unwrap()));
        assert_eq!(rx.recv().unwrap(), 42);
        assert_eq!(pool.spawn_count(), 1);
    }

    #[test]
    fn wait_idle_sees_one_free_worker_or_none_busy() {
        use std::time::Duration;
        let pool = WorkerPool::new();
        // No workers: nothing can be running, so the pool is idle.
        pool.wait_idle(false);
        pool.wait_idle(true);
        pool.ensure_workers(2);
        let (release_tx, release_rx) = channel::<()>();
        pool.execute(Box::new(move || release_rx.recv().unwrap()));
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || {
                pool.wait_idle(false);
                tx.send(false).unwrap();
                pool.wait_idle(true);
                tx.send(true).unwrap();
            });
            // One worker takes the held task, the other stays free.
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(false));
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "`wait_idle(true)` returned while a task ran"
            );
            release_tx.send(()).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
        });
    }

    #[test]
    fn ensure_workers_never_shrinks() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        pool.ensure_workers(2);
        assert_eq!(pool.worker_count(), 4);
    }
}
