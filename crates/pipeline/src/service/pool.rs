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
//! the engines detect the loss through their result channels
//! disconnecting, exactly as they previously detected a panicked scoped
//! thread through `join()`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_ready: Condvar,
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
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
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
    }

    /// Enqueue one task; a parked worker picks it up.
    pub(crate) fn execute(&self, task: Task) {
        let mut state = self.inner.state.lock().unwrap();
        debug_assert!(!state.shutdown, "task submitted to a shut-down pool");
        state.queue.push_back(task);
        drop(state);
        self.inner.work_ready.notify_one();
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
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).unwrap();
            }
        };
        // Contain task panics: the worker must survive to serve the next
        // job. The engine that owns the task observes the failure through
        // its result channel hanging up.
        let _ = catch_unwind(AssertUnwindSafe(task));
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
    fn ensure_workers_never_shrinks() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        pool.ensure_workers(2);
        assert_eq!(pool.worker_count(), 4);
    }
}
