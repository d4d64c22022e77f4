//! Bounded worker pool and batch result cells.
//!
//! The pool provides *physical* parallelism only: jobs submitted to it are
//! pure batched inference closures whose results land in a [`BatchPromise`].
//! All observable state mutation stays on the caller thread (see the crate
//! docs), so the pool affects wall-clock timing but never results. Uses
//! `std::sync::{Mutex, Condvar}` — the vendored `parking_lot` shim has no
//! condition variables. A panicking job never takes the pool down: workers
//! catch it, and every lock recovers from poisoning, since no critical
//! section here can leave its state half-written.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks `mutex`, taking the state over from a thread that panicked while
/// holding it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Fixed-size thread pool with a bounded job queue.
///
/// [`WorkerPool::submit`] blocks the producer while the queue is full — this
/// is the gateway's physical backpressure. Dropping the pool drains
/// outstanding jobs and joins every worker.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (min 1) behind a queue of `queue_capacity`
    /// jobs (min 1).
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: queue_capacity.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job, blocking while the queue is at capacity
    /// (backpressure). Jobs submitted after shutdown are dropped.
    pub fn submit(&self, job: Job) {
        let mut state = lock(&self.shared.state);
        while state.queue.len() >= self.shared.capacity && !state.shutdown {
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.shutdown {
            return;
        }
        state.queue.push_back(job);
        drop(state);
        self.shared.not_empty.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.not_full.notify_one();
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A job that panics must not kill its worker: the pool would shrink
        // and, with every worker gone, `submit` would block forever.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// One-shot cell a batched inference result is published into.
///
/// The worker settles it exactly once, with [`BatchPromise::fill`] or, when
/// inference failed, [`BatchPromise::fail`]; callers block in
/// [`BatchPromise::get`] until it is settled. When the gateway runs with
/// zero workers the promise is settled inline before anyone waits.
pub struct BatchPromise {
    /// `None` until settled; then `Some(None)` for a failed batch.
    slot: Mutex<Option<Option<Vec<f64>>>>,
    ready: Condvar,
}

impl BatchPromise {
    /// Creates an unfilled promise.
    pub fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Publishes the batch results (first settle wins).
    pub fn fill(&self, values: Vec<f64>) {
        self.settle(Some(values));
    }

    /// Marks the batch as failed — its inference panicked or answered the
    /// wrong number of rows — so no row has a value (first settle wins).
    pub fn fail(&self) {
        self.settle(None);
    }

    fn settle(&self, values: Option<Vec<f64>>) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some(values);
        }
        drop(slot);
        self.ready.notify_all();
    }

    /// Blocks until the batch is settled, then returns row `index` — `None`
    /// when the batch failed or returned no value for that row.
    pub fn get(&self, index: usize) -> Option<f64> {
        let mut slot = lock(&self.slot);
        while slot.is_none() {
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.as_ref()
            .and_then(Option::as_ref)
            .and_then(|values| values.get(index).copied())
    }
}

impl Default for BatchPromise {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let pool = WorkerPool::new(4, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(BatchPromise::new());
        let total = 64;
        for i in 0..total {
            let counter = Arc::clone(&counter);
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                if counter.fetch_add(1, Ordering::SeqCst) + 1 == total {
                    done.fill(vec![i as f64]);
                }
            }));
        }
        assert!(done.get(0).is_some());
        assert_eq!(counter.load(Ordering::SeqCst), total);
    }

    #[test]
    fn promise_blocks_until_filled() {
        let promise = Arc::new(BatchPromise::new());
        let writer = Arc::clone(&promise);
        let handle = std::thread::spawn(move || writer.fill(vec![2.5, 7.5]));
        assert_eq!(promise.get(1), Some(7.5));
        assert_eq!(promise.get(2), None, "no value past the batch");
        handle.join().unwrap();
    }

    #[test]
    fn failed_promise_wakes_waiters_with_no_value() {
        let promise = Arc::new(BatchPromise::new());
        let writer = Arc::clone(&promise);
        let handle = std::thread::spawn(move || writer.fail());
        assert_eq!(promise.get(0), None);
        handle.join().unwrap();
        promise.fill(vec![1.0]);
        assert_eq!(promise.get(0), None, "first settle wins");
    }

    #[test]
    fn panicking_job_keeps_the_worker_alive() {
        let pool = WorkerPool::new(1, 1);
        pool.submit(Box::new(|| panic!("job panicked")));
        let done = Arc::new(BatchPromise::new());
        let writer = Arc::clone(&done);
        pool.submit(Box::new(move || writer.fill(vec![3.0])));
        assert_eq!(done.get(0), Some(3.0));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2, 2);
        pool.submit(Box::new(|| {}));
        drop(pool); // must not hang
    }
}
