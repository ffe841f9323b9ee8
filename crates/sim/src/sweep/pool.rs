//! A std-only work-stealing thread pool for batch jobs.
//!
//! The sweep workload is a fixed batch of coarse, independent,
//! CPU-bound jobs (one simulation cell each), so the pool is batch-shaped:
//! jobs are dealt round-robin into per-worker deques up front, workers
//! drain their own deque LIFO, refill from a shared injector in chunks,
//! and steal FIFO from siblings when both run dry. No job ever spawns
//! another job, so a worker may exit as soon as the injector and every
//! deque are empty — work in flight on other workers cannot produce more.
//! The calling thread is worker 0: a one-worker batch spawns no thread, so
//! its jobs allocate in the caller's heap rather than a fresh per-thread
//! malloc arena.
//!
//! Two properties the sweep harness builds on:
//!
//! * **exactly-once**: every job is executed exactly once, on exactly one
//!   worker (jobs move between queues under mutexes; execution consumes
//!   the `FnOnce`);
//! * **panic isolation**: a panicking job is caught on its worker, turned
//!   into an [`Err`] carrying the panic payload, and does not take the
//!   worker (or any other job) down with it.
//!
//! Results are written into per-job slots and returned **ordered by job
//! index**, so the output is independent of worker count and completion
//! order — the foundation of the harness's determinism contract.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A boxed batch job producing a `T`.
pub type Task<T> = Box<dyn FnOnce() -> T + Send>;

/// How many jobs a worker pulls from the injector at once. Coarse jobs
/// (milliseconds to seconds each) keep contention negligible even at 1.
/// A small chunk still bounds injector round-trips for large batches.
const INJECTOR_CHUNK: usize = 4;

/// Render a `catch_unwind` payload as the panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute `tasks` on `workers` threads; return one result per task, in
/// task order. A task that panics yields `Err(panic message)`; every other
/// task still runs to completion.
///
/// `workers` is clamped to `1..=tasks.len()`. The calling thread is worker
/// 0 and `workers − 1` helpers are spawned beside it, so every width runs
/// the same queues and worker loop, and `workers == 1` spawns no thread:
/// its tasks run (and allocate) on the caller.
pub fn run_tasks<T: Send>(tasks: Vec<Task<T>>, workers: usize) -> Vec<Result<T, String>> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    // The injector holds indexed jobs; per-worker deques start empty and
    // are fed in chunks. Result slots are indexed by job id.
    type Deque<T> = Mutex<VecDeque<(usize, Task<T>)>>;
    let injector: Deque<T> = Mutex::new(tasks.into_iter().enumerate().collect());
    let locals: Vec<Deque<T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let worker = |w: usize| loop {
        // 1. Own deque, newest first (locality).
        let mut job = locals[w].lock().expect("local deque poisoned").pop_back();
        // 2. Refill a chunk from the shared injector.
        if job.is_none() {
            let mut inj = injector.lock().expect("injector poisoned");
            job = inj.pop_front();
            if job.is_some() {
                let mut local = locals[w].lock().expect("local deque poisoned");
                for _ in 1..INJECTOR_CHUNK {
                    match inj.pop_front() {
                        Some(j) => local.push_back(j),
                        None => break,
                    }
                }
            }
        }
        // 3. Steal oldest-first from a sibling.
        if job.is_none() {
            for v in (0..workers).filter(|&v| v != w) {
                job = locals[v].lock().expect("local deque poisoned").pop_front();
                if job.is_some() {
                    break;
                }
            }
        }
        // 4. Nothing anywhere: no job can create more, so exit.
        let Some((id, task)) = job else { return };
        let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(panic_message);
        *slots[id].lock().expect("result slot poisoned") = Some(outcome);
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        for w in 1..workers {
            scope.spawn(move || worker(w));
        }
        worker(0);
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(id, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("job {id} was never executed"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<Result<u32, _>> = run_tasks(Vec::new(), 8);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_task_order() {
        let tasks: Vec<Task<usize>> = (0..97usize)
            .map(|i| Box::new(move || i * 3) as Task<usize>)
            .collect();
        let out = run_tasks(tasks, 5);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("no panics"), i * 3);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let hits = std::sync::Arc::new(hits);
        let tasks: Vec<Task<()>> = (0..64)
            .map(|i| {
                let hits = std::sync::Arc::clone(&hits);
                Box::new(move || {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                }) as Task<()>
            })
            .collect();
        run_tasks(tasks, 8);
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn panicking_task_is_isolated() {
        let tasks: Vec<Task<u32>> = (0..10u32)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 4, "job four exploded");
                    i
                }) as Task<u32>
            })
            .collect();
        let out = run_tasks(tasks, 3);
        for (i, r) in out.iter().enumerate() {
            if i == 4 {
                let msg = r.as_ref().expect_err("job 4 panics");
                assert!(msg.contains("job four exploded"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().expect("others fine"), i as u32);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let make = || -> Vec<Task<u64>> {
            (0..40)
                .map(|i| Box::new(move || (i as u64).wrapping_mul(0x9e3779b9)) as Task<u64>)
                .collect()
        };
        let one: Vec<_> = run_tasks(make(), 1);
        let many: Vec<_> = run_tasks(make(), 16);
        assert_eq!(one, many);
    }
}
