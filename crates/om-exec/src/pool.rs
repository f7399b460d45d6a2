//! The persistent worker pool: om-server's pool idiom (threads blocking
//! on a crossbeam channel) generalized to arbitrary scatter/gather jobs.
//!
//! One [`Executor`] lives as long as the engine, so a request never pays
//! thread-spawn latency. The calling thread always participates — a pool
//! of width `w` holds `w - 1` threads, and width 1 holds none (pure
//! serial execution with zero synchronization).

use std::panic::{self, AssertUnwindSafe};
use std::thread::{self, JoinHandle};

use crossbeam::channel::{self, Sender};

use crate::config::ExecConfig;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent scatter/gather worker pool.
pub struct Executor {
    /// `None` only during drop (taking it disconnects the workers).
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    width: usize,
}

impl Executor {
    /// Spawn a pool of `config.effective_workers() - 1` threads (the
    /// caller is the remaining worker).
    #[must_use]
    pub fn new(config: &ExecConfig) -> Self {
        let width = config.effective_workers().max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        #[expect(
            clippy::expect_used,
            reason = "engine-startup thread spawn; OS thread exhaustion at boot is fatal by design"
        )]
        let handles = (1..width)
            .map(|i| {
                let rx = rx.clone();
                thread::Builder::new()
                    .name(format!("om-exec-{i}"))
                    .spawn(move || {
                        // om-lint: allow(budget-coverage) — pool workers live for the engine's lifetime; each queued job polls its own request budget
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn om-exec worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
            width,
        }
    }

    /// A width-1 executor: no threads, every job runs inline.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(&ExecConfig::serial())
    }

    /// Total workers including the calling thread.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Run every job and return their results in job order. The first
    /// job runs on the calling thread; the rest are queued to the pool
    /// (jobs may outnumber threads — the queue drains as workers free
    /// up, the caller blocking on gather). A panicking job is re-raised
    /// on the caller *after* all jobs finish, so pool threads survive
    /// (panic isolation mirrors om-server's per-request `catch_unwind`).
    pub fn scatter<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let (done_tx, done_rx) = channel::unbounded();
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else {
            return Vec::new(); // n >= 1, but running dry is a clean no-op
        };
        // `tx` is `None` only mid-drop, which no shared `&self` can
        // observe; if it ever happened, degrade to inline execution
        // rather than panic a request worker.
        let run_inline = self.handles.is_empty() || n == 1 || self.tx.is_none();
        if run_inline {
            return std::iter::once(first)
                .chain(jobs)
                .map(|job| job())
                .collect();
        }
        let Some(pool) = self.tx.as_ref() else {
            return std::iter::once(first)
                .chain(jobs)
                .map(|job| job())
                .collect();
        };
        for (i, job) in jobs.enumerate() {
            let done_tx = done_tx.clone();
            let queued = pool.send(Box::new(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(job));
                // A send error means the gatherer already resumed a
                // panic and dropped the receiver; nothing to do.
                let _ = done_tx.send((i + 1, result));
            }));
            assert!(queued.is_ok(), "om-exec workers alive");
        }

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut panic_payload = None;
        match panic::catch_unwind(AssertUnwindSafe(first)) {
            #[expect(clippy::indexing_slicing, reason = "n >= 1, slots has n entries")]
            Ok(v) => slots[0] = Some(v),
            Err(p) => panic_payload = Some(p),
        }
        // om-lint: allow(budget-coverage) — gathers exactly n-1 completions from jobs that poll their own budgets; panics are re-raised below
        for _ in 1..n {
            // Workers never exit while `self.tx` holds the channel, and
            // job panics are caught before the send — a recv error here
            // means the pool itself is gone, which is unrecoverable.
            #[expect(
                clippy::expect_used,
                reason = "pool invariant: workers outlive every scatter call"
            )]
            let (i, result) = done_rx.recv().expect("om-exec workers alive");
            match result {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "worker indices are enumerate()+1 < n"
                )]
                Ok(v) => slots[i] = Some(v),
                Err(p) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic_payload {
            panic::resume_unwind(p);
        }
        slots.into_iter().flatten().collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Disconnect the channel so workers fall out of their recv loop.
        self.tx.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_preserves_job_order() {
        let exec = Executor::new(&ExecConfig { workers: 4 });
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = exec.scatter(jobs);
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_executor_runs_inline() {
        let exec = Executor::serial();
        assert_eq!(exec.width(), 1);
        let id = std::thread::current().id();
        let jobs: Vec<Box<dyn FnOnce() -> bool + Send>> = (0..4)
            .map(|_| {
                Box::new(move || std::thread::current().id() == id)
                    as Box<dyn FnOnce() -> bool + Send>
            })
            .collect();
        assert!(exec.scatter(jobs).into_iter().all(|b| b));
    }

    #[test]
    fn panicking_job_propagates_but_pool_survives() {
        let exec = Executor::new(&ExecConfig { workers: 3 });
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("shard boom")),
            Box::new(|| 3),
        ];
        let r = panic::catch_unwind(AssertUnwindSafe(|| exec.scatter(jobs)));
        assert!(r.is_err());
        // The pool still works after the panic.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            (0..8u32).map(|i| Box::new(move || i) as _).collect();
        assert_eq!(exec.scatter(jobs), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn more_jobs_than_threads_completes() {
        let exec = Executor::new(&ExecConfig { workers: 2 });
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..100usize).map(|i| Box::new(move || i) as _).collect();
        assert_eq!(exec.scatter(jobs).len(), 100);
    }
}
