//! Deterministic work-partition scheduling for the rasterization fan-out.
//!
//! Both rasterizers walk an indexed list of independent jobs (tiles for the
//! baseline, groups for GS-TG) whose outputs write disjoint framebuffer
//! regions. [`TileScheduler`] owns the scoped-thread fan-out that was
//! previously duplicated in each pipeline: jobs are split into contiguous
//! chunks across worker threads and the outputs are returned **in job
//! order**, so merging them is bit-identical to the sequential walk
//! regardless of the thread count.

use crate::exec::ExecutionConfig;

/// Schedules an indexed list of independent jobs across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileScheduler {
    threads: usize,
}

impl TileScheduler {
    /// Creates a scheduler over the given number of worker threads
    /// (clamped to at least one).
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Creates a scheduler from a shared execution configuration.
    pub(crate) fn from_exec(exec: &ExecutionConfig) -> Self {
        Self::new(exec.threads)
    }

    /// Runs `work` for every job index in `0..job_count` and returns the
    /// outputs **in job order**.
    ///
    /// With one thread (or at most one job) the work runs inline on the
    /// caller's thread; otherwise the index range is split into contiguous
    /// chunks across scoped worker threads. Because outputs are collected
    /// chunk by chunk in order, the result vector is identical to the
    /// sequential one — the property the parallel-determinism tests pin
    /// down.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker.
    #[expect(
        clippy::expect_used,
        reason = "re-raising a worker panic is the only sound option"
    )]
    pub(crate) fn run<T, F>(&self, job_count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || job_count <= 1 {
            return (0..job_count).map(work).collect();
        }

        let workers = self.threads.min(job_count);
        let chunk_size = job_count.div_ceil(workers);
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..job_count)
                .step_by(chunk_size)
                .map(|start| {
                    let end = (start + chunk_size).min(job_count);
                    scope.spawn(move || (start..end).map(work).collect::<Vec<T>>())
                })
                .collect();
            let mut results = Vec::with_capacity(job_count);
            for handle in handles {
                results.extend(handle.join().expect("scheduler worker panicked"));
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(TileScheduler::new(0).threads, 1);
    }

    #[test]
    fn from_exec_uses_the_shared_thread_knob() {
        let exec = ExecutionConfig::parallel(3);
        assert_eq!(TileScheduler::from_exec(&exec).threads, 3);
    }

    #[test]
    fn outputs_are_in_job_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 200] {
            let results = TileScheduler::new(threads).run(97, |i| i * i);
            assert_eq!(results, expected, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let results = TileScheduler::new(4).run(50, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 50);
        assert_eq!(results.len(), 50);
    }

    #[test]
    fn empty_job_list_returns_empty() {
        let results: Vec<usize> = TileScheduler::new(4).run(0, |i| i);
        assert!(results.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        let results = TileScheduler::new(8).run(1, |i| i + 41);
        assert_eq!(results, vec![41]);
    }
}
