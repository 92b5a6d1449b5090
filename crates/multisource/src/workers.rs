//! The worker pool every parallel step of this crate runs on: the engine's
//! shard fan-out ([`par_map`]) and the framework's build
//! ([`MultiSourceFramework::try_build`](crate::MultiSourceFramework::try_build)).
//! Both follow one rule for how many workers a setting means
//! ([`resolve_workers`]) and one for a worker that panicked: the run returns
//! [`SearchError::Internal`] once every worker has ended.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::error::SearchError;

/// Resolves a worker-count setting: `0` means one worker per available CPU,
/// asked of the OS once per process (the call takes microseconds).
pub(crate) fn resolve_workers(configured: usize) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    if configured > 0 {
        configured
    } else {
        *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
    }
}

/// Below this many tasks a [`par_map`] stays on the calling thread: spawning
/// and joining OS threads costs tens of microseconds, which swamps the work
/// of a handful of shard searches (e.g. one query routed to five sources via
/// the single-query convenience wrappers).
pub(crate) const MIN_PARALLEL_TASKS: usize = 8;

/// Runs `work` on `count` workers at once — the calling thread and
/// `count − 1` scoped threads — and returns what each returned, the calling
/// thread's first.  A worker that panicked makes the run
/// [`SearchError::Internal`]; the others are joined first all the same.
pub(crate) fn on_workers<R, F>(count: usize, work: F) -> Result<Vec<R>, SearchError>
where
    R: Send,
    F: Fn() -> R + Sync,
{
    let ended: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..count).map(|_| scope.spawn(&work)).collect();
        let own = catch_unwind(AssertUnwindSafe(&work));
        std::iter::once(own)
            .chain(spawned.into_iter().map(|handle| handle.join()))
            .collect()
    });
    ended
        .into_iter()
        .map(|result| result.map_err(|_| SearchError::Internal("a worker panicked")))
        .collect()
}

/// Maps `f` over `tasks` on [`on_workers`] and returns the results **in task
/// order**, ending at the first result `stop` accepts.
///
/// A result `stop` accepts parks the claim cursor past the end, so no task
/// is started after it; the workers finish the tasks they hold, whose
/// results are dropped.  The cursor only grows, so every task below the one
/// that parked it was claimed and ran: the results up to the lowest task
/// `stop` accepts are all there, on the pool as on the calling thread.  The
/// only `Err` is a worker that panicked.
///
/// With one worker (or fewer than [`MIN_PARALLEL_TASKS`] tasks) the pool is
/// bypassed entirely, which doubles as the sequential reference path the
/// parity tests compare against.
pub(crate) fn par_map<T, R, F, S>(
    tasks: &[T],
    workers: usize,
    f: F,
    stop: S,
) -> Result<Vec<R>, SearchError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: Fn(&R) -> bool + Sync,
{
    let worker_count = if tasks.len() < MIN_PARALLEL_TASKS {
        1
    } else {
        resolve_workers(workers).min(tasks.len())
    };
    /// What `ran` yields, through the first result `stop` accepts; `ran` is
    /// lazy, so on the calling thread nothing runs after it.
    fn through_stop<R>(ran: impl Iterator<Item = R>, stop: impl Fn(&R) -> bool) -> Vec<R> {
        let mut results = Vec::new();
        for result in ran {
            let stopped = stop(&result);
            results.push(result);
            if stopped {
                break;
            }
        }
        results
    }
    if worker_count <= 1 {
        return Ok(through_stop(tasks.iter().map(f), stop));
    }

    let cursor = AtomicUsize::new(0);
    let blocks: Vec<Vec<(usize, R)>> = on_workers(worker_count, || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { break };
            let result = f(task);
            if stop(&result) {
                cursor.store(tasks.len(), Ordering::Relaxed);
            }
            local.push((i, result));
        }
        local
    })?;

    let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
    for (i, result) in blocks.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result);
        }
    }
    Ok(through_stop(slots.into_iter().map_while(|slot| slot), stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn par_map_returns_results_in_task_order() {
        let tasks: Vec<usize> = (0..100).collect();
        let results = par_map(&tasks, 7, |&t| t * 2, |_| false).unwrap();
        assert_eq!(results, (0..100).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_sequential_path_matches_the_pool() {
        let tasks: Vec<usize> = (0..37).collect();
        let seq = par_map(&tasks, 1, |&t| t + 10, |&r| r == 40).unwrap();
        let par = par_map(&tasks, 8, |&t| t + 10, |&r| r == 40).unwrap();
        assert_eq!(seq, (10..=40).collect::<Vec<_>>());
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_ends_at_the_lowest_stopping_task() {
        let fails = |r: &Result<usize, SearchError>| r.is_err();
        let tasks: Vec<usize> = (0..50).collect();
        let results = par_map(
            &tasks,
            4,
            |&t| match t {
                23 => Err(SearchError::Internal("boom")),
                _ => Ok(t),
            },
            fails,
        )
        .unwrap();
        assert_eq!(results.len(), 24);
        assert_eq!(results.last(), Some(&Err(SearchError::Internal("boom"))));
        // Two stopping tasks: the results end at the lower one, whichever
        // worker claimed it.  Neither returns before both are claimed; the
        // other tasks take a millisecond each, so the four workers
        // interleave.
        let tasks: Vec<usize> = (0..40).collect();
        for _ in 0..20 {
            let both_claimed = std::sync::Barrier::new(2);
            let results = par_map(
                &tasks,
                4,
                |&t| match t {
                    5 | 30 => {
                        both_claimed.wait();
                        Err(SearchError::Internal(if t == 5 { "early" } else { "late" }))
                    }
                    _ => {
                        std::thread::sleep(Duration::from_millis(1));
                        Ok(t)
                    }
                },
                fails,
            )
            .unwrap();
            let expected: Vec<Result<usize, SearchError>> = (0..5)
                .map(Ok)
                .chain([Err(SearchError::Internal("early"))])
                .collect();
            assert_eq!(results, expected);
        }
        // Sequential path too.
        let results = par_map(
            &tasks[..4],
            1,
            |&t| match t {
                2 => Err(SearchError::Internal("boom")),
                _ => Ok(t),
            },
            fails,
        )
        .unwrap();
        assert_eq!(
            results,
            vec![Ok(0), Ok(1), Err(SearchError::Internal("boom"))]
        );
    }

    /// The calling thread is one of the workers, and a panic on any worker —
    /// the calling thread's included — is the run's `Internal` error, after
    /// every other worker has run to its end.
    #[test]
    fn on_workers_counts_the_caller_and_turns_a_panic_into_an_error() {
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let ids = on_workers(3, || {
            ran.fetch_add(1, Ordering::Relaxed);
            std::thread::current().id()
        })
        .unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller));
        // The calling thread panics, then the first spawned worker to start.
        for on_the_caller in [true, false] {
            let ran = AtomicUsize::new(0);
            let spawned_started = AtomicUsize::new(0);
            let result = on_workers(3, || {
                ran.fetch_add(1, Ordering::SeqCst);
                let fails = if std::thread::current().id() == caller {
                    on_the_caller
                } else {
                    !on_the_caller && spawned_started.fetch_add(1, Ordering::SeqCst) == 0
                };
                assert!(!fails, "this worker fails on purpose");
            });
            assert_eq!(result, Err(SearchError::Internal("a worker panicked")));
            assert_eq!(ran.load(Ordering::SeqCst), 3);
        }
    }
}
