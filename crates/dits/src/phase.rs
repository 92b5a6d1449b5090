//! A thread-local traversal-vs-verification phase clock for the search
//! algorithms.
//!
//! Whether candidate verification or tree traversal dominates a search is
//! measured directly here: the overlap, coverage and kNN search paths charge
//! wall-clock time to one of two phases:
//!
//! * **traversal** — walking the DITS-L tree and computing the Lemma 2–4
//!   bounds that prune it (candidate collection, connect-set discovery);
//! * **verify** — exact computations over the surviving candidates
//!   (posting-list overlap scoring, greedy coverage picks).
//!
//! The clock is *thread-local* on purpose: every request is served on a
//! single thread (an engine worker for in-process transports, a connection
//! thread for TCP), so accumulation needs no synchronisation, and — the
//! load-bearing property — `SearchStats` stays untouched, preserving every
//! exact-equality parity test on the counters.
//!
//! Serving code drains the clock with [`take_phase_timings`] after each
//! request (and resets it before dispatch), then ships the split on the
//! transport frame next to the stats, never inside the message, so
//! `CommStats` byte accounting stays transport-invariant.

use std::cell::Cell;
use std::time::Duration;

/// Accumulated per-phase wall-clock time for one served request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time spent walking the index and evaluating pruning bounds.
    pub traversal: Duration,
    /// Time spent on exact verification of surviving candidates.
    pub verify: Duration,
}

impl PhaseTimings {
    /// Folds another measurement into this one.
    pub fn merge(&mut self, other: &PhaseTimings) {
        self.traversal += other.traversal;
        self.verify += other.verify;
    }

    /// `verify / (traversal + verify)`, or `None` when nothing was timed.
    pub fn verify_share(&self) -> Option<f64> {
        let total = self.traversal + self.verify;
        if total.is_zero() {
            return None;
        }
        Some(self.verify.as_secs_f64() / total.as_secs_f64())
    }
}

thread_local! {
    static TRAVERSAL: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    static VERIFY: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

pub(crate) fn add_traversal(elapsed: Duration) {
    TRAVERSAL.with(|c| c.set(c.get() + elapsed));
}

pub(crate) fn add_verify(elapsed: Duration) {
    VERIFY.with(|c| c.set(c.get() + elapsed));
}

/// Drains this thread's accumulated phase timings, resetting the clock.
///
/// Serving code calls this once per request *after* running the search (and
/// once before, discarding the result, to shed any residue another caller
/// on this thread may have left behind).
pub fn take_phase_timings() -> PhaseTimings {
    PhaseTimings {
        traversal: TRAVERSAL.with(|c| c.replace(Duration::ZERO)),
        verify: VERIFY.with(|c| c.replace(Duration::ZERO)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_accumulates_and_drains_per_thread() {
        let _ = take_phase_timings();
        add_traversal(Duration::from_nanos(10));
        add_traversal(Duration::from_nanos(5));
        add_verify(Duration::from_nanos(7));
        let timings = take_phase_timings();
        assert_eq!(timings.traversal, Duration::from_nanos(15));
        assert_eq!(timings.verify, Duration::from_nanos(7));
        // Drained: a second take sees zero.
        assert_eq!(take_phase_timings(), PhaseTimings::default());
        // Another thread's clock is independent.
        std::thread::spawn(|| {
            assert_eq!(take_phase_timings(), PhaseTimings::default());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn merge_and_verify_share() {
        let mut a = PhaseTimings {
            traversal: Duration::from_nanos(30),
            verify: Duration::from_nanos(10),
        };
        let b = PhaseTimings {
            traversal: Duration::from_nanos(10),
            verify: Duration::from_nanos(110),
        };
        a.merge(&b);
        assert_eq!(a.traversal, Duration::from_nanos(40));
        assert_eq!(a.verify, Duration::from_nanos(120));
        let share = a.verify_share().unwrap();
        assert!((share - 0.75).abs() < 1e-9);
        assert_eq!(PhaseTimings::default().verify_share(), None);
    }
}
