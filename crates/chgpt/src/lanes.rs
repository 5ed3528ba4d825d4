//! Spare worker lanes, lent to the links that are still running.
//!
//! A campaign pool runs `threads` workers, and each worker holds one *lane*
//! while it works. A worker whose claim loop finds no items left gives its
//! lane back; a link still in progress can then borrow it for a helper
//! thread. Two kinds of work borrow:
//!
//! - binary segmentation hands the larger child of a decided window (at
//!   least [`LEND_MIN_SAMPLES`] long) to a helper, which segments that
//!   subtree with its own scratch;
//! - [`speculate`] starts a side computation (the study's loss campaign)
//!   on a helper while the owner keeps working.
//!
//! A thread blocked joining its helpers lends its own lane while it waits
//! and takes one back before it continues, so the number of threads doing
//! work never exceeds the lanes the pool started with. Helpers are scoped
//! threads and give their lane back when they finish, a panic included.
//!
//! The lanes reach the detector through a thread-local that pool workers
//! and helpers install ([`Lanes::install`]). A thread with nothing
//! installed — a sequential run, or a pool that runs its items inline —
//! never lends and never enters a thread scope, so its output and its
//! allocation count are exactly those of the serial detector. Each lent
//! window is a pure function of `(series[lo..hi], cfg, lo, hi)`, so who
//! runs it cannot show in the output either.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

/// Windows shorter than this are never lent: a helper costs a thread
/// start, which a short window's bootstrap does not pay back.
pub const LEND_MIN_SAMPLES: usize = 1024;

/// The spare lanes of one pool run.
#[derive(Debug, Default)]
pub struct Lanes {
    spare: AtomicUsize,
    /// Threads blocked in [`Lanes::take`], so [`Lanes::release`] knows to wake one.
    waiting: AtomicUsize,
    lock: Mutex<()>,
    freed: Condvar,
    lent: AtomicUsize,
    meter: Option<Meter>,
}

/// Test instrumentation: how many threads are inside [`Lanes::section`] at
/// once, and the most there ever were.
#[derive(Debug, Default)]
struct Meter {
    busy: AtomicUsize,
    peak: AtomicUsize,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Lanes>>> = const { RefCell::new(None) };
}

/// The lanes installed on this thread, if any.
pub fn current() -> Option<Arc<Lanes>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previously installed lanes on drop.
#[must_use = "the lanes are uninstalled when this guard drops"]
pub struct Installed {
    prev: Option<Arc<Lanes>>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Gives a helper's lane back when the helper ends, by return or by panic.
struct Held<'a>(&'a Lanes);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

impl Lanes {
    /// Lanes with `spare` of them free to lend.
    pub fn new(spare: usize) -> Arc<Lanes> {
        Arc::new(Lanes { spare: AtomicUsize::new(spare), ..Lanes::default() })
    }

    /// [`Lanes::new`] that also counts the threads inside
    /// [`Lanes::section`] (each segmentation window is one), for tests
    /// that check how many threads work at once ([`Lanes::peak_busy`]).
    pub fn metered(spare: usize) -> Arc<Lanes> {
        Arc::new(Lanes { spare: AtomicUsize::new(spare), meter: Some(Meter::default()), ..Lanes::default() })
    }

    /// Install these lanes on the calling thread until the guard drops.
    pub fn install(self: &Arc<Lanes>) -> Installed {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(self)));
        Installed { prev }
    }

    /// Lanes free right now.
    pub fn spare(&self) -> usize {
        self.spare.load(Ordering::SeqCst)
    }

    /// Lanes lent to helpers so far.
    pub fn lent(&self) -> usize {
        self.lent.load(Ordering::Relaxed)
    }

    /// The most threads ever inside [`Lanes::section`] at once (0 unless
    /// [`Lanes::metered`]).
    pub fn peak_busy(&self) -> usize {
        self.meter.as_ref().map_or(0, |m| m.peak.load(Ordering::SeqCst))
    }

    /// Run `work`, counted as one busy thread when metered.
    #[inline]
    pub fn section<T>(&self, work: impl FnOnce() -> T) -> T {
        let Some(m) = &self.meter else { return work() };
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let now = m.busy.fetch_add(1, Ordering::SeqCst) + 1;
        m.peak.fetch_max(now, Ordering::SeqCst);
        let _leave = Leave(&m.busy);
        work()
    }

    /// Give one lane back: a pool worker with no items left, a helper that
    /// finished, or a thread about to block on a join.
    pub fn release(&self) {
        self.spare.fetch_add(1, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.freed.notify_one();
        }
    }

    /// Claim a spare lane if there is one, without waiting.
    fn try_take(&self) -> bool {
        let mut n = self.spare.load(Ordering::Relaxed);
        while n > 0 {
            match self.spare.compare_exchange_weak(n, n - 1, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => n = now,
            }
        }
        false
    }

    /// Claim a spare lane for a helper, counting the loan.
    pub(crate) fn try_lend(&self) -> bool {
        let took = self.try_take();
        if took {
            self.lent.fetch_add(1, Ordering::Relaxed);
        }
        took
    }

    /// Claim a lane, waiting until one is free: a joiner taking its lane
    /// back. Every lane holder is working or about to release, so the wait
    /// ends.
    fn take(&self) {
        if self.try_take() {
            return;
        }
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        // Announce the wait before the last check, so a `release` that
        // lands after it sees the waiter and notifies under the lock.
        self.waiting.fetch_add(1, Ordering::SeqCst);
        while !self.try_take() {
            g = self.freed.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    /// Start `work` on a helper in `scope`, on a lane the caller already
    /// claimed with [`Lanes::try_lend`]. The helper runs with these lanes
    /// installed and gives its lane back when it ends.
    pub(crate) fn spawn_helper<'scope, 'env, T: Send + 'scope>(
        self: &Arc<Lanes>,
        scope: &'scope Scope<'scope, 'env>,
        work: impl FnOnce() -> T + Send + 'scope,
    ) -> ScopedJoinHandle<'scope, T> {
        let lanes = Arc::clone(self);
        scope.spawn(move || {
            let _held = Held(&lanes);
            let _installed = lanes.install();
            work()
        })
    }

    /// Join `helpers` in order, lending this thread's lane while it waits.
    /// A helper's panic resumes here once every helper has been joined and
    /// the lane is back, so the owner fails exactly as if it had run the
    /// helper's work itself.
    pub(crate) fn join_all<'scope, T>(
        &self,
        helpers: impl IntoIterator<Item = ScopedJoinHandle<'scope, T>>,
    ) -> Vec<T> {
        self.release();
        let joined: Vec<_> = helpers.into_iter().map(ScopedJoinHandle::join).collect();
        self.take();
        joined.into_iter().map(|r| r.unwrap_or_else(|payload| resume_unwind(payload))).collect()
    }
}

/// Run `main` here and, when `eager` and a lane is spare, `side` at once on
/// a helper. `main` receives a `take` function that returns `side`'s
/// result: it joins the helper (lending this thread's lane while it waits,
/// and resuming a helper panic here), or runs `side` inline if no helper
/// took it. Call `take` at most once. A result `main` never takes is
/// joined and dropped, a panic included, so an unused speculation cannot
/// fail the caller.
pub fn speculate<U: Send, T>(
    eager: bool,
    side: impl FnOnce() -> U + Send,
    main: impl FnOnce(&mut dyn FnMut() -> U) -> T,
) -> T {
    let lanes = if eager { current().filter(|l| l.try_lend()) } else { None };
    let Some(lanes) = lanes else {
        let mut side = Some(side);
        return main(&mut || (side.take().expect("speculative result taken twice"))());
    };
    std::thread::scope(|scope| {
        let mut helper = Some(lanes.spawn_helper(scope, side));
        let out = main(&mut || {
            let h = helper.take().expect("speculative result taken twice");
            lanes.join_all([h]).pop().expect("one helper joined")
        });
        if let Some(h) = helper {
            lanes.release();
            let _unused = h.join();
            lanes.take();
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn nothing_installed_means_no_lanes() {
        assert!(current().is_none());
        let lanes = Lanes::new(2);
        {
            let _g = lanes.install();
            assert!(current().is_some_and(|l| Arc::ptr_eq(&l, &lanes)));
            let inner = Lanes::new(0);
            let _h = inner.install();
            assert!(current().is_some_and(|l| Arc::ptr_eq(&l, &inner)));
        }
        assert!(current().is_none());
    }

    #[test]
    fn speculation_without_a_lane_runs_inline_and_lazily() {
        let ran = AtomicUsize::new(0);
        let side = || ran.fetch_add(1, Ordering::SeqCst) + 41;
        assert_eq!(speculate(true, side, |_| 7), 7);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "an untaken inline side never runs");
        assert_eq!(speculate(true, side, |take| take()), 41);
        let lanes = Lanes::new(1);
        let _g = lanes.install();
        assert_eq!(speculate(false, side, |take| take()), 42);
        assert_eq!(lanes.lent(), 0, "eager = false never lends");
    }

    #[test]
    fn speculation_on_a_spare_lane_returns_the_lane() {
        let lanes = Lanes::new(1);
        let _g = lanes.install();
        assert_eq!(speculate(true, || 5, |take| take() * 2), 10);
        assert_eq!(speculate(true, || 5, |_| 3), 3);
        assert_eq!(lanes.lent(), 2);
        assert_eq!(lanes.spare(), 1);
    }

    #[test]
    fn an_unused_speculative_panic_is_dropped_and_a_used_one_resumes() {
        let lanes = Lanes::new(1);
        let _g = lanes.install();
        let side = || -> u32 { panic!("speculative side failed") };
        assert_eq!(speculate(true, side, |_| 9), 9);
        assert_eq!(lanes.spare(), 1);
        let err = catch_unwind(AssertUnwindSafe(|| speculate(true, side, |take| take()))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"speculative side failed"));
        assert_eq!(lanes.spare(), 1);
        assert_eq!(lanes.lent(), 2);
    }

    #[test]
    fn a_joiner_lends_its_lane_and_takes_one_back() {
        // Two lanes: this thread's and one spare, lent to the helper.
        let lanes = Lanes::metered(1);
        let _g = lanes.install();
        assert!(lanes.try_lend());
        assert_eq!(lanes.spare(), 0);
        std::thread::scope(|s| {
            let h = lanes.spawn_helper(s, || lanes.section(|| 3));
            assert_eq!(lanes.join_all([h]), [3]);
        });
        assert_eq!(lanes.spare(), 1);
        assert_eq!(lanes.peak_busy(), 1);
    }
}
