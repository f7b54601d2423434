//! Small concurrency primitives: the service's monitor.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A classic monitor: state guarded by a mutex plus a condition variable
/// for waiters. The building block of the tuning service's session
/// manager (bounded queue, state-change notification) — kept here so
/// other crates get the lock/notify pairing right by construction
/// (every mutation can notify; every wait re-checks its predicate).
#[derive(Debug, Default)]
pub struct Monitor<T> {
    state: Mutex<T>,
    cond: Condvar,
}

impl<T> Monitor<T> {
    pub fn new(state: T) -> Self {
        Self {
            state: Mutex::new(state),
            cond: Condvar::new(),
        }
    }

    /// Run `f` on the guarded state and wake all waiters afterwards.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.lock();
        let r = f(&mut guard);
        self.cond.notify_all();
        r
    }

    /// Read (or mutate without notifying) the guarded state.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock())
    }

    /// Block until `pred` holds, then run `f` on the state (still under
    /// the lock) and wake all waiters — the waiter itself usually mutates.
    pub fn wait_update<R>(
        &self,
        mut pred: impl FnMut(&T) -> bool,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let mut guard = self.lock();
        while !pred(&guard) {
            guard = self.cond.wait(guard).expect("monitor poisoned");
        }
        let r = f(&mut guard);
        self.cond.notify_all();
        r
    }

    /// Like [`wait_update`](Self::wait_update) with a timeout: returns
    /// `None` if `pred` still fails when the timeout elapses.
    pub fn wait_update_timeout<R>(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&T) -> bool,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let mut guard = self.lock();
        let mut remaining = timeout;
        while !pred(&guard) {
            let start = std::time::Instant::now();
            let (g, res) = self
                .cond
                .wait_timeout(guard, remaining)
                .expect("monitor poisoned");
            guard = g;
            if pred(&guard) {
                break;
            }
            if res.timed_out() {
                return None;
            }
            remaining = remaining.saturating_sub(start.elapsed());
        }
        let r = f(&mut guard);
        self.cond.notify_all();
        Some(r)
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock().expect("monitor poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_wait_observes_update() {
        let m = Monitor::new(0usize);
        std::thread::scope(|s| {
            s.spawn(|| {
                let seen = m.wait_update(|&v| v >= 3, |v| *v);
                assert_eq!(seen, 3);
            });
            for _ in 0..3 {
                m.update(|v| *v += 1);
            }
        });
        assert_eq!(m.with(|v| *v), 3);
    }

    #[test]
    fn monitor_wait_timeout_expires() {
        let m = Monitor::new(false);
        let r = m.wait_update_timeout(Duration::from_millis(20), |&v| v, |_| ());
        assert!(r.is_none());
        m.update(|v| *v = true);
        let r = m.wait_update_timeout(Duration::from_millis(20), |&v| v, |_| 7);
        assert_eq!(r, Some(7));
    }
}
