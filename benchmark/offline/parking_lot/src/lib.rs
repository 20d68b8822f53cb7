//! Offline stand-in for `parking_lot`: `Mutex` and `Condvar` with the
//! published crate's poison-free signatures, built on `std::sync`.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// A mutual-exclusion lock whose `lock` never reports poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard of a held [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only while a `Condvar` wait has handed the std guard over.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard is held outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard is held outside a wait")
    }
}

/// Whether a timed wait ended by timing out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` when the wait reached its deadline.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Release the lock, wait for a notification, retake the lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard is held outside a wait");
        guard.inner = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] with a relative timeout.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let held = guard.inner.take().expect("guard is held outside a wait");
        let (held, res) = self
            .0
            .wait_timeout(held, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
        WaitTimeoutResult(res.timed_out())
    }

    /// [`Condvar::wait`] with an absolute deadline.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}
