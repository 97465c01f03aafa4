//! The engine's one mutex type, [`LeafMutex`].
//!
//! Every engine mutex (the queue state, the registry state, each job's
//! phase and each pool slot) is a *leaf lock*: a thread never takes one
//! while it holds a guard on another, or on the same one. Code that needs
//! two releases the first guard before it takes the second, as
//! `JobQueue::push` does before it finishes a shed victim's handle. O(n)
//! scene preparation runs outside every guard ([`assert_unlocked`]).
//!
//! Debug builds check this at run time, across function calls: a
//! thread-local records the guard the thread holds, and the guard clears
//! it when it drops, on unwind too. Release builds only recover poison.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[cfg(debug_assertions)]
thread_local! {
    /// The name of the engine mutex whose guard this thread holds, if any.
    /// The leaf rule keeps the count of live guards at zero or one.
    static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// A [`Mutex`] that recovers from poison and, in a debug build, asserts
/// that the locking thread holds no other engine guard.
#[derive(Debug)]
pub(crate) struct LeafMutex<T> {
    inner: Mutex<T>,
    /// Which engine mutex this is, for the lock-order assertion.
    #[cfg(debug_assertions)]
    name: &'static str,
}

impl<T> LeafMutex<T> {
    /// `name` identifies the mutex in a debug build's assertion message;
    /// a release build does not keep it.
    pub(crate) fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        Self {
            inner: Mutex::new(value),
            #[cfg(debug_assertions)]
            name,
        }
    }

    /// Locks the mutex, recovering a poisoned lock: every engine critical
    /// section completes its mutation before the guard drops, and a serving
    /// engine must never wedge on a lock nobody will unpoison. In a debug
    /// build, fails an assertion when this thread already holds a guard,
    /// another mutex's (nesting) or this one's (a self-deadlock).
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn lock(&self) -> LeafGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            assert_holds_none(format_args!("locking the engine mutex `{}`", self.name));
            HELD.set(Some(self.name));
        }
        LeafGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: Held,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// The guard of a [`LeafMutex`]; it derefs to the protected state.
pub(crate) struct LeafGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: Held,
}

impl<T> LeafGuard<'_, T> {
    /// Releases the mutex, blocks until `condvar` is notified and retakes
    /// it, recovering poison like [`LeafMutex::lock`]. The thread still
    /// counts as holding the guard: it runs nothing while it sleeps.
    pub(crate) fn wait(mut self, condvar: &Condvar) -> Self {
        self.inner = condvar
            .wait(self.inner)
            .unwrap_or_else(PoisonError::into_inner);
        self
    }
}

impl<T> Deref for LeafGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for LeafGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Fails a debug assertion when the calling thread holds a [`LeafMutex`]
/// guard. O(n) work that must run outside every engine mutex (scene
/// preparation) calls it first; a release build does nothing.
#[cfg_attr(debug_assertions, track_caller)]
pub(crate) fn assert_unlocked() {
    #[cfg(debug_assertions)]
    assert_holds_none("O(n) work that must run outside every engine mutex started");
}

#[cfg(debug_assertions)]
#[track_caller]
fn assert_holds_none(what: impl std::fmt::Display) {
    let held = HELD.get();
    assert!(
        held.is_none(),
        "{what} while this thread holds the engine mutex `{}`: engine mutexes \
         are leaf locks, so release that guard first",
        held.unwrap_or_default()
    );
}

/// Clears the thread's record of its guard when the guard drops.
#[cfg(debug_assertions)]
struct Held;

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PreparedScene;
    use splat_scene::{PaperScene, SceneScale};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// Runs `f` under a guard on `held` and returns the message `f`
    /// panicked with.
    #[cfg(debug_assertions)]
    fn under_guard(held: &LeafMutex<()>, f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _held = held.lock();
            f();
        }))
        .expect_err("the assertion must fire");
        // The unwind dropped the guard: this thread holds nothing.
        drop(held.lock());
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nesting_two_different_mutexes_fails_and_names_both() {
        let registry = LeafMutex::new("registry", ());
        let message = under_guard(&LeafMutex::new("queue", ()), || drop(registry.lock()));
        assert!(
            message.starts_with(
                "locking the engine mutex `registry` while this thread holds the engine mutex `queue`"
            ),
            "{message}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nesting_two_pool_slots_fails() {
        let slot = LeafMutex::new("pool slot", ());
        let message = under_guard(&LeafMutex::new("pool slot", ()), || drop(slot.lock()));
        assert!(message.contains("leaf locks"), "{message}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn relocking_the_same_mutex_fails_instead_of_deadlocking() {
        let queue = LeafMutex::new("queue", ());
        let message = under_guard(&queue, || drop(queue.lock()));
        assert!(
            message.contains("holds the engine mutex `queue`"),
            "{message}"
        );
    }

    #[test]
    fn sequential_locks_drops_temporaries_and_condvar_waits_pass() {
        let queue = LeafMutex::new("queue", 0);
        let registry = LeafMutex::new("registry", 1);
        {
            let mut queued = queue.lock();
            *queued += 1;
        }
        let queued = queue.lock();
        drop(queued);
        let registered = *registry.lock();
        *queue.lock() += registered;
        assert_eq!(*queue.lock(), 2);

        let phase = Arc::new((LeafMutex::new("job phase", false), Condvar::new()));
        let finisher = {
            let phase = Arc::clone(&phase);
            std::thread::spawn(move || {
                *phase.0.lock() = true;
                phase.1.notify_all();
            })
        };
        let mut finished = phase.0.lock();
        while !*finished {
            finished = finished.wait(&phase.1);
        }
        drop(finished);
        finisher.join().expect("the finisher does not panic");
        drop(registry.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn scene_preparation_under_a_guard_fails() {
        let message = under_guard(&LeafMutex::new("registry", ()), || {
            let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
            drop(PreparedScene::prepare(scene, false));
        });
        assert!(message.starts_with("O(n) work"), "{message}");
        assert!(message.contains("`registry`"), "{message}");
    }

    #[test]
    fn scene_preparation_outside_guards_passes() {
        drop(LeafMutex::new("registry", ()).lock());
        let scene = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0));
        assert!(PreparedScene::prepare(scene, true).is_ok());
    }

    /// Poison recovery is the release behavior too, so this runs in both
    /// builds.
    #[test]
    fn a_poisoned_mutex_recovers() {
        let queue = LeafMutex::new("queue", 1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            *queue.lock() = 2;
            let _queue = queue.lock();
            panic!("panic while holding the guard");
        }));
        assert!(result.is_err());
        assert!(queue.is_poisoned());
        assert_eq!(*queue.lock(), 2);
        // The unwind cleared the thread's record.
        drop(LeafMutex::new("registry", ()).lock());
    }
}
