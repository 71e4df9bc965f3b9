//! Debug-build lock-order detection (`lockdep`).
//!
//! [`OrderedMutex`] and [`OrderedCondvar`] are drop-in wrappers over the
//! `std::sync` primitives that, **in debug builds only**
//! (`cfg(debug_assertions)`), maintain a global graph of observed
//! lock-acquisition order between named *lock classes*:
//!
//! * every mutex is constructed with a `&'static str` class name
//!   (e.g. `"store.memory"`); distinct instances may share a class;
//! * acquiring class `B` while holding class `A` records the edge
//!   `A → B`;
//! * an acquisition whose new edge would close a cycle **panics
//!   immediately** with the named cycle path — turning a potential
//!   deadlock (which only manifests under a precise thread interleaving)
//!   into a deterministic failure on *any* interleaving that exercises
//!   both orders, even single-threaded test runs.
//!
//! The cycle check runs *before* the edge is inserted, so a caught
//! violation (e.g. `#[should_panic]` tests) leaves the graph acyclic and
//! later well-ordered acquisitions keep working. Acquiring a class that
//! is already held is permitted (distinct instances of one class, such
//! as per-key flight states, may nest); ordering is only enforced
//! *between* classes. [`OrderedCondvar::wait`] releases the guard's
//! class for the duration of the wait and re-records it on wake, exactly
//! mirroring the mutex the condvar temporarily releases.
//!
//! In release builds every wrapper compiles down to the plain `std`
//! primitive: no class field, no graph, no thread-local bookkeeping.
//!
//! Poisoning: the protected state in this workspace is cache/serve
//! bookkeeping that must survive a worker panic, so [`OrderedMutex::lock`]
//! recovers from poisoning (`PoisonError::into_inner`) instead of
//! propagating it. Tests that need to observe poisoning itself can reach
//! the wrapped primitive through [`OrderedMutex::raw`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[cfg(debug_assertions)]
mod lockgraph {
    //! The global class registry + order graph and the per-thread stack
    //! of held classes. Debug builds only.

    use std::cell::RefCell;
    use std::sync::{Mutex, PoisonError};

    struct Registry {
        /// Interned class names; a class id is an index into this table.
        classes: Vec<&'static str>,
        /// Adjacency lists: `edges[a]` holds every class observed to be
        /// acquired while `a` was held.
        edges: Vec<Vec<usize>>,
    }

    impl Registry {
        /// Directed path `from → … → to` over the recorded edges, if one
        /// exists (iterative DFS; the graph is tiny).
        fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
            let n = self.classes.len();
            let mut parent = vec![usize::MAX; n];
            let mut visited = vec![false; n];
            visited[from] = true;
            let mut stack = vec![from];
            while let Some(node) = stack.pop() {
                if node == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                for &next in &self.edges[node] {
                    if !visited[next] {
                        visited[next] = true;
                        parent[next] = node;
                        stack.push(next);
                    }
                }
            }
            None
        }
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        classes: Vec::new(),
        edges: Vec::new(),
    });

    thread_local! {
        /// Classes held by this thread, in acquisition order.
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn registry() -> std::sync::MutexGuard<'static, Registry> {
        // The registry itself must survive a poisoning panic (which the
        // cycle panic below causes by design).
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns `name`, returning its stable class id.
    pub(super) fn class_id(name: &'static str) -> usize {
        let mut reg = registry();
        if let Some(id) = reg.classes.iter().position(|&c| c == name) {
            return id;
        }
        reg.classes.push(name);
        reg.edges.push(Vec::new());
        reg.classes.len() - 1
    }

    /// Records an acquisition of `class`: adds an order edge from every
    /// held class, panicking — *before* inserting — if an edge would
    /// close a cycle.
    pub(super) fn acquire(class: usize) {
        let held: Vec<usize> = HELD.with(|h| h.borrow().clone());
        {
            let mut reg = registry();
            for &h in &held {
                if h == class || reg.edges[h].contains(&class) {
                    continue;
                }
                if let Some(path) = reg.path(class, h) {
                    let mut cycle: Vec<&str> = path.iter().map(|&i| reg.classes[i]).collect();
                    cycle.push(reg.classes[class]);
                    let acquiring = reg.classes[class];
                    let holding = reg.classes[h];
                    // Checked before insertion, so the graph stays
                    // acyclic even when this panic is caught.
                    panic!(
                        "lock-order cycle: acquiring \"{acquiring}\" while holding \
                         \"{holding}\" would close the cycle {}",
                        cycle.join(" -> ")
                    );
                }
                reg.edges[h].push(class);
            }
        }
        HELD.with(|h| h.borrow_mut().push(class));
    }

    /// Records a release of `class` (the most recent acquisition wins,
    /// matching nested same-class guards).
    pub(super) fn release(class: usize) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }
}

/// A [`Mutex`] tagged with a lock-order class, checked in debug builds.
/// See the [module docs](self) for the ordering discipline.
pub struct OrderedMutex<T> {
    inner: Mutex<T>,
    #[cfg(debug_assertions)]
    class: usize,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex belonging to lock class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        Self {
            inner: Mutex::new(value),
            #[cfg(debug_assertions)]
            class: lockgraph::class_id(name),
        }
    }

    /// Acquires the lock, recovering from poisoning (the guarded state
    /// in this workspace is bookkeeping a worker panic must not
    /// invalidate). In debug builds, first records the acquisition in
    /// the global order graph and panics on a lock-order cycle.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        lockgraph::acquire(self.class);
        OrderedGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            #[cfg(debug_assertions)]
            class: self.class,
        }
    }

    /// The wrapped mutex, bypassing both order tracking and poison
    /// recovery — for tests that assert on poisoning itself.
    pub fn raw(&self) -> &Mutex<T> {
        &self.inner
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex").finish_non_exhaustive()
    }
}

/// Guard returned by [`OrderedMutex::lock`]; releases the class in the
/// order tracker when dropped.
pub struct OrderedGuard<'a, T> {
    /// `Some` until dropped or consumed by [`OrderedCondvar::wait`].
    inner: Option<MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    class: usize,
}

impl<'a, T> OrderedGuard<'a, T> {
    fn guard(&self) -> &MutexGuard<'a, T> {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard emptied outside condvar wait"),
        }
    }
}

impl<T> Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard()
    }
}

impl<T> DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard emptied outside condvar wait"),
        }
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        // Release the lock before un-recording the class, mirroring the
        // record-then-acquire order in `lock`.
        if self.inner.take().is_some() {
            #[cfg(debug_assertions)]
            lockgraph::release(self.class);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self.guard(), f)
    }
}

/// A [`Condvar`] companion to [`OrderedMutex`]: `wait` releases the
/// guard's lock class for the duration of the wait (the mutex really is
/// unlocked) and re-records the acquisition on wake.
#[derive(Default)]
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// A fresh condition variable.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until notified, atomically releasing `guard`'s mutex;
    /// returns a re-acquired guard. Recovers from poisoning like
    /// [`OrderedMutex::lock`]. Use in the standard predicate loop —
    /// spurious wakeups happen.
    pub fn wait<'a, T>(&self, mut guard: OrderedGuard<'a, T>) -> OrderedGuard<'a, T> {
        #[cfg(debug_assertions)]
        let class = guard.class;
        let inner = match guard.inner.take() {
            Some(g) => g,
            None => unreachable!("guard emptied outside condvar wait"),
        };
        #[cfg(debug_assertions)]
        lockgraph::release(class);
        drop(guard);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        lockgraph::acquire(class);
        OrderedGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            class,
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedCondvar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test uses its own class names: the order graph is global to
    // the process, so sharing classes across tests would entangle them.

    #[cfg(debug_assertions)]
    #[test]
    fn inverted_two_lock_order_panics_with_the_named_cycle() {
        let a = OrderedMutex::new("test.inv.a", 0u32);
        let b = OrderedMutex::new("test.inv.b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records test.inv.a -> test.inv.b
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // would record test.inv.b -> test.inv.a
        }))
        .expect_err("inverted acquisition order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order cycle"), "got: {msg}");
        assert!(
            msg.contains("test.inv.a -> test.inv.b -> test.inv.a"),
            "cycle path must be named: {msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn caught_violation_leaves_the_graph_acyclic() {
        let a = OrderedMutex::new("test.acyclic.a", ());
        let b = OrderedMutex::new("test.acyclic.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let inverted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        }));
        assert!(inverted.is_err());
        // The rejected edge was never inserted: the sanctioned order
        // still works, and the inverse still fails (not vice versa).
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        }));
        assert!(again.is_err(), "inverse order must keep failing");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn transitive_cycles_are_caught() {
        let a = OrderedMutex::new("test.trans.a", ());
        let b = OrderedMutex::new("test.trans.b", ());
        let c = OrderedMutex::new("test.trans.c", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a -> b
        }
        {
            let _gb = b.lock();
            let _gc = c.lock(); // b -> c
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gc = c.lock();
            let _ga = a.lock(); // a -> b -> c -> a
        }))
        .expect_err("transitive inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("test.trans.a -> test.trans.b -> test.trans.c -> test.trans.a"),
            "got: {msg}"
        );
    }

    #[test]
    fn same_class_instances_may_nest() {
        let outer = OrderedMutex::new("test.nest", 1u32);
        let inner = OrderedMutex::new("test.nest", 2u32);
        let go = outer.lock();
        let gi = inner.lock();
        assert_eq!(*go + *gi, 3);
    }

    #[test]
    fn guard_reads_and_writes_the_value() {
        let m = OrderedMutex::new("test.rw", vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.lock().len(), 3);
    }

    #[test]
    fn lock_recovers_from_poison_but_raw_observes_it() {
        let m = OrderedMutex::new("test.poison", 7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.raw().lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.raw().lock().is_err(), "raw() must expose the poison");
        assert_eq!(*m.lock(), 7, "lock() must recover");
    }

    #[test]
    fn condvar_wait_releases_and_reacquires() {
        let done =
            std::sync::Arc::new((OrderedMutex::new("test.cv", false), OrderedCondvar::new()));
        let waker = std::sync::Arc::clone(&done);
        let t = std::thread::spawn(move || {
            *waker.0.lock() = true;
            waker.1.notify_all();
        });
        let mut g = done.0.lock();
        while !*g {
            g = done.1.wait(g);
        }
        drop(g);
        t.join().ok();
        // The waiting thread's held stack is balanced: a fresh ordered
        // acquisition after the wait works (and a debug-build cycle
        // check sees no phantom held class).
        let other = OrderedMutex::new("test.cv.after", ());
        let _ = other.lock();
    }
}
