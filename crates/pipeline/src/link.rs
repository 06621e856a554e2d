//! The shared-memory hand-off: a tile-progress counter per cell.
//!
//! On a shared-memory host a neighbour's boundary is already in memory,
//! so nothing has to be *sent* — a downstream cell only has to learn
//! that the rows it is about to read are final, and (when sweeps repeat)
//! an upstream cell that the rows it is about to overwrite have been
//! read. Both questions are "how many tiles has that cell completed?",
//! so each cell owns one monotone [`Progress`] counter of tiles
//! completed, numbered globally across sweeps (`sweep · tiles + tile`),
//! and every link of that cell, in both directions, reads it: downstream
//! neighbours as *flow* progress, upstream neighbours as the *drain*
//! progress of sweep `s − L`, `L` the run's drain lag (the rotation
//! keeps a written buffer out of the written arrays for `L − 1` sweeps,
//! `TileGraph::lag`). The scheduler moves no data (Pipeflow's join
//! counters, PAPERS.md).
//!
//! * [`Progress::post`] is a `Release` store: everything the poster
//!   wrote before it happens-before whatever a waiter does after the
//!   `Acquire` load that observes it.
//! * [`Progress::wait`] spins for a bounded few microseconds and then
//!   parks on a condvar — the service runs more engine workers than the
//!   host has cores, where unbounded spinning starves the poster.
//! * [`Progress::poison_on_panic`] arms a drop guard: a worker that
//!   unwinds marks its counter poisoned and wakes everyone parked on
//!   it, whose own `wait` then fails, so a panic cascades to every cell
//!   that could otherwise wait forever.
//!
//! The threaded engine builds its in-place exchange from these, and
//! [`crate::tune::calibrate_host`] ping-pongs over the same type, so the
//! α the block-size models are fed is the α the engine pays.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a waiter spins before it parks: a few microseconds by the
/// clock (a `PAUSE` is 4 ns on one x86 generation and 50 ns on the
/// next, so a count would not say). Long enough to catch a neighbour
/// that is about to finish its tile on another core at the cost of one
/// cache-line transfer; short enough not to hold a core the poster may
/// need when the service runs more workers than the host has cores.
const SPIN_FOR: Duration = Duration::from_micros(4);

/// Loads between two looks at the clock while spinning.
const SPIN_BATCH: u32 = 32;

/// The cell that owns the counter panicked before reaching the awaited
/// tile; nothing will ever post it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Poisoned;

/// One cell's count of completed tiles. One poster (the owning cell),
/// any number of waiters. Aligned to its own pair of cache lines: the
/// counters of one run are allocated back to back, and two cells
/// posting into one line would trade it on every tile.
#[repr(align(128))]
pub(crate) struct Progress {
    done: AtomicU64,
    poisoned: AtomicBool,
    /// Waiters past their spin budget, registered so `post` knows
    /// whether anyone needs the condvar at all.
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    wake: Condvar,
    #[cfg(test)]
    chaos: Option<chaos::Jitter>,
}

impl Progress {
    pub(crate) fn new() -> Self {
        Progress {
            done: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            #[cfg(test)]
            chaos: chaos::Jitter::from_thread_seed(),
        }
    }

    /// Publish that `n` tiles are complete (monotone: `n` never falls).
    ///
    /// Ordering: the store is the `Release` half of the hand-off — it
    /// pairs with the `Acquire` loads in [`Progress::wait`]. It is
    /// `SeqCst` (which includes `Release`) because it must also be
    /// ordered *before this thread's own* load of `sleepers`, a
    /// store→load order `Release` alone does not give: a parking waiter
    /// does the mirror image (`sleepers += 1`, then load `done`), and
    /// with both pairs in one total order at least one side sees the
    /// other — the waiter sees the new count, or the poster sees the
    /// sleeper and notifies under the gate.
    pub(crate) fn post(&self, n: u64) {
        #[cfg(test)]
        self.jitter();
        debug_assert!(
            n >= self.done.load(Ordering::Relaxed),
            "progress is monotone"
        );
        self.done.store(n, Ordering::SeqCst);
        self.wake_sleepers();
    }

    /// Block until at least `n` tiles are complete. Fails only when the
    /// owner panicked first.
    pub(crate) fn wait(&self, n: u64) -> Result<(), Poisoned> {
        let outcome = self.spin(n).unwrap_or_else(|| self.park(n));
        #[cfg(test)]
        self.jitter();
        outcome
    }

    /// The bounded spin: `None` when [`SPIN_FOR`] passed undecided.
    fn spin(&self, n: u64) -> Option<Result<(), Poisoned>> {
        let mut since: Option<Instant> = None;
        loop {
            for _ in 0..SPIN_BATCH {
                // Acquire: pairs with the Release store in `post`.
                if self.done.load(Ordering::Acquire) >= n {
                    return Some(Ok(()));
                }
                if self.poisoned.load(Ordering::Acquire) {
                    return Some(Err(Poisoned));
                }
                std::hint::spin_loop();
            }
            // The first batch reads no clock: a wait that is already
            // satisfied, or nearly, costs loads only.
            match since {
                None => since = Some(Instant::now()),
                Some(t) if t.elapsed() >= SPIN_FOR => return None,
                Some(_) => {}
            }
        }
    }

    fn park(&self, n: u64) -> Result<(), Poisoned> {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut gate = self.gate();
        let outcome = loop {
            // SeqCst (includes Acquire): see `post` for why the
            // re-check after registering must not be reordered before
            // the registration.
            if self.done.load(Ordering::SeqCst) >= n {
                break Ok(());
            }
            if self.poisoned.load(Ordering::SeqCst) {
                break Err(Poisoned);
            }
            gate = self.wake.wait(gate).unwrap_or_else(PoisonError::into_inner);
        };
        drop(gate);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Arm the poison guard for the owning worker: if the guard is
    /// dropped by a panic unwinding through it, every waiter is woken
    /// with [`Poisoned`].
    pub(crate) fn poison_on_panic(&self) -> PoisonGuard<'_> {
        PoisonGuard(self)
    }

    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Passing through the gate puts this notify after any
            // registered waiter's re-check: the waiter either held the
            // gate first (and is inside `Condvar::wait`, so the notify
            // reaches it) or takes it after us (and re-checks after our
            // store).
            drop(self.gate());
            self.wake.notify_all();
        }
    }

    /// The gate guards no data (`()`), so a panic while it was held
    /// leaves nothing invalid: recover the guard rather than propagate
    /// std's lock poisoning — `PoisonGuard::drop` runs here and must
    /// not panic.
    fn gate(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(test)]
    fn jitter(&self) {
        if let Some(j) = &self.chaos {
            j.disturb();
        }
    }
}

/// See [`Progress::poison_on_panic`].
pub(crate) struct PoisonGuard<'a>(&'a Progress);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
            self.0.wake_sleepers();
        }
    }
}

/// Seeded schedule perturbation for the hand-off tests: with a seed set
/// on the thread that *creates* a [`Progress`] (the engine's calling
/// thread), every `post` is preceded and every `wait` followed by a
/// SplitMix64-chosen disturbance — nothing, a yield, or a sleep of up
/// to 50 µs. Production builds contain none of this.
#[cfg(test)]
pub(crate) mod chaos {
    use std::cell::Cell;
    use std::sync::Mutex;
    use std::time::Duration;

    use wavefront_kernels::rng::SplitMix64;

    thread_local! {
        static SEED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Run `f` with every `Progress` created on this thread jittered
    /// from `seed`.
    pub(crate) fn with_seed<T>(seed: u64, f: impl FnOnce() -> T) -> T {
        let prev = SEED.with(|s| s.replace(Some(seed)));
        let out = f();
        SEED.with(|s| s.set(prev));
        out
    }

    /// A SplitMix64 stream any thread may draw from.
    pub(crate) struct Jitter(Mutex<SplitMix64>);

    impl Jitter {
        pub(super) fn from_thread_seed() -> Option<Self> {
            // Each counter created under one seed gets its own stream.
            SEED.with(|s| {
                let seed = s.get()?;
                s.set(Some(seed.wrapping_add(0xD1B5_4A32_D192_ED03)));
                Some(Jitter(Mutex::new(SplitMix64::new(seed))))
            })
        }

        pub(super) fn disturb(&self) {
            let z = self.0.lock().expect("no draw panics").next_u64();
            match z % 4 {
                0 => {}
                1 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_nanos((z >> 8) % 50_000)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wait_returns_at_once_when_already_posted() {
        let p = Progress::new();
        p.post(3);
        assert_eq!(p.wait(0), Ok(()));
        assert_eq!(p.wait(3), Ok(()));
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_post_it_waits_for() {
        let p = Arc::new(Progress::new());
        let data = Arc::new(AtomicU64::new(0));
        let waiter = {
            let (p, data) = (Arc::clone(&p), Arc::clone(&data));
            std::thread::spawn(move || {
                p.wait(2).expect("the poster never panics");
                // The Relaxed store below is ordered by the hand-off.
                data.load(Ordering::Relaxed)
            })
        };
        // Far past the spin budget, so the waiter is parked; a post
        // short of its target must not release it.
        std::thread::sleep(Duration::from_millis(20));
        p.post(1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(!waiter.is_finished());
        data.store(7, Ordering::Relaxed);
        p.post(2);
        assert_eq!(waiter.join().expect("waiter ends"), 7);
    }

    #[test]
    fn a_panicking_owner_wakes_its_waiters_with_poison() {
        let p = Arc::new(Progress::new());
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || p.wait(5))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let owner = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let _guard = p.poison_on_panic();
                p.post(1);
                panic!("tile hook");
            })
        };
        assert!(owner.join().is_err());
        for w in waiters {
            assert_eq!(w.join().expect("waiter ends"), Err(Poisoned));
        }
        // What was posted before the panic stays readable.
        assert_eq!(p.wait(1), Ok(()));
        // A guard dropped without a panic poisons nothing.
        let q = Progress::new();
        drop(q.poison_on_panic());
        q.post(1);
        assert_eq!(q.wait(1), Ok(()));
    }

    #[test]
    fn ping_pong_under_chaos_loses_no_wakeup() {
        for seed in 0..20u64 {
            let (a, b) = chaos::with_seed(seed, || {
                (Arc::new(Progress::new()), Arc::new(Progress::new()))
            });
            let echo = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                std::thread::spawn(move || {
                    for k in 1..=200u64 {
                        a.wait(k).expect("no panic");
                        b.post(k);
                    }
                })
            };
            for k in 1..=200u64 {
                a.post(k);
                b.wait(k).expect("no panic");
            }
            echo.join().expect("echo ends");
        }
    }
}
