//! Self-tests of the model-check scheduler: these validate that the
//! exploration engine *itself* finds the classic bug shapes (lost
//! updates, deadlocks, lost wakeups), proves benign code clean, and —
//! crucially — that a failing schedule replays identically from its
//! seed. Run with:
//!
//! ```text
//! cargo test -p qcm-sync --features model-check
//! ```
#![cfg(feature = "model-check")]

use qcm_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use qcm_sync::model::{self, ModelConfig};
use qcm_sync::{thread, Arc, Condvar, Mutex};

/// A correct mutex-protected counter survives exploration.
#[test]
fn mutex_counter_is_clean() {
    let report = model::explore("mutex_counter", 300, ModelConfig::default(), || {
        let counter = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let counter = counter.clone();
                thread::spawn(move || *counter.lock() += 1)
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 3);
    });
    assert_eq!(report.schedules, 300);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// The classic lost update: two threads doing load-then-store
/// increments on an atomic. The scheduler must find a schedule where
/// one increment vanishes.
#[test]
fn finds_lost_update() {
    let failure = model::find_failure(500, ModelConfig::default(), || {
        let cell = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let v = cell.load(Ordering::SeqCst);
                    cell.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = failure.expect("exploration should find the lost update");
    assert!(
        failure.failure.as_deref().unwrap().contains("lost update"),
        "unexpected failure: {:?}",
        failure.failure
    );
}

/// A failing schedule is fully described by its seed: re-running the
/// seed reproduces the identical decision trace and the same failure.
#[test]
fn failing_schedule_replays_identically() {
    let body = || {
        let cell = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let v = cell.load(Ordering::SeqCst);
                    cell.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load(Ordering::SeqCst), 2, "lost update");
    };
    let first = model::find_failure(500, ModelConfig::default(), body)
        .expect("exploration should find the lost update");

    // Replay twice from the recorded seed: identical trace, same failure.
    for _ in 0..2 {
        let replay = model::check_seed(first.seed, ModelConfig::default(), body);
        assert_eq!(replay.trace, first.trace, "trace diverged on replay");
        assert_eq!(replay.failure, first.failure);
        assert_eq!(replay.steps, first.steps);
    }
}

/// AB-BA lock ordering: the scheduler must find the deadlock, and the
/// report must name it as one.
#[test]
fn finds_abba_deadlock() {
    let failure = model::find_failure(500, ModelConfig::default(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let t = {
            let a = a.clone();
            let b = b.clone();
            thread::spawn(move || {
                let _a = a.lock();
                let _b = b.lock();
            })
        };
        {
            let _b = b.lock();
            let _a = a.lock();
        }
        let _ = t.join();
    });
    let failure = failure.expect("exploration should find the AB-BA deadlock");
    assert!(
        failure.failure.as_deref().unwrap().contains("deadlock"),
        "unexpected failure: {:?}",
        failure.failure
    );
}

/// A notify that fires before the waiter parks is forgotten (condvars
/// do not latch). Without a predicate re-check this is a lost wakeup,
/// which surfaces as a deadlock.
#[test]
fn finds_lost_wakeup() {
    let failure = model::find_failure(500, ModelConfig::default(), || {
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let waiter = {
            let pair = pair.clone();
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                // BUG under test: unconditional wait with no predicate —
                // if the notify fires before this thread parks, the
                // wakeup is lost and the wait never returns.
                let guard = lock.lock();
                let _guard = cv.wait(guard);
            })
        };
        pair.1.notify_one();
        let _ = waiter.join();
    });
    let failure = failure.expect("exploration should find the lost wakeup");
    assert!(
        failure.failure.as_deref().unwrap().contains("deadlock"),
        "unexpected failure: {:?}",
        failure.failure
    );
}

/// The correct predicate-loop version of the same producer/consumer
/// handshake passes exploration.
#[test]
fn condvar_predicate_loop_is_clean() {
    let report = model::explore("condvar_handshake", 300, ModelConfig::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = pair.clone();
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
            })
        };
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_one();
        }
        waiter.join().unwrap();
    });
    assert_eq!(report.schedules, 300);
}

/// Publishing data with a Relaxed flag store / Relaxed flag load has no
/// happens-before edge: the vector-clock layer must diagnose it, and
/// [`ModelConfig::strict`] must turn the diagnostic into a failure.
#[test]
fn diagnoses_unsynchronised_publication() {
    let body = || {
        let flag = Arc::new(AtomicBool::new(false));
        let t = {
            let flag = flag.clone();
            thread::spawn(move || flag.store(true, Ordering::Relaxed))
        };
        // ordering: Relaxed on purpose — this test *wants* the missing edge.
        let _ = flag.load(Ordering::Relaxed);
        let _ = t.join();
    };

    let report = model::explore("unsync_advisory", 200, ModelConfig::default(), body);
    assert!(
        !report.diagnostics.is_empty(),
        "expected an unsynchronised-communication diagnostic"
    );
    assert!(report.diagnostics[0].contains("unsynchronised atomic communication"));

    let strict = model::find_failure(200, ModelConfig::strict(), body);
    assert!(
        strict.is_some(),
        "strict mode should fail on the unsynchronised load"
    );
}

/// The same publication through Release/Acquire carries the clock: no
/// diagnostics even in strict mode.
#[test]
fn release_acquire_publication_is_clean() {
    let report = model::explore("release_acquire", 300, ModelConfig::strict(), || {
        let flag = Arc::new(AtomicBool::new(false));
        let value = Arc::new(AtomicU64::new(0));
        let t = {
            let flag = flag.clone();
            let value = value.clone();
            thread::spawn(move || {
                value.store(41, Ordering::Relaxed);
                // ordering: Release publishes the value store above.
                flag.store(true, Ordering::Release);
            })
        };
        // ordering: Acquire pairs with the Release store of the flag.
        if flag.load(Ordering::Acquire) {
            let v = value.load(Ordering::Relaxed);
            assert_eq!(v, 41);
        }
        t.join().unwrap();
    });
    assert_eq!(report.schedules, 300);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// Recursive locking of a non-reentrant mutex is reported, not hung.
#[test]
fn finds_self_deadlock() {
    let failure = model::find_failure(5, ModelConfig::default(), || {
        let m = Mutex::new(());
        let _a = m.lock();
        let _b = m.lock();
    });
    let failure = failure.expect("self-deadlock should be reported");
    assert!(
        failure.failure.as_deref().unwrap().contains("re-locking"),
        "unexpected failure: {:?}",
        failure.failure
    );
}

/// RMW operations (fetch_add) never lose updates and need no
/// diagnostics: they always read the latest value in modification
/// order.
#[test]
fn fetch_add_is_clean() {
    let report = model::explore("fetch_add", 300, ModelConfig::strict(), || {
        let cell = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let cell = cell.clone();
                // ordering: Relaxed — pure counter, the final value is read
                // after join edges establish happens-before.
                thread::spawn(move || cell.fetch_add(1, Ordering::Relaxed))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load(Ordering::Relaxed), 3);
    });
    assert_eq!(report.schedules, 300);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// Exploration is genuinely diverse: across many seeds of a 3-thread
/// interleaving both extreme outcomes of a racy max-tracking pattern
/// appear.
#[test]
fn schedules_are_diverse() {
    use std::sync::atomic::AtomicU64 as PlainU64;
    use std::sync::atomic::Ordering as PlainOrdering;
    // Collected across schedules; plain std atomic on purpose (it is
    // test bookkeeping, not part of the modelled program).
    let orders_seen = PlainU64::new(0);
    model::explore("diversity", 200, ModelConfig::default(), || {
        let cell = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (1..=2u64)
            .map(|i| {
                let cell = cell.clone();
                thread::spawn(move || cell.store(i, Ordering::SeqCst))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let last = cell.load(Ordering::SeqCst);
        orders_seen.fetch_or(1 << last, PlainOrdering::Relaxed);
    });
    assert_eq!(
        orders_seen.load(PlainOrdering::Relaxed),
        0b110,
        "both final values (1 and 2) should occur across 200 seeds"
    );
}

/// Threads spawned through `thread::Builder` (named) participate in the
/// schedule exactly like `thread::spawn` ones.
#[test]
fn builder_threads_participate() {
    let report = model::explore("builder", 100, ModelConfig::default(), || {
        let counter = Arc::new(Mutex::new(0u64));
        let h = {
            let counter = counter.clone();
            thread::Builder::new()
                .name("qcm-mc-worker".to_string())
                .spawn(move || *counter.lock() += 1)
                .expect("spawn")
        };
        h.join().unwrap();
        assert_eq!(*counter.lock(), 1);
    });
    assert_eq!(report.schedules, 100);
}

/// Two `thread::scope` children borrow a stack-local mutex and increment
/// it with a read-modify-write split across two critical sections. Scoped
/// threads are scheduled like `thread::spawn` ones, so exploration must
/// find the interleaving that loses an update.
#[test]
fn finds_lost_update_in_scoped_threads() {
    let failure = model::find_failure(500, ModelConfig::default(), || {
        let counter = Mutex::new(0u64);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let v = *counter.lock();
                    *counter.lock() = v + 1;
                });
            }
        });
        assert_eq!(*counter.lock(), 2, "lost update");
    });
    let failure = failure.expect("exploration should find the scoped lost update");
    assert!(
        failure.failure.as_deref().unwrap().contains("lost update"),
        "unexpected failure: {:?}",
        failure.failure
    );
}

/// The same scoped increment under one critical section is clean, and the
/// scope's join hands the schedule token to the children instead of
/// deadlocking on the OS join.
#[test]
fn scoped_threads_under_a_lock_are_clean() {
    let report = model::explore("scoped_counter", 300, ModelConfig::default(), || {
        let counter = Mutex::new(0u64);
        thread::scope(|scope| {
            scope.spawn(|| *counter.lock() += 1);
            scope.spawn(|| *counter.lock() += 1);
        });
        assert_eq!(*counter.lock(), 2);
    });
    assert_eq!(report.schedules, 300);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}
