//! Model-checked protocol tests for `nova::spsc` — the real ring, the
//! real orderings, every interleaving the bounded-DFS explorer can
//! reach within budget.
//!
//! These only compile under `--cfg nova_check_model`, which flips the
//! `nova_check::sync` facade inside nova-core from std re-exports to
//! the instrumented shim, so every atomic, slot access, park, and
//! unpark in `spsc.rs` becomes a model-checker choice point:
//!
//! ```text
//! RUSTFLAGS="--cfg nova_check_model" cargo test -p nova-core --test model
//! ```
//!
//! Budget knob: `NOVA_CHECK_BUDGET` caps executions per exploration
//! (default 20 000). Each test here pins one protocol claim made in the
//! `spsc` module docs; lost wakeups surface as model deadlocks, lost or
//! duplicated items as assertion panics, slot misuse as data races.
//! Every consumer waits through `Consumer::pop_or_park`, the exact loop
//! the serving workers run on their feed rings.

#![cfg(nova_check_model)]

use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

use nova::spsc::{self, PushError};
use nova_check::shim::thread;
use nova_check::{explore, ModelOptions, Report};

fn opts() -> ModelOptions {
    ModelOptions::default()
}

fn assert_clean(report: &Report, what: &str) {
    assert!(
        report.violation.is_none(),
        "{what}: {}",
        report.violation.as_ref().expect("checked some")
    );
    assert!(report.executions > 1, "{what}: only one interleaving ran");
}

/// Push with a bounded-by-schedule retry (the producer side has no park
/// protocol; `yield_now` gives the scheduler a choice point).
fn push_spin<T>(tx: &spsc::Producer<T>, value: T) {
    let mut item = value;
    loop {
        match tx.try_push(item) {
            Ok(()) => return,
            Err(PushError::Full(back)) => {
                item = back;
                thread::yield_now();
            }
            Err(PushError::Closed(_)) => panic!("consumer hung up mid-test"),
        }
    }
}

#[test]
fn fifo_no_lost_items() {
    // Two pushes, a parking consumer: every interleaving must deliver
    // both items, in order, exactly once.
    let report = explore(opts(), || {
        let (tx, rx) = spsc::ring::<u32>(2);
        let consumer = thread::spawn(move || {
            let a = rx.pop_or_park().expect("first item");
            let b = rx.pop_or_park().expect("second item");
            (a, b)
        });
        tx.try_push(1).expect("capacity 2 never fills here");
        tx.try_push(2).expect("capacity 2 never fills here");
        assert_eq!(
            consumer.join().unwrap(),
            (1, 2),
            "FIFO order, nothing lost or duplicated"
        );
    });
    assert_clean(&report, "fifo_no_lost_items");
}

#[test]
fn close_then_join_hands_every_item_back() {
    // The quarantine handshake: the engine closes a failed shard's feed
    // from the producer side and joins the worker; every pre-close unit
    // must come back over the done ring, none lost, none duplicated.
    let report = explore(opts(), || {
        let (feed_tx, feed_rx) = spsc::ring::<u32>(2);
        let (done_tx, done_rx) = spsc::ring::<u32>(2);
        feed_tx.try_push(1).expect("pre-close unit");
        feed_tx.try_push(2).expect("pre-close unit");
        let worker = thread::spawn(move || {
            while let Some(unit) = feed_rx.pop_or_park() {
                done_tx
                    .try_push(unit)
                    .expect("done ring sized for every in-flight unit");
            }
        });
        feed_tx.close();
        worker.join().unwrap();
        let drained: Vec<u32> = std::iter::from_fn(|| done_rx.try_pop()).collect();
        assert_eq!(drained, vec![1, 2], "drain-back lost or reordered units");
        assert!(done_rx.is_closed(), "retired worker closes its done end");
    });
    assert_clean(&report, "close_then_join_hands_every_item_back");
}

#[test]
fn parked_consumer_never_misses_wakeup() {
    // The raise-then-recheck park protocol at capacity 1: a missed
    // wakeup would strand the consumer in park with the producer done —
    // the model reports that as a deadlock.
    let report = explore(opts(), || {
        let (tx, rx) = spsc::ring::<u32>(1);
        let consumer = thread::spawn(move || rx.pop_or_park());
        tx.try_push(7).expect("empty ring takes the push");
        assert_eq!(consumer.join().unwrap(), Some(7));
    });
    assert_clean(&report, "parked_consumer_never_misses_wakeup");
}

#[test]
fn doorbell_arm_ring_no_lost_wake() {
    // The collector's arm → re-check (`is_empty`) → park loop against a
    // worker's publish-then-ring: the SeqCst Dekker square must leave
    // no interleaving where the collector parks on work it never saw.
    let report = explore(opts(), || {
        let bell = Arc::new(spsc::Doorbell::new());
        let (tx, rx) = spsc::ring::<u32>(1);
        let worker_bell = Arc::clone(&bell);
        let worker = thread::spawn(move || {
            tx.try_push(9).expect("empty ring takes the push");
            worker_bell.ring();
        });
        loop {
            bell.arm();
            if !rx.is_empty() {
                bell.disarm();
                break;
            }
            thread::park();
            bell.disarm();
        }
        assert_eq!(rx.try_pop(), Some(9));
        worker.join().unwrap();
    });
    assert_clean(&report, "doorbell_arm_ring_no_lost_wake");
}

#[test]
fn drop_exactly_once_inflight() {
    // Slot ownership across pop, close, and teardown: three pushed
    // values, one popped by the consumer, two reclaimed by the ring's
    // Drop — each destructor runs exactly once in every interleaving.
    // (The drop counter is a plain std atomic on purpose: it is test
    // scaffolding, not part of the modeled protocol.)
    let report = explore(opts(), || {
        struct Counted(Arc<StdAtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, StdOrdering::SeqCst);
            }
        }
        let drops = Arc::new(StdAtomicUsize::new(0));
        let (tx, rx) = spsc::ring::<Counted>(4);
        // Spawn first so the pops genuinely race the pushes.
        let consumer = thread::spawn(move || {
            let taken = rx.pop_or_park();
            assert!(taken.is_some(), "three pushed, at least one to pop");
        });
        for _ in 0..3 {
            match tx.try_push(Counted(Arc::clone(&drops))) {
                // Closed is legitimate: the consumer may pop its one
                // item, return, and drop `rx` before we finish pushing.
                // The value rides back in the error and drops here.
                Ok(()) | Err(PushError::Closed(_)) => {}
                Err(PushError::Full(_)) => panic!("capacity 4 cannot fill"),
            }
        }
        consumer.join().unwrap();
        drop(tx);
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            3,
            "every in-flight value dropped exactly once"
        );
    });
    assert_clean(&report, "drop_exactly_once_inflight");
}

#[test]
fn capacity_one_ring_parks_and_wakes() {
    // The degenerate depth-1 ring under producer pressure: the second
    // push must wait for the pop, the consumer parks between items, and
    // both hand-offs stay intact in every explored interleaving.
    let report = explore(opts(), || {
        let (tx, rx) = spsc::ring::<u32>(1);
        let consumer = thread::spawn(move || {
            let a = rx.pop_or_park().expect("first item");
            let b = rx.pop_or_park().expect("second item");
            (a, b)
        });
        push_spin(&tx, 1);
        push_spin(&tx, 2);
        assert_eq!(consumer.join().unwrap(), (1, 2));
    });
    assert_clean(&report, "capacity_one_ring_parks_and_wakes");
}
