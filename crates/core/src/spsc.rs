//! Fixed-capacity single-producer/single-consumer ring buffers with
//! park/unpark wakeups — the channel primitive under the serving
//! engine's data plane.
//!
//! The serving pipeline used to cross threads through
//! `std::sync::mpsc`: a bounded `sync_channel` into each shard worker
//! and one shared unbounded channel back. Both are multi-producer
//! structures, so every hop paid for generality the pipeline never
//! uses — an internal `Mutex` acquisition plus queue-node bookkeeping
//! per message, and (on the shared completion channel) cross-shard
//! contention on one lock. A serving hop moves one pointer-sized job
//! between exactly two fixed threads; the matching primitive is an SPSC
//! ring:
//!
//! - **fixed capacity, zero steady-state allocation** — slots are a
//!   boxed array of `MaybeUninit<T>`; pushing moves the value into a
//!   slot and popping moves it out, no nodes, no free list;
//! - **two atomics per hop** — the producer publishes with one `tail`
//!   store, the consumer retires with one `head` store; there is no
//!   lock anywhere;
//! - **park, don't spin** — a consumer with nothing to pop parks its
//!   thread ([`Consumer::pop_or_park`]); the producer's push hands it a
//!   wakeup only when the parked flag is raised, so the idle path costs
//!   a load, not a syscall.
//!
//! Lost wakeups are excluded Dekker-style: the consumer raises its
//! parked flag *then* re-checks the ring; the producer publishes *then*
//! checks the flag. The four crossings of that store→load square
//! (`tail` publish, `parked` raise, and both re-check loads) are
//! `SeqCst` — one of the two sides always observes the other. Every
//! other ordering is the weakest the model checker proves sufficient:
//! the cursor handoff is `Release`/`Acquire` (slot contents must be
//! visible before the cursor that publishes them), own-cursor reads and
//! advisory peeks are `Relaxed`. Each callsite carries its one-line
//! rationale; `nova-lint` fails the build if one goes missing.
//!
//! # Model-checked protocols
//!
//! Every protocol claim this module makes is pinned by an exhaustive
//! bounded-DFS model test in `crates/core/tests/model.rs` (run with
//! `RUSTFLAGS="--cfg nova_check_model" cargo test -p nova-core --test
//! model`), driven by the `nova_check` interleaving explorer:
//!
//! - FIFO, no lost or duplicated items → `fifo_no_lost_items`
//! - producer-side close hands every in-flight item back (the
//!   quarantine handshake) → `close_then_join_hands_every_item_back`
//! - [`Consumer::pop_or_park`] — the serving worker's feed loop, run
//!   verbatim by every consumer in the suite — never misses a wakeup →
//!   `parked_consumer_never_misses_wakeup` (and the checker *catches*
//!   the variant with the re-check removed — see
//!   `missing_recheck_after_raise_is_caught_as_lost_wakeup` in
//!   nova-check's self-tests)
//! - doorbell arm/ring races never strand the collector →
//!   `doorbell_arm_ring_no_lost_wake`
//! - dropping endpoints drops each in-flight item exactly once →
//!   `drop_exactly_once_inflight`
//! - the degenerate capacity-1 ring parks and wakes correctly →
//!   `capacity_one_ring_parks_and_wakes`
//!
//! [`ring`] hands back the two endpoints. Each endpoint is `Send` but
//! deliberately **not** `Sync` and not `Clone` — the single-producer /
//! single-consumer discipline is enforced by ownership. Dropping either
//! endpoint closes the ring: the producer's pushes fail with
//! [`PushError::Closed`], while the consumer may still drain items that
//! were pushed before the close.
//!
//! [`Doorbell`] is the inverse primitive for the engine side: *many*
//! producers (the shard workers) wake *one* blocked consumer (the
//! engine thread collecting completions from several rings at once),
//! again with a raise-then-recheck protocol.
//!
//! # Quarantine handshake
//!
//! The serving engine's shard-quarantine path leans on two properties
//! the close protocol already guarantees, pinned here as contract:
//!
//! - **producer-side close loses nothing** — when the engine closes a
//!   failed shard's feed ring from the *producer* end
//!   ([`Producer::close`]), the worker keeps draining every unit that
//!   was pushed before the close (drain-after-close) and only then
//!   observes emptiness as final, so in-flight work units are always
//!   handed back for requeue, never dropped;
//! - **joining after close cannot deadlock** — the retired worker's
//!   hand-backs go out over the *done* ring, whose capacity equals the
//!   engine's per-shard outstanding cap, so every drain-back push fits
//!   without the engine popping concurrently; the engine may therefore
//!   close the feed and immediately `join()` the worker thread.
//!
//! # Example
//!
//! ```
//! use nova::spsc;
//!
//! let (tx, rx) = spsc::ring::<u32>(4);
//! let worker = std::thread::spawn(move || {
//!     // Parks while the ring is empty; `None` once closed and drained.
//!     std::iter::from_fn(|| rx.pop_or_park()).collect::<Vec<_>>()
//! });
//! for v in 0..8 {
//!     let mut v = v;
//!     loop {
//!         match tx.try_push(v) {
//!             Ok(()) => break,
//!             Err(spsc::PushError::Full(back)) => v = back,
//!             Err(spsc::PushError::Closed(_)) => unreachable!(),
//!         }
//!     }
//! }
//! drop(tx); // close: the worker drains and exits
//! assert_eq!(worker.join().unwrap(), (0..8).collect::<Vec<_>>());
//! ```

#![allow(unsafe_code)] // the audited carve-out: see the crate-root lint note

use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

// All synchronization goes through the nova-check facade: std types in
// normal builds, the instrumented model-checker shim under
// `--cfg nova_check_model`. `nova-lint` (atomic-facade rule) keeps raw
// `std::sync::atomic` out of this crate.
use nova_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use nova_check::sync::cell::UnsafeCell;
use nova_check::sync::thread::Thread;
use nova_check::sync::{Arc, Mutex, OnceLock};

/// Why a [`Producer::try_push`] did not take the value. The value rides
/// back in either case, so the caller can retry or drop it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is at capacity; retry after the consumer pops.
    Full(T),
    /// The consumer endpoint was dropped; the value can never arrive.
    Closed(T),
}

/// The largest capacity [`ring`] accepts: the biggest power of two a
/// `usize` can hold, past which the rounding math would overflow.
pub const MAX_CAPACITY: usize = 1 << (usize::BITS - 1);

/// The shared ring state. Slot `i % capacity` is owned by the producer
/// while `head <= i < tail` is false and by the consumer otherwise;
/// the cursors only ever move forward, so a slot is never written and
/// read concurrently.
struct Inner<T> {
    /// `capacity - 1` for the power-of-two capacity (index mask).
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: next slot to pop. Monotonic, wraps via `mask`.
    head: AtomicUsize,
    /// Producer cursor: next slot to fill. Monotonic, wraps via `mask`.
    tail: AtomicUsize,
    closed: AtomicBool,
    /// Raised by the consumer just before parking (Dekker flag).
    parked: AtomicBool,
    /// The consumer thread handle, bound on its first `begin_park`.
    resident: OnceLock<Thread>,
}

// SAFETY: the ring moves `T` values between threads (so `T: Send` is
// required), and the endpoint types serialize all slot access — the
// producer touches only slots in `[tail, head + capacity)`, the
// consumer only `[head, tail)`, with the cursor atomics ordering the
// handoff.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: as above — shared references only ever reach disjoint slots.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    fn wake_resident(&self) {
        // ordering: SeqCst — producer half of the Dekker square: the
        // preceding tail/closed publish and this flag check must not
        // reorder, or a wakeup is lost (model: parked_consumer test).
        if self.parked.swap(false, Ordering::SeqCst) {
            if let Some(thread) = self.resident.get() {
                thread.unpark();
            }
        }
    }

    fn close(&self) {
        // ordering: SeqCst — publishes the close *and* orders it before
        // the parked-flag check in wake_resident (Dekker store side);
        // also carries release: a consumer that observes the close sees
        // every earlier push (drain-after-close).
        self.closed.store(true, Ordering::SeqCst);
        self.wake_resident();
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both endpoints are gone: drop whatever was pushed but never
        // popped. Plain loads are fine — `&mut self` proves exclusivity.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            // SAFETY: slots in [head, tail) hold initialized values the
            // consumer never took.
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// The push endpoint of a [`ring`]. `Send` but not `Sync`/`Clone`: one
/// thread at a time owns the producing side.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Opts out of `Sync` (a shared `&Producer` on two threads would
    /// break the single-producer discipline) while keeping `Send`.
    _not_sync: PhantomData<Cell<()>>,
}

/// The pop endpoint of a [`ring`]. `Send` but not `Sync`/`Clone`: one
/// thread at a time owns the consuming side. Parking
/// ([`begin_park`](Self::begin_park)) additionally pins the consumer to
/// the first thread that parks — move the endpoint freely *before* the
/// first park, not after.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    _not_sync: PhantomData<Cell<()>>,
}

/// Creates an SPSC ring holding at least `capacity` items (rounded up
/// to a power of two; `0` saturates to 1).
///
/// # Panics
///
/// Panics when `capacity` exceeds [`MAX_CAPACITY`] — beyond it the
/// power-of-two rounding has no representable result (it would
/// previously overflow deep inside the rounding math; now it fails
/// loudly up front).
#[must_use]
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(
        capacity <= MAX_CAPACITY,
        "spsc::ring capacity {capacity} exceeds MAX_CAPACITY ({MAX_CAPACITY}): \
         no power-of-two slot count can hold it"
    );
    let capacity = capacity.max(1).next_power_of_two();
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        mask: capacity - 1,
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        parked: AtomicBool::new(false),
        resident: OnceLock::new(),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
        },
        Consumer {
            inner,
            _not_sync: PhantomData,
        },
    )
}

impl<T> Producer<T> {
    /// Pushes `value`, waking the consumer if it is parked.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the ring is at capacity,
    /// [`PushError::Closed`] when the consumer hung up; the value rides
    /// back inside the error either way.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        // ordering: Relaxed — advisory fast-fail; a push that races a
        // consumer-side close lands in the ring and is reclaimed by the
        // ring's Drop, so timeliness is all this load buys.
        if inner.closed.load(Ordering::Relaxed) {
            return Err(PushError::Closed(value));
        }
        // ordering: Relaxed — `tail` is producer-owned; this thread
        // wrote it last, coherence alone returns the latest value.
        let tail = inner.tail.load(Ordering::Relaxed);
        // ordering: Acquire — pairs with the consumer's Release `head`
        // store: the pop's slot read must complete before this side
        // reuses the slot (model: fifo_no_lost_items at capacity 1).
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > inner.mask {
            return Err(PushError::Full(value));
        }
        // SAFETY: `[tail, head + capacity)` slots belong to the producer
        // and this one is vacant (the consumer's cursor is behind it).
        unsafe { (*inner.slots[tail & inner.mask].get()).write(value) };
        // ordering: SeqCst — publishes the slot write (release half)
        // *and* forms the Dekker square with the parked-flag swap below
        // against the consumer's raise-then-recheck; Release alone
        // loses wakeups (the model checker finds the interleaving).
        inner.tail.store(tail.wrapping_add(1), Ordering::SeqCst);
        inner.wake_resident();
        Ok(())
    }

    /// Whether the ring is at capacity right now (racy, advisory).
    #[must_use]
    pub fn is_full(&self) -> bool {
        let inner = &*self.inner;
        // ordering: Relaxed ×2 — advisory peek; the serving engine's
        // wait loop re-checks after a completion wakeup rather than
        // relying on this being fresh.
        inner
            .tail
            .load(Ordering::Relaxed)
            .wrapping_sub(inner.head.load(Ordering::Relaxed))
            > inner.mask
    }

    /// Whether either endpoint closed the ring.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        // ordering: Relaxed — advisory on the producer side (the
        // authoritative failure is try_push's Closed error).
        self.inner.closed.load(Ordering::Relaxed)
    }

    /// Closes the ring: later pushes fail, the consumer (woken if
    /// parked) may still drain already-pushed items.
    pub fn close(&self) {
        self.inner.close();
    }

    /// The ring's slot count (after power-of-two rounding).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // A vanished producer must not leave the consumer parked
        // forever: close wakes it and makes emptiness final.
        self.inner.close();
    }
}

impl<T> Consumer<T> {
    /// Pops the oldest item, if any. Keeps draining after a close, so
    /// nothing pushed before the close is lost.
    #[must_use]
    pub fn try_pop(&self) -> Option<T> {
        let inner = &*self.inner;
        // ordering: Relaxed — `head` is consumer-owned; this thread
        // wrote it last, coherence alone returns the latest value.
        let head = inner.head.load(Ordering::Relaxed);
        // ordering: SeqCst — acquire half pairs with the producer's
        // tail publish (slot contents visible before the read below),
        // and this is the consumer's Dekker re-check after begin_park:
        // Acquire alone loses wakeups (model: parked_consumer test).
        if head == inner.tail.load(Ordering::SeqCst) {
            return None;
        }
        // SAFETY: `[head, tail)` slots hold initialized values the
        // producer published before its tail store.
        let value = unsafe { (*inner.slots[head & inner.mask].get()).assume_init_read() };
        // ordering: Release — hands the emptied slot back to the
        // producer; pairs with try_push's Acquire `head` load so the
        // slot read above completes before the producer overwrites it.
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        value.into()
    }

    /// Pops the oldest item, parking the calling thread while the ring
    /// is empty. Returns `None` only once the ring is closed *and*
    /// drained — every item pushed before the close is still delivered.
    ///
    /// This is the [`begin_park`](Self::begin_park) protocol with its
    /// re-check: an item the re-check pops is returned, never dropped.
    #[must_use]
    pub fn pop_or_park(&self) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            if self.is_closed() {
                // Drain-after-close: every push happened before the
                // close, so a miss now is final.
                return self.try_pop();
            }
            self.begin_park();
            let item = self.try_pop();
            if item.is_none() && !self.is_closed() {
                nova_check::sync::thread::park();
            }
            self.end_park();
            if item.is_some() {
                return item;
            }
        }
    }

    /// Whether the ring holds nothing right now. Safe as the re-check
    /// between [`Doorbell::arm`] (or [`begin_park`](Self::begin_park))
    /// and a park: a push it cannot see is guaranteed to ring/wake.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let inner = &*self.inner;
        // ordering: Relaxed — own cursor, coherence suffices…
        // ordering: SeqCst on `tail` — the serving collector re-checks
        // `done.is_empty()` *after* arming the doorbell; that makes
        // this load the Dekker partner of the worker's tail publish +
        // armed check (model: doorbell_arm_ring_no_lost_wake).
        inner.head.load(Ordering::Relaxed) == inner.tail.load(Ordering::SeqCst)
    }

    /// Whether either endpoint closed the ring. Once this returns true,
    /// a [`try_pop`](Self::try_pop) returning `None` is final — every
    /// pre-close push has been drained.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        // ordering: SeqCst — the consumer's Dekker re-check against
        // close(): begin_park raises the flag, this load must then see
        // a close whose wake_resident missed the flag (model:
        // close_then_join_hands_every_item_back); also acquires the
        // pre-close pushes for drain-after-close.
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Raises the parked flag and binds the calling thread as the
    /// ring's wakeup target (first call only — park from one thread).
    ///
    /// Protocol: `begin_park`, **re-check** (`try_pop` /
    /// [`is_closed`](Self::is_closed)), and only if both still say
    /// "nothing to do" call [`std::thread::park`]; then
    /// [`end_park`](Self::end_park). The re-check closes the race with
    /// a push that landed between the first failed pop and the flag,
    /// and an item it pops must be kept.
    /// [`pop_or_park`](Self::pop_or_park) is this protocol; use the
    /// pieces directly only for a different wait.
    pub fn begin_park(&self) {
        self.inner
            .resident
            .get_or_init(nova_check::sync::thread::current);
        // ordering: SeqCst — the consumer's Dekker raise: it must be
        // ordered before the re-check loads (try_pop / is_closed), or
        // the producer can publish-and-miss while we recheck-and-miss
        // (the model checker finds the lost wakeup under Release).
        self.inner.parked.store(true, Ordering::SeqCst);
    }

    /// Lowers the parked flag after a park (or an aborted one). A stale
    /// wakeup token this leaves behind at worst makes the next park
    /// return early — the re-check loop absorbs it.
    pub fn end_park(&self) {
        // ordering: Relaxed — lowering the flag is pure bookkeeping: a
        // producer that still sees it raised sends one spurious unpark,
        // which the next park absorbs.
        self.inner.parked.store(false, Ordering::Relaxed);
    }

    /// Closes the ring from the consumer side (producer pushes start
    /// failing with [`PushError::Closed`]).
    pub fn close(&self) {
        self.inner.close();
    }

    /// The ring's slot count (after power-of-two rounding).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.inner.close();
    }
}

/// A many-to-one wakeup latch: several worker threads ring it, one
/// blocked collector thread sleeps on it.
///
/// The collector [`arm`](Self::arm)s the bell (recording its thread
/// handle), **re-checks** whatever condition it is waiting on, and only
/// then parks; a worker's [`ring`](Self::ring) after publishing work
/// either sees the armed flag (and unparks the collector) or lost the
/// `SeqCst` race to the collector's re-check — never both miss. The
/// fast path for workers when nobody waits is a single load.
///
/// Unlike the per-ring parked flag, the waiter is stored under a
/// `Mutex` because any number of workers may race a `ring` against the
/// collector re-`arm`ing from a different thread each time.
#[derive(Debug, Default)]
pub struct Doorbell {
    armed: AtomicBool,
    waiter: Mutex<Option<Thread>>,
}

impl Doorbell {
    /// A new, un-armed bell.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the bell for the calling thread. Re-check the waited-on
    /// condition *after* arming and before [`std::thread::park`].
    ///
    /// # Panics
    ///
    /// Panics if the waiter mutex was poisoned (a ringer panicked).
    pub fn arm(&self) {
        *self.waiter.lock().expect("doorbell waiter poisoned") =
            Some(nova_check::sync::thread::current());
        // ordering: SeqCst — the collector's Dekker raise: ordered
        // before its post-arm re-check (e.g. `done.is_empty()`), so a
        // worker that published work either sees the armed flag or its
        // publish is seen by the re-check (model: doorbell test).
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarms after waking (or deciding not to park). Stale unpark
    /// tokens are absorbed by the caller's arm → re-check → park loop.
    ///
    /// # Panics
    ///
    /// Panics if the waiter mutex was poisoned (a ringer panicked).
    pub fn disarm(&self) {
        // ordering: Relaxed — lowering the flag is bookkeeping: a
        // worker that still sees it armed sends one spurious unpark,
        // absorbed by the next arm → re-check → park round.
        self.armed.store(false, Ordering::Relaxed);
        self.waiter.lock().expect("doorbell waiter poisoned").take();
    }

    /// Wakes the armed waiter, if any. Cheap when nobody waits: one
    /// `SeqCst` load, no lock.
    ///
    /// # Panics
    ///
    /// Panics if the waiter mutex was poisoned (an armer panicked).
    pub fn ring(&self) {
        // ordering: SeqCst ×2 — the worker's Dekker check after its
        // tail publish: the fast-path load and the claiming swap must
        // both be ordered after the publish or the collector parks on
        // work it never saw (model: doorbell_arm_ring_no_lost_wake).
        if self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            if let Some(thread) = self.waiter.lock().expect("doorbell waiter poisoned").take() {
                thread.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let (tx, rx) = ring::<u32>(4);
        assert!(rx.is_empty());
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        assert!(tx.is_full());
        assert!(matches!(tx.try_push(99), Err(PushError::Full(99))));
        for v in 0..4 {
            assert_eq!(rx.try_pop(), Some(v));
        }
        assert_eq!(rx.try_pop(), None);
        // Wrap around the power-of-two boundary many times.
        for round in 0..10u32 {
            tx.try_push(round).unwrap();
            tx.try_push(round + 100).unwrap();
            assert_eq!(rx.try_pop(), Some(round));
            assert_eq!(rx.try_pop(), Some(round + 100));
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(3);
        assert_eq!(tx.capacity(), 4);
        let (tx, rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 1);
        assert_eq!(rx.capacity(), 1);
        tx.try_push(7).unwrap();
        assert!(matches!(tx.try_push(8), Err(PushError::Full(8))));
    }

    #[test]
    fn capacity_zero_saturates_to_one_and_still_works() {
        // Regression: capacity 0 must neither panic nor produce a
        // zero-slot ring with an all-ones mask.
        let (tx, rx) = ring::<u64>(0);
        assert_eq!(tx.capacity(), 1);
        for round in 0..5 {
            tx.try_push(round).unwrap();
            assert!(tx.is_full());
            assert_eq!(rx.try_pop(), Some(round));
            assert!(rx.is_empty());
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CAPACITY")]
    fn oversized_capacity_panics_up_front() {
        // Past the largest power of two the rounding math would
        // overflow (debug: panic deep inside next_power_of_two;
        // release: wrap to 0 and build a broken mask). The guard turns
        // both into one clear panic before any allocation.
        let _ = ring::<u8>(MAX_CAPACITY + 1);
    }

    #[test]
    fn capacity_one_full_empty_inversion() {
        // Depth-1 ring: every push flips empty→full, every pop flips
        // it back; the cursors are only ever 0 or 1 apart.
        let (tx, rx) = ring::<u32>(1);
        assert!(rx.is_empty());
        assert!(!tx.is_full());
        tx.try_push(1).unwrap();
        assert!(!rx.is_empty());
        assert!(tx.is_full());
        assert!(matches!(tx.try_push(2), Err(PushError::Full(2))));
        assert_eq!(rx.try_pop(), Some(1));
        assert!(rx.is_empty());
        assert!(!tx.is_full());
        // And the wrap keeps working across many laps.
        for lap in 0..100 {
            tx.try_push(lap).unwrap();
            assert_eq!(rx.try_pop(), Some(lap));
        }
    }

    #[test]
    fn capacity_one_park_wake() {
        // The park protocol at the degenerate depth: the consumer parks
        // between every element, the producer retries through Full.
        let (tx, rx) = ring::<u64>(1);
        let consumer =
            std::thread::spawn(move || std::iter::from_fn(|| rx.pop_or_park()).collect::<Vec<_>>());
        for v in 0..64u64 {
            let mut item = v;
            loop {
                match tx.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("consumer hung up early"),
                }
            }
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn close_fails_pushes_but_drains_pops() {
        let (tx, rx) = ring::<u32>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        tx.close();
        assert!(matches!(tx.try_push(3), Err(PushError::Closed(3))));
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), None, "closed + drained is final");
    }

    #[test]
    fn dropping_an_endpoint_closes_the_ring() {
        let (tx, rx) = ring::<u32>(2);
        drop(rx);
        assert!(matches!(tx.try_push(1), Err(PushError::Closed(1))));
        let (tx, rx) = ring::<u32>(2);
        tx.try_push(5).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop(), Some(5), "close never loses pushed items");
    }

    #[test]
    fn unpopped_items_drop_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = ring::<Counted>(4);
        for _ in 0..3 {
            assert!(tx.try_push(Counted(Arc::clone(&counter))).is_ok());
        }
        drop(rx.try_pop()); // one popped and dropped by us
        drop(tx);
        drop(rx); // two dropped by the ring's cleanup
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn parked_consumer_is_woken_by_push_and_by_close() {
        let (tx, rx) = ring::<u64>(2);
        let consumer =
            std::thread::spawn(move || std::iter::from_fn(|| rx.pop_or_park()).collect::<Vec<_>>());
        for v in 0..32u64 {
            let mut item = v;
            loop {
                match tx.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("consumer hung up early"),
                }
            }
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn producer_close_then_join_hands_every_item_back() {
        // The quarantine handshake in miniature: the engine closes a
        // failed shard's feed ring from the producer side and joins the
        // worker; the worker drains every pre-close unit back over a
        // done ring deep enough for all of them, then exits. Nothing is
        // lost, and the join cannot deadlock because the hand-backs fit
        // the done ring without a concurrent consumer.
        let outstanding = 4usize;
        let (feed_tx, feed_rx) = ring::<u32>(outstanding);
        let (done_tx, done_rx) = ring::<u32>(outstanding);
        for unit in 0..outstanding as u32 {
            feed_tx.try_push(unit).unwrap();
        }
        let worker = std::thread::spawn(move || {
            // Drain-back: hand every unit to the engine untouched until
            // the ring is closed and drained.
            while let Some(unit) = feed_rx.pop_or_park() {
                done_tx.try_push(unit).unwrap();
            }
        });
        feed_tx.close();
        worker.join().unwrap();
        let drained: Vec<u32> = std::iter::from_fn(|| done_rx.try_pop()).collect();
        assert_eq!(drained, (0..outstanding as u32).collect::<Vec<_>>());
        assert!(done_rx.is_closed(), "retired worker dropped its done end");
    }

    #[test]
    fn doorbell_wakes_armed_waiter() {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let bell = Arc::clone(&bell);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || loop {
                bell.arm();
                if flag.load(Ordering::SeqCst) {
                    bell.disarm();
                    return;
                }
                std::thread::park();
                bell.disarm();
            })
        };
        // Publish, then ring — the waiter either re-checked in time or
        // gets the unpark.
        flag.store(true, Ordering::SeqCst);
        bell.ring();
        waiter.join().unwrap();
        // Ringing with nobody armed is a no-op.
        bell.ring();
    }
}
