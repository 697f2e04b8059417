//! Instrumented drop-in stand-ins for the std concurrency primitives.
//!
//! Each type here mirrors the std API surface `spsc.rs` and
//! `serving.rs` use, but routes every operation through the running
//! [`explore`](crate::sched::explore) controller when the calling
//! thread is a model thread. Outside a model run (or while unwinding)
//! the types fall back to a real std "mirror" primitive, so the shim
//! is usable — and testable — in plain builds too; the
//! [`sync`](crate::sync) facade only decides whether production code
//! *names* these types or the std originals.
//!
//! Registration is lazy and per-execution: every instrumented value
//! carries a `Reg` slot caching `(epoch, id)`; the first operation in
//! a new execution allocates a fresh model location seeded from the
//! mirror's current value. Stores and RMWs write the model-computed
//! value back to the mirror, so `get_mut`-style exclusive reads (and
//! the abort-unwind fallback path in `Drop` impls) observe the true
//! latest values rather than stale ones — that is what keeps the SPSC
//! ring's cleanup from double-dropping slots when an execution is
//! abandoned mid-flight.

use std::sync::atomic::{AtomicU64 as RawAtomicU64, Ordering as RawOrdering};
use std::sync::Arc;

use crate::sched::{Ctx, Ord as MOrd, CURRENT};

/// The calling thread's model identity, if it is a live model thread.
/// `None` while unwinding: drop handlers on the abort path must not
/// re-enter the controller.
fn model_identity() -> Option<(Arc<Ctx>, usize)> {
    if std::thread::panicking() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Converts a std ordering into the model's.
fn conv(order: RawOrdering) -> MOrd {
    match order {
        RawOrdering::Relaxed => MOrd::Relaxed,
        RawOrdering::Acquire => MOrd::Acquire,
        RawOrdering::Release => MOrd::Release,
        RawOrdering::AcqRel => MOrd::AcqRel,
        _ => MOrd::SeqCst,
    }
}

/// Lazy per-execution registration: packs `(epoch, id)` into one word.
/// Model threads are serialized by the controller, so plain load/store
/// suffices.
#[derive(Debug, Default)]
struct Reg(RawAtomicU64);

impl Reg {
    const fn new() -> Self {
        Reg(RawAtomicU64::new(0))
    }

    /// The id registered for `epoch`, if any.
    fn peek(&self, epoch: u64) -> Option<usize> {
        let packed = self.0.load(RawOrdering::Relaxed);
        (packed != 0 && packed >> 32 == (epoch & 0xffff_ffff))
            .then_some((packed & 0xffff_ffff) as usize)
    }

    /// The id for `epoch`, allocating through `alloc` on first use.
    fn resolve(&self, epoch: u64, alloc: impl FnOnce() -> usize) -> usize {
        if let Some(id) = self.peek(epoch) {
            return id;
        }
        let id = alloc();
        self.0.store(
            ((epoch & 0xffff_ffff) << 32) | (id as u64 & 0xffff_ffff),
            RawOrdering::Relaxed,
        );
        id
    }
}

/// Instrumented atomics (`AtomicBool`, `AtomicUsize`, `AtomicU64`).
pub mod atomic {
    use super::{conv, model_identity, Reg};
    use crate::sched::{Op, RmwKind};
    use std::sync::atomic::Ordering;

    macro_rules! shim_int_atomic {
        ($(#[$meta:meta])* $Name:ident, $Std:ty, $ty:ty) => {
            $(#[$meta])*
            pub struct $Name {
                reg: Reg,
                mirror: $Std,
            }

            impl $Name {
                /// A new atomic holding `v`.
                #[must_use]
                pub const fn new(v: $ty) -> Self {
                    Self { reg: Reg::new(), mirror: <$Std>::new(v) }
                }

                fn loc(&self, ctx: &super::Ctx) -> usize {
                    self.reg.resolve(ctx.epoch, || {
                        ctx.new_loc(self.mirror.load(Ordering::Relaxed) as u64)
                    })
                }

                /// Atomic load.
                #[must_use]
                pub fn load(&self, order: Ordering) -> $ty {
                    match model_identity() {
                        Some((ctx, tid)) => {
                            let loc = self.loc(&ctx);
                            ctx.op(tid, Op::Load { loc, ord: conv(order) }).value as $ty
                        }
                        None => self.mirror.load(order),
                    }
                }

                /// Atomic store.
                pub fn store(&self, val: $ty, order: Ordering) {
                    match model_identity() {
                        Some((ctx, tid)) => {
                            let loc = self.loc(&ctx);
                            // The mirror must reflect this store even when
                            // the op aborts the execution: unwind-path
                            // destructors read the mirrors, and a thread
                            // that (say) consumed a ring slot but whose
                            // cursor-advance store aborted would otherwise
                            // tear down against a cursor that still claims
                            // the slot — a double drop.
                            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || ctx.op(tid, Op::Store { loc, val: val as u64, ord: conv(order) }),
                            ));
                            self.mirror.store(val, Ordering::Relaxed);
                            if let Err(payload) = res {
                                std::panic::resume_unwind(payload);
                            }
                        }
                        None => self.mirror.store(val, order),
                    }
                }

                /// Atomic swap; returns the previous value.
                pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(RmwKind::Swap, val, order, |_| val)
                }

                /// Atomic wrapping add; returns the previous value.
                pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(RmwKind::Add, val, order, |old| old.wrapping_add(val))
                }

                /// Atomic wrapping subtract; returns the previous value.
                pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(RmwKind::Sub, val, order, |old| old.wrapping_sub(val))
                }

                fn rmw(
                    &self,
                    kind: RmwKind,
                    operand: $ty,
                    order: Ordering,
                    apply: impl Fn($ty) -> $ty,
                ) -> $ty {
                    match model_identity() {
                        Some((ctx, tid)) => {
                            let loc = self.loc(&ctx);
                            // As in `store`: an aborted op still lands on
                            // the mirror so unwind-path teardown sees the
                            // state this thread's control flow committed to.
                            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || {
                                    ctx.op(
                                        tid,
                                        Op::Rmw {
                                            loc,
                                            kind,
                                            operand: operand as u64,
                                            ord: conv(order),
                                        },
                                    )
                                },
                            ));
                            match res {
                                Ok(r) => {
                                    let old = r.value as $ty;
                                    self.mirror.store(apply(old), Ordering::Relaxed);
                                    old
                                }
                                Err(payload) => {
                                    match kind {
                                        RmwKind::Swap => self.mirror.swap(operand, Ordering::Relaxed),
                                        RmwKind::Add => {
                                            self.mirror.fetch_add(operand, Ordering::Relaxed)
                                        }
                                        RmwKind::Sub => {
                                            self.mirror.fetch_sub(operand, Ordering::Relaxed)
                                        }
                                        RmwKind::CompareExchange { .. } => unreachable!(),
                                    };
                                    std::panic::resume_unwind(payload)
                                }
                            }
                        }
                        None => match kind {
                            RmwKind::Swap => self.mirror.swap(operand, order),
                            RmwKind::Add => self.mirror.fetch_add(operand, order),
                            RmwKind::Sub => self.mirror.fetch_sub(operand, order),
                            RmwKind::CompareExchange { .. } => unreachable!(),
                        },
                    }
                }

                /// Compare-and-exchange; `Ok(previous)` on success.
                ///
                /// # Errors
                ///
                /// The observed (non-matching) value on failure.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    match model_identity() {
                        Some((ctx, tid)) => {
                            let loc = self.loc(&ctx);
                            // As in `store`: keep the mirror in step across
                            // an execution abort.
                            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || {
                                    ctx.op(
                                        tid,
                                        Op::Rmw {
                                            loc,
                                            kind: RmwKind::CompareExchange {
                                                expected: current as u64,
                                            },
                                            operand: new as u64,
                                            ord: conv(success),
                                        },
                                    )
                                },
                            ));
                            match res {
                                Ok(r) => {
                                    let old = r.value as $ty;
                                    if r.ok {
                                        self.mirror.store(new, Ordering::Relaxed);
                                        Ok(old)
                                    } else {
                                        Err(old)
                                    }
                                }
                                Err(payload) => {
                                    let _ = self.mirror.compare_exchange(
                                        current,
                                        new,
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    );
                                    std::panic::resume_unwind(payload)
                                }
                            }
                        }
                        None => self.mirror.compare_exchange(current, new, success, failure),
                    }
                }

                /// Exclusive-access read/write (no ordering needed). Under
                /// a model run this syncs the mirror with the model's
                /// latest store first, joining its release metadata.
                pub fn get_mut(&mut self) -> &mut $ty {
                    if let Some((ctx, tid)) = model_identity() {
                        if let Some(loc) = self.reg.peek(ctx.epoch) {
                            let v = ctx.get_mut_sync(tid, loc) as $ty;
                            *self.mirror.get_mut() = v;
                        }
                    }
                    self.mirror.get_mut()
                }
            }

            impl Default for $Name {
                fn default() -> Self {
                    Self::new(0)
                }
            }

            impl std::fmt::Debug for $Name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($Name))
                        .field(&self.mirror.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    shim_int_atomic!(
        /// Instrumented `std::sync::atomic::AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    shim_int_atomic!(
        /// Instrumented `std::sync::atomic::AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );

    /// Instrumented `std::sync::atomic::AtomicBool`.
    pub struct AtomicBool {
        reg: Reg,
        mirror: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// A new atomic flag holding `v`.
        #[must_use]
        pub const fn new(v: bool) -> Self {
            Self {
                reg: Reg::new(),
                mirror: std::sync::atomic::AtomicBool::new(v),
            }
        }

        fn loc(&self, ctx: &super::Ctx) -> usize {
            self.reg.resolve(ctx.epoch, || {
                ctx.new_loc(u64::from(self.mirror.load(Ordering::Relaxed)))
            })
        }

        /// Atomic load.
        #[must_use]
        pub fn load(&self, order: Ordering) -> bool {
            match model_identity() {
                Some((ctx, tid)) => {
                    let loc = self.loc(&ctx);
                    ctx.op(
                        tid,
                        Op::Load {
                            loc,
                            ord: conv(order),
                        },
                    )
                    .value
                        != 0
                }
                None => self.mirror.load(order),
            }
        }

        /// Atomic store.
        pub fn store(&self, val: bool, order: Ordering) {
            match model_identity() {
                Some((ctx, tid)) => {
                    let loc = self.loc(&ctx);
                    // As in the integer shims: the mirror takes this
                    // store even when the op aborts the execution, so
                    // unwind-path teardown sees the state this thread's
                    // control flow committed to.
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ctx.op(
                            tid,
                            Op::Store {
                                loc,
                                val: u64::from(val),
                                ord: conv(order),
                            },
                        )
                    }));
                    self.mirror.store(val, Ordering::Relaxed);
                    if let Err(payload) = res {
                        std::panic::resume_unwind(payload);
                    }
                }
                None => self.mirror.store(val, order),
            }
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            match model_identity() {
                Some((ctx, tid)) => {
                    let loc = self.loc(&ctx);
                    // As in `store`: aborted ops still land on the mirror.
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ctx.op(
                            tid,
                            Op::Rmw {
                                loc,
                                kind: RmwKind::Swap,
                                operand: u64::from(val),
                                ord: conv(order),
                            },
                        )
                    }));
                    self.mirror.store(val, Ordering::Relaxed);
                    match res {
                        Ok(r) => r.value != 0,
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                None => self.mirror.swap(val, order),
            }
        }

        /// Exclusive-access read/write (no ordering needed).
        pub fn get_mut(&mut self) -> &mut bool {
            if let Some((ctx, tid)) = model_identity() {
                if let Some(loc) = self.reg.peek(ctx.epoch) {
                    let v = ctx.get_mut_sync(tid, loc) != 0;
                    *self.mirror.get_mut() = v;
                }
            }
            self.mirror.get_mut()
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool")
                .field(&self.mirror.load(Ordering::Relaxed))
                .finish()
        }
    }
}

/// Instrumented `UnsafeCell` with data-race detection.
pub mod cell {
    use super::{model_identity, Reg};
    use crate::sched::Op;

    /// A race-checked `std::cell::UnsafeCell`: every `get()` under a
    /// model run is reported as a (write) access and vector-clock
    /// checked against the previous access.
    #[derive(Debug)]
    pub struct UnsafeCell<T> {
        reg: Reg,
        inner: std::cell::UnsafeCell<T>,
    }

    impl<T> UnsafeCell<T> {
        /// Wraps `v`.
        pub const fn new(v: T) -> Self {
            Self {
                reg: Reg::new(),
                inner: std::cell::UnsafeCell::new(v),
            }
        }

        /// The raw pointer to the wrapped value. Under a model run this
        /// is a scheduling point and a race-detector access.
        pub fn get(&self) -> *mut T {
            if let Some((ctx, tid)) = model_identity() {
                let cell = self.reg.resolve(ctx.epoch, || ctx.new_cell());
                ctx.op(tid, Op::CellAccess { cell });
            }
            self.inner.get()
        }

        /// Exclusive access (no instrumentation needed: `&mut self`).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    /// A safely-shareable probe for the race detector.
    ///
    /// [`touch`](Self::touch) reports an unsynchronized (write) access
    /// to the model exactly like [`UnsafeCell::get`], but the probe
    /// holds no data, so it is `Sync` without any unsafe impl — the
    /// checker's own tests use it to prove the race detector fires,
    /// and it can model raw-pointer accesses that live outside an
    /// `UnsafeCell`.
    #[derive(Debug, Default)]
    pub struct RaceProbe {
        reg: Reg,
    }

    impl RaceProbe {
        /// A new probe (its location registers lazily per execution).
        #[must_use]
        pub const fn new() -> Self {
            Self { reg: Reg::new() }
        }

        /// Reports one unsynchronized access at this point in the
        /// calling thread's program order. Outside a model run: no-op.
        pub fn touch(&self) {
            if let Some((ctx, tid)) = model_identity() {
                let cell = self.reg.resolve(ctx.epoch, || ctx.new_cell());
                ctx.op(tid, Op::CellAccess { cell });
            }
        }
    }
}

/// Instrumented `std::thread` subset: `spawn`/`join`, `current`,
/// `park`/`unpark`, `yield_now`.
pub mod thread {
    use super::model_identity;
    use crate::sched::{self, Op};
    use std::sync::{Arc, Mutex};

    /// A thread handle: a model tid inside a model run, a real
    /// `std::thread::Thread` outside one.
    #[derive(Debug, Clone)]
    pub enum Thread {
        /// A model thread (interleaving-explored).
        Model {
            /// The model thread id.
            tid: usize,
        },
        /// A real OS thread (outside any model run).
        Os(std::thread::Thread),
    }

    impl Thread {
        /// Wakes the thread (std `unpark` semantics: one sticky token).
        pub fn unpark(&self) {
            match self {
                Thread::Model { tid } => {
                    if let Some((ctx, me)) = model_identity() {
                        ctx.op(me, Op::Unpark { target: *tid });
                    }
                    // No identity: the execution is unwinding/aborted —
                    // nobody is left to wake.
                }
                Thread::Os(t) => t.unpark(),
            }
        }
    }

    /// The calling thread's handle.
    #[must_use]
    pub fn current() -> Thread {
        match model_identity() {
            Some((_, tid)) => Thread::Model { tid },
            None => Thread::Os(std::thread::current()),
        }
    }

    /// Blocks until unparked (model: until the token is granted).
    pub fn park() {
        match model_identity() {
            Some((ctx, tid)) => {
                ctx.op(tid, Op::Park);
            }
            None => std::thread::park(),
        }
    }

    /// A scheduling point (model) / `std::thread::yield_now` (plain).
    pub fn yield_now() {
        match model_identity() {
            Some((ctx, tid)) => {
                ctx.op(tid, Op::Yield);
            }
            None => std::thread::yield_now(),
        }
    }

    /// (controller, model thread id, result slot) for a model-spawned
    /// thread.
    type ModelJoin<T> = Option<(Arc<sched::Ctx>, usize, Arc<Mutex<Option<T>>>)>;

    /// Join handle for a spawned thread.
    pub struct JoinHandle<T> {
        model: ModelJoin<T>,
        os: Option<std::thread::JoinHandle<T>>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread and returns its result (std contract:
        /// `Err` when the thread panicked).
        ///
        /// # Panics
        ///
        /// Panics if the model result slot is poisoned (cannot happen:
        /// the slot is only locked around a plain assignment).
        pub fn join(self) -> std::thread::Result<T> {
            match (self.model, self.os) {
                (Some((ctx, target, slot)), _) => {
                    let me = model_identity()
                        .map(|(_, tid)| tid)
                        .expect("model JoinHandle joined outside its model run");
                    ctx.op(me, Op::Join { target });
                    match slot.lock().expect("join slot poisoned").take() {
                        Some(v) => Ok(v),
                        None => Err(Box::new("model thread panicked before producing a value")),
                    }
                }
                (None, Some(h)) => h.join(),
                (None, None) => unreachable!("JoinHandle with no backing thread"),
            }
        }
    }

    /// Spawns a thread. Inside a model run the child becomes a model
    /// thread whose every sync op is a scheduling point.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match model_identity() {
            Some((ctx, me)) => {
                let tid = ctx.register_child(me);
                let slot = Arc::new(Mutex::new(None));
                let slot2 = Arc::clone(&slot);
                let ctx2 = Arc::clone(&ctx);
                let h = std::thread::spawn(move || {
                    sched::thread_main(Arc::clone(&ctx2), tid, move || {
                        let v = f();
                        *slot2.lock().expect("join slot poisoned") = Some(v);
                    });
                });
                ctx.adopt_handle(h);
                JoinHandle {
                    model: Some((ctx, tid, slot)),
                    os: None,
                }
            }
            None => JoinHandle {
                model: None,
                os: Some(std::thread::spawn(f)),
            },
        }
    }
}

/// Instrumented `std::sync::Mutex` (lock/unlock are scheduling points
/// and happens-before edges).
pub mod mutex {
    use super::{model_identity, Reg};
    use crate::sched::{Ctx, Op};
    use std::convert::Infallible;
    use std::sync::Arc;

    /// A model-aware mutex wrapping `std::sync::Mutex`.
    pub struct Mutex<T> {
        reg: Reg,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Wraps `v`.
        pub const fn new(v: T) -> Self {
            Self {
                reg: Reg::new(),
                inner: std::sync::Mutex::new(v),
            }
        }

        /// Locks. Under a model run, blocks at the controller while any
        /// other model thread holds the model mutex (the inner std lock
        /// is then uncontended by construction).
        ///
        /// # Errors
        ///
        /// Never — poisoning is absorbed so abandoned model executions
        /// cannot wedge later ones. The `Result` keeps the std calling
        /// shape (`.lock().expect(..)`).
        pub fn lock(&self) -> Result<MutexGuard<'_, T>, Infallible> {
            let model = model_identity().map(|(ctx, tid)| {
                let mid = self.reg.resolve(ctx.epoch, || ctx.new_mutex());
                ctx.op(tid, Op::Lock { mid });
                (ctx, tid, mid)
            });
            let inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Ok(MutexGuard {
                inner: Some(inner),
                model,
            })
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self.inner.try_lock() {
                Ok(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
                Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
            }
        }
    }

    /// Guard returned by [`Mutex::lock`]; dropping unlocks (and emits
    /// the model unlock edge).
    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        model: Option<(Arc<Ctx>, usize, usize)>,
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock first so the next model thread the
            // controller grants cannot block on it.
            drop(self.inner.take());
            if let Some((ctx, tid, mid)) = self.model.take() {
                if !std::thread::panicking() {
                    ctx.op(tid, Op::Unlock { mid });
                }
                // While unwinding (abort), the model edge is dropped —
                // the execution is already abandoned.
            }
        }
    }
}
