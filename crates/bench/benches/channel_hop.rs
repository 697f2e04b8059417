//! Channel-hop microbenchmark: the admission→worker→completion crossing
//! cost in isolation, at job sizes of 1 and 8 batches.
//!
//! Round-trips one job through a dedicated worker thread via
//!
//! - `mpsc`: the retired design's bounded `std::sync::mpsc` pair
//!   (`sync_channel(2)` feed, `sync_channel(4)` completions), and
//! - `spsc`: the serving engine's rings (`nova::spsc`, feed depth 2,
//!   done depth 4) with the engine's park/doorbell wakeup protocol.
//!
//! Each iteration is one full hop pair — push a job to the worker, get
//! the finished job back — including the wakeup latency on both sides,
//! so the printed time is ns/job for the crossing alone. This pins the
//! "cheaper hops" half of the serving tentpole independently of the
//! evaluation work the pipeline benches mix in.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use nova::spsc::{self, Doorbell, PushError};
use nova_bench::harness::{black_box, Criterion};
use nova_bench::{criterion_group, criterion_main};
use nova_fixed::{Fixed, FixedBatch, Q4_12};

/// Mirrors the serving engine's per-shard ring depths.
const FEED_DEPTH: usize = 2;
const DONE_DEPTH: usize = 4;

/// A stand-in for a serving work unit: a run of coalesced batches plus
/// a slot the worker writes so the hop carries a data dependency in
/// both directions.
struct Job {
    batches: Vec<FixedBatch>,
    touched: i64,
}

fn make_job(batches: usize) -> Job {
    let fill = Fixed::zero(Q4_12);
    Job {
        batches: (0..batches).map(|_| FixedBatch::new(2, 8, fill)).collect(),
        touched: 0,
    }
}

/// The worker's "service": read every batch so the payload is live,
/// cheap enough that the channel hop dominates the measurement.
fn touch(batches: &[FixedBatch]) -> i64 {
    batches
        .iter()
        .map(|b| b.as_slice().first().map_or(0, |f| f.raw()))
        .sum()
}

fn bench_mpsc(c: &mut Criterion, batches: usize) {
    let mut g = c.benchmark_group("channel_hop");
    g.bench_function(&format!("mpsc_roundtrip_{batches}batch"), |b| {
        let (feed_tx, feed_rx) = mpsc::sync_channel::<Job>(FEED_DEPTH);
        let (done_tx, done_rx) = mpsc::sync_channel::<Job>(DONE_DEPTH);
        let worker = thread::spawn(move || {
            while let Ok(mut job) = feed_rx.recv() {
                job.touched = black_box(touch(&job.batches));
                if done_tx.send(job).is_err() {
                    break;
                }
            }
        });
        let mut slot = Some(make_job(batches));
        b.iter(|| {
            let job = slot.take().expect("one job in flight");
            feed_tx.send(job).expect("worker alive");
            slot = Some(done_rx.recv().expect("worker alive"));
        });
        drop(feed_tx);
        worker.join().expect("mpsc worker exits cleanly");
    });
    g.finish();
}

fn bench_spsc(c: &mut Criterion, batches: usize) {
    let mut g = c.benchmark_group("channel_hop");
    g.bench_function(&format!("spsc_roundtrip_{batches}batch"), |b| {
        let (feed_tx, feed_rx) = spsc::ring::<Job>(FEED_DEPTH);
        let (done_tx, done_rx) = spsc::ring::<Job>(DONE_DEPTH);
        let bell = Arc::new(Doorbell::new());
        let worker_bell = Arc::clone(&bell);
        // The engine's worker loop: pop, park when dry, drain after close.
        let worker = thread::spawn(move || {
            let serve = |mut job: Job| {
                job.touched = black_box(touch(&job.batches));
                match done_tx.try_push(job) {
                    Ok(()) => worker_bell.ring(),
                    // One job in flight < done capacity: never Full.
                    Err(PushError::Full(_)) => panic!("done ring full with one job in flight"),
                    Err(PushError::Closed(_)) => {}
                }
            };
            while let Some(job) = feed_rx.pop_or_park() {
                serve(job);
            }
        });
        let mut slot = Some(make_job(batches));
        b.iter(|| {
            let job = slot.take().expect("one job in flight");
            assert!(
                feed_tx.try_push(job).is_ok(),
                "feed push failed with one job in flight"
            );
            // The engine's completion wait: arm the bell, re-check, park.
            slot = Some(loop {
                if let Some(job) = done_rx.try_pop() {
                    break job;
                }
                assert!(!done_rx.is_closed(), "worker died mid-roundtrip");
                bell.arm();
                match done_rx.try_pop() {
                    Some(job) => {
                        bell.disarm();
                        break job;
                    }
                    None => thread::park(),
                }
                bell.disarm();
            });
        });
        feed_tx.close();
        worker.join().expect("spsc worker exits cleanly");
    });
    g.finish();
}

fn bench_channel_hop(c: &mut Criterion) {
    for batches in [1usize, 8] {
        bench_mpsc(c, batches);
        bench_spsc(c, batches);
    }
}

criterion_group!(benches, bench_channel_hop);
criterion_main!(benches);
