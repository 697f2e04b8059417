//! Degraded-mode serving: a broadcast-link fault fires mid-slate, the
//! canary check catches it, the runtime quarantines the failed shard and
//! requeues its in-flight work units — and the slate still completes
//! bit-identical to the sequential reference. Then a "daemon restart":
//! the fitted table cache warm-starts from a `nova-serde` snapshot
//! instead of refitting every tenant's table.
//!
//! Run with: `cargo run --example degraded_serving`

use nova_repro::approx::Activation;
use nova_repro::engine::ApproximatorKind;
use nova_repro::fixed::{Rounding, Q4_12};
use nova_repro::noc::LineConfig;
use nova_repro::serde::Value;
use nova_repro::serving::{
    FaultInjector, FaultPolicy, ServingEngine, ServingRequest, TableCache, TableKey,
};
use nova_repro::workloads::traffic::query_words_into;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two resident paper tables, eight tenants' bursts — the same
    //    multi-tenant slate the healthy serving example uses.
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    let requests: Vec<ServingRequest> = (0..8)
        .map(|stream| {
            let mut inputs = Vec::new();
            query_words_into(
                stream as u64,
                300,
                -6.0,
                6.0,
                Q4_12,
                Rounding::NearestEven,
                &mut inputs,
            );
            ServingRequest::new(stream, if stream % 2 == 0 { gelu } else { exp }, inputs)
        })
        .collect();

    // 2. Four shard workers with fault detection armed, and a
    //    deterministic bit-flip scheduled on shard 1: its third lookup
    //    evaluation comes back with one corrupted output word, exactly
    //    what a flipped broadcast-link bit produces.
    let mut engine = ServingEngine::builder(ApproximatorKind::NovaNoc)
        .line(LineConfig::paper_default(8, 32))
        .cache(&cache)
        .tables([gelu, exp])
        .shards(4)
        .fault_check(FaultPolicy::new().inject(1, FaultInjector::bit_flip(2, 11)))
        .build()?;
    println!(
        "Armed fault detection on {} shards; injecting a bit flip on shard 1 mid-slate",
        engine.shards()
    );

    // 3. Serve through the fault. The canary catches the corrupted
    //    word, shard 1 is quarantined, its in-flight units re-run on
    //    the three survivors — and the output is still bit-identical.
    let reference = engine.serve_reference(&requests);
    let outputs = engine.serve(&requests)?;
    let identical = outputs == reference;
    let stats = engine.stats();
    println!(
        "degraded serve: bit-identical to reference: {identical}, \
         quarantined {} of {} shards ({}% capacity lost), requeued {} unit(s)",
        stats.quarantined_shards,
        engine.shards(),
        stats.degraded_capacity_pct,
        stats.requeued_units
    );
    assert!(identical, "quarantine must be functionally invisible");
    assert_eq!(stats.quarantined_shards, 1);
    assert_eq!(engine.healthy_shards(), 3);
    println!(
        "requeue cost attributed: {} ns across {} requeued unit(s)",
        engine.stage_times().requeue_ns,
        stats.requeued_units
    );

    // 4. Degraded steady state: the survivors keep serving correctly.
    let again = engine.serve(&requests)?;
    assert_eq!(again, reference);
    println!(
        "degraded steady state: follow-up slate bit-identical: {}, healthy shards: {}",
        again == reference,
        engine.healthy_shards()
    );

    // 5. Warm start: snapshot the fitted tables, "restart the daemon"
    //    (a fresh empty cache), restore, and rebuild the engine without
    //    a single refit — the restored raw words are bit-identical.
    let snapshot_json = cache.snapshot().to_json();
    let restarted = TableCache::new();
    let restored = restarted.restore(&Value::from_json(&snapshot_json)?)?;
    let before_misses = restarted.misses();
    let warm_gelu = restarted.get_or_fit(gelu)?;
    let cold_gelu = cache.get_or_fit(gelu)?;
    assert_eq!(restarted.misses(), before_misses, "no refit on warm start");
    assert_eq!(warm_gelu.pairs(), cold_gelu.pairs());
    println!(
        "warm start: restored {restored} table(s) from a {}-byte snapshot, \
         raw-word-identical: true, refits: 0",
        snapshot_json.len()
    );
    let mut warm_engine = ServingEngine::builder(ApproximatorKind::NovaNoc)
        .line(LineConfig::paper_default(8, 32))
        .cache(&restarted)
        .tables([gelu, exp])
        .shards(4)
        .build()?;
    assert_eq!(warm_engine.serve(&requests)?, reference);
    println!("warm-started engine serves bit-identical: true");
    Ok(())
}
