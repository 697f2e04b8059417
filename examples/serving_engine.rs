//! Multi-tenant serving: batch non-linear queries from many concurrent
//! inference streams — across *multiple activation tables* — through a
//! pool of worker threads.
//!
//! Walks the full v2 serving path: a thread-shared keyed table cache
//! (fit once, share the `Arc`), a builder-configured `ServingEngine`
//! with two resident tables (GELU + softmax-exp) whose admission stage
//! coalesces eight tenants' bursts into full `(routers × neurons)`
//! batches per activation run and feeds them to four shard worker
//! threads over SPSC rings, workers re-programming their unit
//! between runs (`VectorUnit::switch_table` — free on NOVA, a bank
//! rewrite on LUT/SDP), reorder/scatter that is bit-identical to
//! dedicated sequential evaluation, the engine's own cycle ledger
//! (occupancy, queries/s, per-worker batches, table switches and
//! makespan), and the non-blocking session surface (`submit` →
//! `try_poll`/`drain`).
//!
//! Run with: `cargo run --example serving_engine`

use nova_repro::accel::AcceleratorConfig;
use nova_repro::approx::Activation;
use nova_repro::engine::ApproximatorKind;
use nova_repro::fixed::{Rounding, Q4_12};
use nova_repro::serving::{gather_by_stream, ServingEngine, ServingRequest, TableCache, TableKey};
use nova_repro::synth::TechModel;
use nova_repro::workloads::traffic::query_words_into;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechModel::cmos22();
    let host = AcceleratorConfig::tpu_v4_like();
    println!(
        "Serving on {}: one {}-query batch per 2-cycle lookup+MAC\n",
        host.name,
        host.total_neurons()
    );

    // 1. The table cache: the GELU and exp fits happen once; every
    //    engine (and any thread — `get_or_fit` is `&self`) shares the
    //    same Arc'd tables.
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    let table = cache.get_or_fit(gelu)?;
    let again = cache.get_or_fit(gelu)?;
    println!(
        "Table cache: {} fit(s), {} hit(s), shared allocation: {}",
        cache.misses(),
        cache.hits(),
        std::sync::Arc::ptr_eq(&table, &again)
    );

    // 2. Eight concurrent tenants, each with a small burst — far below
    //    one batch on its own. Even streams hit the GELU table, odd
    //    streams the softmax-exp table, so the engine really is
    //    multi-tenant across activations. Queries extract straight into
    //    fixed-point words (no intermediate f64 vector).
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
    // The v2 builder replaces the positional constructors: geometry from
    // the host, tables by key through the shared cache, 4 shard workers.
    let mut engine = ServingEngine::builder(ApproximatorKind::NovaNoc)
        .host(&tech, &host)
        .cache(&cache)
        .tables([gelu, exp])
        .shards(4)
        .build()?;
    let outputs = engine.serve(&requests)?;

    // 3. Reorder/scatter is bit-identical to a dedicated sequential
    //    evaluation — four worker threads and two interleaved activation
    //    tables are functionally invisible.
    assert_eq!(outputs, engine.serve_reference(&requests));
    for (request, out) in requests.iter().zip(&outputs) {
        let key = request.plan.single_lookup().expect("one-stage plan");
        let table = engine.table_for(key).expect("resident table");
        for (&x, &y) in request.inputs.iter().zip(out) {
            assert_eq!(y, table.eval(x), "threading must be invisible");
        }
    }
    let by_stream = gather_by_stream(&requests, &outputs);
    let stats = engine.stats();
    println!(
        "Served {} queries from {} streams in {} batches ({} padded slots): \
         occupancy {:.1}%, {:.3e} queries/s — bit-identical per stream ({} streams gathered)",
        stats.queries,
        requests.len(),
        stats.batches,
        stats.padded_slots,
        engine.occupancy_pct(),
        engine.queries_per_second(host.frequency_ghz()),
        by_stream.len()
    );
    let loads = engine.worker_loads();
    println!(
        "Worker pool: {} shard threads served {:?} batches each; {} table switch(es) \
         cost {} cycle(s) on NOVA; makespan {} cycles vs {} serial",
        engine.shards(),
        loads.iter().map(|l| l.batches).collect::<Vec<_>>(),
        stats.table_switches,
        stats.switch_cycles,
        engine.makespan_cycles(),
        stats.latency_cycles
    );

    // 4. The non-blocking session surface: submit two slates, check the
    //    second without blocking, then block on it (no spinning — `wait`
    //    parks on worker completions), then drain the rest.
    let early = engine.submit(&requests[..4])?;
    let late = engine.submit(&requests[4..])?;
    let late_result = match engine.try_poll(late)? {
        Some(out) => out, // already finished between submits
        None => engine.wait(late)?,
    };
    assert_eq!(late_result, engine.serve_reference(&requests[4..]));
    let drained = engine.drain();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].0, early);
    assert_eq!(
        drained[0].1.as_ref().expect("ticket served"),
        &engine.serve_reference(&requests[..4])
    );
    println!(
        "Session surface: submitted 2 tickets, polled #{} early, drained #{} — \
         {} tickets left in flight",
        late.id(),
        early.id(),
        engine.in_flight()
    );

    Ok(())
}
