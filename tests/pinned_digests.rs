//! The four pinned output digests of the serving engine.
//!
//! Each digest is FNV-1a over the raw little-endian words of every
//! output, in request order — the digest the serving bench bin prints.
//! Every slate is served at 1 and 2 shards and compared with
//! `serve_reference`, so a change to packing, dispatch or the worker
//! interpreter that moves one output bit fails here by name.

use nova::serving::{
    FaultInjector, FaultPolicy, Plan, ServingEngine, ServingRequest, TableCache, TableKey,
};
use nova::ApproximatorKind;
use nova_approx::Activation;
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::LineConfig;
use nova_workloads::traffic::query_words_into;

const SERVING: u64 = 0x5422_09cc_23db_d057;
const DEGRADED: u64 = 0x9079_d2b8_a20d_0031;
const FLAT: u64 = 0xc9cf_2073_4dc4_6c52;
const FUSED: u64 = 0xfb6c_442d_2bec_bb18;

fn fnv1a(outputs: &[Vec<Fixed>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in outputs.iter().flatten() {
        for byte in word.raw().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

fn words(seed: u64, count: usize) -> Vec<Fixed> {
    let mut inputs = Vec::new();
    query_words_into(
        seed,
        count,
        -6.0,
        6.0,
        Q4_12,
        Rounding::NearestEven,
        &mut inputs,
    );
    inputs
}

/// 16 streams seeded from `first_seed`: even streams GELU, odd exp.
fn mixed_slate(first_seed: u64, words_per_stream: usize) -> Vec<ServingRequest> {
    (0..16)
        .map(|stream| {
            let activation = if stream % 2 == 0 {
                Activation::Gelu
            } else {
                Activation::Exp
            };
            ServingRequest::new(
                stream,
                TableKey::paper(activation),
                words(first_seed + stream as u64, words_per_stream),
            )
        })
        .collect()
}

/// Serves `slate` on an 8×128 engine, checks the outputs against the
/// sequential reference, and returns the engine and the outputs' digest.
fn serve(
    slate: &[ServingRequest],
    plans: &[Plan],
    shards: usize,
    policy: Option<FaultPolicy>,
    cache: &TableCache,
) -> (ServingEngine, u64) {
    let mut builder = ServingEngine::builder(ApproximatorKind::PerCoreLut)
        .line(LineConfig::paper_default(8, 128))
        .cache(cache)
        .shards(shards);
    for plan in plans {
        builder = builder.plan(plan);
    }
    if let Some(policy) = policy {
        builder = builder.fault_check(policy);
    }
    let mut engine = builder.build().expect("engine builds");
    let outputs = engine.serve(slate).expect("well-formed slate");
    assert_eq!(outputs, engine.serve_reference(slate), "{shards} shard(s)");
    let digest = fnv1a(&outputs);
    (engine, digest)
}

#[test]
fn pinned_output_digests_are_unchanged() {
    let cache = TableCache::new();
    let gelu = Plan::lookup(TableKey::paper(Activation::Gelu));
    let exp = Plan::lookup(TableKey::paper(Activation::Exp));
    let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
    let mixed = [gelu.clone(), exp];
    let serving = mixed_slate(0, 2000);
    let degraded = mixed_slate(80, 500);
    let flat: Vec<ServingRequest> = (0..5)
        .map(|stream| ServingRequest::new(stream, &gelu, words(100 + stream as u64, 777)))
        .collect();
    let fused: Vec<ServingRequest> = (0..48)
        .map(|row| {
            ServingRequest::new(
                row,
                &softmax,
                words(200 + row as u64, 32 + (row * 37) % 224),
            )
        })
        .collect();
    let slates: [(&str, &[ServingRequest], &[Plan], u64); 4] = [
        ("serving", &serving, &mixed, SERVING),
        ("degraded", &degraded, &mixed, DEGRADED),
        ("flat", &flat, std::slice::from_ref(&gelu), FLAT),
        ("fused", &fused, std::slice::from_ref(&softmax), FUSED),
    ];
    for (name, slate, plans, pinned) in slates {
        for shards in [1, 2] {
            let (_, digest) = serve(slate, plans, shards, None, &cache);
            assert_eq!(
                digest, pinned,
                "{name} digest moved at {shards} shard(s): {digest:#018x}"
            );
        }
    }
    // The degraded slate again, with shard 0 of 4 flipping an output bit
    // on its second lookup: the canary quarantines it and the survivors
    // re-run its units to the same words.
    let policy = FaultPolicy::new().inject(0, FaultInjector::bit_flip(1, 9));
    let (engine, digest) = serve(&degraded, &mixed, 4, Some(policy), &cache);
    assert_eq!(digest, DEGRADED, "degraded digest moved under quarantine");
    assert_eq!(engine.stats().quarantined_shards, 1);
}
