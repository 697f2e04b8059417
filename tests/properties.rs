//! Workspace-level property tests: the full mapper → overlay → unit
//! pipeline under randomized settings.
//!
//! Checked over deterministic pseudo-random stimulus from the workspace
//! PRNG (`nova_fixed::rng`) instead of proptest, per the no-external-
//! dependency policy.

use nova::serving::{Plan, ServingEngine, ServingRequest, TableCache, TableKey};
use nova::vector_unit::build;
use nova::{ApproximatorKind, FixedBatch, Mapper};
use nova_approx::Activation;
use nova_fixed::rng::StdRng;
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::LineConfig;
use nova_synth::TechModel;

const ACTIVATIONS: [Activation; 5] = [
    Activation::Exp,
    Activation::Gelu,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Silu,
];

fn pick_activation(rng: &mut StdRng) -> Activation {
    ACTIVATIONS[rng.gen_range(0..ACTIVATIONS.len())]
}

/// For any activation, segment budget, geometry, reach and inputs: the
/// NOVA unit and both LUT baselines, built through `build`, agree bit
/// for bit, and all equal the compiled table — before and after every
/// unit switches to a second random table.
#[test]
fn all_units_agree_under_random_mappings() {
    let mut rng = StdRng::seed_from_u64(0xD001);
    // The switch targets draw from their own stream, so the first-table
    // cases are the same as without the switch.
    let mut switch_rng = StdRng::seed_from_u64(0xD002);
    for _ in 0..24 {
        let a = pick_activation(&mut rng);
        let segments = rng.gen_range(2usize..17);
        let routers = rng.gen_range(1usize..11);
        let neurons = rng.gen_range(1usize..7);
        let reach = rng.gen_range(1usize..11);
        let n_raws = rng.gen_range(1usize..64);
        let raws: Vec<i64> = (0..n_raws)
            .map(|_| rng.gen_range(i64::from(i16::MIN)..i64::from(i16::MAX) + 1))
            .collect();
        let tech = TechModel::cmos22();
        let compile = |a: Activation, segments: usize| {
            let plan = Mapper::paper_default()
                .with_segments(segments)
                .compile(&[a], &tech, routers, 1.0, 1.0)
                .unwrap();
            plan.mappings[0].table.clone()
        };
        let first = compile(a, segments);
        let second = compile(
            pick_activation(&mut switch_rng),
            switch_rng.gen_range(2usize..17),
        );
        let mut config = LineConfig::paper_default(routers, neurons);
        config.max_hops_per_cycle = reach;
        let mut inputs = FixedBatch::new(routers, neurons, Fixed::zero(Q4_12));
        for (i, x) in inputs.as_mut_slice().iter_mut().enumerate() {
            *x = Fixed::from_raw(raws[i % raws.len()], Q4_12).unwrap();
        }
        let mut out = FixedBatch::empty();
        let mut units =
            ApproximatorKind::fig8_contenders().map(|kind| build(kind, config, &first).unwrap());
        for (step, table) in [&first, &second].into_iter().enumerate() {
            let expect: Vec<Fixed> = inputs.as_slice().iter().map(|&i| table.eval(i)).collect();
            for unit in &mut units {
                if step > 0 {
                    unit.switch_table(table).unwrap();
                }
                unit.lookup_batch_into(&inputs, &mut out).unwrap();
                assert_eq!(out.as_slice(), expect, "{} on table {step}", unit.name());
            }
        }
    }
}

/// The flat zero-copy pipeline is bit-identical to the scalar datapath:
/// for every approximator kind, random geometry and random inputs,
/// `lookup_batch_into` writes exactly `QuantizedPwl::eval` of every word,
/// and one recycled output buffer stays bit-exact across reuse.
#[test]
fn flat_path_bit_identical_to_scalar_eval_for_all_kinds_under_random_geometries() {
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    let cache = TableCache::new();
    // Reuse one output buffer across kinds and rounds — recycling must
    // never leak a previous batch's words.
    let mut out = FixedBatch::empty();
    for round in 0..12 {
        let activation = pick_activation(&mut rng);
        let routers = rng.gen_range(1usize..9);
        let neurons = rng.gen_range(1usize..17);
        let table = cache
            .get_or_fit(TableKey::paper(activation))
            .expect("paper keys fit");
        let config = LineConfig::paper_default(routers, neurons);
        let mut inputs = FixedBatch::new(routers, neurons, Fixed::zero(Q4_12));
        for x in inputs.as_mut_slice() {
            *x = Fixed::from_f64(rng.gen_range(-8.0..8.0), Q4_12, Rounding::NearestEven);
        }
        let expect: Vec<Fixed> = inputs.as_slice().iter().map(|&x| table.eval(x)).collect();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &table).unwrap();
            unit.lookup_batch_into(&inputs, &mut out).unwrap();
            assert_eq!(out.dims(), (routers, neurons));
            assert_eq!(
                out.as_slice(),
                expect,
                "round {round}: {} diverged on a {routers}x{neurons} grid",
                kind.label()
            );
        }
    }
}

/// Serving through the flat pipeline is bit-identical to the sequential
/// reference for every kind × shard geometry × ragged tail shape (query
/// totals chosen coprime to the batch capacity so tail batches are
/// genuinely partial) × activation tenancy mix — and steady-state
/// repeats mint no buffers, even though multi-table slates keep
/// re-programming the workers' units between activation runs.
#[test]
fn flat_serving_bit_identical_across_kinds_geometries_and_ragged_tails() {
    let mut rng = StdRng::seed_from_u64(0xF1A8);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    for (routers, neurons) in [(2usize, 5usize), (4, 8)] {
        for queries_per_stream in [1usize, 13, 61] {
            // Streams 0/2 hit the GELU table, stream 1 the exp table —
            // a genuinely mixed-activation slate in arrival order.
            let requests: Vec<ServingRequest> = (0..3)
                .map(|stream| {
                    ServingRequest::new(
                        stream,
                        if stream % 2 == 0 { gelu } else { exp },
                        (0..queries_per_stream)
                            .map(|_| {
                                Fixed::from_f64(
                                    rng.gen_range(-6.0..6.0),
                                    Q4_12,
                                    Rounding::NearestEven,
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            for kind in ApproximatorKind::all() {
                let mut engine = ServingEngine::builder(kind)
                    .line(LineConfig::paper_default(routers, neurons))
                    .cache(&cache)
                    .tables([gelu, exp])
                    .shards(2)
                    .build()
                    .unwrap();
                let reference = engine.serve_reference(&requests);
                assert_eq!(
                    engine.serve(&requests).unwrap(),
                    reference,
                    "{} diverged: {routers}x{neurons}, {queries_per_stream} q/stream",
                    kind.label()
                );
                let minted = engine.buffers_created();
                assert_eq!(engine.serve(&requests).unwrap(), reference);
                assert_eq!(
                    engine.buffers_created(),
                    minted,
                    "steady state minted buffers for {}",
                    kind.label()
                );
                assert_eq!(
                    engine.stats().table_switches > 0,
                    queries_per_stream > 0,
                    "mixed tenancy must re-program {} workers",
                    kind.label()
                );
            }
        }
    }
}

/// Fat work units are functionally invisible: for every approximator
/// kind × worker count {1, 2, 4}, a mixed-activation slate with ragged
/// tail batches serves bit-identically to the sequential reference,
/// steady-state repeats mint no input buffers through the SPSC rings,
/// and the job ledger shows the adaptive run length at work: one batch
/// per unit at 4 workers (`K = 1` for these 5-batch runs), coalesced
/// units at 1 worker (`K = 3`). The per-cap layout checks live with the
/// packer's own tests.
#[test]
fn fat_units_bit_identical_across_workers_kinds_and_unit_caps() {
    let mut rng = StdRng::seed_from_u64(0xFA7);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    // 3×7 grid (capacity 21) with 47 queries/stream: every stream ends
    // in a genuinely partial tail batch (47 = 2·21 + 5), and each
    // activation's run of 94 queries packs into 5 batches.
    let (routers, neurons, queries_per_stream) = (3usize, 7usize, 47usize);
    let requests: Vec<ServingRequest> = (0..4)
        .map(|stream| {
            ServingRequest::new(
                stream,
                if stream % 2 == 0 { gelu } else { exp },
                (0..queries_per_stream)
                    .map(|_| {
                        Fixed::from_f64(rng.gen_range(-6.0..6.0), Q4_12, Rounding::NearestEven)
                    })
                    .collect(),
            )
        })
        .collect();
    for kind in ApproximatorKind::all() {
        for workers in [1usize, 2, 4] {
            let mut engine = ServingEngine::builder(kind)
                .line(LineConfig::paper_default(routers, neurons))
                .cache(&cache)
                .tables([gelu, exp])
                .shards(workers)
                .build()
                .unwrap();
            let label = format!("{} w={workers}", kind.label());
            let reference = engine.serve_reference(&requests);
            assert_eq!(engine.serve(&requests).unwrap(), reference, "{label}");
            let minted = engine.buffers_created();
            assert_eq!(engine.serve(&requests).unwrap(), reference, "{label}");
            assert_eq!(
                engine.buffers_created(),
                minted,
                "steady state minted buffers: {label}"
            );
            let stats = engine.stats();
            assert!(stats.jobs > 0 && stats.jobs <= stats.batches, "{label}");
            if workers == 4 {
                // K = ⌈5 / 8⌉ = 1: one batch per job.
                assert_eq!(stats.jobs, stats.batches, "{label}");
            } else if workers == 1 {
                // K = ⌈5 / 2⌉ = 3: the five-batch runs must coalesce.
                assert!(stats.jobs < stats.batches, "runs never packed: {label}");
            }
        }
    }
}

/// Op-graph plans are functionally invisible too: for every approximator
/// kind × worker count {1, 2, 4} × seeded ragged slate — fused softmax
/// rows (including empty and full-batch-width ones) interleaved with
/// single-lookup tenants — the worker pool serves bit-identically to
/// the sequential op-graph interpreter, steady-state repeats mint no
/// buffers, and every non-empty fused row comes back normalized.
#[test]
fn fused_plans_bit_identical_across_workers_kinds_and_ragged_slates() {
    let mut rng = StdRng::seed_from_u64(0xF5ED);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
    // 2×5 grid (capacity 10): fused rows up to the full batch width, so
    // row-aligned packing keeps sealing genuinely partial batches.
    let (routers, neurons) = (2usize, 5usize);
    let capacity = routers * neurons;
    for round in 0..3 {
        let requests: Vec<ServingRequest> = (0..9)
            .map(|stream| {
                let fused = stream % 3 != 0;
                let width = if fused {
                    rng.gen_range(0usize..capacity + 1)
                } else {
                    rng.gen_range(1usize..24)
                };
                let inputs: Vec<Fixed> = (0..width)
                    .map(|_| {
                        Fixed::from_f64(rng.gen_range(-6.0..6.0), Q4_12, Rounding::NearestEven)
                    })
                    .collect();
                if fused {
                    ServingRequest::new(stream, softmax.clone(), inputs)
                } else {
                    ServingRequest::new(stream, gelu, inputs)
                }
            })
            .collect();
        for kind in ApproximatorKind::all() {
            for workers in [1usize, 2, 4] {
                let mut engine = ServingEngine::builder(kind)
                    .line(LineConfig::paper_default(routers, neurons))
                    .cache(&cache)
                    .table(gelu)
                    .plan(&softmax)
                    .shards(workers)
                    .build()
                    .unwrap();
                let label = format!("{} w={workers} round={round}", kind.label());
                let reference = engine.serve_reference(&requests);
                assert_eq!(engine.serve(&requests).unwrap(), reference, "{label}");
                let minted = engine.buffers_created();
                assert_eq!(engine.serve(&requests).unwrap(), reference, "{label}");
                assert_eq!(
                    engine.buffers_created(),
                    minted,
                    "steady state minted buffers: {label}"
                );
                for (request, out) in requests.iter().zip(&reference) {
                    if request.plan.single_lookup().is_none() && !out.is_empty() {
                        let sum: f64 = out.iter().map(|y| y.to_f64()).sum();
                        assert!((sum - 1.0).abs() < 0.1, "{label}: fused row sums to {sum}");
                    }
                }
            }
        }
    }
}

/// The mapper's clock multiplier is exactly ⌈segments/8⌉ on the paper
/// link, and the plan's reach shrinks monotonically with core clock.
#[test]
fn mapper_multiplier_formula() {
    let mut rng = StdRng::seed_from_u64(0xD002);
    for _ in 0..24 {
        let segments = rng.gen_range(1usize..17);
        let core_mhz = rng.gen_range(100.0..2000.0);
        let tech = TechModel::cmos22();
        let plan = Mapper::paper_default()
            .with_segments(segments)
            .compile(&[Activation::Tanh], &tech, 4, core_mhz / 1000.0, 1.0)
            .unwrap();
        assert_eq!(plan.noc_clock_multiplier, segments.div_ceil(8).max(1));
        let slower = Mapper::paper_default()
            .with_segments(segments)
            .compile(&[Activation::Tanh], &tech, 4, core_mhz / 2000.0, 1.0)
            .unwrap();
        assert!(slower.reach >= plan.reach);
    }
}

/// Approximation accuracy through the full mapper pipeline improves
/// (weakly) with the segment budget for every activation.
#[test]
fn mapper_accuracy_monotone() {
    for a in ACTIVATIONS {
        let tech = TechModel::cmos22();
        let err = |segments: usize| {
            let plan = Mapper::paper_default()
                .with_segments(segments)
                .compile(&[a], &tech, 1, 1.0, 1.0)
                .unwrap();
            let table = &plan.mappings[0].table;
            let (lo, hi) = a.domain();
            (0..200)
                .map(|k| lo + (hi - lo) * k as f64 / 199.0)
                .map(|x| (table.eval_f64(x) - a.eval(x)).abs())
                .fold(0.0f64, f64::max)
        };
        // Allow a little fixed-point noise between adjacent budgets.
        assert!(err(16) <= err(4) + 0.01, "{a:?}");
    }
}
