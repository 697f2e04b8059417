//! Property-based tests: the NoC broadcast is functionally identical to a
//! direct table lookup for every geometry and input batch.
//!
//! Checked over deterministic pseudo-random stimulus from the workspace
//! PRNG (`nova_fixed::rng`) instead of proptest, per the no-external-
//! dependency policy.

use nova_approx::{fit, Activation, QuantizedPwl};
use nova_fixed::rng::StdRng;
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::sim::{BroadcastSim, SimStats};
use nova_noc::{Flit, LineConfig, LinkConfig};

fn table(segments: usize) -> QuantizedPwl {
    let pwl =
        fit::fit_activation(Activation::Gelu, segments, fit::BreakpointStrategy::Uniform).unwrap();
    QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
}

fn raw16(rng: &mut StdRng) -> i64 {
    rng.gen_range(i64::from(i16::MIN)..i64::from(i16::MAX) + 1)
}

/// Runs one flat batch through the fast path into a fresh output buffer.
fn run(sim: &mut BroadcastSim, inputs: &[Fixed]) -> (Vec<Fixed>, SimStats) {
    let mut out = vec![Fixed::zero(Q4_12); inputs.len()];
    let stats = sim.run_flat(inputs, &mut out).unwrap();
    (out, stats)
}

/// NoC simulation ≡ table lookup, bit for bit, for any geometry.
#[test]
fn broadcast_equals_table() {
    let mut rng = StdRng::seed_from_u64(0xB001);
    for _ in 0..64 {
        let segments = rng.gen_range(1usize..17);
        let routers = rng.gen_range(1usize..13);
        let neurons = rng.gen_range(1usize..9);
        let reach = rng.gen_range(1usize..11);
        let n_raws = rng.gen_range(1usize..96);
        let raws: Vec<i64> = (0..n_raws).map(|_| raw16(&mut rng)).collect();
        let t = table(segments);
        let mut config = LineConfig::paper_default(routers, neurons);
        config.max_hops_per_cycle = reach;
        let mut sim = BroadcastSim::new(config, &t).unwrap();
        let inputs: Vec<Fixed> = (0..routers * neurons)
            .map(|i| Fixed::from_raw(raws[i % raws.len()], Q4_12).unwrap())
            .collect();
        let (out, _) = run(&mut sim, &inputs);
        for (&o, &x) in out.iter().zip(&inputs) {
            assert_eq!(o, t.eval(x));
        }
    }
}

/// NoC cycle count follows the pipeline formula:
/// flits + traversal_cycles − 1 (one flit injected per cycle, each
/// taking `traversal_cycles` to cross the line).
#[test]
fn cycle_count_formula() {
    let mut rng = StdRng::seed_from_u64(0xB002);
    for _ in 0..64 {
        let segments = rng.gen_range(1usize..17);
        let routers = rng.gen_range(1usize..25);
        let reach = rng.gen_range(1usize..11);
        let t = table(segments);
        let mut config = LineConfig::paper_default(routers, 1);
        config.max_hops_per_cycle = reach;
        let flits = t.segments().div_ceil(config.link.pairs_per_flit);
        if flits > config.link.tag_capacity() {
            continue;
        }
        let mut sim = BroadcastSim::new(config, &t).unwrap();
        let (_, stats) = run(&mut sim, &vec![Fixed::zero(Q4_12); routers]);
        let traversal = routers.div_ceil(reach) as u64;
        assert_eq!(stats.noc_cycles, flits as u64 + traversal - 1);
    }
}

/// Hop count: every flit visits every router exactly once.
#[test]
fn hops_are_flits_times_routers() {
    let mut rng = StdRng::seed_from_u64(0xB003);
    for _ in 0..64 {
        let segments = rng.gen_range(1usize..17);
        let routers = rng.gen_range(1usize..13);
        let t = table(segments);
        let config = LineConfig::paper_default(routers, 1);
        let mut sim = BroadcastSim::new(config, &t).unwrap();
        let (_, stats) = run(&mut sim, &vec![Fixed::zero(Q4_12); routers]);
        let flits = sim.schedule().flit_count() as u64;
        assert_eq!(stats.hops, flits * routers as u64);
    }
}

/// Flit wire-image roundtrip for arbitrary word payloads.
#[test]
fn flit_pack_unpack() {
    let mut rng = StdRng::seed_from_u64(0xB004);
    for _ in 0..64 {
        let words: Vec<i64> = (0..16).map(|_| raw16(&mut rng)).collect();
        let tag = rng.gen_range(0u32..2) as u8;
        let pairs: Vec<nova_approx::SlopeBias> = words
            .chunks(2)
            .map(|c| nova_approx::SlopeBias {
                slope: Fixed::from_raw(c[0], Q4_12).unwrap(),
                bias: Fixed::from_raw(c[1], Q4_12).unwrap(),
            })
            .collect();
        let c = LinkConfig::paper();
        let f = Flit::from_pairs(&pairs, tag, c).unwrap();
        assert_eq!(Flit::unpack(&f.pack(), c).unwrap(), f);
    }
}
