//! Cross-crate integration tests: mapper → overlay → NoC/LUT vector units
//! → engine, over every Table II configuration.

use nova::engine::{evaluate, ApproximatorKind};
use nova::{FixedBatch, Mapper, NovaOverlay, VectorUnit};
use nova_accel::AcceleratorConfig;
use nova_approx::Activation;
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_synth::TechModel;
use nova_workloads::bert::BertConfig;

/// A flat `routers × neurons` batch (slot `r * neurons + n`).
fn batch(routers: usize, neurons: usize, seed: f64) -> FixedBatch {
    let mut b = FixedBatch::new(routers, neurons, Fixed::zero(Q4_12));
    for (i, x) in b.as_mut_slice().iter_mut().enumerate() {
        *x = Fixed::from_f64(
            (i as f64 * 0.61 + seed).sin() * 6.5,
            Q4_12,
            Rounding::NearestEven,
        );
    }
    b
}

/// Runs one batch into a fresh output buffer.
fn lookup(unit: &mut dyn VectorUnit, inputs: &FixedBatch) -> FixedBatch {
    let mut out = FixedBatch::empty();
    unit.lookup_batch_into(inputs, &mut out).expect("batch");
    out
}

/// The full pipeline on every Table II host: compile a mapping, then
/// build *every* approximator kind through the unified `VectorUnit`
/// dispatch and verify bit-identical results across all of them.
#[test]
fn every_host_all_units_agree() {
    let tech = TechModel::cmos22();
    for cfg in AcceleratorConfig::table2() {
        let plan = Mapper::paper_default()
            .compile(
                &[Activation::Exp, Activation::Gelu],
                &tech,
                cfg.nova_routers,
                cfg.frequency_ghz(),
                cfg.router_pitch_mm,
            )
            .expect("paper configs must map");
        let overlay = NovaOverlay::new(&cfg);
        for mapping in &plan.mappings {
            let inputs = batch(cfg.nova_routers, cfg.neurons_per_router, 0.9);
            let mut outputs = Vec::new();
            for kind in ApproximatorKind::all() {
                let mut unit = overlay
                    .unit(&tech, &mapping.table, kind)
                    .expect("dispatched unit must build");
                outputs.push(lookup(unit.as_mut(), &inputs));
            }
            for (out, kind) in outputs[1..].iter().zip(&ApproximatorKind::all()[1..]) {
                assert_eq!(
                    *out,
                    outputs[0],
                    "{}: {} diverges from NOVA on {}",
                    cfg.name,
                    kind.label(),
                    mapping.activation
                );
            }
            // Spot-check against the table itself.
            assert_eq!(
                outputs[0].as_slice()[0],
                mapping.table.eval(inputs.as_slice()[0])
            );
        }
    }
}

/// The mapper's NoC multiplier is 2× for 16 breakpoints on every host.
#[test]
fn paper_multiplier_on_every_host() {
    let tech = TechModel::cmos22();
    for cfg in AcceleratorConfig::table2() {
        let plan = Mapper::paper_default()
            .compile(
                &[Activation::Exp],
                &tech,
                cfg.nova_routers,
                cfg.frequency_ghz(),
                cfg.router_pitch_mm,
            )
            .unwrap();
        assert_eq!(plan.noc_clock_multiplier, 2, "{}", cfg.name);
    }
}

/// Fig 8 orderings hold for every (host, model) pair: NOVA < per-neuron <
/// per-core on energy.
#[test]
fn fig8_energy_ordering_everywhere() {
    let hosts = [
        AcceleratorConfig::react(),
        AcceleratorConfig::tpu_v3_like(),
        AcceleratorConfig::tpu_v4_like(),
    ];
    for host in &hosts {
        let seq = host.default_seq_len;
        for model in BertConfig::fig8_benchmarks() {
            let nova = evaluate(host, &model, seq, ApproximatorKind::NovaNoc).unwrap();
            let pn = evaluate(host, &model, seq, ApproximatorKind::PerNeuronLut).unwrap();
            let pc = evaluate(host, &model, seq, ApproximatorKind::PerCoreLut).unwrap();
            assert!(
                nova.approximator_energy_mj < pn.approximator_energy_mj
                    && pn.approximator_energy_mj < pc.approximator_energy_mj,
                "{} / {}: energies {} {} {}",
                host.name,
                model.name,
                nova.approximator_energy_mj,
                pn.approximator_energy_mj,
                pc.approximator_energy_mj
            );
        }
    }
}

/// Engine consistency: runtime and queries are approximator-independent;
/// only power/energy differ.
#[test]
fn engine_runtime_is_approximator_independent() {
    let host = AcceleratorConfig::tpu_v3_like();
    let m = BertConfig::mobilebert_base();
    let reports: Vec<_> = ApproximatorKind::fig8_contenders()
        .iter()
        .map(|&k| evaluate(&host, &m, 1024, k).unwrap())
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.matmul_cycles, reports[0].matmul_cycles);
        assert_eq!(r.nl_queries, reports[0].nl_queries);
        assert_eq!(r.nl_cycles, reports[0].nl_cycles);
        assert_eq!(r.total_seconds, reports[0].total_seconds);
    }
}

/// Breakpoint ablation through the whole stack: 8-breakpoint tables use a
/// 1× NoC clock and still produce within-tolerance results.
#[test]
fn eight_breakpoint_ablation() {
    let tech = TechModel::cmos22();
    let cfg = AcceleratorConfig::react();
    let plan = Mapper::paper_default()
        .with_segments(8)
        .compile(
            &[Activation::Sigmoid],
            &tech,
            cfg.nova_routers,
            cfg.frequency_ghz(),
            1.0,
        )
        .unwrap();
    assert_eq!(plan.noc_clock_multiplier, 1);
    let overlay = NovaOverlay::with_breakpoints(&cfg, 8);
    let table = &plan.mappings[0].table;
    let mut unit = overlay.vector_unit(&tech, table).unwrap();
    let inputs = batch(cfg.nova_routers, cfg.neurons_per_router, 0.2);
    let out = lookup(&mut unit, &inputs);
    for (slot, (y, x)) in out.as_slice().iter().zip(inputs.as_slice()).enumerate() {
        let expect = Activation::Sigmoid.eval(x.to_f64());
        assert!(
            (y.to_f64() - expect).abs() < 0.05,
            "8-breakpoint sigmoid err at slot {slot}"
        );
    }
}
