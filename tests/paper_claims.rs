//! The paper's headline claims, asserted end-to-end against the
//! reproduction. Each test names the claim and the paper section it comes
//! from.

use nova::engine::{approximator_power_mw, evaluate, ApproximatorKind};
use nova::serving::{Plan, ServingEngine, ServingRequest, TableCache};
use nova::NovaOverlay;
use nova_accel::AcceleratorConfig;
use nova_fixed::{Rounding, Q4_12};
use nova_noc::LineConfig;
use nova_synth::{timing, units, LutSharing, TechModel};
use nova_workloads::bert::BertConfig;
use nova_workloads::traffic::query_words_into;
use nova_workloads::{models::TableOneModel, synthetic};

/// Abstract: "up to 37.8× more power-efficient than state-of-the-art
/// hardware approximators" — the Jetson SDP comparison (§V.E.2).
#[test]
fn claim_jetson_power_gap() {
    let tech = TechModel::cmos22();
    let cfg = AcceleratorConfig::jetson_xavier_nx();
    let sdp = approximator_power_mw(&tech, &cfg, ApproximatorKind::NvdlaSdp);
    let nova = approximator_power_mw(&tech, &cfg, ApproximatorKind::NovaNoc);
    let ratio = sdp / nova;
    // The paper measures 37.8×; the calibrated model must land the same
    // order of magnitude with NOVA clearly ahead.
    assert!(ratio > 10.0, "SDP/NOVA power ratio {ratio:.1} (paper 37.8)");
}

/// §I contribution (iii): NOVA is more area- and power-efficient than
/// existing vector units, on average by 3.23× and 16.56×.
#[test]
fn claim_average_area_power_gains() {
    let tech = TechModel::cmos22();
    let mut area_ratios = Vec::new();
    let mut power_ratios = Vec::new();
    for cfg in [
        AcceleratorConfig::react(),
        AcceleratorConfig::tpu_v3_like(),
        AcceleratorConfig::tpu_v4_like(),
    ] {
        let overlay = NovaOverlay::new(&cfg);
        let nova = overlay.area_power(&tech);
        for sharing in [LutSharing::PerNeuron, LutSharing::PerCore] {
            let lut = overlay.lut_area_power(&tech, sharing);
            area_ratios.push(lut.area_mm2 / nova.area_mm2);
            power_ratios.push(lut.power_mw / nova.power_mw);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (a, p) = (avg(&area_ratios), avg(&power_ratios));
    assert!(a > 2.0, "average area gain {a:.2}x (paper 3.23x)");
    assert!(p > 3.0, "average power gain {p:.2}x (paper 16.56x)");
}

/// §V.D.2: on TPU-v4, the LUT baselines burn ≈4.14× / 9.4× NOVA's energy
/// per input sample.
#[test]
fn claim_tpu_v4_energy_ratios() {
    let cfg = AcceleratorConfig::tpu_v4_like();
    let mut pn_ratios = Vec::new();
    let mut pc_ratios = Vec::new();
    for model in BertConfig::fig8_benchmarks() {
        let nova = evaluate(&cfg, &model, 1024, ApproximatorKind::NovaNoc).unwrap();
        let pn = evaluate(&cfg, &model, 1024, ApproximatorKind::PerNeuronLut).unwrap();
        let pc = evaluate(&cfg, &model, 1024, ApproximatorKind::PerCoreLut).unwrap();
        pn_ratios.push(pn.approximator_energy_mj / nova.approximator_energy_mj);
        pc_ratios.push(pc.approximator_energy_mj / nova.approximator_energy_mj);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (pn, pc) = (avg(&pn_ratios), avg(&pc_ratios));
    assert!(
        (2.0..9.0).contains(&pn),
        "per-neuron/NOVA {pn:.2}x (paper 4.14x)"
    );
    assert!(
        (4.0..20.0).contains(&pc),
        "per-core/NOVA {pc:.2}x (paper 9.4x)"
    );
    assert!(pc > pn, "per-core must be the worse baseline");
}

/// §V.F: BERT on TPU-v4 with NOVA has an energy overhead of only ~0.5%.
#[test]
fn claim_half_percent_overhead() {
    let cfg = AcceleratorConfig::tpu_v4_like();
    for model in BertConfig::fig8_benchmarks() {
        let r = evaluate(&cfg, &model, 1024, ApproximatorKind::NovaNoc).unwrap();
        assert!(
            r.energy_overhead_pct < 3.0,
            "{}: {:.2}% (paper ~0.5%)",
            model.name,
            r.energy_overhead_pct
        );
    }
}

/// §V.A: 10 routers, 1 mm apart, traversable at 1.5 GHz in one cycle —
/// and 11 are not.
#[test]
fn claim_scalability_boundary() {
    let tech = TechModel::cmos22();
    assert_eq!(timing::max_hops_per_cycle(&tech, 1.5, 1.0), 10);
    assert!(timing::broadcast_cycles(&tech, 11, 1.5, 1.0) > 1);
}

/// Table I: approximation leaves predictions essentially unchanged on all
/// six benchmarks.
#[test]
fn claim_table1_accuracy_preserved() {
    for model in TableOneModel::all() {
        let row = synthetic::evaluate_model(&model, 4000, 11).unwrap();
        assert!(
            (row.accuracy_exact - row.accuracy_approx).abs() < 0.5,
            "{}: {:.2} vs {:.2}",
            row.name,
            row.accuracy_exact,
            row.accuracy_approx
        );
        assert!(
            row.agreement > 99.0,
            "{}: agreement {:.2}%",
            row.name,
            row.agreement
        );
    }
}

/// §V.C: NOVA on REACT costs ~9.11% of the die; the LUT baselines cost
/// 31% / 19.2% — NOVA is the only single-digit overlay.
#[test]
fn claim_react_die_overheads() {
    let tech = TechModel::cmos22();
    let react = AcceleratorConfig::react();
    let overlay = NovaOverlay::new(&react);
    let die = react.die_area_mm2.unwrap();
    let nova_pct = overlay.area_overhead_pct(&tech).unwrap();
    let pn_pct = 100.0
        * overlay
            .lut_area_power(&tech, LutSharing::PerNeuron)
            .area_mm2
        / die;
    let pc_pct = 100.0 * overlay.lut_area_power(&tech, LutSharing::PerCore).area_mm2 / die;
    assert!(nova_pct < 15.0, "NOVA {nova_pct:.1}% (paper 9.11%)");
    assert!(pn_pct > 20.0, "per-neuron {pn_pct:.1}% (paper 31%)");
    assert!(nova_pct < pc_pct && pc_pct < pn_pct);
}

/// Table IV: one NOVA approximator slice is smaller and lower-power than
/// I-BERT's published 22 nm unit (2941 µm², 0.201 mW).
#[test]
fn claim_table4_unit_comparison() {
    let tech = TechModel::cmos22();
    let router = units::nova_router(&tech, 16, 16, 0.3);
    let area_per_neuron = router.area_um2 / 16.0;
    let power_per_neuron = router.power_mw(&tech, 1.4, 2.8, 0.1) / 16.0;
    assert!(area_per_neuron < 2941.0, "area {area_per_neuron:.0} µm²");
    assert!(power_per_neuron < 0.201, "power {power_per_neuron:.3} mW");
}

/// §II–III: NOVA re-programs its non-linear function for free, because
/// the new table rides the NoC broadcast, while LUT and SDP hardware
/// stall to rewrite their banks. Fused softmax re-programs twice per
/// batch (exp → reciprocal → exp), so on 48 ragged attention rows
/// (8×128 grid, 2 shards, 4 serves) every kind batches and switches
/// alike, NOVA's makespan is its batch latency alone, and the baselines
/// pay 775 % (LUT) and 8,267 % (SDP) on top.
#[test]
fn claim_reprogramming_is_free_under_fused_traffic() {
    let cache = TableCache::new();
    let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
    let rows: Vec<ServingRequest> = (0..48)
        .map(|row| {
            let mut inputs = Vec::new();
            query_words_into(
                200 + row as u64,
                32 + (row * 37) % 224,
                -6.0,
                6.0,
                Q4_12,
                Rounding::NearestEven,
                &mut inputs,
            );
            ServingRequest::new(row, &softmax, inputs)
        })
        .collect();
    // (batches, table switches, switch cycles, busiest worker's batch
    // cycles, makespan) after 4 serves, in `ApproximatorKind::all` order.
    let pinned = [
        (ApproximatorKind::NovaNoc, (32, 62, 0, 64, 64)),
        (ApproximatorKind::PerNeuronLut, (32, 62, 992, 64, 560)),
        (ApproximatorKind::PerCoreLut, (32, 62, 992, 64, 560)),
        (ApproximatorKind::NvdlaSdp, (32, 62, 15_872, 96, 8_032)),
    ];
    assert_eq!(pinned.map(|(kind, _)| kind), ApproximatorKind::all());
    for (kind, expected) in pinned {
        let mut engine = ServingEngine::builder(kind)
            .line(LineConfig::paper_default(8, 128))
            .cache(&cache)
            .plan(&softmax)
            .shards(2)
            .build()
            .expect("engine builds");
        let outputs = engine.serve(&rows).expect("well-formed fused rows");
        assert_eq!(outputs, engine.serve_reference(&rows), "{kind:?}");
        for _ in 0..3 {
            engine.serve(&rows).expect("well-formed fused rows");
        }
        let stats = engine.stats();
        let busiest = engine.worker_loads().iter().map(|l| l.cycles).max();
        let ledger = (
            stats.batches,
            stats.table_switches,
            stats.switch_cycles,
            busiest.unwrap_or(0),
            engine.makespan_cycles(),
        );
        assert_eq!(ledger, expected, "{kind:?}");
    }
}
