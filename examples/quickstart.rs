//! Quickstart: map GELU onto a NOVA NoC overlaid on a TPU-v4-like
//! accelerator, run a batch through the cycle-accurate simulator, and ask
//! the engine what an inference costs.
//!
//! Run with: `cargo run --example quickstart`

use nova::engine::{evaluate, ApproximatorKind};
use nova::{Mapper, NovaOverlay};
use nova_accel::AcceleratorConfig;
use nova_approx::Activation;
use nova_fixed::{Fixed, FixedBatch, Rounding, Q4_12};
use nova_synth::TechModel;
use nova_workloads::bert::BertConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechModel::cmos22();
    let host = AcceleratorConfig::tpu_v4_like();
    println!(
        "Host: {} ({} routers × {} neurons)",
        host.name, host.nova_routers, host.neurons_per_router
    );

    // 1. The mapper compiles the activation table and programs the NoC.
    let mapper = Mapper::paper_default();
    let plan = mapper.compile(
        &[Activation::Gelu],
        &tech,
        host.nova_routers,
        host.frequency_ghz(),
        host.router_pitch_mm,
    )?;
    println!(
        "Mapper: {} breakpoints → {} flits/lookup, NoC at {}× core clock ({:.1} GHz), reach {} routers",
        mapper.segments(),
        plan.mappings[0].schedule.flit_count(),
        plan.noc_clock_multiplier,
        plan.noc_clock_ghz,
        plan.reach,
    );

    // 2. Overlay NOVA and run a batch bit-accurately through the NoC,
    //    built through the unified ApproximatorKind dispatch.
    let overlay = NovaOverlay::new(&host);
    let table = &plan.mappings[0].table;
    //    A batch is one flat `routers × neurons` grid: row r is router r.
    let mut unit = overlay.unit(&tech, table, ApproximatorKind::NovaNoc)?;
    let mut inputs = FixedBatch::new(
        host.nova_routers,
        host.neurons_per_router,
        Fixed::zero(Q4_12),
    );
    for r in 0..host.nova_routers {
        for (n, slot) in inputs.row_mut(r).iter_mut().enumerate() {
            let x = ((r * 131 + n) as f64 * 0.37).sin() * 6.0;
            *slot = Fixed::from_f64(x, Q4_12, Rounding::NearestEven);
        }
    }
    let mut outputs = FixedBatch::empty();
    unit.lookup_batch_into(&inputs, &mut outputs)?;
    let x = inputs.row(0)[0].to_f64();
    println!(
        "Broadcast done in {} core cycles; GELU({x:.3}) ≈ {:.4} (exact {:.4})",
        unit.latency_cycles(),
        outputs.row(0)[0].to_f64(),
        Activation::Gelu.eval(x),
    );

    // 3. Cost: hardware overhead and per-inference energy.
    let ap = overlay.area_power(&tech);
    println!("NOVA NoC on {}: {ap}", host.name);
    let report = evaluate(
        &host,
        &BertConfig::bert_tiny(),
        1024,
        ApproximatorKind::NovaNoc,
    )?;
    println!(
        "BERT-tiny @1024: {} non-linear queries, approximator energy {:.4} mJ ({:.2}% of host compute energy)",
        report.nl_queries, report.approximator_energy_mj, report.energy_overhead_pct
    );
    Ok(())
}
