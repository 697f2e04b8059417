//! Mapping a *custom* non-linear function onto NOVA: the NN-LUT flow from
//! scratch — train the 2-layer MLP on your function, extract breakpoints,
//! quantize, compile the broadcast schedule, and verify through the
//! cycle-accurate NoC.
//!
//! Run with: `cargo run --example custom_function`

use nova_approx::mlp::{MlpApproximator, TrainConfig};
use nova_approx::{metrics, QuantizedPwl};
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::{sim::BroadcastSim, LineConfig};

/// Mish: x·tanh(softplus(x)) — an activation the paper never shipped a
/// table for, approximated with the same machinery.
fn mish(x: f64) -> f64 {
    x * (x.exp().ln_1p()).tanh()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let domain = (-6.0, 6.0);

    // 1. NN-LUT style: a 15-hidden-unit ReLU MLP learns the breakpoints.
    let cfg = TrainConfig {
        hidden: 15,
        epochs: 4000,
        ..TrainConfig::default()
    };
    let mlp = MlpApproximator::train_fn(&mish, domain, cfg)?;
    println!("MLP trained: final MSE {:.2e}", mlp.final_loss());

    // 2. Extract the exact piecewise-linear function the network computes.
    let pwl = mlp.to_piecewise()?;
    let report = metrics::compare(&mish, &|x| pwl.eval(x), domain, 2000);
    println!("extracted PWL: {} segments, {report}", pwl.segments());

    // 3. Quantize to the 16-bit hardware tables.
    let table = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven)?;
    let qreport = metrics::compare(&mish, &|x| table.eval_f64(x), domain, 2000);
    println!("quantized (Q4.12): {qreport}");

    // 4. Broadcast it over a 4-router NOVA line and spot-check.
    //    Slot `r * 8 + n` of the flat batch is neuron n of router r.
    let mut sim = BroadcastSim::new(LineConfig::paper_default(4, 8), &table)?;
    let inputs: Vec<Fixed> = (0..4 * 8)
        .map(|i| Fixed::from_f64(-6.0 + i as f64 * 12.0 / 31.0, Q4_12, Rounding::NearestEven))
        .collect();
    let mut outputs = vec![Fixed::zero(Q4_12); inputs.len()];
    let stats = sim.run_flat(&inputs, &mut outputs)?;
    println!(
        "\nNoC run: {} flits, {} NoC cycles, latency {} core cycles",
        stats.flits_injected, stats.noc_cycles, stats.core_cycle_latency
    );
    for (r, n) in [(0usize, 0usize), (1, 4), (3, 7)] {
        let x = inputs[r * 8 + n].to_f64();
        println!(
            "  mish({x:>6.3}) ≈ {:>7.4} on the NoC (reference {:>7.4})",
            outputs[r * 8 + n].to_f64(),
            mish(x)
        );
    }
    Ok(())
}
