//! The paper's two walkthroughs, executed: Fig 2 (LUT-based baseline) and
//! Fig 4 (NOVA NoC) on the same 8-PE accelerator with 8 breakpoints.
//!
//! Run with: `cargo run --example walkthrough`

use nova_approx::{fit, Activation, QuantizedPwl};
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_lut::walkthrough::fig2_walkthrough;
use nova_noc::{sim::BroadcastSim, LineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 breakpoints, as in both figures.
    let pwl = fit::fit_activation(Activation::Sigmoid, 8, fit::BreakpointStrategy::Uniform)?;
    let table = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven)?;

    // One PE output per section of the piecewise function, like x1..x8.
    let edges = pwl.edges();
    let mut inputs = [Fixed::zero(Q4_12); 8];
    for (i, input) in inputs.iter_mut().enumerate() {
        let mid = (edges[i] + edges[i + 1]) / 2.0;
        *input = Fixed::from_f64(mid, Q4_12, Rounding::NearestEven);
    }

    println!("=== Fig 2: LUT-based approximation (8 PEs as a 4×2 grid) ===");
    println!("cycle 1: comparators generate lookup addresses, LUT banks fetch (slope, bias)");
    println!("cycle 2: per-PE MACs compute a·x + b\n");
    for row in fig2_walkthrough(&table, &inputs)? {
        println!(
            "PE({},{}) x = {:>7.3} → address {} → (a={:>7.4}, b={:>7.4}) → result {:>7.4}",
            row.pe.0,
            row.pe.1,
            row.input.to_f64(),
            row.address + 1, // the paper numbers sections 1–8
            row.pair.slope.to_f64(),
            row.pair.bias.to_f64(),
            row.result.to_f64(),
        );
    }

    println!("\n=== Fig 4: the same approximation on the NOVA NoC ===");
    println!("The slope/bias pairs live on the wire: one 257-bit flit snakes through");
    println!("all 8 routers in a single cycle (clockless repeaters); each router's tag");
    println!("match latches the pair its lookup address selects.\n");
    // One neuron per router, so slot r of the flat batch is router r.
    let config = LineConfig::paper_default(8, 1);
    let mut sim = BroadcastSim::new(config, &table)?;
    let mut outputs = [Fixed::zero(Q4_12); 8];
    let stats = sim.run_flat(&inputs, &mut outputs)?;
    for (r, (x, y)) in inputs.iter().zip(&outputs).enumerate() {
        println!(
            "router {r}: x = {:>7.3} → result {:>7.4} (bit-identical to LUT: {})",
            x.to_f64(),
            y.to_f64(),
            *y == table.eval(*x),
        );
    }
    println!(
        "\nstats: {} flit injected, {} NoC cycles, {} hops, latency {} core cycles — same 2-cycle latency as the LUT baseline, with zero SRAM banks.",
        stats.flits_injected, stats.noc_cycles, stats.hops, stats.core_cycle_latency,
    );
    Ok(())
}
