//! Fused softmax as an op-graph plan: attention rows served end-to-end
//! by the multi-tenant engine — exp lookup, in-engine row reduction,
//! reciprocal lookup and range scale as *one* request, with a table
//! switch between the two lookup stages that is free on the NOVA NoC
//! and a bank rewrite on LUT/SDP hardware.
//!
//! Walks the op-graph serving path top to bottom: the fused plan
//! itself, `EngineSoftmax` rows vs the exact softmax, a real encoder
//! layer scoring its attention through the engine via the
//! `SoftmaxOffload` backend hook, and the per-kind switch ledger of a
//! functional 2-shard engine serving the same rows.
//!
//! Run with: `cargo run --example fused_softmax`

use nova_repro::approx::softmax::softmax_exact;
use nova_repro::fixed::rng::StdRng;
use nova_repro::fixed::{Fixed, Rounding, Q4_12};
use nova_repro::noc::LineConfig;
use nova_repro::serving::{Plan, ServingEngine, ServingRequest, TableCache};
use nova_repro::workloads::attention::{
    max_deviation, EncoderLayer, ExactBackend, Matrix, NonLinearBackend, PwlBackend,
};
use nova_repro::workloads::bert::BertConfig;
use nova_repro::{ApproximatorKind, EngineSoftmax};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The plan: what used to be a single activation tag is now an
    //    ordered op graph. The fused softmax pipeline runs five stages,
    //    two of them table lookups (exp, then reciprocal) — so every
    //    batch re-programs the vector unit mid-flight.
    let cache = TableCache::new();
    let line = LineConfig::paper_default(2, 8);
    let soft = EngineSoftmax::new(ApproximatorKind::NovaNoc, line, &cache)?;
    let plan: &Plan = soft.plan();
    println!(
        "Fused plan: {} stages over {} table lookup(s), max row {} lanes",
        plan.stages().len(),
        plan.table_keys().count(),
        soft.max_row()
    );

    // 2. Score rows through the engine vs the exact softmax: the whole
    //    pipeline runs in Q4.12 on the modeled hardware, so the outputs
    //    track exp-normalize within the paper's PWL error envelope.
    let mut rng = StdRng::seed_from_u64(0xF05E);
    let rows: Vec<Vec<f64>> = [4usize, 9, 1, 13]
        .iter()
        .map(|&w| (0..w).map(|_| rng.gen_range(-4.0..4.0)).collect())
        .collect();
    let served = soft.softmax_rows(&rows)?;
    let mut worst = 0.0f64;
    for (row, got) in rows.iter().zip(&served) {
        let exact = softmax_exact(row);
        for (g, e) in got.iter().zip(&exact) {
            worst = worst.max((g - e).abs());
        }
        let sum: f64 = got.iter().sum();
        assert!((sum - 1.0).abs() < 0.05, "fused row must stay normalized");
    }
    println!(
        "Served {} ragged rows: worst lane deviation {:.4} from exact softmax",
        rows.len(),
        worst
    );

    // 3. A real encoder layer scores its attention through the engine:
    //    `PwlBackend::with_softmax_offload` reroutes softmax to the
    //    fused plan while matmuls, GELU and LayerNorm stay on the host.
    let config = BertConfig {
        name: "fused-example",
        layers: 1,
        hidden: 32,
        heads: 4,
        ffn: 64,
    };
    let layer = EncoderLayer::random(config, 7);
    let x = Matrix::random(12, 32, 1.0, &mut rng);
    let exact = layer.forward(&x, &ExactBackend);
    let backend = PwlBackend::new(16)?.with_softmax_offload(&soft);
    let fused = layer.forward(&x, &backend);
    let stats = soft.stats();
    assert!(stats.table_switches > 0, "fused plans must re-program");
    assert_eq!(stats.switch_cycles, 0, "NOVA switches are free");
    println!(
        "Encoder attention on '{}': deviation {:.4} from exact; engine ledger: {} requests, \
         {} batches, {} table switch(es) for {} stall cycle(s)",
        backend.name(),
        max_deviation(&exact, &fused),
        stats.requests,
        stats.batches,
        stats.table_switches,
        stats.switch_cycles
    );

    // 4. The per-kind switch ledger, read off functional engines: the
    //    rows of step 2 on a fresh 2-shard engine of each kind pack into
    //    the same batches and switch tables as often — only the NoC
    //    broadcasts its way out of the re-programming bill.
    let requests: Vec<ServingRequest> = rows
        .iter()
        .enumerate()
        .map(|(stream, row)| {
            let words = row
                .iter()
                .map(|&x| Fixed::from_f64(x, Q4_12, Rounding::NearestEven))
                .collect();
            ServingRequest::new(stream, plan.clone(), words)
        })
        .collect();
    println!("\nThe {} rows on a 2-shard engine per kind:", rows.len());
    for kind in ApproximatorKind::all() {
        let mut engine = ServingEngine::builder(kind)
            .line(line)
            .cache(&cache)
            .plan(plan)
            .shards(2)
            .build()?;
        engine.serve(&requests)?;
        let stats = engine.stats();
        assert_eq!(
            stats.switch_cycles == 0,
            kind == ApproximatorKind::NovaNoc,
            "only the NoC re-programs for free"
        );
        println!(
            "  {:<28} {} batches, {} switches, {:>3} stall cycles, makespan {} cycles",
            kind.label(),
            stats.batches,
            stats.table_switches,
            stats.switch_cycles,
            engine.makespan_cycles()
        );
    }

    // The line the CI example smoke greps.
    println!(
        "\nFused softmax example: {} rows served as op-graph plans with 0 NOVA stall cycles",
        rows.len() + stats.requests as usize
    );
    Ok(())
}
