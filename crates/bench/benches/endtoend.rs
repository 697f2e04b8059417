//! End-to-end benchmarks: the cycle-accurate NoC broadcast, the LUT
//! baselines, the systolic runtime model and the full per-inference
//! engine. Runs on the workspace's criterion-shaped harness
//! (`nova_bench::harness`).

use nova_bench::harness::{black_box, BenchmarkId, Criterion};
use nova_bench::{criterion_group, criterion_main};

use nova::engine::{evaluate, ApproximatorKind};
use nova::react_pipeline::ReactNovaPipeline;
use nova::{FixedBatch, LutVariant, LutVectorUnit, NovaVectorUnit, VectorUnit};
use nova_accel::nvdla::{convolve, ConvShape, NvdlaCoreConfig};
use nova_accel::systolic::{analytic_cycles, cycle_accurate, Dataflow, SystolicConfig};
use nova_accel::AcceleratorConfig;
use nova_approx::{fit, Activation, QuantizedPwl};
use nova_fixed::rng::StdRng;
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::multiline::SegmentedNoc;
use nova_noc::sim::BroadcastSim;
use nova_noc::LineConfig;
use nova_workloads::attention::{EncoderLayer, ExactBackend, Matrix, PwlBackend};
use nova_workloads::bert::{census, BertConfig, MatmulDims};

fn table() -> QuantizedPwl {
    let pwl = fit::fit_activation(Activation::Exp, 16, fit::BreakpointStrategy::Uniform).unwrap();
    QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
}

/// A flat `routers × neurons` batch (slot `r * neurons + n`).
fn batch(routers: usize, neurons: usize) -> FixedBatch {
    let mut b = FixedBatch::new(routers, neurons, Fixed::zero(Q4_12));
    for (i, x) in b.as_mut_slice().iter_mut().enumerate() {
        *x = Fixed::from_f64(
            -((i as f64 * 0.7).sin().abs() * 7.0),
            Q4_12,
            Rounding::NearestEven,
        );
    }
    b
}

fn bench_vector_units(c: &mut Criterion) {
    let t = table();
    let mut g = c.benchmark_group("vector_unit_batch_10x256");
    let inputs = batch(10, 256);
    let mut out = FixedBatch::empty();
    let mut nova = NovaVectorUnit::new(LineConfig::paper_default(10, 256), &t).unwrap();
    g.bench_function("nova_noc", |b| {
        b.iter(|| {
            nova.lookup_batch_into(black_box(&inputs), &mut out)
                .unwrap()
        })
    });
    let mut pn = LutVectorUnit::new(&t, 10, 256, LutVariant::PerNeuron);
    g.bench_function("per_neuron_lut", |b| {
        b.iter(|| pn.lookup_batch_into(black_box(&inputs), &mut out).unwrap())
    });
    let mut pc = LutVectorUnit::new(&t, 10, 256, LutVariant::PerCore);
    g.bench_function("per_core_lut", |b| {
        b.iter(|| pc.lookup_batch_into(black_box(&inputs), &mut out).unwrap())
    });
    g.finish();
}

fn bench_systolic(c: &mut Criterion) {
    let cfg = SystolicConfig {
        rows: 128,
        cols: 128,
        arrays: 8,
    };
    let dims = MatmulDims {
        m: 512,
        k: 512,
        n: 512,
    };
    c.bench_function("systolic/analytic_512_cubed", |b| {
        b.iter(|| analytic_cycles(black_box(&cfg), black_box(dims), Dataflow::OutputStationary))
    });
    let small = MatmulDims {
        m: 16,
        k: 16,
        n: 16,
    };
    let a = vec![1i64; 256];
    let bm = vec![2i64; 256];
    c.bench_function("systolic/cycle_accurate_16_cubed_on_8x8", |b| {
        b.iter(|| cycle_accurate::matmul(8, 8, black_box(small), &a, &bm))
    });
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_per_inference");
    for model in [BertConfig::bert_tiny(), BertConfig::roberta_base()] {
        g.bench_with_input(BenchmarkId::from_parameter(model.name), &model, |b, m| {
            let host = AcceleratorConfig::tpu_v4_like();
            b.iter(|| evaluate(&host, m, 1024, ApproximatorKind::NovaNoc).unwrap())
        });
    }
    g.finish();
}

fn bench_census(c: &mut Criterion) {
    c.bench_function("census/roberta_seq1024", |b| {
        b.iter(|| census(&BertConfig::roberta_base(), black_box(1024)))
    });
}

fn bench_segmented(c: &mut Criterion) {
    let t = table();
    let mut config = LineConfig::paper_default(8, 128);
    config.max_hops_per_cycle = 5; // TPU 2.8 GHz reach
    let inputs = batch(8, 128);
    let mut out = vec![Fixed::zero(Q4_12); inputs.len()];
    let mut plain = BroadcastSim::new(config, &t).unwrap();
    let mut seg = SegmentedNoc::new(config, &t).unwrap();
    let mut g = c.benchmark_group("noc_beyond_reach_8x128");
    g.bench_function("plain_line", |b| {
        b.iter(|| {
            plain
                .run_flat(black_box(inputs.as_slice()), &mut out)
                .unwrap()
        })
    });
    g.bench_function("segmented", |b| {
        b.iter(|| {
            seg.run_flat(black_box(inputs.as_slice()), &mut out)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_react_pipeline(c: &mut Criterion) {
    let t = table();
    let weights: Vec<Vec<Fixed>> = (0..32)
        .map(|n| {
            (0..64)
                .map(|p| {
                    Fixed::from_f64(
                        ((n * 64 + p) as f64 * 0.13).sin() * 0.5,
                        Q4_12,
                        Rounding::NearestEven,
                    )
                })
                .collect()
        })
        .collect();
    let mut pipe = ReactNovaPipeline::new(weights, &t).unwrap();
    let inputs: Vec<Fixed> = (0..64)
        .map(|i| Fixed::from_f64((i as f64 * 0.21).cos(), Q4_12, Rounding::NearestEven))
        .collect();
    c.bench_function("react_nova/dense_64x32", |b| {
        b.iter(|| pipe.forward(black_box(&inputs)).unwrap())
    });
}

fn bench_nvdla_conv(c: &mut Criterion) {
    let shape = ConvShape {
        h: 12,
        w: 12,
        in_c: 8,
        out_c: 16,
        k: 3,
    };
    let input: Vec<Fixed> = (0..12 * 12 * 8)
        .map(|i| Fixed::from_f64((i as f64 * 0.07).sin(), Q4_12, Rounding::NearestEven))
        .collect();
    let weights: Vec<Fixed> = (0..16 * 9 * 8)
        .map(|i| Fixed::from_f64((i as f64 * 0.11).cos() * 0.3, Q4_12, Rounding::NearestEven))
        .collect();
    c.bench_function("nvdla/conv_12x12x8_k3_o16", |b| {
        b.iter(|| {
            convolve(
                NvdlaCoreConfig::jetson(),
                black_box(shape),
                &input,
                &weights,
                Q4_12,
                Rounding::NearestEven,
            )
        })
    });
}

fn bench_encoder_layer(c: &mut Criterion) {
    let cfg = BertConfig {
        name: "bench",
        layers: 1,
        hidden: 64,
        heads: 4,
        ffn: 128,
    };
    let layer = EncoderLayer::random(cfg, 3);
    let mut rng = StdRng::seed_from_u64(1);
    let x = Matrix::random(16, 64, 1.0, &mut rng);
    let pwl = PwlBackend::new(16).unwrap();
    let mut g = c.benchmark_group("encoder_layer_16x64");
    g.bench_function("exact_backend", |b| {
        b.iter(|| layer.forward(black_box(&x), &ExactBackend))
    });
    g.bench_function("pwl_backend", |b| {
        b.iter(|| layer.forward(black_box(&x), &pwl))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_vector_units,
    bench_systolic,
    bench_engine,
    bench_census,
    bench_segmented,
    bench_react_pipeline,
    bench_nvdla_conv,
    bench_encoder_layer
);
criterion_main!(benches);
