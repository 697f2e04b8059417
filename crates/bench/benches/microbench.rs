//! Microbenchmarks for the datapath primitives: flit packing, comparator
//! address generation, PWL evaluation (float vs fixed), softmax pipelines
//! and breakpoint fitting. Runs on the workspace's criterion-shaped
//! harness (`nova_bench::harness`).

use nova_bench::harness::{black_box, BenchmarkId, Criterion};
use nova_bench::{criterion_group, criterion_main};

use nova_approx::softmax::{softmax_exact, softmax_online, ApproxSoftmax};
use nova_approx::{fit, Activation, QuantizedPwl};
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::comparator::Comparators;
use nova_noc::{Flit, LinkConfig};

fn table(segments: usize) -> QuantizedPwl {
    let pwl =
        fit::fit_activation(Activation::Gelu, segments, fit::BreakpointStrategy::Uniform).unwrap();
    QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
}

fn bench_flit(c: &mut Criterion) {
    let t = table(16);
    let link = LinkConfig::paper();
    let pairs: Vec<_> = t.pairs().iter().copied().take(8).collect();
    let flit = Flit::from_pairs(&pairs, 1, link).unwrap();
    let bytes = flit.pack();
    c.bench_function("flit/pack_257b", |b| b.iter(|| black_box(&flit).pack()));
    c.bench_function("flit/unpack_257b", |b| {
        b.iter(|| Flit::unpack(black_box(&bytes), link).unwrap())
    });
}

fn bench_comparator(c: &mut Criterion) {
    let t = table(16);
    let cmp = Comparators::from_table(&t);
    let xs: Vec<Fixed> = (0..256)
        .map(|i| Fixed::from_f64((i as f64 * 0.61).sin() * 7.0, Q4_12, Rounding::NearestEven))
        .collect();
    c.bench_function("comparator/address_x256", |b| {
        b.iter(|| {
            for &x in &xs {
                black_box(cmp.address(x));
            }
        })
    });
}

fn bench_pwl_eval(c: &mut Criterion) {
    let pwl = fit::fit_activation(Activation::Gelu, 16, fit::BreakpointStrategy::Uniform).unwrap();
    let t = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap();
    let xf: Vec<f64> = (0..256).map(|i| (i as f64 * 0.43).sin() * 7.0).collect();
    let xq: Vec<Fixed> = xf
        .iter()
        .map(|&x| Fixed::from_f64(x, Q4_12, Rounding::NearestEven))
        .collect();
    c.bench_function("pwl/eval_f64_x256", |b| {
        b.iter(|| xf.iter().map(|&x| pwl.eval(x)).sum::<f64>())
    });
    c.bench_function("pwl/eval_fixed_x256", |b| {
        b.iter(|| xq.iter().map(|&x| t.eval(x).raw()).sum::<i64>())
    });
    c.bench_function("pwl/reference_gelu_x256", |b| {
        b.iter(|| xf.iter().map(|&x| Activation::Gelu.eval(x)).sum::<f64>())
    });
    // The shipped output-table gather kernel, through both entry points:
    // the growable-Vec wrapper (`eval_into`) and the preallocated-slice
    // hot path (`eval_to_slice`) the LUT units and the flat NoC path call.
    let mut out = Vec::new();
    c.bench_function("pwl/eval_gather_into_x256", |b| {
        b.iter(|| {
            t.eval_into(black_box(&xq), &mut out);
            black_box(out.last().copied())
        })
    });
    let mut out_slice = vec![Fixed::zero(Q4_12); xq.len()];
    c.bench_function("pwl/eval_gather_to_slice_x256", |b| {
        b.iter(|| {
            t.eval_to_slice(black_box(&xq), &mut out_slice);
            black_box(out_slice.last().copied())
        })
    });
}

fn bench_softmax(c: &mut Criterion) {
    let logits: Vec<f64> = (0..128).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
    let unit = ApproxSoftmax::new(16, Q4_12, Rounding::NearestEven).unwrap();
    let mut g = c.benchmark_group("softmax_128");
    g.bench_function("exact", |b| b.iter(|| softmax_exact(black_box(&logits))));
    g.bench_function("online_normalizer", |b| {
        b.iter(|| softmax_online(black_box(&logits)))
    });
    g.bench_function("pwl_fixed_point", |b| {
        b.iter(|| unit.eval(black_box(&logits)))
    });
    g.finish();
}

fn bench_fitting(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_sigmoid_16seg");
    for strategy in [
        fit::BreakpointStrategy::Uniform,
        fit::BreakpointStrategy::CurvatureQuantile,
        fit::BreakpointStrategy::GreedyRefine,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &s| b.iter(|| fit::fit_activation(Activation::Sigmoid, 16, s).unwrap()),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_flit,
    bench_comparator,
    bench_pwl_eval,
    bench_softmax,
    bench_fitting
);
criterion_main!(benches);
