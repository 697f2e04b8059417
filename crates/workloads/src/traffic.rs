//! Mixed-traffic request streams for the serving engine.
//!
//! Production serving mixes tenants: BERT-family attention models, CNN
//! vision models and bursty synthetic tasks arrive interleaved on many
//! concurrent streams. This module generates that traffic
//! deterministically from a seed: each stream carries an ordered list of
//! inference requests drawn from a workload palette, and the global
//! arrival order interleaves the streams with a seeded merge that
//! preserves each stream's FIFO order — the same trace replays
//! bit-identically for a given [`TrafficMix`].
//!
//! Traffic is an **open-loop arrival process**: every request carries an
//! [`arrival_cycle`](TrafficRequest::arrival_cycle) stamped from seeded
//! interarrival gaps (mean [`TrafficMix::mean_interarrival_cycles`]), so
//! a trace models *offered load* — queries per cycle pushed at the
//! engine regardless of how fast it drains them — instead of a
//! pre-materialized burst. A mean of 0 degenerates to the
//! closed-loop burst (everything arrives at cycle 0).
//!
//! # Example
//!
//! ```
//! use nova_workloads::traffic::TrafficMix;
//!
//! let trace = TrafficMix::paper_default(8).generate();
//! assert_eq!(trace.len(), 8 * TrafficMix::paper_default(8).requests_per_stream);
//! assert!(trace.iter().all(|r| r.census.approximator_queries() > 0));
//! ```

use nova_approx::Activation;
use nova_fixed::rng::StdRng;
use nova_fixed::{Fixed, QFormat, Rounding};

use crate::bert::{census as bert_census, BertConfig, MatmulDims, OpCensus};
use crate::cnn::{census as cnn_census, CnnConfig};

/// The workload family an inference request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// BERT-family attention model (softmax/GELU/LayerNorm traffic).
    Bert,
    /// CNN/MLP vision model (ReLU traffic plus one classifier softmax).
    Cnn,
    /// Synthetic burst with a randomized non-linear query volume.
    Synthetic,
}

nova_serde::impl_serde_enum!(TrafficClass {
    Bert,
    Cnn,
    Synthetic
});

impl TrafficClass {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Bert => "BERT",
            TrafficClass::Cnn => "CNN",
            TrafficClass::Synthetic => "synthetic",
        }
    }
}

/// The non-linear operation class a tenant's queries request: a plain
/// single-table lookup, or the fused softmax op-graph pipeline
/// (exp → row reduce → reciprocal → scale) a plan-aware serving engine
/// executes end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficOp {
    /// A single-table lookup run against one activation.
    Lookup(Activation),
    /// The fused softmax pipeline (served as one op-graph plan).
    FusedSoftmax,
}

impl TrafficOp {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TrafficOp::Lookup(a) => a.name(),
            TrafficOp::FusedSoftmax => "fused-softmax",
        }
    }

    /// The activation table the op's *first* lookup stage hits — the
    /// table tag legacy single-table consumers see. The fused pipeline
    /// opens with its softmax-exp lookup.
    #[must_use]
    pub fn table_activation(self) -> Activation {
        match self {
            TrafficOp::Lookup(a) => a,
            TrafficOp::FusedSoftmax => Activation::Exp,
        }
    }
}

/// One inference request on one stream of the generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRequest {
    /// Stream (tenant) the request belongs to.
    pub stream: usize,
    /// Position in the global seeded arrival order.
    pub arrival: usize,
    /// Host-clock cycle the request arrives at — the open-loop arrival
    /// process: cumulative seeded interarrival gaps, nondecreasing in
    /// arrival order. All zero for a closed-loop (burst) mix.
    pub arrival_cycle: u64,
    /// Workload family.
    pub class: TrafficClass,
    /// Model name (for display).
    pub model: String,
    /// The non-linear op class this tenant's queries request — assigned
    /// per stream from [`TrafficMix::ops`], so a plan-aware serving
    /// engine sees a deterministic tenancy mix.
    pub op: TrafficOp,
    /// Which activation table this tenant's queries hit first — derived
    /// from [`op`](Self::op) ([`TrafficOp::table_activation`]), kept for
    /// single-table consumers like `census_slate`.
    pub activation: Activation,
    /// The request's operation census.
    pub census: OpCensus,
}

/// Knobs of the mixed-traffic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficMix {
    /// Concurrent inference streams (tenants).
    pub streams: usize,
    /// Requests issued per stream.
    pub requests_per_stream: usize,
    /// Sequence length of the BERT-family requests.
    pub bert_seq_len: usize,
    /// Mean gap between consecutive arrivals, in host-clock cycles —
    /// the open-loop offered-load knob (smaller gap = higher load).
    /// 0 means closed-loop: the whole slate arrives at cycle 0.
    pub mean_interarrival_cycles: u64,
    /// Non-linear ops the tenants request, assigned round-robin per
    /// stream (`stream % ops.len()`): a single-entry palette is the
    /// classic one-table mix, `[Lookup(Gelu), Lookup(Exp)]` models GELU
    /// tenants interleaved with softmax-exp tenants, and
    /// [`TrafficOp::FusedSoftmax`] entries emit pipeline tenants whose
    /// attention rows a plan-aware engine serves as fused op-graph
    /// plans. Must be non-empty.
    pub ops: &'static [TrafficOp],
    /// Trace seed: same seed, same trace.
    pub seed: u64,
}

impl TrafficMix {
    /// The default mix: 4 requests per stream at a short (edge-serving)
    /// sequence length, arriving as a closed-loop burst.
    #[must_use]
    pub fn paper_default(streams: usize) -> Self {
        Self {
            streams,
            requests_per_stream: 4,
            bert_seq_len: 64,
            mean_interarrival_cycles: 0,
            ops: &[TrafficOp::Lookup(Activation::Gelu)],
            seed: 0x5EED,
        }
    }

    /// An open-loop variant of [`paper_default`](Self::paper_default):
    /// the same workload palette, arriving with seeded interarrival gaps
    /// of the given mean — the knob an offered-load sweep turns.
    #[must_use]
    pub fn open_loop(streams: usize, mean_interarrival_cycles: u64) -> Self {
        Self {
            mean_interarrival_cycles,
            ..Self::paper_default(streams)
        }
    }

    /// A 2-activation tenancy mix: even streams hit the GELU table, odd
    /// streams the softmax-exp table — the trace the table-switch bench
    /// serves, where NOVA stays flat and LUT/SDP engines pay bank
    /// rewrites between activation runs.
    #[must_use]
    pub fn mixed_activations(streams: usize) -> Self {
        Self {
            ops: &[
                TrafficOp::Lookup(Activation::Gelu),
                TrafficOp::Lookup(Activation::Exp),
            ],
            ..Self::paper_default(streams)
        }
    }

    /// A fused-attention tenancy mix: even streams are GELU lookup
    /// tenants, odd streams request the fused softmax pipeline — the
    /// trace the op-graph bench serves, where every fused batch
    /// re-programs the unit between the exp and reciprocal tables
    /// (free on NOVA, a bank rewrite on LUT/SDP).
    #[must_use]
    pub fn fused_attention(streams: usize) -> Self {
        Self {
            ops: &[TrafficOp::Lookup(Activation::Gelu), TrafficOp::FusedSoftmax],
            ..Self::paper_default(streams)
        }
    }

    /// The trace's per-request `(activation, census)` pairs alone, in
    /// arrival order — the mixed-activation slate shape
    /// `engine::evaluate_multi_stream` consumes. One generation, one
    /// allocation; callers that only need the analytic view skip
    /// materializing (and then cloning out of) the full
    /// [`TrafficRequest`] records.
    ///
    /// # Panics
    ///
    /// As [`generate`](Self::generate).
    #[must_use]
    pub fn census_slate(&self) -> Vec<(Activation, OpCensus)> {
        self.generate()
            .into_iter()
            .map(|r| (r.activation, r.census))
            .collect()
    }

    /// The trace's fused-softmax row widths, in arrival order: every
    /// [`TrafficOp::FusedSoftmax`] tenant request contributes its
    /// census's softmax rows (each `softmax_elements / softmax_rows`
    /// lanes wide — the attention row an op-graph plan reduces over).
    /// The slate `engine::evaluate_fused_softmax` consumes; empty when
    /// the palette has no fused tenants.
    ///
    /// # Panics
    ///
    /// As [`generate`](Self::generate).
    #[must_use]
    pub fn fused_rows_slate(&self) -> Vec<u64> {
        let mut rows = Vec::new();
        for r in self.generate() {
            if r.op != TrafficOp::FusedSoftmax || r.census.softmax_rows == 0 {
                continue;
            }
            let width = r.census.softmax_elements / r.census.softmax_rows;
            if width == 0 {
                continue;
            }
            rows.extend(std::iter::repeat_n(width, r.census.softmax_rows as usize));
        }
        rows
    }

    /// Generates the trace: `streams × requests_per_stream` requests in a
    /// seeded global arrival order that preserves each stream's FIFO
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `streams == 0`, `requests_per_stream == 0` or
    /// `bert_seq_len == 0`.
    #[must_use]
    pub fn generate(&self) -> Vec<TrafficRequest> {
        assert!(
            self.streams > 0 && self.requests_per_stream > 0,
            "traffic needs at least one stream and one request"
        );
        assert!(self.bert_seq_len > 0, "sequence length must be positive");
        assert!(!self.ops.is_empty(), "traffic needs at least one op class");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Per-stream FIFO queues of (class, model, census).
        let queues: Vec<Vec<(TrafficClass, String, OpCensus)>> = (0..self.streams)
            .map(|_| {
                (0..self.requests_per_stream)
                    .map(|_| draw_request(&mut rng, self.bert_seq_len))
                    .collect()
            })
            .collect();

        // Seeded merge: each step picks one of the still-pending requests
        // uniformly at random and pops its stream's head, so streams
        // interleave proportionally to their remaining backlog while every
        // stream stays in order.
        let total = self.streams * self.requests_per_stream;
        // Interarrival gaps come from their own seeded generator so the
        // offered-load knob never perturbs the workload draw or the
        // merge order: the same seed serves the same requests in the
        // same order at every load point.
        let mut gap_rng = StdRng::seed_from_u64(self.seed ^ 0xA881_11A1_C0FF_EE00);
        let mut clock = 0u64;
        let mut cursors = vec![0usize; self.streams];
        let mut trace = Vec::with_capacity(total);
        for arrival in 0..total {
            let remaining = total - arrival;
            let mut pick = rng.gen_range(0..remaining);
            let stream = (0..self.streams)
                .find(|&s| {
                    let left = queues[s].len() - cursors[s];
                    if pick < left {
                        true
                    } else {
                        pick -= left;
                        false
                    }
                })
                .expect("pick is within the remaining request count");
            let (class, model, census) = queues[stream][cursors[stream]].clone();
            cursors[stream] += 1;
            // Uniform gaps on [0, 2·mean] have the requested mean; the
            // first request arrives at cycle 0 so every trace starts
            // immediately.
            if arrival > 0 && self.mean_interarrival_cycles > 0 {
                clock += gap_rng.gen_range(0..2 * self.mean_interarrival_cycles + 1);
            }
            // Per-stream assignment: a tenant's queries always request
            // the same op, and the load knob / seed never change who
            // requests what.
            let op = self.ops[stream % self.ops.len()];
            trace.push(TrafficRequest {
                stream,
                arrival,
                arrival_cycle: clock,
                class,
                model,
                op,
                activation: op.table_activation(),
                census,
            });
        }
        trace
    }
}

/// Draws one request from the workload palette.
fn draw_request(rng: &mut StdRng, bert_seq_len: usize) -> (TrafficClass, String, OpCensus) {
    match rng.gen_range(0..3u32) {
        0 => {
            let palette = [
                BertConfig::bert_tiny(),
                BertConfig::bert_mini(),
                BertConfig::mobilebert_tiny(),
            ];
            let cfg = palette[rng.gen_range(0..palette.len())];
            (
                TrafficClass::Bert,
                cfg.name.to_string(),
                bert_census(&cfg, bert_seq_len),
            )
        }
        1 => {
            let palette = [CnnConfig::mlp_mnist(), CnnConfig::cnn_cifar10()];
            let cfg = palette[rng.gen_range(0..palette.len())].clone();
            let census = cnn_census(&cfg);
            (TrafficClass::Cnn, cfg.name.to_string(), census)
        }
        _ => {
            // A bursty micro-tenant: one small matmul feeding a randomized
            // ReLU volume and a classifier softmax — deliberately far
            // smaller than a full vector-unit batch so tail-batch
            // coalescing across streams has something to amortize.
            let classes = rng.gen_range(8..64usize);
            let relu = rng.gen_range(64..4096u64);
            let mut census = OpCensus {
                matmuls: vec![MatmulDims {
                    m: 1,
                    k: 256,
                    n: classes,
                }],
                ..OpCensus::default()
            };
            census.relu_elements = relu;
            census.softmax_elements = classes as u64;
            census.softmax_rows = 1;
            (
                TrafficClass::Synthetic,
                format!("synthetic-{classes}c"),
                census,
            )
        }
    }
}

/// Draws `count` raw non-linear query values uniformly from `[lo, hi)`,
/// deterministically from `seed` — the functional face of a request
/// stream, for driving a serving engine with concrete inputs.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is non-finite.
#[must_use]
pub fn query_values(seed: u64, count: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Draws the same seeded query stream as [`query_values`] but quantizes
/// each draw straight into `format` and writes the words into a
/// caller-recycled buffer — the flat extraction path the serving tests,
/// examples and benchmark drive. `out` is cleared first; the draws are
/// bit-identical to quantizing [`query_values`]' output (same PRNG
/// sequence), with no intermediate `f64` vector allocated.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is non-finite.
pub fn query_words_into(
    seed: u64,
    count: usize,
    lo: f64,
    hi: f64,
    format: QFormat,
    rounding: Rounding,
    out: &mut Vec<Fixed>,
) {
    assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
    let mut rng = StdRng::seed_from_u64(seed);
    out.clear();
    out.reserve(count);
    out.extend((0..count).map(|_| Fixed::from_f64(rng.gen_range(lo..hi), format, rounding)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let mix = TrafficMix::paper_default(6);
        assert_eq!(mix.generate(), mix.generate());
        let other = TrafficMix { seed: 7, ..mix };
        assert_ne!(mix.generate(), other.generate());
    }

    #[test]
    fn trace_covers_all_streams_and_preserves_fifo() {
        let mix = TrafficMix {
            streams: 8,
            requests_per_stream: 5,
            bert_seq_len: 32,
            mean_interarrival_cycles: 0,
            ops: &[TrafficOp::Lookup(Activation::Gelu)],
            seed: 11,
        };
        let trace = mix.generate();
        assert_eq!(trace.len(), 40);
        // Arrival order is the trace order.
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.arrival, i);
        }
        // Every stream contributes exactly requests_per_stream, in order:
        // the k-th request of a stream arrives before its (k+1)-th.
        for s in 0..8 {
            let arrivals: Vec<usize> = trace
                .iter()
                .filter(|r| r.stream == s)
                .map(|r| r.arrival)
                .collect();
            assert_eq!(arrivals.len(), 5, "stream {s}");
            assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "stream {s}");
        }
    }

    #[test]
    fn trace_mixes_workload_classes() {
        let trace = TrafficMix {
            streams: 12,
            requests_per_stream: 6,
            bert_seq_len: 32,
            mean_interarrival_cycles: 0,
            ops: &[TrafficOp::Lookup(Activation::Gelu)],
            seed: 3,
        }
        .generate();
        for class in [
            TrafficClass::Bert,
            TrafficClass::Cnn,
            TrafficClass::Synthetic,
        ] {
            assert!(
                trace.iter().any(|r| r.class == class),
                "missing {}",
                class.label()
            );
        }
        assert!(trace.iter().all(|r| r.census.approximator_queries() > 0));
    }

    #[test]
    fn trace_interleaves_streams() {
        // With many streams the seeded merge must actually interleave:
        // the trace cannot be sorted by stream id.
        let trace = TrafficMix::paper_default(8).generate();
        let streams: Vec<usize> = trace.iter().map(|r| r.stream).collect();
        let mut sorted = streams.clone();
        sorted.sort_unstable();
        assert_ne!(streams, sorted, "arrival order never interleaved");
    }

    #[test]
    fn open_loop_arrivals_are_seeded_monotone_and_load_invariant() {
        let lo = TrafficMix::open_loop(6, 5_000);
        let hi = TrafficMix {
            mean_interarrival_cycles: 50,
            ..lo
        };
        let (a, b) = (lo.generate(), lo.generate());
        assert_eq!(a, b, "open-loop trace must replay bit-identically");
        // Arrival cycles are nondecreasing in arrival order, start at 0,
        // and actually spread out (not all equal).
        assert_eq!(a[0].arrival_cycle, 0);
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        assert!(a.last().unwrap().arrival_cycle > 0);
        // The mean gap lands near the knob (uniform on [0, 2·mean]).
        let n = a.len() as u64;
        let mean = a.last().unwrap().arrival_cycle / (n - 1);
        assert!(
            (2_500..=7_500).contains(&mean),
            "observed mean gap {mean} for requested 5000"
        );
        // Turning the load knob rescales time but must not change what
        // is served or in which order.
        let c = hi.generate();
        assert!(c.last().unwrap().arrival_cycle < a.last().unwrap().arrival_cycle);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(
                (x.stream, x.arrival, &x.census),
                (y.stream, y.arrival, &y.census)
            );
        }
        // Closed-loop (mean 0) pins every arrival to cycle 0.
        let burst = TrafficMix::paper_default(6).generate();
        assert!(burst.iter().all(|r| r.arrival_cycle == 0));
    }

    #[test]
    fn query_values_deterministic_and_in_range() {
        let a = query_values(9, 1000, -8.0, 0.0);
        let b = query_values(9, 1000, -8.0, 0.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (-8.0..0.0).contains(&x)));
        assert_ne!(a, query_values(10, 1000, -8.0, 0.0));
    }

    #[test]
    fn query_words_into_matches_quantized_query_values_and_recycles() {
        use nova_fixed::Q4_12;
        let expect: Vec<Fixed> = query_values(9, 500, -6.0, 6.0)
            .into_iter()
            .map(|x| Fixed::from_f64(x, Q4_12, Rounding::NearestEven))
            .collect();
        let mut words = Vec::new();
        query_words_into(9, 500, -6.0, 6.0, Q4_12, Rounding::NearestEven, &mut words);
        assert_eq!(words, expect, "same seed, same draws, same words");
        // A second extraction reuses the buffer's allocation.
        let cap = words.capacity();
        query_words_into(10, 100, -6.0, 6.0, Q4_12, Rounding::NearestEven, &mut words);
        assert_eq!(words.len(), 100);
        assert_eq!(words.capacity(), cap, "steady-state extraction reallocated");
    }

    #[test]
    fn census_slate_matches_generated_trace() {
        let mix = TrafficMix::paper_default(5);
        let from_trace: Vec<(Activation, OpCensus)> = mix
            .generate()
            .into_iter()
            .map(|r| (r.activation, r.census))
            .collect();
        assert_eq!(mix.census_slate(), from_trace);
        assert!(
            from_trace.iter().all(|(a, _)| *a == Activation::Gelu),
            "single-entry palette assigns one table everywhere"
        );
    }

    #[test]
    fn activation_assignment_is_per_stream_and_load_invariant() {
        let mix = TrafficMix::mixed_activations(6);
        let trace = mix.generate();
        for r in &trace {
            let expect = if r.stream % 2 == 0 {
                Activation::Gelu
            } else {
                Activation::Exp
            };
            assert_eq!(r.activation, expect, "stream {}", r.stream);
        }
        // Both tables actually appear, and the tenancy palette changes
        // neither the workload draw nor the merge order.
        assert!(trace.iter().any(|r| r.activation == Activation::Exp));
        let plain = TrafficMix::paper_default(6).generate();
        for (a, b) in trace.iter().zip(&plain) {
            assert_eq!(
                (a.stream, a.arrival, &a.census),
                (b.stream, b.arrival, &b.census)
            );
        }
    }

    #[test]
    fn fused_attention_mix_tags_odd_streams_as_pipeline_tenants() {
        let mix = TrafficMix::fused_attention(6);
        let trace = mix.generate();
        for r in &trace {
            let expect = if r.stream % 2 == 0 {
                TrafficOp::Lookup(Activation::Gelu)
            } else {
                TrafficOp::FusedSoftmax
            };
            assert_eq!(r.op, expect, "stream {}", r.stream);
            // The derived table tag points at the fused plan's opening
            // exp lookup for pipeline tenants.
            assert_eq!(r.activation, r.op.table_activation());
        }
        assert!(trace.iter().any(|r| r.op == TrafficOp::FusedSoftmax));
        // The op palette changes neither the workload draw nor the
        // merge order.
        let plain = TrafficMix::paper_default(6).generate();
        for (a, b) in trace.iter().zip(&plain) {
            assert_eq!(
                (a.stream, a.arrival, &a.census),
                (b.stream, b.arrival, &b.census)
            );
        }
    }

    #[test]
    fn fused_rows_slate_matches_fused_tenants_census() {
        let mix = TrafficMix::fused_attention(4);
        let trace = mix.generate();
        let rows = mix.fused_rows_slate();
        let expect_rows: u64 = trace
            .iter()
            .filter(|r| r.op == TrafficOp::FusedSoftmax)
            .map(|r| r.census.softmax_rows)
            .sum();
        assert_eq!(rows.len() as u64, expect_rows);
        assert!(!rows.is_empty(), "fused mix must emit attention rows");
        assert!(rows.iter().all(|&w| w > 0));
        // Deterministic per seed, and empty for lookup-only palettes.
        assert_eq!(rows, mix.fused_rows_slate());
        assert!(TrafficMix::paper_default(4).fused_rows_slate().is_empty());
    }
}
