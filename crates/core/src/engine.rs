//! The end-to-end evaluation engine: per-inference runtime and energy
//! (the machinery behind Fig 8).
//!
//! The paper's methodology (§V.F): SCALE-Sim supplies per-inference
//! runtime on the host; the synthesis power numbers of each approximator
//! supply the power; energy is their product over the time the
//! approximator is active. Because NOVA and the LUT baselines have
//! identical lookup latency, their energy ratio equals their power ratio —
//! which is exactly how the paper's 9.4× / 4.14× headline numbers arise.

use nova_accel::config::AcceleratorConfig;
use nova_accel::runtime::{matmul_runtime, MatmulRuntime};
use nova_accel::systolic::Dataflow;
use nova_synth::{units, LutSharing, TechModel};
use nova_workloads::bert::{census, BertConfig, OpCensus};

use crate::NovaError;

// The dispatch axis lives with the unit implementations; re-exported
// here because the engine's cost models are keyed off the same enum.
pub use crate::vector_unit::ApproximatorKind;

/// Full per-inference report for one (host, model, approximator) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Host accelerator name.
    pub accelerator: String,
    /// Workload name.
    pub model: String,
    /// Sequence length evaluated.
    pub seq_len: usize,
    /// Approximator used.
    pub approximator: String,
    /// Matmul cycles on the systolic fabric.
    pub matmul_cycles: u64,
    /// Non-linear approximator queries (exp + recip + GELU + rsqrt).
    pub nl_queries: u64,
    /// Vector-unit batches (queries over all neurons in parallel).
    pub nl_batches: u64,
    /// Cycles spent on non-linear lookups (2 per batch: lookup + MAC).
    pub nl_cycles: u64,
    /// Total inference latency (s).
    pub total_seconds: f64,
    /// Approximator power (mW) while active.
    pub approximator_power_mw: f64,
    /// Approximator energy per inference (mJ).
    pub approximator_energy_mj: f64,
    /// Host compute power (mW) while matmuls run.
    pub host_power_mw: f64,
    /// Host compute energy per inference (mJ).
    pub host_energy_mj: f64,
    /// Approximator energy as % of host compute energy (the paper's
    /// "energy overhead").
    pub energy_overhead_pct: f64,
}

nova_serde::impl_serde_struct!(InferenceReport {
    accelerator,
    model,
    seq_len,
    approximator,
    matmul_cycles,
    nl_queries,
    nl_batches,
    nl_cycles,
    total_seconds,
    approximator_power_mw,
    approximator_energy_mj,
    host_power_mw,
    host_energy_mj,
    energy_overhead_pct,
});

/// Power (mW) of `kind` on `config` at the host's clock/activity,
/// from the calibrated 22 nm model.
#[must_use]
pub fn approximator_power_mw(
    tech: &TechModel,
    config: &AcceleratorConfig,
    kind: ApproximatorKind,
) -> f64 {
    let n = config.nova_routers as f64;
    let neurons = config.neurons_per_router;
    let core = config.frequency_ghz();
    let act = config.datapath_activity;
    match kind {
        ApproximatorKind::NovaNoc => {
            let r = units::nova_router(tech, neurons, 16, config.router_pitch_mm);
            r.power_mw(tech, core, core * 2.0, act) * n
        }
        ApproximatorKind::PerNeuronLut => {
            units::lut_unit(tech, neurons, 16, LutSharing::PerNeuron).power_mw(tech, core, act) * n
        }
        ApproximatorKind::PerCoreLut => {
            units::lut_unit(tech, neurons, 16, LutSharing::PerCore).power_mw(tech, core, act) * n
        }
        // The SDP is the host's always-clocked native engine — no demand
        // gating, so activity 1 regardless of the attention duty cycle.
        ApproximatorKind::NvdlaSdp => units::nvdla_sdp(tech, neurons).power_mw(tech, core, 1.0) * n,
    }
}

/// Host compute power (mW): all systolic MACs switching at the core clock.
#[must_use]
pub fn host_power_mw(tech: &TechModel, config: &AcceleratorConfig) -> f64 {
    let pes = (config.systolic.pes_per_array() * config.systolic.arrays) as f64;
    let (_, mac_cap) = nova_synth::components::mac16(tech);
    tech.dynamic_power_mw(pes * mac_cap, config.frequency_ghz(), 1.0)
}

/// Evaluates one inference of `model` at `seq_len` on `config` with
/// `kind` serving the non-linear operators (paper defaults: OS dataflow,
/// cmos22 tech).
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] for a zero sequence length, a host
/// without neurons or a host whose clock is not positive and finite (see
/// [`evaluate_census`]).
pub fn evaluate(
    config: &AcceleratorConfig,
    model: &BertConfig,
    seq_len: usize,
    kind: ApproximatorKind,
) -> Result<InferenceReport, NovaError> {
    if seq_len == 0 {
        return Err(NovaError::BatchShape(
            "sequence length must be positive".into(),
        ));
    }
    let tech = TechModel::cmos22();
    let ops = census(model, seq_len);
    evaluate_census(&tech, config, model.name, seq_len, &ops, kind)
}

/// Evaluates one inference of a CNN/MLP vision model on `config` (the
/// NVDLA/Jetson path: ReLU traffic plus one classifier softmax).
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] for a host without neurons or a
/// host whose clock is not positive and finite (see [`evaluate_census`]).
pub fn evaluate_cnn(
    config: &AcceleratorConfig,
    model: &nova_workloads::cnn::CnnConfig,
    kind: ApproximatorKind,
) -> Result<InferenceReport, NovaError> {
    let tech = TechModel::cmos22();
    let ops = nova_workloads::cnn::census(model);
    evaluate_census(&tech, config, model.name, 1, &ops, kind)
}

/// Evaluates a pre-computed census (for custom workloads).
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] when `config` has no NOVA routers or
/// no neurons per router, since its vector unit could serve no batch,
/// and when its `frequency_mhz` is not positive and finite, since every
/// cycle count is divided by it.
pub fn evaluate_census(
    tech: &TechModel,
    config: &AcceleratorConfig,
    model_name: &str,
    seq_len: usize,
    ops: &OpCensus,
    kind: ApproximatorKind,
) -> Result<InferenceReport, NovaError> {
    if config.total_neurons() == 0 {
        return Err(NovaError::BatchShape(format!(
            "{} has {} NOVA routers of {} neurons each; a batch needs at least one neuron",
            config.name, config.nova_routers, config.neurons_per_router
        )));
    }
    if !(config.frequency_mhz.is_finite() && config.frequency_mhz > 0.0) {
        return Err(NovaError::BatchShape(format!(
            "{} is clocked at {} MHz; a batch needs a positive, finite clock",
            config.name, config.frequency_mhz
        )));
    }
    let mm: MatmulRuntime = matmul_runtime(config, ops, Dataflow::OutputStationary);
    let queries = ops.approximator_queries();
    let neurons = config.total_neurons() as u64;
    let batches = queries.div_ceil(neurons);
    // Per-batch latency of the serving hardware: 2 (lookup + MAC) for
    // NOVA and the NN-LUT baselines, 3 for the SDP's deeper pipeline.
    let nl_cycles = batches * kind.batch_latency_cycles();
    let freq_hz = config.frequency_mhz * 1e6;
    let nl_seconds = nl_cycles as f64 / freq_hz;
    let total_seconds = mm.seconds + nl_seconds;

    let p_approx = approximator_power_mw(tech, config, kind);
    let p_host = host_power_mw(tech, config);
    let e_approx = p_approx * nl_seconds; // mW · s = mJ... (mW×s = mJ)
    let e_host = p_host * mm.seconds;

    Ok(InferenceReport {
        accelerator: config.name.to_string(),
        model: model_name.to_string(),
        seq_len,
        approximator: kind.label().to_string(),
        matmul_cycles: mm.cycles,
        nl_queries: queries,
        nl_batches: batches,
        nl_cycles,
        total_seconds,
        approximator_power_mw: p_approx,
        approximator_energy_mj: e_approx,
        host_power_mw: p_host,
        host_energy_mj: e_host,
        energy_overhead_pct: if e_host > 0.0 {
            100.0 * e_approx / e_host
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nova_energy_beats_luts_everywhere() {
        for cfg in [
            AcceleratorConfig::tpu_v3_like(),
            AcceleratorConfig::tpu_v4_like(),
        ] {
            for model in BertConfig::fig8_benchmarks() {
                let nova = evaluate(&cfg, &model, 1024, ApproximatorKind::NovaNoc).unwrap();
                let pn = evaluate(&cfg, &model, 1024, ApproximatorKind::PerNeuronLut).unwrap();
                let pc = evaluate(&cfg, &model, 1024, ApproximatorKind::PerCoreLut).unwrap();
                assert!(
                    nova.approximator_energy_mj < pn.approximator_energy_mj,
                    "{} {}",
                    cfg.name,
                    model.name
                );
                assert!(nova.approximator_energy_mj < pc.approximator_energy_mj);
            }
        }
    }

    #[test]
    fn energy_ratio_tracks_power_ratio() {
        // Same latency ⇒ energy ratio == power ratio (the paper's
        // headline arithmetic).
        let cfg = AcceleratorConfig::tpu_v4_like();
        let m = BertConfig::bert_mini();
        let nova = evaluate(&cfg, &m, 1024, ApproximatorKind::NovaNoc).unwrap();
        let pc = evaluate(&cfg, &m, 1024, ApproximatorKind::PerCoreLut).unwrap();
        let e_ratio = pc.approximator_energy_mj / nova.approximator_energy_mj;
        let p_ratio = pc.approximator_power_mw / nova.approximator_power_mw;
        assert!((e_ratio - p_ratio).abs() < 1e-9);
        // Paper: per-core LUT burns ~9.4× NOVA's energy on TPU-v4.
        assert!(e_ratio > 4.0, "per-core/NOVA energy ratio = {e_ratio}");
    }

    #[test]
    fn nova_overhead_is_small_on_tpu_v4() {
        // Paper: "energy overhead of only 0.5%" for NOVA on TPU-v4.
        let cfg = AcceleratorConfig::tpu_v4_like();
        for model in BertConfig::fig8_benchmarks() {
            let r = evaluate(&cfg, &model, 1024, ApproximatorKind::NovaNoc).unwrap();
            assert!(
                r.energy_overhead_pct < 5.0,
                "{}: overhead {}%",
                model.name,
                r.energy_overhead_pct
            );
        }
    }

    #[test]
    fn queries_and_batches_consistent() {
        let cfg = AcceleratorConfig::react();
        let r = evaluate(
            &cfg,
            &BertConfig::bert_tiny(),
            128,
            ApproximatorKind::NovaNoc,
        )
        .unwrap();
        assert_eq!(r.nl_batches, r.nl_queries.div_ceil(2560));
        assert_eq!(r.nl_cycles, 2 * r.nl_batches);
        assert!(r.total_seconds > 0.0);
    }

    #[test]
    fn sdp_pays_its_deeper_pipeline() {
        // The cost model must agree with the vector unit's SDP latency:
        // 3 cycles per batch vs 2 for NOVA/LUTs.
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        let m = BertConfig::mobilebert_tiny();
        let nova = evaluate(&cfg, &m, 128, ApproximatorKind::NovaNoc).unwrap();
        let sdp = evaluate(&cfg, &m, 128, ApproximatorKind::NvdlaSdp).unwrap();
        assert_eq!(nova.nl_cycles, 2 * nova.nl_batches);
        assert_eq!(sdp.nl_cycles, 3 * sdp.nl_batches);
        assert_eq!(sdp.nl_batches, nova.nl_batches);
    }

    #[test]
    fn zero_seq_len_rejected() {
        let cfg = AcceleratorConfig::react();
        assert!(evaluate(&cfg, &BertConfig::bert_tiny(), 0, ApproximatorKind::NovaNoc).is_err());
    }

    #[test]
    fn zero_neuron_host_is_an_error_not_a_panic() {
        let tech = TechModel::cmos22();
        let model = BertConfig::bert_tiny();
        let ops = census(&model, 128);
        let cnn = &nova_workloads::cnn::CnnConfig::table1_models()[0];
        let kind = ApproximatorKind::NovaNoc;
        let hosts = [
            AcceleratorConfig {
                neurons_per_router: 0,
                ..AcceleratorConfig::tpu_v4_like()
            },
            AcceleratorConfig {
                nova_routers: 0,
                ..AcceleratorConfig::tpu_v4_like()
            },
        ];
        // A host without a usable clock is refused the same way.
        let clocks = [0.0, -1.0, f64::NAN].map(|frequency_mhz| AcceleratorConfig {
            frequency_mhz,
            ..AcceleratorConfig::tpu_v4_like()
        });
        for cfg in hosts.into_iter().chain(clocks) {
            let results = [
                evaluate(&cfg, &model, 128, kind),
                evaluate_cnn(&cfg, cnn, kind),
                evaluate_census(&tech, &cfg, model.name, 128, &ops, kind),
            ];
            for r in results {
                assert!(matches!(r, Err(NovaError::BatchShape(_))), "{r:?}");
            }
        }
    }

    #[test]
    fn cnn_on_jetson_nova_beats_sdp() {
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        for model in nova_workloads::cnn::CnnConfig::table1_models() {
            let nova = evaluate_cnn(&cfg, &model, ApproximatorKind::NovaNoc).unwrap();
            let sdp = evaluate_cnn(&cfg, &model, ApproximatorKind::NvdlaSdp).unwrap();
            assert!(
                nova.approximator_energy_mj < sdp.approximator_energy_mj,
                "{}",
                model.name
            );
            assert!(nova.nl_queries > 0);
        }
    }

    #[test]
    fn sdp_costs_more_than_nova_on_jetson() {
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        let m = BertConfig::mobilebert_tiny();
        let nova = evaluate(&cfg, &m, 128, ApproximatorKind::NovaNoc).unwrap();
        let sdp = evaluate(&cfg, &m, 128, ApproximatorKind::NvdlaSdp).unwrap();
        assert!(sdp.approximator_power_mw > 3.0 * nova.approximator_power_mw);
    }
}
