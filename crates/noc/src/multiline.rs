//! Segmented broadcast: parallel NOVA lines for hosts whose router count
//! exceeds the single-cycle SMART reach.
//!
//! The paper's scalability analysis (§V.A) stops at "beyond 10 routers the
//! traversal takes multiple cycles". This module implements the natural
//! fix the analysis implies: split the line into `k` segments, each with
//! its own injection point fed by the same mapper, broadcasting in
//! parallel. Latency returns to single-cycle at the cost of replicating
//! the injector (not the table — the pairs are still on wires).
//!
//! This matters in practice: a TPU-like host at a 2.8 GHz NoC clock has a
//! reach of ~5 routers, so its 8 MXUs need either 2 NoC cycles (plain
//! line) or 2 segments (this module).

use nova_approx::QuantizedPwl;
use nova_fixed::Fixed;

use crate::sim::{BroadcastSim, SimStats};
use crate::{BroadcastSchedule, LineConfig, NocError};

/// A NOVA NoC split into parallel segments.
#[derive(Debug, Clone)]
pub struct SegmentedNoc {
    segments: Vec<BroadcastSim>,
    /// Routers per segment (last may be smaller).
    split: Vec<usize>,
    config: LineConfig,
}

impl SegmentedNoc {
    /// Splits `config.routers` into the fewest segments that each fit the
    /// single-cycle reach, and builds one simulator per segment.
    ///
    /// # Errors
    ///
    /// Propagates configuration/schedule errors.
    pub fn new(config: LineConfig, table: &QuantizedPwl) -> Result<Self, NocError> {
        config.validate()?;
        let reach = config.max_hops_per_cycle;
        let k = config.routers.div_ceil(reach);
        let mut split = Vec::with_capacity(k);
        let mut remaining = config.routers;
        while remaining > 0 {
            let take = remaining.min(reach);
            split.push(take);
            remaining -= take;
        }
        let segments = split
            .iter()
            .map(|&routers| {
                let seg_config = LineConfig { routers, ..config };
                BroadcastSim::new(seg_config, table)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            segments,
            split,
            config,
        })
    }

    /// Number of parallel segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The full-line configuration (before segmentation).
    #[must_use]
    pub fn config(&self) -> LineConfig {
        self.config
    }

    /// Routers per segment.
    #[must_use]
    pub fn split(&self) -> &[usize] {
        &self.split
    }

    /// The per-segment line simulators, in router order (for stats
    /// inspection).
    #[must_use]
    pub fn segments(&self) -> &[BroadcastSim] {
        &self.segments
    }

    /// The quantized table the segments are programmed with.
    ///
    /// # Panics
    ///
    /// Never — construction guarantees at least one segment.
    #[must_use]
    pub fn table(&self) -> &QuantizedPwl {
        self.segments[0].table()
    }

    /// Switches every segment to `table` (see
    /// [`BroadcastSim::set_table`]). The segments share one link, so the
    /// flit schedule is compiled once, before any segment changes: a
    /// refused switch leaves the old table active on every segment. The
    /// last segment takes the compiled schedule itself and only the
    /// others get a copy, so a one-segment switch does exactly the plain
    /// line's work.
    ///
    /// # Errors
    ///
    /// Propagates schedule compilation errors (e.g. tag overflow).
    pub fn set_table(&mut self, table: &QuantizedPwl) -> Result<(), NocError> {
        let schedule = BroadcastSchedule::compile(table, self.config.link)?;
        let (last, rest) = self
            .segments
            .split_last_mut()
            .expect("construction guarantees at least one segment");
        for seg in rest {
            seg.install(schedule.clone(), table);
        }
        last.install(schedule, table);
        Ok(())
    }

    /// Per-batch broadcast latency in core cycles without running a
    /// batch: segments broadcast concurrently, so the nominal latency is
    /// the maximum over the per-segment nominal latencies (the widest
    /// segment dominates).
    #[must_use]
    pub fn nominal_core_cycle_latency(&self) -> u64 {
        self.segments
            .iter()
            .map(BroadcastSim::nominal_core_cycle_latency)
            .max()
            .unwrap_or(0)
    }

    /// Runs one batch over flat row-major buffers (slot
    /// `r * neurons + n`), each segment broadcasting over its contiguous
    /// row range in place, with no per-batch allocation. NoC cycles are
    /// the *maximum* over segments (they operate concurrently); activity
    /// counters are summed.
    ///
    /// # Errors
    ///
    /// Same shape/format validation as [`BroadcastSim::run_flat`].
    pub fn run_flat(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
    ) -> Result<SimStats, NocError> {
        self.run_flat_with(inputs, outputs, BroadcastSim::run_flat)
    }

    /// [`run_flat`](Self::run_flat) through every segment's cycle-accurate
    /// flit-level reference ([`BroadcastSim::run_flat_reference`]) instead
    /// of the analytic fast path — the executable specification the
    /// fast path is tested against, and the baseline its speedup is
    /// benched against.
    ///
    /// # Errors
    ///
    /// Same shape/format validation as [`BroadcastSim::run_flat`].
    pub fn run_flat_reference(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
    ) -> Result<SimStats, NocError> {
        self.run_flat_with(inputs, outputs, BroadcastSim::run_flat_reference)
    }

    fn run_flat_with(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
        mut run: impl FnMut(&mut BroadcastSim, &[Fixed], &mut [Fixed]) -> Result<SimStats, NocError>,
    ) -> Result<SimStats, NocError> {
        let neurons = self.config.neurons_per_router;
        let slots = self.config.routers * neurons;
        if inputs.len() != slots || outputs.len() != slots {
            return Err(NocError::InputShape {
                routers: self.config.routers,
                neurons,
                got: (inputs.len(), outputs.len()),
            });
        }
        let mut stats = SimStats::default();
        let mut offset = 0;
        for (seg, &routers) in self.segments.iter_mut().zip(&self.split) {
            let end = offset + routers * neurons;
            let s = run(seg, &inputs[offset..end], &mut outputs[offset..end])?;
            stats.noc_cycles = stats.noc_cycles.max(s.noc_cycles);
            stats.core_cycle_latency = stats.core_cycle_latency.max(s.core_cycle_latency);
            stats.flits_injected += s.flits_injected;
            stats.hops += s.hops;
            stats.buffered += s.buffered;
            stats.pairs_latched += s.pairs_latched;
            stats.mac_ops += s.mac_ops;
            offset = end;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Exp, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    /// A flat `routers × neurons` batch (slot `r * neurons + n`).
    fn batch(routers: usize, neurons: usize) -> Vec<Fixed> {
        (0..routers * neurons)
            .map(|i| {
                Fixed::from_f64(
                    -((i as f64 * 0.7).sin().abs() * 7.9),
                    Q4_12,
                    Rounding::NearestEven,
                )
            })
            .collect()
    }

    /// Runs one batch through the fast path into a fresh output buffer.
    fn run(noc: &mut SegmentedNoc, inputs: &[Fixed]) -> (Vec<Fixed>, SimStats) {
        let mut out = vec![Fixed::zero(Q4_12); inputs.len()];
        let stats = noc.run_flat(inputs, &mut out).unwrap();
        (out, stats)
    }

    #[test]
    fn tpu_v4_at_reach_5_needs_two_segments() {
        let t = table();
        let mut config = LineConfig::paper_default(8, 4);
        config.max_hops_per_cycle = 5; // 2.8 GHz NoC reach
        let mut noc = SegmentedNoc::new(config, &t).unwrap();
        assert_eq!(noc.segment_count(), 2);
        assert_eq!(noc.split(), &[5, 3]);
        let (_, stats) = run(&mut noc, &batch(8, 4));
        // Single-cycle broadcast restored: 2 flits, 2 NoC cycles, latency
        // 2 core cycles — same as a short line.
        assert_eq!(stats.noc_cycles, 2);
        assert_eq!(stats.core_cycle_latency, 2);
        assert_eq!(stats.buffered, 0);
    }

    #[test]
    fn segmented_matches_plain_line_results() {
        let t = table();
        let mut config = LineConfig::paper_default(12, 3);
        config.max_hops_per_cycle = 4;
        let inputs = batch(12, 3);
        let mut seg = SegmentedNoc::new(config, &t).unwrap();
        let mut plain = BroadcastSim::new(config, &t).unwrap();
        let (a, seg_stats) = run(&mut seg, &inputs);
        let mut b = vec![Fixed::zero(Q4_12); inputs.len()];
        let plain_stats = plain.run_flat(&inputs, &mut b).unwrap();
        assert_eq!(a, b, "functionally identical");
        // But the segmented NoC is strictly faster.
        assert!(seg_stats.noc_cycles < plain_stats.noc_cycles);
    }

    #[test]
    fn single_segment_when_reach_suffices() {
        let t = table();
        let config = LineConfig::paper_default(8, 2); // reach 10 ≥ 8
        let noc = SegmentedNoc::new(config, &t).unwrap();
        assert_eq!(noc.segment_count(), 1);
    }

    #[test]
    fn flit_injections_scale_with_segments() {
        let t = table();
        let mut config = LineConfig::paper_default(20, 1);
        config.max_hops_per_cycle = 5;
        let mut noc = SegmentedNoc::new(config, &t).unwrap();
        assert_eq!(noc.segment_count(), 4);
        let (_, stats) = run(&mut noc, &batch(20, 1));
        // 2 flits per segment (16 breakpoints), 4 segments.
        assert_eq!(stats.flits_injected, 8);
    }

    #[test]
    fn nominal_latency_matches_simulation() {
        let t = table();
        for (routers, reach) in [(8, 5), (12, 4), (20, 5), (8, 10)] {
            let mut config = LineConfig::paper_default(routers, 2);
            config.max_hops_per_cycle = reach;
            let mut noc = SegmentedNoc::new(config, &t).unwrap();
            let nominal = noc.nominal_core_cycle_latency();
            let (_, stats) = run(&mut noc, &batch(routers, 2));
            assert_eq!(
                nominal, stats.core_cycle_latency,
                "{routers} routers at reach {reach}"
            );
        }
    }

    #[test]
    fn segmented_fast_path_matches_reference() {
        // The segmented NoC inherits the analytic fast path per segment;
        // it must agree with the flit-level reference on outputs and
        // merged stats, including the uneven-final-segment split.
        let t = table();
        for (routers, neurons, reach) in [(8, 4, 5), (12, 3, 4), (20, 1, 5)] {
            let mut config = LineConfig::paper_default(routers, neurons);
            config.max_hops_per_cycle = reach;
            let mut fast = SegmentedNoc::new(config, &t).unwrap();
            let mut reference = SegmentedNoc::new(config, &t).unwrap();
            let inputs = batch(routers, neurons);
            let mut out_fast = vec![Fixed::zero(Q4_12); inputs.len()];
            let mut out_ref = out_fast.clone();
            for _ in 0..2 {
                let sf = fast.run_flat(&inputs, &mut out_fast).unwrap();
                let sr = reference.run_flat_reference(&inputs, &mut out_ref).unwrap();
                assert_eq!(out_fast, out_ref, "{routers}r/{neurons}n reach {reach}");
                assert_eq!(sf, sr, "{routers}r/{neurons}n reach {reach}");
            }
        }
    }

    #[test]
    fn shape_validation() {
        // A wrong input length and a wrong output length are refused by
        // both paths before any segment runs. Batch stats sum the
        // routers' cumulative latch counters, so a first accepted batch
        // that reports a fresh NoC's stats proves no counter moved.
        let t = table();
        let mut config = LineConfig::paper_default(4, 2);
        config.max_hops_per_cycle = 3;
        let mut noc = SegmentedNoc::new(config, &t).unwrap();
        assert_eq!(noc.segment_count(), 2);
        let zero = Fixed::zero(Q4_12);
        for got in [(7, 8), (8, 7)] {
            let inputs = vec![zero; got.0];
            let mut outputs = vec![zero; got.1];
            let expect = Err(NocError::InputShape {
                routers: 4,
                neurons: 2,
                got,
            });
            assert_eq!(noc.run_flat(&inputs, &mut outputs), expect);
            assert_eq!(noc.run_flat_reference(&inputs, &mut outputs), expect);
        }
        let inputs = batch(4, 2);
        let mut fresh = SegmentedNoc::new(config, &t).unwrap();
        assert_eq!(run(&mut noc, &inputs), run(&mut fresh, &inputs));
    }
}
