//! The cycle-accurate line-broadcast simulator (paper Fig 4).
//!
//! Each NoC cycle, one flit of the compiled [`BroadcastSchedule`] is
//! injected at the head of the line. A flit propagates combinationally
//! through up to [`LineConfig::max_hops_per_cycle`] router bypasses
//! (SMART-style clockless repeaters), snooping every router it passes; if
//! routers remain beyond the reach, it is parked in the next router's east
//! input register and continues the following cycle. Once a router has
//! latched pairs for all its neurons, its MAC stage fires one accelerator
//! cycle later.
//!
//! The simulator therefore reproduces both of the paper's headline timing
//! facts: (a) for ≤ 10 routers and 16 breakpoints at a 2× NoC clock the
//! effective lookup latency is one core cycle (plus the MAC cycle the LUT
//! baselines also pay), and (b) beyond the single-cycle reach the
//! broadcast degrades gracefully to multi-cycle traversal (§V.A).

use nova_approx::QuantizedPwl;
use nova_fixed::{Fixed, QFormat};

use crate::router::Router;
use crate::{BroadcastSchedule, LineConfig, NocError};

/// Aggregate statistics of one broadcast batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// NoC cycles consumed until the last router latched its last pair.
    pub noc_cycles: u64,
    /// Effective lookup latency in accelerator (core) cycles, including
    /// the MAC cycle.
    pub core_cycle_latency: u64,
    /// Flits injected at the line head.
    pub flits_injected: u64,
    /// Total router-to-router hops traversed.
    pub hops: u64,
    /// Flits parked in east input registers (reach boundaries).
    pub buffered: u64,
    /// Total `(slope, bias)` pairs latched across all routers.
    pub pairs_latched: u64,
    /// Total MAC operations.
    pub mac_ops: u64,
}

/// The line simulator: the one NoC model. [`run_flat`](Self::run_flat)
/// walks every flit router by router, and the serving vector unit's
/// closed-form NOVA costs are pinned against it.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastSim {
    config: LineConfig,
    schedule: BroadcastSchedule,
    table: QuantizedPwl,
    routers: Vec<Router>,
    /// In-flight flit scratch `(schedule index, next router)`, reused
    /// across batches so the steady-state broadcast loop never touches
    /// the allocator. Always empty between [`run_flat`](Self::run_flat)
    /// calls.
    in_flight: Vec<(usize, usize)>,
    /// Double-buffer partner of `in_flight` (same lifecycle).
    flying_scratch: Vec<(usize, usize)>,
}

impl BroadcastSim {
    /// Builds a simulator for `table` on the given line.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and schedule compilation
    /// errors.
    pub fn new(config: LineConfig, table: &QuantizedPwl) -> Result<Self, NocError> {
        config.validate()?;
        let schedule = BroadcastSchedule::compile(table, config.link)?;
        let routers = (0..config.routers).map(|_| Router::new(table)).collect();
        Ok(Self {
            config,
            schedule,
            table: table.clone(),
            routers,
            in_flight: Vec::new(),
            flying_scratch: Vec::new(),
        })
    }

    /// The quantized table the line is programmed with.
    #[must_use]
    pub fn table(&self) -> &QuantizedPwl {
        &self.table
    }

    /// The compiled schedule (flit count, NoC multiplier).
    #[must_use]
    pub fn schedule(&self) -> &BroadcastSchedule {
        &self.schedule
    }

    /// The line configuration.
    #[must_use]
    pub fn config(&self) -> LineConfig {
        self.config
    }

    /// Switches the active operator table (e.g. softmax-exp → GELU between
    /// layer phases). For NOVA this is free in hardware — the next
    /// broadcast simply carries the new pairs — so no cycles are consumed.
    /// The simulator compiles the new flit schedule first and only then
    /// re-points the line and its comparators at `table`: a shared handle,
    /// so nothing is copied. Router counters restart from zero, as on a
    /// freshly built line.
    ///
    /// # Errors
    ///
    /// Propagates schedule compilation errors (e.g. tag overflow); on
    /// error the old table stays active.
    pub fn set_table(&mut self, table: &QuantizedPwl) -> Result<(), NocError> {
        let schedule = BroadcastSchedule::compile(table, self.config.link)?;
        self.install(schedule, table);
        Ok(())
    }

    /// Re-points the line at `table`, whose `schedule` the caller has
    /// already compiled for this line's link — the infallible half of
    /// [`set_table`](Self::set_table).
    pub(crate) fn install(&mut self, schedule: BroadcastSchedule, table: &QuantizedPwl) {
        self.schedule = schedule;
        self.table.clone_from(table);
        for router in &mut self.routers {
            *router = Router::new(table);
        }
    }

    /// Runs one batch over flat row-major buffers: slot `r * neurons + n`
    /// of `inputs` is the PE output of neuron `n` at router `r`, and the
    /// approximated value lands in the same slot of `outputs`.
    ///
    /// The simulation is cycle-accurate and flit-level: it injects one
    /// schedule flit per NoC cycle, flies it through up to `reach` router
    /// bypasses, parks it at reach boundaries, snoops and latches per
    /// router, then fires every router's MAC stage on the pairs decoded
    /// from the wire.
    ///
    /// # Errors
    ///
    /// - [`NocError::InputShape`] if either buffer is not exactly
    ///   `routers × neurons_per_router` slots,
    /// - [`NocError::FormatMismatch`] if any word uses the wrong Q-format.
    ///
    /// Both are checked before any router state changes.
    pub fn run_flat(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
    ) -> Result<SimStats, NocError> {
        check_batch(self.config, self.table.format(), inputs, outputs.len())?;
        self.broadcast(inputs, outputs)
    }

    /// [`run_flat`](Self::run_flat) on a batch the caller has already
    /// checked: a segmented line checks its whole batch once and runs
    /// each segment through this.
    pub(crate) fn broadcast(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
    ) -> Result<SimStats, NocError> {
        let flits = self.schedule.flit_count();
        let reach = self.config.max_hops_per_cycle;
        let neurons = self.config.neurons_per_router;

        // Comparator stage (parallel across routers, before broadcast).
        for (router, xs) in self.routers.iter_mut().zip(inputs.chunks(neurons.max(1))) {
            router.load_inputs(xs);
        }

        // In-flight flits: (schedule index, next router to visit). The
        // scratch vectors live on `self` purely for capacity reuse; both
        // are empty outside this call.
        let mut in_flight = std::mem::take(&mut self.in_flight);
        let mut still_flying = std::mem::take(&mut self.flying_scratch);
        let mut injected = 0usize;
        let mut stats = SimStats::default();
        let mut cycle: u64 = 0;

        while injected < flits || !in_flight.is_empty() {
            cycle += 1;
            // Advance flits already on the line (ahead of today's
            // injection, preserving order; no two flits can collide since
            // they all move `reach` hops per cycle).
            still_flying.clear();
            for (fi, pos) in in_flight.drain(..) {
                let (next, parked) = fly(
                    &self.schedule,
                    &self.table,
                    &mut self.routers,
                    fi,
                    pos,
                    reach,
                    &mut stats,
                );
                if parked {
                    still_flying.push((fi, next));
                }
            }
            // Inject this cycle's flit at router 0.
            if injected < flits {
                let fi = injected;
                injected += 1;
                stats.flits_injected += 1;
                let (next, parked) = fly(
                    &self.schedule,
                    &self.table,
                    &mut self.routers,
                    fi,
                    0,
                    reach,
                    &mut stats,
                );
                if parked {
                    still_flying.push((fi, next));
                }
            }
            std::mem::swap(&mut in_flight, &mut still_flying);
        }
        stats.noc_cycles = cycle;
        in_flight.clear();
        still_flying.clear();
        self.in_flight = in_flight;
        self.flying_scratch = still_flying;

        // MAC stage: one core cycle after the last latch, written into
        // the caller's buffer in place.
        for (router, row) in self
            .routers
            .iter_mut()
            .zip(outputs.chunks_mut(neurons.max(1)))
        {
            router.compute_into(row)?;
        }
        for router in &self.routers {
            stats.pairs_latched += router.stats.pairs_latched;
            stats.mac_ops += router.stats.mac_ops;
        }
        let multiplier = self.schedule.noc_clock_multiplier() as u64;
        stats.core_cycle_latency = cycle.div_ceil(multiplier) + 1;
        Ok(stats)
    }
}

/// Checks a flat batch against a line: both buffers must hold exactly
/// `routers × neurons_per_router` slots, and every input word must be in
/// the table's `format`.
pub(crate) fn check_batch(
    config: LineConfig,
    format: QFormat,
    inputs: &[Fixed],
    out_len: usize,
) -> Result<(), NocError> {
    let slots = config.routers * config.neurons_per_router;
    if inputs.len() != slots || out_len != slots {
        return Err(NocError::InputShape {
            routers: config.routers,
            neurons: config.neurons_per_router,
            got: (inputs.len(), out_len),
        });
    }
    if inputs.iter().any(|x| x.format() != format) {
        return Err(NocError::FormatMismatch);
    }
    Ok(())
}

/// Propagates flit `fi` starting at router `pos` for up to `reach` hops.
/// Returns `(next position, parked?)`. Free function so the schedule's
/// flit can be *borrowed* while the routers mutate — the hot loop snoops
/// without cloning the flit's word vector.
fn fly(
    schedule: &BroadcastSchedule,
    table: &QuantizedPwl,
    routers: &mut [Router],
    fi: usize,
    pos: usize,
    reach: usize,
    stats: &mut SimStats,
) -> (usize, bool) {
    let flits = schedule.flit_count();
    let flit = &schedule.flits()[fi];
    let mut p = pos;
    let mut hops = 0usize;
    while p < routers.len() && hops < reach {
        routers[p].snoop(flit, flits, table);
        p += 1;
        hops += 1;
    }
    stats.hops += hops as u64;
    if p < routers.len() {
        // Parked in router p's east input register.
        routers[p].buffer();
        stats.buffered += 1;
        (p, true)
    } else {
        (p, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiline::SegmentedNoc;
    use crate::router::RouterStats;
    use crate::LinkConfig;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table(segments: usize) -> QuantizedPwl {
        let pwl = fit::fit_activation(
            Activation::Sigmoid,
            segments,
            fit::BreakpointStrategy::Uniform,
        )
        .unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    /// A flat `routers × neurons` batch: slot `r * neurons + n` is the PE
    /// output of neuron `n` at router `r`.
    fn batch(routers: usize, neurons: usize, seed: f64) -> Vec<Fixed> {
        (0..routers * neurons)
            .map(|i| {
                let x = (i as f64 * 0.7 + seed).sin() * 6.0;
                Fixed::from_f64(x, Q4_12, Rounding::NearestEven)
            })
            .collect()
    }

    /// Runs one batch through the simulation into a fresh output buffer.
    fn run(sim: &mut BroadcastSim, inputs: &[Fixed]) -> (Vec<Fixed>, SimStats) {
        let mut out = vec![Fixed::zero(Q4_12); inputs.len()];
        let stats = sim.run_flat(inputs, &mut out).unwrap();
        (out, stats)
    }

    #[test]
    fn functional_equivalence_with_table() {
        let t = table(16);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(10, 32), &t).unwrap();
        let inputs = batch(10, 32, 0.3);
        let (out, _) = run(&mut sim, &inputs);
        for (slot, (&y, &x)) in out.iter().zip(&inputs).enumerate() {
            assert_eq!(y, t.eval(x), "slot {slot}");
        }
    }

    #[test]
    fn paper_latency_16_breakpoints_10_routers() {
        // 2 flits at 2× NoC clock, single-cycle reach: 2 NoC cycles =
        // 1 core cycle + 1 MAC cycle = 2 core cycles (same as the LUT
        // baseline's lookup + MAC).
        let t = table(16);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(10, 8), &t).unwrap();
        let (_, stats) = run(&mut sim, &batch(10, 8, 0.0));
        assert_eq!(stats.flits_injected, 2);
        assert_eq!(stats.noc_cycles, 2);
        assert_eq!(stats.core_cycle_latency, 2);
        assert_eq!(stats.buffered, 0, "10 routers are single-cycle reachable");
    }

    #[test]
    fn eight_breakpoints_single_flit() {
        let t = table(8);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(8, 4), &t).unwrap();
        let (_, stats) = run(&mut sim, &batch(8, 4, 1.0));
        assert_eq!(stats.flits_injected, 1);
        assert_eq!(stats.noc_cycles, 1);
        assert_eq!(stats.core_cycle_latency, 2); // lookup + MAC
    }

    #[test]
    fn beyond_reach_goes_multicycle() {
        let t = table(16);
        let mut config = LineConfig::paper_default(25, 2);
        config.max_hops_per_cycle = 10;
        let mut sim = BroadcastSim::new(config, &t).unwrap();
        let inputs = batch(25, 2, 2.0);
        let (out, stats) = run(&mut sim, &inputs);
        // Each flit needs 3 cycles to cross 25 routers; second flit is
        // pipelined one cycle behind: 4 NoC cycles total.
        assert_eq!(stats.noc_cycles, 4);
        assert!(stats.buffered > 0);
        // Functional result still exact.
        for (&y, &x) in out.iter().zip(&inputs) {
            assert_eq!(y, t.eval(x));
        }
    }

    #[test]
    fn stats_hops_accounting() {
        let t = table(8);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(4, 2), &t).unwrap();
        let (_, stats) = run(&mut sim, &batch(4, 2, 0.5));
        assert_eq!(stats.hops, 4, "one flit × four routers");
        assert_eq!(stats.pairs_latched, 8);
        assert_eq!(stats.mac_ops, 8);
    }

    #[test]
    fn input_shape_validation() {
        // An input or output buffer that is not exactly `routers ×
        // neurons` slots is refused before anything runs: no router
        // counter moves.
        let t = table(16);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(4, 8), &t).unwrap();
        let before = counters([&sim]);
        let zero = Fixed::zero(Q4_12);
        for got in [(31, 32), (32, 31), (33, 33), (0, 0)] {
            let inputs = vec![zero; got.0];
            let mut outputs = vec![zero; got.1];
            let expect = Err(NocError::InputShape {
                routers: 4,
                neurons: 8,
                got,
            });
            assert_eq!(sim.run_flat(&inputs, &mut outputs), expect);
        }
        assert_eq!(counters([&sim]), before);
    }

    #[test]
    fn format_validation() {
        let t = table(16);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(1, 1), &t).unwrap();
        let wrong = [Fixed::zero(nova_fixed::Q6_10)];
        let mut out = [Fixed::zero(Q4_12)];
        assert_eq!(
            sim.run_flat(&wrong, &mut out),
            Err(NocError::FormatMismatch)
        );
    }

    #[test]
    fn reusable_across_batches() {
        let t = table(16);
        let mut sim = BroadcastSim::new(LineConfig::paper_default(2, 4), &t).unwrap();
        let (a, _) = run(&mut sim, &batch(2, 4, 0.1));
        let inputs = batch(2, 4, 0.9);
        let (b, _) = run(&mut sim, &inputs);
        assert_ne!(a, b);
        // Second batch computed correctly too (router 1, neuron 3).
        assert_eq!(b[7], t.eval(inputs[7]));
    }

    #[test]
    fn table_switch_between_batches() {
        // Operator switching mid-stream: exp for softmax, then gelu for
        // the FFN — zero-cost in NOVA, and both phases bit-exact.
        let exp = table(16);
        let gelu_pwl =
            fit::fit_activation(Activation::Gelu, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let gelu = QuantizedPwl::from_pwl(&gelu_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let mut sim = BroadcastSim::new(LineConfig::paper_default(4, 8), &exp).unwrap();
        let inputs = batch(4, 8, 0.4);
        // Router 2, neuron 3.
        let slot = 2 * 8 + 3;
        let (a, _) = run(&mut sim, &inputs);
        assert_eq!(a[slot], exp.eval(inputs[slot]));
        sim.set_table(&gelu).unwrap();
        let (b, _) = run(&mut sim, &inputs);
        assert_eq!(b[slot], gelu.eval(inputs[slot]));
        assert_ne!(a, b);
    }

    /// Every router's counters, line by line in router order.
    fn counters<'a>(lines: impl IntoIterator<Item = &'a BroadcastSim>) -> Vec<RouterStats> {
        lines
            .into_iter()
            .flat_map(|line| line.routers.iter().map(|r| r.stats))
            .collect()
    }

    #[test]
    fn both_paths_agree_across_table_switches() {
        // The simulation reads the router comparators that `set_table`
        // re-programs. After every switch (exp → GELU → exp) the plain
        // line and the segmented one serve the new table, and their
        // counters restart exactly as on a freshly built line. Where the
        // reach covers the line, the segmented NoC has one segment and
        // must be the plain line exactly: same batch stats and
        // per-router counters.
        let fitted = |a| {
            let pwl = fit::fit_activation(a, 16, fit::BreakpointStrategy::Uniform).unwrap();
            QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
        };
        let (exp, gelu) = (fitted(Activation::Exp), fitted(Activation::Gelu));
        for (reach, segments) in [(4, 3), (10, 1)] {
            let config = LineConfig {
                max_hops_per_cycle: reach,
                ..LineConfig::paper_default(10, 3)
            };
            let inputs = batch(10, 3, 0.4);
            let mut plain = BroadcastSim::new(config, &exp).unwrap();
            let mut seg = SegmentedNoc::new(config, &exp).unwrap();
            assert_eq!(seg.segment_count(), segments);
            for t in [&gelu, &exp] {
                plain.set_table(t).unwrap();
                seg.set_table(t).unwrap();
                let expect: Vec<Fixed> = inputs.iter().map(|&x| t.eval(x)).collect();
                let mut fresh = BroadcastSim::new(config, t).unwrap();
                let mut seg_fresh = SegmentedNoc::new(config, t).unwrap();
                for round in 0..2 {
                    let label = format!("reach {reach}, round {round}");
                    let (out, stats) = run(&mut plain, &inputs);
                    let mut seg_out = vec![Fixed::zero(Q4_12); inputs.len()];
                    let seg_stats = seg.run_flat(&inputs, &mut seg_out).unwrap();
                    assert_eq!(out, expect, "plain, {label}");
                    assert_eq!(seg_out, expect, "segmented, {label}");
                    let mut scratch = out.clone();
                    let fresh_stats = fresh.run_flat(&inputs, &mut scratch).unwrap();
                    let seg_fresh_stats = seg_fresh.run_flat(&inputs, &mut scratch).unwrap();
                    assert_eq!(stats, fresh_stats, "plain batch stats, {label}");
                    assert_eq!(seg_stats, seg_fresh_stats, "segmented batch stats, {label}");
                    assert_eq!(counters([&plain]), counters([&fresh]), "{label}");
                    assert_eq!(
                        counters(seg.segments()),
                        counters(seg_fresh.segments()),
                        "{label}"
                    );
                    if segments == 1 {
                        assert_eq!(seg_stats, stats, "one segment is the plain line, {label}");
                        assert_eq!(counters(seg.segments()), counters([&plain]));
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_link_ablation_still_exact() {
        let t = table(16);
        let mut config = LineConfig::paper_default(4, 4);
        config.link = LinkConfig::new(4, 2).unwrap();
        let mut sim = BroadcastSim::new(config, &t).unwrap();
        let inputs = batch(4, 4, 0.2);
        let (out, stats) = run(&mut sim, &inputs);
        assert_eq!(stats.flits_injected, 4); // 16 segments / 4 per flit
        assert_eq!(out[0], t.eval(inputs[0]));
    }
}
