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
use nova_fixed::Fixed;

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

/// The line simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastSim {
    config: LineConfig,
    schedule: BroadcastSchedule,
    table: QuantizedPwl,
    routers: Vec<Router>,
    /// In-flight flit scratch `(schedule index, next router)`, reused
    /// across batches so the steady-state broadcast loop never touches
    /// the allocator. Always empty between
    /// [`run_flat_reference`](Self::run_flat_reference) calls.
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

    /// Per-batch broadcast latency in core cycles, computed without
    /// running a batch. The broadcast is data-independent — one flit
    /// injects per NoC cycle and every flit advances `max_hops_per_cycle`
    /// routers per cycle — so the cycle count [`run_flat`](Self::run_flat)
    /// reports is a pure function of the schedule and geometry.
    #[must_use]
    pub fn nominal_core_cycle_latency(&self) -> u64 {
        let flits = self.schedule.flit_count() as u64;
        let reach = self.config.max_hops_per_cycle as u64;
        let span = (self.config.routers as u64).saturating_sub(1);
        // A flit spends `ceil(span/reach)` cycles on the line (the first
        // of which is its injection cycle), and the last flit injects on
        // NoC cycle `flits`.
        let travel = span.div_ceil(reach).max(1);
        let noc_cycles = flits + travel - 1;
        let multiplier = self.schedule.noc_clock_multiplier() as u64;
        noc_cycles.div_ceil(multiplier) + 1 // +1: the MAC stage
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
    /// approximated value lands in the same slot of `outputs`. It does
    /// *not* walk flits router by router:
    ///
    /// - **Data.** The wire is exact: a compiled schedule's `Word16`
    ///   round trip is lossless for every ≤ 16-bit format (wider formats
    ///   cannot compile a schedule at all), so the pairs every router
    ///   latches are bit-identical to the table — and the whole grid can
    ///   run through the table's batch kernel
    ///   ([`QuantizedPwl::eval_to_slice_unchecked`], a clamp plus one
    ///   output-table gather per word) in one call.
    /// - **Timing/activity.** The broadcast is data-independent (see
    ///   [`nominal_core_cycle_latency`](Self::nominal_core_cycle_latency)),
    ///   so every [`SimStats`] field and every router counter is a closed
    ///   form of the schedule and geometry.
    ///
    /// Equality of outputs, batch stats and per-router counters with the
    /// flit-level simulation is pinned against
    /// [`run_flat_reference`](Self::run_flat_reference) across geometries
    /// and batches.
    ///
    /// # Errors
    ///
    /// - [`NocError::InputShape`] if either buffer is not exactly
    ///   `routers × neurons_per_router` slots,
    /// - [`NocError::FormatMismatch`] if any word uses the wrong Q-format.
    pub fn run_flat(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
    ) -> Result<SimStats, NocError> {
        self.validate_flat(inputs, outputs.len())?;
        // Functional stage: one batch-kernel call over the whole grid.
        self.table.eval_to_slice_unchecked(inputs, outputs);

        // Timing/activity stage. Each flit occupies the line for
        // `1 + parks` cycles, parking at every reach boundary (positions
        // k·reach < routers, k ≥ 1 — there are ceil(routers/reach) − 1 of
        // them), and one flit injects per cycle, so the last flit retires
        // on cycle `flits + parks`. Every router snoops every flit; each
        // neuron latches exactly one pair and fires one MAC per batch.
        let flits = self.schedule.flit_count() as u64;
        let reach = self.config.max_hops_per_cycle as u64;
        let routers = self.config.routers as u64;
        let neurons = self.config.neurons_per_router as u64;
        let parks = routers.div_ceil(reach).saturating_sub(1);
        let mut stats = SimStats {
            noc_cycles: flits + parks,
            flits_injected: flits,
            hops: flits * routers,
            buffered: flits * parks,
            ..SimStats::default()
        };
        for (r, router) in self.routers.iter_mut().enumerate() {
            router.stats.flits_seen += flits;
            router.stats.pairs_latched += neurons;
            router.stats.mac_ops += neurons;
            if r > 0 && r as u64 % reach == 0 {
                router.stats.flits_buffered += flits;
            }
            // Batch stats sum the routers' *cumulative* latch/MAC
            // counters, exactly as the reference loop reports them.
            stats.pairs_latched += router.stats.pairs_latched;
            stats.mac_ops += router.stats.mac_ops;
        }
        let multiplier = self.schedule.noc_clock_multiplier() as u64;
        stats.core_cycle_latency = stats.noc_cycles.div_ceil(multiplier) + 1;
        Ok(stats)
    }

    /// The cycle-accurate flit-level simulation `run_flat` is an analytic
    /// fast path for: injects one schedule flit per NoC cycle, flies it
    /// through up to `reach` router bypasses, parks it at reach
    /// boundaries, snoops and latches per router, then fires every
    /// router's MAC stage. Kept as the executable specification — the
    /// equivalence test drives both paths over the same batches and
    /// demands identical outputs, batch stats and router counters — and
    /// for microbenching the fast path's speedup.
    ///
    /// # Errors
    ///
    /// Same contract as [`run_flat`](Self::run_flat).
    pub fn run_flat_reference(
        &mut self,
        inputs: &[Fixed],
        outputs: &mut [Fixed],
    ) -> Result<SimStats, NocError> {
        self.validate_flat(inputs, outputs.len())?;
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

    fn validate_flat(&self, inputs: &[Fixed], out_len: usize) -> Result<(), NocError> {
        let slots = self.config.routers * self.config.neurons_per_router;
        if inputs.len() != slots || out_len != slots {
            return Err(NocError::InputShape {
                routers: self.config.routers,
                neurons: self.config.neurons_per_router,
                got: (inputs.len(), out_len),
            });
        }
        let format = self.table.format();
        if inputs.iter().any(|x| x.format() != format) {
            return Err(NocError::FormatMismatch);
        }
        Ok(())
    }
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

    /// Runs one batch through the fast path into a fresh output buffer.
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
    fn nominal_latency_matches_simulation() {
        // The analytic per-batch latency must agree with the simulator
        // across flit counts, reaches and NoC clock multipliers.
        let cases = [
            (16, 10, 8, 10), // paper default: single-cycle reach
            (8, 8, 4, 10),   // one flit
            (16, 25, 2, 10), // beyond reach: multicycle traversal
            (16, 25, 2, 4),  // shorter reach still
            (16, 1, 4, 10),  // degenerate single-router line
        ];
        for (breakpoints, routers, neurons, reach) in cases {
            let t = table(breakpoints);
            let mut config = LineConfig::paper_default(routers, neurons);
            config.max_hops_per_cycle = reach;
            let mut sim = BroadcastSim::new(config, &t).unwrap();
            let nominal = sim.nominal_core_cycle_latency();
            let (_, stats) = run(&mut sim, &batch(routers, neurons, 0.5));
            assert_eq!(
                nominal, stats.core_cycle_latency,
                "{breakpoints} breakpoints, {routers} routers, reach {reach}"
            );
        }
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
    fn flat_fast_path_matches_cycle_accurate_reference() {
        // The analytic fast path must be indistinguishable from the
        // flit-level simulation: same outputs, same batch stats, same
        // per-router cumulative counters — across geometries (within
        // reach, beyond reach, boundary-aligned, degenerate single
        // router) and across consecutive batches (router counters
        // accumulate; the analytics must track that).
        let cases = [
            (16, 10, 8, 10), // paper default: single-cycle reach
            (8, 8, 4, 10),   // one flit
            (16, 25, 2, 10), // beyond reach
            (16, 25, 2, 4),  // many parks per flit
            (16, 20, 3, 5),  // router count a multiple of the reach
            (16, 21, 3, 10), // one router past two reach spans
            (16, 1, 4, 10),  // degenerate single-router line
        ];
        for (breakpoints, routers, neurons, reach) in cases {
            let t = table(breakpoints);
            let mut config = LineConfig::paper_default(routers, neurons);
            config.max_hops_per_cycle = reach;
            let mut fast = BroadcastSim::new(config, &t).unwrap();
            let mut reference = BroadcastSim::new(config, &t).unwrap();
            for round in 0..3 {
                let inputs = batch(routers, neurons, round as f64 * 0.3);
                let mut out_fast = vec![Fixed::zero(Q4_12); inputs.len()];
                let mut out_ref = out_fast.clone();
                let sf = fast.run_flat(&inputs, &mut out_fast).unwrap();
                let sr = reference.run_flat_reference(&inputs, &mut out_ref).unwrap();
                let label = format!(
                    "{breakpoints} breakpoints, {routers} routers, reach {reach}, round {round}"
                );
                assert_eq!(out_fast, out_ref, "outputs: {label}");
                assert_eq!(sf, sr, "batch stats: {label}");
                for (r, (a, b)) in fast.routers.iter().zip(&reference.routers).enumerate() {
                    assert_eq!(a.stats, b.stats, "router {r} counters: {label}");
                }
            }
        }
    }

    #[test]
    fn input_shape_validation() {
        // An input or output buffer that is not exactly `routers ×
        // neurons` slots is refused by both paths before anything runs:
        // no router counter moves.
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
            assert_eq!(sim.run_flat_reference(&inputs, &mut outputs), expect);
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
        // `run_flat` reads the table directly, while `run_flat_reference`
        // reads the router comparators that `set_table` re-programs. After
        // every switch (exp → GELU → exp) both paths must serve the new
        // table with identical outputs, batch stats and per-router
        // counters, on a plain line and on a segmented one; the counters
        // restart exactly as on a freshly built line. Where the reach
        // covers the line, the segmented NoC has one segment and must be
        // the plain line exactly: same batch stats, per-router counters
        // and nominal latency on both paths.
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
            let mut fast = BroadcastSim::new(config, &exp).unwrap();
            let mut reference = fast.clone();
            let mut seg_fast = SegmentedNoc::new(config, &exp).unwrap();
            let mut seg_reference = seg_fast.clone();
            assert_eq!(seg_fast.segment_count(), segments);
            for t in [&gelu, &exp] {
                fast.set_table(t).unwrap();
                reference.set_table(t).unwrap();
                seg_fast.set_table(t).unwrap();
                seg_reference.set_table(t).unwrap();
                let expect: Vec<Fixed> = inputs.iter().map(|&x| t.eval(x)).collect();
                let mut fresh = BroadcastSim::new(config, t).unwrap();
                let mut seg_fresh = SegmentedNoc::new(config, t).unwrap();
                for round in 0..2 {
                    let label = format!("reach {reach}, round {round}");
                    let mut outs: [Vec<Fixed>; 4] =
                        std::array::from_fn(|_| vec![Fixed::zero(Q4_12); inputs.len()]);
                    let [a, b, c, d] = &mut outs;
                    let sf = fast.run_flat(&inputs, a).unwrap();
                    let sr = reference.run_flat_reference(&inputs, b).unwrap();
                    let seg_sf = seg_fast.run_flat(&inputs, c).unwrap();
                    let seg_sr = seg_reference.run_flat_reference(&inputs, d).unwrap();
                    for (path, out) in outs.iter().enumerate() {
                        assert_eq!(out, &expect, "path {path}, {label}");
                    }
                    assert_eq!(sf, sr, "plain batch stats, {label}");
                    assert_eq!(seg_sf, seg_sr, "segmented batch stats, {label}");
                    assert_eq!(counters([&fast]), counters([&reference]));
                    assert_eq!(
                        counters(seg_fast.segments()),
                        counters(seg_reference.segments())
                    );
                    let mut scratch = outs[0].clone();
                    fresh.run_flat(&inputs, &mut scratch).unwrap();
                    seg_fresh.run_flat(&inputs, &mut scratch).unwrap();
                    assert_eq!(counters([&fast]), counters([&fresh]), "{label}");
                    assert_eq!(
                        counters(seg_fast.segments()),
                        counters(seg_fresh.segments())
                    );
                    if segments == 1 {
                        assert_eq!(seg_sf, sf, "one segment is the plain line, {label}");
                        assert_eq!(seg_sr, sr, "one segment is the plain line, {label}");
                        assert_eq!(counters(seg_fast.segments()), counters([&fast]));
                        assert_eq!(counters(seg_reference.segments()), counters([&reference]));
                        assert_eq!(
                            seg_fast.nominal_core_cycle_latency(),
                            fast.nominal_core_cycle_latency(),
                            "{label}"
                        );
                        assert_eq!(sf.core_cycle_latency, fast.nominal_core_cycle_latency());
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
