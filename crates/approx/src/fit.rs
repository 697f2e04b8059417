//! Breakpoint placement strategies and one-call activation fitting.
//!
//! The paper (following NN-LUT) learns breakpoints with an MLP; this module
//! also provides direct placement baselines so the design choice can be
//! ablated: uniform spacing, curvature-weighted quantile spacing, and a
//! greedy error-driven refinement.

use nova_fixed::{QFormat, Rounding};

use crate::{Activation, ApproxError, PiecewiseLinear, QuantizedPwl};

/// How interior breakpoints are placed before the per-segment least-squares
/// fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum BreakpointStrategy {
    /// Evenly spaced over the domain. Cheapest; the hardware walkthroughs
    /// (Fig 2/Fig 4) implicitly assume this.
    #[default]
    Uniform,
    /// Quantiles of the function's absolute curvature: more segments where
    /// the function bends. A strong non-learned baseline.
    CurvatureQuantile,
    /// Start uniform, then repeatedly move a breakpoint into the segment
    /// with the largest max-error. Approaches minimax placement.
    GreedyRefine,
}

/// Number of evaluation samples used per segment during fitting.
const FIT_SAMPLES: usize = 64;
/// Dense grid used for curvature estimation and greedy error scans.
const SCAN_SAMPLES: usize = 4096;

/// Places `segments - 1` interior breakpoints for `f` on `domain` with the
/// chosen strategy.
///
/// # Errors
///
/// Returns [`ApproxError::TooFewSegments`] when `segments == 0` and
/// [`ApproxError::BadDomain`] for an empty domain.
pub fn place_breakpoints(
    f: &dyn Fn(f64) -> f64,
    domain: (f64, f64),
    segments: usize,
    strategy: BreakpointStrategy,
) -> Result<Vec<f64>, ApproxError> {
    if segments == 0 {
        return Err(ApproxError::TooFewSegments);
    }
    let (lo, hi) = domain;
    if !(lo < hi) {
        return Err(ApproxError::BadDomain { lo, hi });
    }
    if segments == 1 {
        return Ok(Vec::new());
    }
    match strategy {
        BreakpointStrategy::Uniform => Ok(uniform(domain, segments)),
        BreakpointStrategy::CurvatureQuantile => Ok(curvature_quantile(f, domain, segments)),
        BreakpointStrategy::GreedyRefine => greedy_refine(f, domain, segments),
    }
}

/// Fits a PWL approximation of `f` with `segments` slope/bias pairs.
///
/// # Errors
///
/// Propagates placement and construction errors.
pub fn fit_function(
    f: &dyn Fn(f64) -> f64,
    domain: (f64, f64),
    segments: usize,
    strategy: BreakpointStrategy,
) -> Result<PiecewiseLinear, ApproxError> {
    let bps = place_breakpoints(f, domain, segments, strategy)?;
    PiecewiseLinear::fit(f, domain, &bps, FIT_SAMPLES)
}

/// Fits a named activation on its default hardware domain.
///
/// # Errors
///
/// Propagates placement and construction errors.
///
/// # Example
///
/// ```
/// use nova_approx::fit::{fit_activation, BreakpointStrategy};
/// use nova_approx::Activation;
///
/// # fn main() -> Result<(), nova_approx::ApproxError> {
/// let pwl = fit_activation(Activation::Tanh, 16, BreakpointStrategy::GreedyRefine)?;
/// assert_eq!(pwl.segments(), 16);
/// # Ok(())
/// # }
/// ```
pub fn fit_activation(
    activation: Activation,
    segments: usize,
    strategy: BreakpointStrategy,
) -> Result<PiecewiseLinear, ApproxError> {
    fit_function(
        &move |x| activation.eval(x),
        activation.domain(),
        segments,
        strategy,
    )
}

/// Fits a named activation and quantizes it into hardware tables in one
/// call — the fit → [`QuantizedPwl::from_pwl`] two-step every serving
/// setup, bench and test otherwise repeats.
///
/// # Errors
///
/// Propagates placement, construction and quantization errors.
///
/// # Example
///
/// ```
/// use nova_approx::fit::{fit_quantized, BreakpointStrategy};
/// use nova_approx::Activation;
/// use nova_fixed::{Rounding, Q4_12};
///
/// # fn main() -> Result<(), nova_approx::ApproxError> {
/// let q = fit_quantized(
///     Activation::Gelu,
///     16,
///     BreakpointStrategy::Uniform,
///     Q4_12,
///     Rounding::NearestEven,
/// )?;
/// assert!(q.uses_output_table());
/// # Ok(())
/// # }
/// ```
pub fn fit_quantized(
    activation: Activation,
    segments: usize,
    strategy: BreakpointStrategy,
    format: QFormat,
    rounding: Rounding,
) -> Result<QuantizedPwl, ApproxError> {
    let pwl = fit_activation(activation, segments, strategy)?;
    QuantizedPwl::from_pwl(&pwl, format, rounding)
}

fn uniform(domain: (f64, f64), segments: usize) -> Vec<f64> {
    let (lo, hi) = domain;
    (1..segments)
        .map(|i| lo + (hi - lo) * i as f64 / segments as f64)
        .collect()
}

/// Places breakpoints at equal-mass quantiles of |f''| (estimated by second
/// differences), so curvy regions get more segments.
fn curvature_quantile(f: &dyn Fn(f64) -> f64, domain: (f64, f64), segments: usize) -> Vec<f64> {
    let (lo, hi) = domain;
    let n = SCAN_SAMPLES;
    let step = (hi - lo) / (n - 1) as f64;
    // Cumulative curvature mass, with a small floor so flat functions
    // degrade gracefully to uniform placement.
    let mut mass = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 0..n {
        let x = lo + step * k as f64;
        let c = if k == 0 || k == n - 1 {
            0.0
        } else {
            (f(x + step) - 2.0 * f(x) + f(x - step)).abs() / (step * step)
        };
        acc += c.sqrt() + 1e-9; // sqrt-mass is the L2-optimal density weight
        mass.push(acc);
    }
    let total = acc;
    let mut bps = Vec::with_capacity(segments - 1);
    let mut k = 0usize;
    for i in 1..segments {
        let target = total * i as f64 / segments as f64;
        while k + 1 < n && mass[k] < target {
            k += 1;
        }
        let x = lo + step * k as f64;
        // Keep strict monotonicity even if the mass is locally flat.
        let x = match bps.last() {
            Some(&prev) if x <= prev => prev + step,
            _ => x,
        };
        if x < hi {
            bps.push(x);
        }
    }
    bps.dedup_by(|a, b| *a <= *b);
    bps
}

/// Uniform start, then iteratively rebalance: find the segment with the
/// largest max-error and split it, removing the boundary of the pair of
/// adjacent segments whose merged error is smallest.
fn greedy_refine(
    f: &dyn Fn(f64) -> f64,
    domain: (f64, f64),
    segments: usize,
) -> Result<Vec<f64>, ApproxError> {
    let mut bps = uniform(domain, segments);
    let rounds = 4 * segments;
    for _ in 0..rounds {
        let pwl = PiecewiseLinear::fit(f, domain, &bps, FIT_SAMPLES)?;
        let edges = pwl.edges();
        // Max error per segment over a dense scan.
        let mut seg_err = vec![0.0f64; pwl.segments()];
        let (lo, hi) = domain;
        let step = (hi - lo) / (SCAN_SAMPLES - 1) as f64;
        for k in 0..SCAN_SAMPLES {
            let x = lo + step * k as f64;
            let i = pwl.segment_index(x);
            seg_err[i] = seg_err[i].max((pwl.eval(x) - f(x)).abs());
        }
        // Worst segment: split in the middle.
        let (worst, _) = seg_err
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one segment");
        // Cheapest merge: adjacent pair with the smallest combined error,
        // excluding the worst segment itself.
        let mut best_merge = None;
        let mut best_cost = f64::INFINITY;
        for i in 0..seg_err.len() - 1 {
            if i == worst || i + 1 == worst {
                continue;
            }
            let cost = seg_err[i].max(seg_err[i + 1]);
            if cost < best_cost {
                best_cost = cost;
                best_merge = Some(i);
            }
        }
        let Some(merge) = best_merge else { break };
        // The worst segment's max error must exceed the merged error for the
        // move to help; otherwise we are at a fixed point.
        if seg_err[worst] <= best_cost * 1.05 {
            break;
        }
        // Apply: remove boundary `merge` (between segment merge and merge+1),
        // insert midpoint of worst segment.
        let split_at = (edges[worst] + edges[worst + 1]) / 2.0;
        let mut new_bps: Vec<f64> = Vec::with_capacity(bps.len());
        for (j, &b) in bps.iter().enumerate() {
            if j != merge {
                new_bps.push(b);
            }
        }
        new_bps.push(split_at);
        new_bps.sort_by(f64::total_cmp);
        new_bps.dedup();
        if new_bps.len() != segments - 1 {
            break; // degenerate split (hit an existing boundary); stop
        }
        bps = new_bps;
    }
    Ok(bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn max_err(f: &dyn Fn(f64) -> f64, pwl: &PiecewiseLinear) -> f64 {
        metrics::compare(f, &|x| pwl.eval(x), pwl.domain(), 2000).max_abs
    }

    #[test]
    fn uniform_spacing_counts() {
        let bps = place_breakpoints(&|x| x, (0.0, 1.0), 8, BreakpointStrategy::Uniform).unwrap();
        assert_eq!(bps.len(), 7);
        assert!((bps[0] - 0.125).abs() < 1e-12);
        assert!((bps[6] - 0.875).abs() < 1e-12);
    }

    #[test]
    fn single_segment_has_no_breakpoints() {
        for s in [
            BreakpointStrategy::Uniform,
            BreakpointStrategy::CurvatureQuantile,
            BreakpointStrategy::GreedyRefine,
        ] {
            let bps = place_breakpoints(&|x| x * x, (0.0, 1.0), 1, s).unwrap();
            assert!(bps.is_empty());
        }
    }

    #[test]
    fn zero_segments_rejected() {
        assert!(matches!(
            place_breakpoints(&|x| x, (0.0, 1.0), 0, BreakpointStrategy::Uniform),
            Err(ApproxError::TooFewSegments)
        ));
    }

    #[test]
    fn curvature_beats_uniform_on_exp() {
        let a = Activation::Exp;
        let f = move |x: f64| a.eval(x);
        let uni = fit_activation(a, 8, BreakpointStrategy::Uniform).unwrap();
        let curv = fit_activation(a, 8, BreakpointStrategy::CurvatureQuantile).unwrap();
        assert!(max_err(&f, &curv) < max_err(&f, &uni));
    }

    #[test]
    fn greedy_no_worse_than_uniform() {
        for a in [Activation::Gelu, Activation::Tanh, Activation::Exp] {
            let f = move |x: f64| a.eval(x);
            let uni = fit_activation(a, 16, BreakpointStrategy::Uniform).unwrap();
            let greedy = fit_activation(a, 16, BreakpointStrategy::GreedyRefine).unwrap();
            assert!(
                max_err(&f, &greedy) <= max_err(&f, &uni) * 1.01,
                "{a}: greedy must not regress"
            );
        }
    }

    #[test]
    fn sixteen_breakpoints_hit_paper_accuracy() {
        // The paper reports negligible accuracy loss at 16 breakpoints; the
        // function-level counterpart is max error well under 1% of range.
        for a in [
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Gelu,
            Activation::Exp,
        ] {
            let f = move |x: f64| a.eval(x);
            let pwl = fit_activation(a, 16, BreakpointStrategy::GreedyRefine).unwrap();
            let e = max_err(&f, &pwl);
            assert!(e < 0.02, "{a}: 16-segment max error {e} too large");
        }
    }

    #[test]
    fn strategies_produce_sorted_unique_breakpoints() {
        for s in [
            BreakpointStrategy::Uniform,
            BreakpointStrategy::CurvatureQuantile,
            BreakpointStrategy::GreedyRefine,
        ] {
            let bps = place_breakpoints(&|x| (5.0 * x).sin(), (-2.0, 2.0), 16, s).unwrap();
            for w in bps.windows(2) {
                assert!(w[0] < w[1], "{s:?}: breakpoints must strictly increase");
            }
        }
    }
}
