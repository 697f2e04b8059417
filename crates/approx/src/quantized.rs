use std::fmt;
use std::sync::Arc;

use nova_fixed::{Fixed, FixedError, QFormat, Rounding};

use crate::{ApproxError, PiecewiseLinear};

/// One broadcast/LUT entry: a quantized `(slope, bias)` pair.
///
/// On the NOVA NoC each pair occupies two 16-bit words of the 257-bit flit;
/// in the LUT baselines each pair is 4 bytes of a 64-byte bank (16 pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlopeBias {
    /// Quantized segment slope `a_i`.
    pub slope: Fixed,
    /// Quantized segment bias `b_i`.
    pub bias: Fixed,
}

/// The hardware form of a [`PiecewiseLinear`] function: Q-format breakpoint
/// thresholds for the comparator front-end plus Q-format `(slope, bias)`
/// pairs for the MAC back-end.
///
/// Evaluation is bit-exact with the 16-bit datapath: the comparators
/// produce a lookup address, the addressed pair feeds a fused
/// multiply-add, and one rounding step produces the output word.
///
/// # Storage layout and the batch kernel
///
/// Every table is at most 16 bits wide, the paper's word: a 257-bit flit
/// is sixteen 16-bit words plus a tag bit, so
/// [`from_pwl`](Self::from_pwl) and [`from_raw_parts`](Self::from_raw_parts)
/// refuse any wider format. The architectural view is
/// `pairs: Vec<SlopeBias>`, in exactly the shape the NoC flit packer, the
/// LUT banks and the warm-start snapshot codec consume. The evaluation
/// view is a materialized output table: entry `c − lo` holds the final
/// output word for the clamped raw input `c`. The batch kernel
/// ([`eval_to_slice_unchecked`](Self::eval_to_slice_unchecked)) is then a
/// clamp plus one `i16` gather per word — the paper's one 16-bit lookup,
/// with the MAC paid once per raw word at construction. A full-range
/// 16-bit table is 65,536 entries, 128 KiB. Everything is built once and
/// never changes.
///
/// The scalar [`eval`](Self::eval) keeps the architectural datapath
/// (comparator address → pair → fused MAC), so it stays an independent
/// reference: the full-raw-word sweep test pins the batch kernel to it
/// for every raw word, and the serving canary compares the two.
///
/// Measured by perfbench's traced lookup-mix run (Q4.12 GELU and exp,
/// 2-vCPU Xeon, medians of alternating 40 s runs against the retired
/// two-pass address-table kernel): `vector_unit.lookup_ns_per_query`
/// fell from 5.3 to 3.0 ns (6 pairs), and `cache.fit_ms`, which includes
/// the table build, from 0.073 to 0.056 ms (3 pairs).
///
/// # Sharing
///
/// A fitted table is immutable, and all of its storage sits behind one
/// [`Arc`]: `clone()` bumps a reference count and copies nothing, so every
/// clone reads the very same pairs and output table. Re-programming
/// a unit — a NoC line and its comparators, a LUT or SDP core — is
/// therefore a pointer copy, not a copy of up to 128 KiB.
///
/// # Example
///
/// ```
/// use nova_approx::{Activation, fit, QuantizedPwl};
/// use nova_fixed::{Fixed, Q4_12, Rounding};
///
/// # fn main() -> Result<(), nova_approx::ApproxError> {
/// let pwl = fit::fit_activation(Activation::Sigmoid, 16, fit::BreakpointStrategy::Uniform)?;
/// let q = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven)?;
/// let x = Fixed::from_f64(1.0, Q4_12, Rounding::NearestEven);
/// let y = q.eval(x);
/// assert!((y.to_f64() - 0.731).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct QuantizedPwl {
    body: Arc<Body>,
}

/// The shared, immutable storage of a [`QuantizedPwl`].
#[derive(PartialEq)]
struct Body {
    format: QFormat,
    rounding: Rounding,
    /// Interior thresholds, strictly increasing (comparator inputs).
    breakpoints: Vec<Fixed>,
    /// One pair per segment (`breakpoints.len() + 1` entries): what the
    /// NoC broadcasts and the LUT banks store.
    pairs: Vec<SlopeBias>,
    /// Clamp bounds in the fixed format.
    lo: Fixed,
    hi: Fixed,
    /// Materialized outputs: entry `c - lo.raw()` is the output word for
    /// the clamped raw input `c`.
    outputs: Vec<i16>,
}

impl fmt::Debug for QuantizedPwl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &*self.body;
        f.debug_struct("QuantizedPwl")
            .field("format", &b.format)
            .field("rounding", &b.rounding)
            .field("breakpoints", &b.breakpoints)
            .field("pairs", &b.pairs)
            .field("lo", &b.lo)
            .field("hi", &b.hi)
            .field("output_entries", &b.outputs.len())
            .finish()
    }
}

impl QuantizedPwl {
    /// Quantizes a real-valued PWL function into hardware tables.
    ///
    /// Slopes and biases are quantized independently with `rounding`;
    /// breakpoints are quantized and deduplicated (two breakpoints closer
    /// than one resolution step collapse, merging their segments — this is
    /// what the RTL's comparator thresholds would do too).
    ///
    /// # Errors
    ///
    /// Returns [`ApproxError::BadBreakpoints`] if after quantization no
    /// valid strictly-increasing threshold list remains but segments
    /// disagree, a fixed-point error if the domain does not fit the
    /// format, and [`FixedError::InvalidFormat`] (wrapped in
    /// [`ApproxError::Fixed`]) for a format wider than 16 bits.
    pub fn from_pwl(
        pwl: &PiecewiseLinear,
        format: QFormat,
        rounding: Rounding,
    ) -> Result<Self, ApproxError> {
        let (dlo, dhi) = pwl.domain();
        let lo = Fixed::from_f64(dlo, format, rounding);
        let hi = Fixed::from_f64(dhi, format, rounding);

        let mut breakpoints: Vec<Fixed> = Vec::with_capacity(pwl.breakpoints().len());
        let mut pairs: Vec<SlopeBias> = Vec::with_capacity(pwl.segments());
        pairs.push(SlopeBias {
            slope: Fixed::from_f64(pwl.slopes()[0], format, rounding),
            bias: Fixed::from_f64(pwl.biases()[0], format, rounding),
        });
        for (i, &d) in pwl.breakpoints().iter().enumerate() {
            let qd = Fixed::from_f64(d, format, rounding);
            let pair = SlopeBias {
                slope: Fixed::from_f64(pwl.slopes()[i + 1], format, rounding),
                bias: Fixed::from_f64(pwl.biases()[i + 1], format, rounding),
            };
            // Collapse breakpoints that quantize onto an existing threshold
            // (or the domain edge): the later segment wins, as in RTL where
            // equal thresholds make the lower comparator redundant.
            let degenerate = breakpoints.last().is_some_and(|&p| qd.raw() <= p.raw())
                || qd.raw() <= lo.raw()
                || qd.raw() >= hi.raw();
            if degenerate {
                *pairs.last_mut().expect("at least one segment") = pair;
            } else {
                breakpoints.push(qd);
                pairs.push(pair);
            }
        }
        Self::new(format, rounding, lo, hi, breakpoints, pairs)
    }

    /// Wraps validated thresholds and pairs into a shared table, building
    /// the output table once. The one width check of the crate's tables:
    /// a format wider than the paper's 16-bit word is refused here, so
    /// every table has an output table.
    fn new(
        format: QFormat,
        rounding: Rounding,
        lo: Fixed,
        hi: Fixed,
        breakpoints: Vec<Fixed>,
        pairs: Vec<SlopeBias>,
    ) -> Result<Self, ApproxError> {
        if format.total_bits() > 16 {
            return Err(FixedError::InvalidFormat {
                total_bits: format.total_bits(),
                frac_bits: format.frac_bits(),
            }
            .into());
        }
        let body = Body {
            format,
            rounding,
            outputs: build_outputs(format, rounding, lo, hi, &breakpoints, &pairs),
            breakpoints,
            pairs,
            lo,
            hi,
        };
        Ok(Self {
            body: Arc::new(body),
        })
    }

    /// Rebuilds a table from its raw serialized words — the warm-start
    /// snapshot codec: raw clamp bounds, raw breakpoints, and the raw
    /// slope and bias words of [`pairs`](Self::pairs) in segment order.
    /// The pairs and the output table are reconstructed, so a restored
    /// table is indistinguishable from — and compares equal to — the
    /// [`from_pwl`](Self::from_pwl) original it was snapshotted from.
    ///
    /// # Errors
    ///
    /// Returns [`ApproxError::TableShape`] if the pair arrays disagree or
    /// don't hold exactly one more entry than the breakpoint list,
    /// [`ApproxError::BadDomain`] for an empty or inverted clamp range,
    /// [`ApproxError::BadBreakpoints`] unless the thresholds are strictly
    /// increasing and strictly inside the clamp bounds, a fixed-point
    /// error if any raw word does not fit `format`, and
    /// [`FixedError::InvalidFormat`] (wrapped in [`ApproxError::Fixed`])
    /// for a format wider than 16 bits.
    pub fn from_raw_parts(
        format: QFormat,
        rounding: Rounding,
        lo_raw: i64,
        hi_raw: i64,
        breakpoints_raw: &[i64],
        slopes_raw: &[i64],
        biases_raw: &[i64],
    ) -> Result<Self, ApproxError> {
        if slopes_raw.len() != biases_raw.len() || slopes_raw.len() != breakpoints_raw.len() + 1 {
            return Err(ApproxError::TableShape {
                slopes: slopes_raw.len(),
                biases: biases_raw.len(),
                breakpoints: breakpoints_raw.len(),
            });
        }
        let lo = Fixed::from_raw(lo_raw, format)?;
        let hi = Fixed::from_raw(hi_raw, format)?;
        if lo_raw >= hi_raw {
            return Err(ApproxError::BadDomain {
                lo: lo.to_f64(),
                hi: hi.to_f64(),
            });
        }
        let mut breakpoints: Vec<Fixed> = Vec::with_capacity(breakpoints_raw.len());
        for &raw in breakpoints_raw {
            let increasing = breakpoints.last().is_none_or(|p| p.raw() < raw);
            if !increasing || raw <= lo_raw || raw >= hi_raw {
                return Err(ApproxError::BadBreakpoints);
            }
            breakpoints.push(Fixed::from_raw(raw, format)?);
        }
        let mut pairs: Vec<SlopeBias> = Vec::with_capacity(slopes_raw.len());
        for (&s, &b) in slopes_raw.iter().zip(biases_raw) {
            pairs.push(SlopeBias {
                slope: Fixed::from_raw(s, format)?,
                bias: Fixed::from_raw(b, format)?,
            });
        }
        Self::new(format, rounding, lo, hi, breakpoints, pairs)
    }

    /// The word format of the tables.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.body.format
    }

    /// The rounding mode used for quantization and the MAC output.
    #[must_use]
    pub fn rounding(&self) -> Rounding {
        self.body.rounding
    }

    /// Number of segments (= slope/bias pairs after quantization).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.body.pairs.len()
    }

    /// The quantized `(slope, bias)` pairs, one per segment. These are the
    /// words the NOVA NoC broadcasts (8 per flit).
    #[must_use]
    pub fn pairs(&self) -> &[SlopeBias] {
        &self.body.pairs
    }

    /// The quantized interior thresholds the comparators hold.
    #[must_use]
    pub fn breakpoints(&self) -> &[Fixed] {
        &self.body.breakpoints
    }

    /// Clamp bounds in the fixed format.
    #[must_use]
    pub fn clamp_bounds(&self) -> (Fixed, Fixed) {
        (self.body.lo, self.body.hi)
    }

    /// Clamps an input word to the function domain (the saturating
    /// comparator front-end).
    #[must_use]
    pub fn clamp(&self, x: Fixed) -> Fixed {
        if x.raw() < self.body.lo.raw() {
            self.body.lo
        } else if x.raw() > self.body.hi.raw() {
            self.body.hi
        } else {
            x
        }
    }

    /// The lookup address the comparator tree generates for input `x`:
    /// the number of thresholds `<= x` after clamping.
    ///
    /// For 16 segments this is the 4-bit address whose LSB is matched
    /// against the NoC flit's tag bit and whose upper bits select the pair
    /// within the flit.
    #[must_use]
    pub fn lookup_address(&self, x: Fixed) -> usize {
        self.lookup_address_clamped(self.clamp(x))
    }

    /// The lookup address for a word that is *already clamped* to the
    /// function domain: the comparator tree as a binary search over the
    /// thresholds, without re-clamping.
    ///
    /// # Panics
    ///
    /// May panic (or return an arbitrary in-range address) if `xc` is not
    /// the output of [`clamp`](Self::clamp) — callers own the clamp.
    #[must_use]
    pub fn lookup_address_clamped(&self, xc: Fixed) -> usize {
        debug_assert!(
            xc.raw() >= self.body.lo.raw() && xc.raw() <= self.body.hi.raw(),
            "lookup_address_clamped needs a clamped word"
        );
        self.body
            .breakpoints
            .partition_point(|d| d.raw() <= xc.raw())
    }

    /// Full datapath evaluation: clamp → comparator address → pair select →
    /// fused MAC with a single output rounding. The clamp happens exactly
    /// once — the address lookup consumes the already-saturated word, as
    /// the comparator front-end does in hardware. This path never reads
    /// the output table, so it is the reference the batch kernel is
    /// checked against.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the table's format (a wiring bug, not a data
    /// condition — hardware cannot mix word formats).
    #[must_use]
    pub fn eval(&self, x: Fixed) -> Fixed {
        assert_eq!(
            x.format(),
            self.format(),
            "input word format must match table format"
        );
        let xc = self.clamp(x);
        let pair = self.body.pairs[self.lookup_address_clamped(xc)];
        pair.slope
            .mul_add(xc, pair.bias, self.rounding())
            .expect("formats verified equal above")
    }

    /// Evaluates a whole vector through the batch kernel into a
    /// caller-owned buffer. `out` is cleared first, so steady-state
    /// callers (serving hot loops that evaluate one batch after another)
    /// reuse one allocation across calls.
    ///
    /// The format check runs as one pass over the batch instead of per
    /// element; `out` is then written in one pass of the batch kernel
    /// (see [`eval_to_slice_unchecked`](Self::eval_to_slice_unchecked)).
    ///
    /// # Panics
    ///
    /// Panics if any word is not in the table's format (checked up front,
    /// before any evaluation).
    pub fn eval_into(&self, xs: &[Fixed], out: &mut Vec<Fixed>) {
        let format = self.format();
        assert!(
            xs.iter().all(|x| x.format() == format),
            "input word format must match table format"
        );
        out.clear();
        out.extend(xs.iter().map(self.kernel()));
    }

    /// The batch kernel over an output slice of equal length, in place:
    /// what the serving vector unit and the `nova-lut` models run.
    ///
    /// "Unchecked" refers to the *format* contract only — no `unsafe` is
    /// involved: callers must already have verified that every word of
    /// `xs` is in the table's format and that `out.len() == xs.len()`
    /// (both debug-asserted). [`eval_into`](Self::eval_into) is the
    /// checked form.
    ///
    /// Per word: a branch-free `max`/`min` raw clamp, then one gather
    /// from the output table. Bit-identity with the scalar
    /// [`eval`](Self::eval) datapath is pinned by the full-raw-word sweep
    /// test.
    pub fn eval_to_slice_unchecked(&self, xs: &[Fixed], out: &mut [Fixed]) {
        debug_assert_eq!(xs.len(), out.len(), "caller owns the length check");
        debug_assert!(
            xs.iter().all(|x| x.format() == self.format()),
            "caller owns the format check"
        );
        let kernel = self.kernel();
        for (x, slot) in xs.iter().zip(out) {
            *slot = kernel(x);
        }
    }

    /// One word of the batch kernel, with the table state hoisted. The
    /// `.min(last)` index clamp keeps the bounds check out of the loop
    /// without `unsafe`; it never binds, because the table spans exactly
    /// `lo..=hi`.
    #[inline]
    fn kernel(&self) -> impl Fn(&Fixed) -> Fixed + '_ {
        let body = &*self.body;
        let (format, lo, hi) = (body.format, body.lo.raw(), body.hi.raw());
        let outputs = body.outputs.as_slice();
        let last = outputs.len() - 1;
        move |x| {
            let c = x.raw().max(lo).min(hi);
            let word = outputs[((c - lo) as usize).min(last)];
            Fixed::from_raw_saturating(i64::from(word), format)
        }
    }

    /// Convenience: quantize an `f64`, evaluate, return `f64`.
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        self.eval(Fixed::from_f64(x, self.format(), self.rounding()))
            .to_f64()
    }
}

/// Materializes the output table over the clamped raw span `[lo, hi]`
/// (see [`Body::outputs`]) for a format of at most 16 bits.
///
/// One sweep per segment: each inner loop runs one `(slope, bias)` fused
/// MAC over a run of consecutive raw words, which LLVM vectorizes. The
/// MAC is exact in `i32`. With words of at most 16 bits and at most 15
/// fraction bits, `s·c` reaches magnitude `2^30` only as `+2^30`
/// (`s = c = −2^15`) and `b << frac` only as `−2^30` (`b = −2^15`), so
/// `|s·c + (b << frac)| ≤ 2^30 + 2^30 − 2^15 = 2^31 − 2^15 < 2^31`.
fn build_outputs(
    format: QFormat,
    rounding: Rounding,
    lo: Fixed,
    hi: Fixed,
    breakpoints: &[Fixed],
    pairs: &[SlopeBias],
) -> Vec<i16> {
    let lo = lo.raw() as i32;
    let mut outputs = vec![0i16; (hi.raw() as i32 - lo) as usize + 1];
    let mut runs = breakpoints.iter().map(|d| (d.raw() as i32 - lo) as usize);
    let mut start = 0;
    for pair in pairs {
        let end = runs.next().unwrap_or(outputs.len());
        let run = &mut outputs[start..end];
        let (s, b) = (pair.slope.raw() as i32, pair.bias.raw() as i32);
        let first = lo + start as i32;
        // Dispatch once per run so `rounding` is a constant in each
        // inlined copy and the loop body is branch-free.
        match rounding {
            Rounding::NearestEven => mac_run(run, first, s, b, format, Rounding::NearestEven),
            Rounding::NearestAway => mac_run(run, first, s, b, format, Rounding::NearestAway),
            Rounding::Floor => mac_run(run, first, s, b, format, Rounding::Floor),
        }
        start = end;
    }
    outputs
}

/// Fills `run[i]` with the output word of raw input `c = first + i`:
/// `s·c + (b << frac)`, rounded once and saturated — the `i32` twin of
/// [`Fixed::mul_add_raw`] for words of at most 16 bits.
#[inline(always)]
fn mac_run(run: &mut [i16], first: i32, s: i32, b: i32, format: QFormat, rounding: Rounding) {
    let frac = format.frac_bits();
    let (min, max) = (format.min_raw() as i16, format.max_raw() as i16);
    let mask = (1i32 << frac) - 1;
    // Never reached by `rem` when `frac == 0`, so nothing rounds there.
    let half = 1i32 << frac.saturating_sub(1);
    let b = b << frac;
    for (slot, c) in run.iter_mut().zip(first..) {
        let wide = s * c + b;
        let floor = wide >> frac;
        let rem = wide & mask;
        let bump = match rounding {
            Rounding::Floor => false,
            Rounding::NearestAway => rem > half || (rem == half && wide >= 0),
            Rounding::NearestEven => rem > half || (rem == half && floor & 1 == 1),
        };
        // Saturating to `i16` first, then to the format, vectorizes as
        // packs plus `i16` min/max instead of `i32` compare-and-blends.
        let word = (floor + i32::from(bump)).clamp(i16::MIN.into(), i16::MAX.into()) as i16;
        *slot = word.clamp(min, max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit, Activation, PiecewiseLinear};
    use nova_fixed::{Q4_12, Q6_10, Q8_8};

    fn sigmoid16() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Sigmoid, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    /// The raw words a snapshot stores: breakpoints, slopes and biases.
    fn raw_words(q: &QuantizedPwl) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
        let bp_raw = q.breakpoints().iter().map(|b| b.raw()).collect();
        let (slopes, biases) = q
            .pairs()
            .iter()
            .map(|p| (p.slope.raw(), p.bias.raw()))
            .unzip();
        (bp_raw, slopes, biases)
    }

    #[test]
    fn sixteen_segments_survive_quantization() {
        let q = sigmoid16();
        assert_eq!(q.segments(), 16);
        assert_eq!(q.breakpoints().len(), 15);
    }

    #[test]
    fn from_raw_parts_round_trips_a_fitted_table() {
        let q = sigmoid16();
        let (lo, hi) = q.clamp_bounds();
        let (bp_raw, slopes, biases) = raw_words(&q);
        let r = QuantizedPwl::from_raw_parts(
            q.format(),
            q.rounding(),
            lo.raw(),
            hi.raw(),
            &bp_raw,
            &slopes,
            &biases,
        )
        .unwrap();
        // Raw-word identical, the output table rebuilt in lockstep.
        assert_eq!(r, q);
        for raw in (Q4_12.min_raw()..=Q4_12.max_raw()).step_by(97) {
            let x = Fixed::from_raw(raw, Q4_12).unwrap();
            assert_eq!(r.eval(x), q.eval(x));
        }
    }

    #[test]
    fn from_raw_parts_rejects_malformed_snapshots() {
        let q = sigmoid16();
        let (lo, hi) = q.clamp_bounds();
        let (bp_raw, slopes, biases) = raw_words(&q);
        let parts = |bp: &[i64], slopes: &[i64], lo: i64, hi: i64| {
            QuantizedPwl::from_raw_parts(q.format(), q.rounding(), lo, hi, bp, slopes, &biases)
        };
        // Pair arrays out of step with the breakpoint list.
        assert!(matches!(
            parts(&bp_raw, &slopes[1..], lo.raw(), hi.raw()),
            Err(ApproxError::TableShape { .. })
        ));
        // Inverted clamp range.
        assert!(matches!(
            parts(&bp_raw, &slopes, hi.raw(), lo.raw()),
            Err(ApproxError::BadDomain { .. })
        ));
        // Non-increasing thresholds.
        let mut shuffled = bp_raw.clone();
        shuffled.swap(0, 1);
        assert!(matches!(
            parts(&shuffled, &slopes, lo.raw(), hi.raw()),
            Err(ApproxError::BadBreakpoints)
        ));
        // A threshold sitting on the clamp edge.
        let mut edged = bp_raw.clone();
        edged[0] = lo.raw();
        assert!(matches!(
            parts(&edged, &slopes, lo.raw(), hi.raw()),
            Err(ApproxError::BadBreakpoints)
        ));
        // A raw word outside the format.
        let mut wide = bp_raw.clone();
        wide[0] = i64::from(i32::MAX);
        assert!(parts(&wide, &slopes, lo.raw(), hi.raw()).is_err());
    }

    #[test]
    fn eval_matches_float_pwl_within_quantization() {
        let pwl =
            fit::fit_activation(Activation::Sigmoid, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let q = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap();
        for k in 0..100 {
            let x = -7.5 + 15.0 * k as f64 / 99.0;
            let err = (q.eval_f64(x) - pwl.eval(x)).abs();
            // Quantization of x, slope, bias and the output each contribute
            // up to half a resolution step; slope error is amplified by |x|<8.
            assert!(err < 8.5 * Q4_12.resolution() * 2.0, "x={x} err={err}");
        }
    }

    #[test]
    fn lookup_address_monotone_nondecreasing() {
        let q = sigmoid16();
        let mut prev = 0;
        for raw in (Q4_12.min_raw()..Q4_12.max_raw()).step_by(257) {
            let x = Fixed::from_raw(raw, Q4_12).unwrap();
            let a = q.lookup_address(x);
            assert!(a >= prev, "address must not decrease as x grows");
            assert!(a < q.segments());
            prev = a;
        }
    }

    #[test]
    fn degenerate_breakpoints_collapse() {
        // Two breakpoints closer than one Q4.12 step must merge.
        let eps = 1e-6;
        let pwl = PiecewiseLinear::new(
            vec![0.5, 0.5 + eps],
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.1, 0.2],
            (0.0, 1.0),
        )
        .unwrap();
        let q = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap();
        assert_eq!(q.segments(), 2);
        // The surviving second segment is the *later* one (slope 3).
        assert!((q.pairs()[1].slope.to_f64() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn clamp_bounds_respected() {
        let q = sigmoid16();
        let big = Fixed::from_f64(7.99, Q4_12, Rounding::NearestEven);
        let clamped = q.clamp(big);
        let (_, hi) = q.clamp_bounds();
        assert!(clamped.raw() <= hi.raw());
    }

    #[test]
    fn eval_into_matches_eval_slice_and_reuses_capacity() {
        let q = sigmoid16();
        let xs: Vec<Fixed> = (0..100)
            .map(|k| Fixed::from_f64(-7.5 + 0.15 * k as f64, Q4_12, Rounding::NearestEven))
            .collect();
        let scalar: Vec<Fixed> = xs.iter().map(|&x| q.eval(x)).collect();
        let mut out = Vec::new();
        q.eval_into(&xs, &mut out);
        assert_eq!(out, scalar);
        // A second, smaller batch reuses the buffer: same result as the
        // scalar datapath, stale tail cleared, no reallocation needed.
        let cap = out.capacity();
        q.eval_into(&xs[..10], &mut out);
        assert_eq!(out, scalar[..10]);
        assert_eq!(out.capacity(), cap, "steady-state call must not realloc");
    }

    #[test]
    #[should_panic(expected = "format")]
    fn mixed_format_input_panics() {
        let q = sigmoid16();
        let wrong = Fixed::zero(Q6_10);
        let _ = q.eval(wrong);
    }

    #[test]
    #[should_panic(expected = "format")]
    fn mixed_format_batch_panics_before_evaluating() {
        let q = sigmoid16();
        let xs = vec![Fixed::zero(Q4_12), Fixed::zero(Q6_10)];
        let mut out = Vec::new();
        q.eval_into(&xs, &mut out);
    }

    /// Checks batch == scalar `eval` == a from-scratch clamp +
    /// `partition_point` + `mul_add` datapath for every raw word of the
    /// table's format, through every batch entry point.
    fn sweep_every_raw_word(q: &QuantizedPwl, what: &str) {
        let (format, (lo, hi)) = (q.format(), q.clamp_bounds());
        let xs: Vec<Fixed> = (format.min_raw()..=format.max_raw())
            .map(|raw| Fixed::from_raw(raw, format).unwrap())
            .collect();
        let scalar: Vec<Fixed> = xs.iter().map(|&x| q.eval(x)).collect();
        for (&x, &y) in xs.iter().zip(&scalar) {
            let xc = Fixed::from_raw(x.raw().clamp(lo.raw(), hi.raw()), format).unwrap();
            let address = q.breakpoints().partition_point(|d| d.raw() <= xc.raw());
            assert_eq!(q.lookup_address(x), address, "{what}: raw {}", x.raw());
            let pair = q.pairs()[address];
            let expect = pair.slope.mul_add(xc, pair.bias, q.rounding()).unwrap();
            assert_eq!(y, expect, "{what}: raw {}", x.raw());
        }
        let mut batched = vec![Fixed::one(format); 3];
        q.eval_into(&xs, &mut batched);
        assert_eq!(batched, scalar, "{what}: eval_into");
        let mut sliced = vec![Fixed::zero(format); xs.len()];
        q.eval_to_slice_unchecked(&xs, &mut sliced);
        assert_eq!(sliced, scalar, "{what}: eval_to_slice_unchecked");
    }

    #[test]
    fn output_table_matches_scalar_datapath_for_every_raw_word() {
        // The bit-identity proof of the batch kernel: for every raw word,
        // the output-table gather equals scalar eval, which equals a
        // from-scratch clamp + partition_point + MAC datapath. The table
        // build has one path per rounding mode, so Q4.12 is swept in all
        // three, and Q8.8 covers another fraction width. GELU, exp and
        // reciprocal are the tables the serving engine runs.
        let configs = [
            (Q4_12, Rounding::NearestEven),
            (Q4_12, Rounding::NearestAway),
            (Q4_12, Rounding::Floor),
            (Q8_8, Rounding::NearestEven),
        ];
        for (format, rounding) in configs {
            for activation in [
                Activation::Sigmoid,
                Activation::Gelu,
                Activation::Exp,
                Activation::Recip,
            ] {
                for segments in [4usize, 16] {
                    let what = format!("{format}/{rounding:?}/{activation:?}/{segments}");
                    let q = fit::fit_quantized(
                        activation,
                        segments,
                        fit::BreakpointStrategy::Uniform,
                        format,
                        rounding,
                    )
                    .unwrap();
                    let (lo, hi) = q.clamp_bounds();
                    assert_eq!(
                        q.body.outputs.len(),
                        (hi.raw() - lo.raw()) as usize + 1,
                        "{what}: the table spans the clamped domain"
                    );
                    sweep_every_raw_word(&q, &what);
                }
            }
        }
    }

    #[test]
    fn extreme_words_stay_exact_at_the_edge_of_the_i32_bound() {
        // Q1.15 over the full domain, with every slope and bias at a
        // format extreme: at c = −2^15 the first table's MAC reaches
        // s·c + (b << 15) = 2^31 − 2^15 and the second's −(2^31 − 2^15),
        // the edges of the i32 bound the table build relies on.
        let q1_15 = QFormat::new(16, 15).unwrap();
        let (min, max) = (q1_15.min_raw(), q1_15.max_raw());
        let thresholds = [-16_384, 0, 16_384];
        let tables = [
            ([min, max, min, max], [max, min, min, max]),
            ([max, min, max, min], [min, max, max, min]),
        ];
        for rounding in [
            Rounding::NearestEven,
            Rounding::NearestAway,
            Rounding::Floor,
        ] {
            for (slopes, biases) in &tables {
                let q = QuantizedPwl::from_raw_parts(
                    q1_15,
                    rounding,
                    min,
                    max,
                    &thresholds,
                    slopes,
                    biases,
                )
                .unwrap();
                assert_eq!(q.body.outputs.len(), 1 << 16);
                sweep_every_raw_word(&q, &format!("Q1.15/{rounding:?}/{slopes:?}"));
            }
        }
    }

    #[test]
    fn soa_arrays_mirror_pairs_through_construction_and_reprogram() {
        // A clone — what a unit keeps after a re-program — must share the
        // source's storage, output table included, instead of copying
        // it, and compare equal.
        let shares = |a: &QuantizedPwl, b: &QuantizedPwl| {
            assert_eq!(a, b);
            assert_eq!(a.pairs().as_ptr(), b.pairs().as_ptr(), "pairs copied");
            assert_eq!(a.body.outputs.as_ptr(), b.body.outputs.as_ptr());
            assert_eq!(a.breakpoints().as_ptr(), b.breakpoints().as_ptr());
        };
        let sigmoid = sigmoid16();
        shares(&sigmoid.clone(), &sigmoid);
        let gelu_pwl =
            fit::fit_activation(Activation::Gelu, 4, fit::BreakpointStrategy::Uniform).unwrap();
        let gelu = QuantizedPwl::from_pwl(&gelu_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let mut reprogrammed = sigmoid.clone();
        reprogrammed.clone_from(&gelu);
        shares(&reprogrammed, &gelu);
    }

    #[test]
    fn output_table_boundary_is_the_word_width() {
        // The table spans the clamped domain, and the 16-bit word bounds
        // the domain: a full-range Q4.12 table is 65,536 entries, the
        // most any table needs. It evaluates identically to the scalar
        // datapath on its edge words.
        let ramp = |x: f64| 0.125 * x;
        let q = fit::fit_function(&ramp, (-8.0, 8.0), 4, fit::BreakpointStrategy::Uniform)
            .map(|pwl| QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap())
            .unwrap();
        let (lo, hi) = q.clamp_bounds();
        assert_eq!(lo.raw(), Q4_12.min_raw());
        assert_eq!(hi.raw(), Q4_12.max_raw());
        assert_eq!(q.body.outputs.len(), 1 << 16);
        let xs: Vec<Fixed> = [lo.raw(), lo.raw() + 1, 0, hi.raw() - 1, hi.raw()]
            .into_iter()
            .map(|raw| Fixed::from_raw(raw, Q4_12).unwrap())
            .collect();
        let mut out = vec![Fixed::zero(Q4_12); xs.len()];
        q.eval_to_slice_unchecked(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y, q.eval(x), "raw {}", x.raw());
        }
    }

    #[test]
    fn empty_and_single_element_batches_on_both_paths() {
        // Both batch entry points, `eval_into` and
        // `eval_to_slice_unchecked`, must handle a 0-element and a
        // 1-element batch.
        let q = sigmoid16();
        // Empty: no panic, output untouched/cleared.
        q.eval_to_slice_unchecked(&[], &mut []);
        let mut out = vec![Fixed::one(Q4_12); 3];
        q.eval_into(&[], &mut out);
        assert!(out.is_empty(), "eval_into must clear to the input length");
        // Single element, including the clamp edges.
        let (lo, hi) = q.clamp_bounds();
        for x in [lo, hi, Fixed::zero(Q4_12), Fixed::one(Q4_12)] {
            let mut one = [Fixed::zero(Q4_12)];
            q.eval_to_slice_unchecked(&[x], &mut one);
            assert_eq!(one[0], q.eval(x));
            let mut v = Vec::new();
            q.eval_into(&[x], &mut v);
            assert_eq!(v, vec![q.eval(x)]);
        }
    }

    #[test]
    fn wide_formats_fall_back_to_binary_search() {
        // Tables are at most 16 bits wide, the NoC's word: both
        // constructors refuse a wider format with `InvalidFormat`,
        // whatever the table's words, so no kernel path serves one.
        let pwl =
            fit::fit_activation(Activation::Tanh, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let q = sigmoid16();
        let (lo, hi) = q.clamp_bounds();
        let (bp_raw, slopes, biases) = raw_words(&q);
        for (total_bits, frac_bits) in [(17, 12), (24, 20), (32, 16)] {
            let wide = QFormat::new(total_bits, frac_bits).unwrap();
            let refused = Err(ApproxError::Fixed(FixedError::InvalidFormat {
                total_bits,
                frac_bits,
            }));
            assert_eq!(
                QuantizedPwl::from_pwl(&pwl, wide, Rounding::NearestEven),
                refused,
                "from_pwl at {wide}"
            );
            let raw = QuantizedPwl::from_raw_parts(
                wide,
                Rounding::NearestEven,
                lo.raw(),
                hi.raw(),
                &bp_raw,
                &slopes,
                &biases,
            );
            assert_eq!(raw, refused, "from_raw_parts at {wide}");
        }
    }

    #[test]
    fn debug_prints_the_output_table_size_not_its_contents() {
        // A failing assert_eq! on tables must not flood the log with the
        // 65,455-entry output table of a fitted GELU.
        let gelu = fit::fit_quantized(
            Activation::Gelu,
            16,
            fit::BreakpointStrategy::Uniform,
            Q4_12,
            Rounding::NearestEven,
        )
        .unwrap();
        let dbg = format!("{gelu:?}");
        assert!(dbg.len() < 8 * 1024, "{} bytes", dbg.len());
        assert!(dbg.contains(&format!("output_entries: {}", gelu.body.outputs.len())));
    }
}
