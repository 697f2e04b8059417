use std::fmt;
use std::sync::Arc;

use nova_fixed::{Fixed, QFormat, Rounding};

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
/// The table is stored twice, deliberately. The architectural view is
/// `pairs: Vec<SlopeBias>` — an array of structs, in exactly the shape
/// the NoC flit packer and the LUT banks consume. The evaluation view is
/// a structure-of-arrays mirror (`slopes_raw` / `biases_raw`, plain
/// `i64` words): the batch kernel
/// ([`eval_to_slice_unchecked`](Self::eval_to_slice_unchecked)) gathers
/// slope and bias from the two parallel arrays at unit stride instead of
/// striding 32-byte `SlopeBias` records, which is what lets LLVM
/// autovectorize the MAC loop. At ≤ `2^16` segments the duplication
/// costs at most a few hundred KiB against the dense address table's
/// 256 KiB, and typically (16 segments) under 300 bytes. The mirrors are
/// built once, by [`from_pwl`](Self::from_pwl) or
/// [`from_raw_parts`](Self::from_raw_parts), and never change.
///
/// Measured (256-query Q4.12 GELU batch, one AVX-512 core, the
/// `pwl/eval_*` rows of `cargo bench -p nova-bench`): per-element
/// binary search ≈ 14 ns/query, the retired AoS direct-index gather
/// ≈ 10, this SoA kernel ≈ 5–6. All three are bit-identical over every
/// raw word of the format (the full-sweep test below).
///
/// # Sharing
///
/// A fitted table is immutable, and all of its storage sits behind one
/// [`Arc`]: `clone()` bumps a reference count and copies nothing, so every
/// clone reads the very same address table and SoA mirrors. Re-programming
/// a unit — a NoC line and its comparators, a LUT or SDP core — is
/// therefore a pointer copy, not a copy of up to 256 KiB.
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
    /// One pair per segment (`breakpoints.len() + 1` entries). This is
    /// the architectural (AoS) view — what the NoC broadcasts and the
    /// LUT banks store; the batch kernel reads the SoA mirrors below.
    pairs: Vec<SlopeBias>,
    /// Structure-of-arrays mirror of `pairs`: the raw slope words, in
    /// segment order. An AoS gather (`pairs[addr].slope.raw()`) strides
    /// 32 bytes per element and drags the unused `QFormat` tags through
    /// the cache; these parallel raw arrays give the MAC loop unit-stride
    /// 8-byte gathers the vectorizer can live with. Built from `pairs`
    /// once, at construction.
    slopes_raw: Vec<i64>,
    /// SoA mirror of `pairs`: the raw bias words (see `slopes_raw`).
    biases_raw: Vec<i64>,
    /// Clamp bounds in the fixed format.
    lo: Fixed,
    hi: Fixed,
    /// Dense comparator-address table: entry `raw - lo.raw()` holds the
    /// segment address for that clamped raw word, so the eval hot loop
    /// replaces a binary search with one indexed load. Empty when the
    /// clamped raw span exceeds [`DENSE_ADDR_MAX_ENTRIES`] (wide
    /// formats), in which case lookup falls back to `partition_point`.
    addr_table: Vec<u32>,
}

impl fmt::Debug for QuantizedPwl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &*self.body;
        f.debug_struct("QuantizedPwl")
            .field("format", &b.format)
            .field("rounding", &b.rounding)
            .field("breakpoints", &b.breakpoints)
            .field("pairs", &b.pairs)
            .field("slopes_raw", &b.slopes_raw)
            .field("biases_raw", &b.biases_raw)
            .field("lo", &b.lo)
            .field("hi", &b.hi)
            .field("addr_table", &b.addr_table)
            .finish()
    }
}

/// Size cap on the dense segment-address table, in entries.
///
/// The boundary is exact and *span-based*, not format-width-based: a table
/// is dense if and only if its clamped raw span
/// `hi.raw() - lo.raw() + 1 <= DENSE_ADDR_MAX_ENTRIES`. Consequences:
///
/// - Any 16-bit format stays dense even on a full-range domain — the
///   widest possible span is exactly 65 536 entries (`i16::MIN..=i16::MAX`),
///   which is `==` the cap, so it fits.
/// - The narrowest format that can fall back is 17 bits total: a
///   full-range 17-bit domain spans 131 072 entries. Whether it *does*
///   fall back still depends on the fitted function's domain — a 24-bit
///   format whose clamped domain covers ≤ 65 536 raw words is dense too.
///
/// Past the cap, [`QuantizedPwl::lookup_address_clamped`] and the batch
/// kernels use the comparator-tree binary search (`partition_point`)
/// instead of paying a multi-megabyte table per fitted function;
/// [`QuantizedPwl::uses_dense_address`] reports which path a table took.
/// The boundary tests pin both sides (65 536-entry span dense,
/// 65 537-entry span not).
pub const DENSE_ADDR_MAX_ENTRIES: usize = 1 << 16;

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
    /// disagree, or a fixed-point error if the domain does not fit the
    /// format.
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
        Ok(Self::new(format, rounding, lo, hi, breakpoints, pairs))
    }

    /// Wraps validated thresholds and pairs into a shared table, deriving
    /// the SoA mirrors and the dense address table once.
    fn new(
        format: QFormat,
        rounding: Rounding,
        lo: Fixed,
        hi: Fixed,
        breakpoints: Vec<Fixed>,
        pairs: Vec<SlopeBias>,
    ) -> Self {
        let body = Body {
            format,
            rounding,
            addr_table: build_addr_table(&breakpoints, lo, hi),
            slopes_raw: pairs.iter().map(|p| p.slope.raw()).collect(),
            biases_raw: pairs.iter().map(|p| p.bias.raw()).collect(),
            breakpoints,
            pairs,
            lo,
            hi,
        };
        Self {
            body: Arc::new(body),
        }
    }

    /// Rebuilds a table from its raw serialized words — the warm-start
    /// snapshot codec ([`slopes_raw`](Self::slopes_raw) /
    /// [`biases_raw`](Self::biases_raw) plus raw breakpoints and clamp
    /// bounds). Every derived structure (the AoS pair view, the SoA
    /// mirrors, the dense address table) is reconstructed, so a restored
    /// table is indistinguishable from — and compares equal to — the
    /// [`from_pwl`](Self::from_pwl) original it was snapshotted from.
    ///
    /// # Errors
    ///
    /// Returns [`ApproxError::TableShape`] if the pair arrays disagree or
    /// don't hold exactly one more entry than the breakpoint list,
    /// [`ApproxError::BadDomain`] for an empty or inverted clamp range,
    /// [`ApproxError::BadBreakpoints`] unless the thresholds are strictly
    /// increasing and strictly inside the clamp bounds, and a fixed-point
    /// error if any raw word does not fit `format`.
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
        Ok(Self::new(format, rounding, lo, hi, breakpoints, pairs))
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

    /// The SoA mirror of the segment slopes as raw format words, in
    /// segment order — the view a warm-start snapshot serializes and
    /// [`from_raw_parts`](Self::from_raw_parts) consumes.
    #[must_use]
    pub fn slopes_raw(&self) -> &[i64] {
        &self.body.slopes_raw
    }

    /// The SoA mirror of the segment biases as raw format words (see
    /// [`slopes_raw`](Self::slopes_raw)).
    #[must_use]
    pub fn biases_raw(&self) -> &[i64] {
        &self.body.biases_raw
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
    /// function domain — the batch-eval fast path: one dense-table load
    /// (or, for wide formats past the table cap, one binary search)
    /// without re-clamping.
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
        if self.body.addr_table.is_empty() {
            self.body
                .breakpoints
                .partition_point(|d| d.raw() <= xc.raw())
        } else {
            self.body.addr_table[(xc.raw() - self.body.lo.raw()) as usize] as usize
        }
    }

    /// Entries in the dense segment-address table — 0 when the format's
    /// clamped span exceeds [`DENSE_ADDR_MAX_ENTRIES`] and lookups fall
    /// back to binary search.
    #[must_use]
    pub fn dense_address_entries(&self) -> usize {
        self.body.addr_table.len()
    }

    /// Whether this table resolves segment addresses through the dense
    /// direct-index table (clamped span ≤ [`DENSE_ADDR_MAX_ENTRIES`]) or
    /// fell back to the comparator-tree binary search. Serving setups
    /// should assert this is `true` for their hot tables — the dense path
    /// is the one the SoA batch kernel vectorizes.
    #[must_use]
    pub fn uses_dense_address(&self) -> bool {
        !self.body.addr_table.is_empty()
    }

    /// Full datapath evaluation: clamp → comparator address → pair select →
    /// fused MAC with a single output rounding. The clamp happens exactly
    /// once — the address lookup consumes the already-saturated word, as
    /// the comparator front-end does in hardware.
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
        self.eval_clamped(self.clamp(x))
    }

    /// The format-checked, clamped core of [`eval`](Self::eval): pair
    /// select through the dense address table plus the fused MAC.
    #[inline]
    fn eval_clamped(&self, xc: Fixed) -> Fixed {
        let pair = self.body.pairs[self.lookup_address_clamped(xc)];
        pair.slope
            .mul_add(xc, pair.bias, self.rounding())
            .expect("formats verified equal by the caller")
    }

    /// Evaluates a whole vector through the datapath.
    ///
    /// # Panics
    ///
    /// Panics if any word is not in the table's format.
    #[must_use]
    pub fn eval_slice(&self, xs: &[Fixed]) -> Vec<Fixed> {
        let mut out = Vec::new();
        self.eval_into(xs, &mut out);
        out
    }

    /// Evaluates a whole vector through the datapath into a caller-owned
    /// buffer. `out` is cleared first, so steady-state callers (serving
    /// hot loops that evaluate one batch after another) can reuse one
    /// allocation across calls instead of paying a fresh `Vec` per
    /// [`eval_slice`](Self::eval_slice).
    ///
    /// This is the branch-free batch path: the format check runs as one
    /// pass over the batch instead of per element, and the loop itself
    /// is a `max`/`min` raw-word clamp + dense-table address + raw fused
    /// MAC — no assert, no compare-chain clamp, no per-element `Result`.
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
        out.resize(xs.len(), Fixed::zero(format));
        self.eval_to_slice_unchecked(xs, out);
    }

    /// Evaluates a slice *in place* over an output slice of equal length —
    /// the zero-copy core the flat batch pipeline drives. Same format
    /// contract (and single up-front check) as [`eval_into`](Self::eval_into).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()` or any word is format-mismatched.
    pub fn eval_to_slice(&self, xs: &[Fixed], out: &mut [Fixed]) {
        assert_eq!(xs.len(), out.len(), "output slice must match input length");
        let format = self.format();
        assert!(
            xs.iter().all(|x| x.format() == format),
            "input word format must match table format"
        );
        self.eval_to_slice_unchecked(xs, out);
    }

    /// The structure-of-arrays batch kernel shared by every batch path
    /// (and, through the `nova-lut` / `nova-noc` fast paths, by the whole
    /// serving data plane).
    ///
    /// "Unchecked" refers to the *format* contract only — no `unsafe` is
    /// involved: callers must already have verified that every word of
    /// `xs` is in the table's format and that `out.len() == xs.len()`
    /// (both debug-asserted). [`eval_into`](Self::eval_into) and
    /// [`eval_to_slice`](Self::eval_to_slice) are the checked wrappers.
    ///
    /// The dense path runs chunked 8-wide over raw `i64` words: a first
    /// pass clamps (`max`/`min`, no branch) and gathers the dense segment
    /// address into a small reused index scratch; a second pass gathers
    /// slope/bias from the unit-stride SoA arrays and does the fused MAC
    /// with a branch-free rounding increment. No `Fixed` wrapper exists
    /// inside the loop, format/rounding state is hoisted, and the
    /// rounding mode is monomorphized at dispatch so LLVM can
    /// autovectorize the arithmetic. Bit-identity with the scalar
    /// clamp → [`eval_clamped`](Self::eval_clamped) datapath is pinned by
    /// the full-raw-word sweep test.
    pub fn eval_to_slice_unchecked(&self, xs: &[Fixed], out: &mut [Fixed]) {
        debug_assert_eq!(xs.len(), out.len(), "caller owns the length check");
        debug_assert!(
            xs.iter().all(|x| x.format() == self.format()),
            "caller owns the format check"
        );
        if self.body.addr_table.is_empty() {
            self.eval_binary_search_pass(xs, out);
        } else {
            // Dispatch once so `rounding` is a compile-time constant in
            // each monomorphized copy of the (inlined) dense pass: the
            // rounding match folds away and the loop body is branch-free.
            match self.rounding() {
                Rounding::NearestEven => self.eval_dense_soa_pass(xs, out, Rounding::NearestEven),
                Rounding::NearestAway => self.eval_dense_soa_pass(xs, out, Rounding::NearestAway),
                Rounding::Floor => self.eval_dense_soa_pass(xs, out, Rounding::Floor),
            }
        }
    }

    /// The dense-table SoA kernel (see
    /// [`eval_to_slice_unchecked`](Self::eval_to_slice_unchecked)).
    /// `#[inline(always)]` + a literal `rounding` argument at every call
    /// site is what makes each copy monomorphic without duplicating the
    /// rounding logic.
    #[inline(always)]
    fn eval_dense_soa_pass(&self, xs: &[Fixed], out: &mut [Fixed], rounding: Rounding) {
        /// Chunk width of the two-pass loop. 8 × i64 is one 64-byte cache
        /// line and a multiple of every SIMD width the default target
        /// supports, so the stack scratch below vectorizes cleanly.
        const LANES: usize = 8;
        let body = &*self.body;
        let format = body.format;
        let lo = body.lo.raw();
        let hi = body.hi.raw();
        let table = body.addr_table.as_slice();
        let slopes = body.slopes_raw.as_slice();
        let biases = body.biases_raw.as_slice();
        // `.min(last)` index clamps below keep the compiler's bounds
        // checks out of the loops without `unsafe`; the clamp never binds
        // (addresses are in range by construction of `addr_table`).
        let t_last = table.len() - 1;
        let s_last = slopes.len().min(biases.len()) - 1;
        // Reused per-chunk scratch: clamped raw words and their dense
        // segment addresses, filled by pass 1 and consumed by pass 2.
        let mut craw = [0i64; LANES];
        let mut idx = [0u32; LANES];
        let mut in_chunks = xs.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (cx, co) in (&mut in_chunks).zip(&mut out_chunks) {
            for j in 0..LANES {
                let c = cx[j].raw().max(lo).min(hi);
                craw[j] = c;
                idx[j] = table[((c - lo) as usize).min(t_last)];
            }
            for j in 0..LANES {
                let a = (idx[j] as usize).min(s_last);
                let raw = Fixed::mul_add_raw(slopes[a], craw[j], biases[a], format, rounding);
                co[j] = Fixed::from_raw_saturating(raw, format);
            }
        }
        // Remainder (< LANES elements): same body, scalar.
        for (&x, slot) in in_chunks
            .remainder()
            .iter()
            .zip(out_chunks.into_remainder())
        {
            let c = x.raw().max(lo).min(hi);
            let a = (table[((c - lo) as usize).min(t_last)] as usize).min(s_last);
            let raw = Fixed::mul_add_raw(slopes[a], c, biases[a], format, rounding);
            *slot = Fixed::from_raw_saturating(raw, format);
        }
    }

    /// Wide formats past the dense-table cap: comparator-tree binary
    /// search per element. The clamp and the fused MAC are the same raw
    /// SoA operations as the dense pass; only the address generation
    /// differs (and dominates), so this path is not chunked.
    fn eval_binary_search_pass(&self, xs: &[Fixed], out: &mut [Fixed]) {
        let body = &*self.body;
        let format = body.format;
        let rounding = body.rounding;
        let lo = body.lo.raw();
        let hi = body.hi.raw();
        let s_last = body.slopes_raw.len().min(body.biases_raw.len()) - 1;
        for (&x, slot) in xs.iter().zip(out) {
            let craw = x.raw().max(lo).min(hi);
            let addr = body
                .breakpoints
                .partition_point(|d| d.raw() <= craw)
                .min(s_last);
            let raw = Fixed::mul_add_raw(
                body.slopes_raw[addr],
                craw,
                body.biases_raw[addr],
                format,
                rounding,
            );
            *slot = Fixed::from_raw_saturating(raw, format);
        }
    }

    /// Convenience: quantize an `f64`, evaluate, return `f64`.
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        self.eval(Fixed::from_f64(x, self.format(), self.rounding()))
            .to_f64()
    }
}

/// Precomputes the dense segment-address table over the clamped raw span
/// `[lo, hi]`: one `u32` address per raw word, produced by a single
/// monotone sweep over the (strictly increasing) thresholds. Returns an
/// empty table when the span exceeds [`DENSE_ADDR_MAX_ENTRIES`].
fn build_addr_table(breakpoints: &[Fixed], lo: Fixed, hi: Fixed) -> Vec<u32> {
    let span = (hi.raw() - lo.raw()) as u128 + 1;
    if span > DENSE_ADDR_MAX_ENTRIES as u128 {
        return Vec::new();
    }
    let span = span as usize;
    let mut table = Vec::with_capacity(span);
    let mut addr = 0usize;
    for offset in 0..span {
        let raw = lo.raw() + offset as i64;
        while addr < breakpoints.len() && breakpoints[addr].raw() <= raw {
            addr += 1;
        }
        table.push(addr as u32);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit, Activation, PiecewiseLinear};
    use nova_fixed::{Q4_12, Q6_10};

    fn sigmoid16() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Sigmoid, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
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
        let bp_raw: Vec<i64> = q.breakpoints().iter().map(|b| b.raw()).collect();
        let r = QuantizedPwl::from_raw_parts(
            q.format(),
            q.rounding(),
            lo.raw(),
            hi.raw(),
            &bp_raw,
            q.slopes_raw(),
            q.biases_raw(),
        )
        .unwrap();
        // Raw-word identical, derived structures rebuilt in lockstep.
        assert_eq!(r, q);
        assert_eq!(r.uses_dense_address(), q.uses_dense_address());
        for raw in (Q4_12.min_raw()..=Q4_12.max_raw()).step_by(97) {
            let x = Fixed::from_raw(raw, Q4_12).unwrap();
            assert_eq!(r.eval(x), q.eval(x));
        }
    }

    #[test]
    fn from_raw_parts_rejects_malformed_snapshots() {
        let q = sigmoid16();
        let (lo, hi) = q.clamp_bounds();
        let bp_raw: Vec<i64> = q.breakpoints().iter().map(|b| b.raw()).collect();
        let parts = |bp: &[i64], slopes: &[i64], biases: &[i64], lo: i64, hi: i64| {
            QuantizedPwl::from_raw_parts(q.format(), q.rounding(), lo, hi, bp, slopes, biases)
        };
        // Pair arrays out of step with the breakpoint list.
        assert!(matches!(
            parts(
                &bp_raw,
                &q.slopes_raw()[1..],
                q.biases_raw(),
                lo.raw(),
                hi.raw()
            ),
            Err(ApproxError::TableShape { .. })
        ));
        // Inverted clamp range.
        assert!(matches!(
            parts(&bp_raw, q.slopes_raw(), q.biases_raw(), hi.raw(), lo.raw()),
            Err(ApproxError::BadDomain { .. })
        ));
        // Non-increasing thresholds.
        let mut shuffled = bp_raw.clone();
        shuffled.swap(0, 1);
        assert!(matches!(
            parts(
                &shuffled,
                q.slopes_raw(),
                q.biases_raw(),
                lo.raw(),
                hi.raw()
            ),
            Err(ApproxError::BadBreakpoints)
        ));
        // A threshold sitting on the clamp edge.
        let mut edged = bp_raw.clone();
        edged[0] = lo.raw();
        assert!(matches!(
            parts(&edged, q.slopes_raw(), q.biases_raw(), lo.raw(), hi.raw()),
            Err(ApproxError::BadBreakpoints)
        ));
        // A raw word outside the format.
        let mut wide = bp_raw.clone();
        wide[0] = i64::from(i32::MAX);
        assert!(parts(&wide, q.slopes_raw(), q.biases_raw(), lo.raw(), hi.raw()).is_err());
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
        let mut out = Vec::new();
        q.eval_into(&xs, &mut out);
        assert_eq!(out, q.eval_slice(&xs));
        // A second, smaller batch reuses the buffer: same result as a
        // fresh eval, stale tail cleared, no reallocation needed.
        let cap = out.capacity();
        q.eval_into(&xs[..10], &mut out);
        assert_eq!(out, q.eval_slice(&xs[..10]));
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

    #[test]
    fn dense_address_table_matches_partition_point_for_every_raw_word() {
        // The tentpole bit-identity proof: for every raw word a 16-bit
        // format can hold, the direct-indexed address equals the
        // comparator tree's binary search, and eval agrees with a
        // from-scratch clamp + partition_point + MAC datapath. Every
        // table swept must take the dense-address path; GELU, exp and
        // reciprocal are the ones the serving engine runs.
        for activation in [
            Activation::Sigmoid,
            Activation::Gelu,
            Activation::Exp,
            Activation::Recip,
        ] {
            for segments in [4usize, 16] {
                let pwl =
                    fit::fit_activation(activation, segments, fit::BreakpointStrategy::Uniform)
                        .unwrap();
                let q = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap();
                assert!(q.uses_dense_address(), "{activation:?}/{segments}");
                let (lo, hi) = q.clamp_bounds();
                assert_eq!(
                    q.dense_address_entries(),
                    (hi.raw() - lo.raw()) as usize + 1,
                    "16-bit span must be dense-indexed"
                );
                for raw in Q4_12.min_raw()..=Q4_12.max_raw() {
                    let x = Fixed::from_raw(raw, Q4_12).unwrap();
                    let xc = q.clamp(x);
                    let reference = q.breakpoints().partition_point(|d| d.raw() <= xc.raw());
                    assert_eq!(
                        q.lookup_address(x),
                        reference,
                        "{activation:?}/{segments}: raw {raw}"
                    );
                    let pair = q.pairs()[reference];
                    let expect = pair.slope.mul_add(xc, pair.bias, q.rounding()).unwrap();
                    assert_eq!(q.eval(x), expect, "{activation:?}/{segments}: raw {raw}");
                }
                // The SoA batch paths (hoisted format check, chunked
                // `max`/`min` raw clamp, raw-word slope/bias gather, raw
                // fused MAC) must agree with scalar eval — and therefore
                // with the per-element AoS datapath checked above — over
                // the same full-raw-word sweep.
                let xs: Vec<Fixed> = (Q4_12.min_raw()..=Q4_12.max_raw())
                    .map(|raw| Fixed::from_raw(raw, Q4_12).unwrap())
                    .collect();
                let scalar: Vec<Fixed> = xs.iter().map(|&x| q.eval(x)).collect();
                let mut batched = Vec::new();
                q.eval_into(&xs, &mut batched);
                assert_eq!(batched, scalar, "{activation:?}/{segments}: eval_into");
                let mut sliced = vec![Fixed::zero(Q4_12); xs.len()];
                q.eval_to_slice(&xs, &mut sliced);
                assert_eq!(sliced, scalar, "{activation:?}/{segments}: eval_to_slice");
            }
        }
    }

    #[test]
    fn soa_arrays_mirror_pairs_through_construction_and_reprogram() {
        // The SoA mirrors must be the raw words of `pairs`, in order. A
        // clone — what a unit keeps after a re-program — must share the
        // source's storage instead of copying it, and compare equal.
        let check = |q: &QuantizedPwl| {
            assert_eq!(q.slopes_raw().len(), q.pairs().len());
            assert_eq!(q.biases_raw().len(), q.pairs().len());
            for (i, p) in q.pairs().iter().enumerate() {
                assert_eq!(q.slopes_raw()[i], p.slope.raw(), "slope {i}");
                assert_eq!(q.biases_raw()[i], p.bias.raw(), "bias {i}");
            }
        };
        let shares = |a: &QuantizedPwl, b: &QuantizedPwl| {
            assert_eq!(a, b);
            assert_eq!(a.pairs().as_ptr(), b.pairs().as_ptr(), "pairs copied");
            assert_eq!(a.slopes_raw().as_ptr(), b.slopes_raw().as_ptr());
            assert_eq!(a.breakpoints().as_ptr(), b.breakpoints().as_ptr());
        };
        let sigmoid = sigmoid16();
        check(&sigmoid);
        shares(&sigmoid.clone(), &sigmoid);
        let gelu_pwl =
            fit::fit_activation(Activation::Gelu, 4, fit::BreakpointStrategy::Uniform).unwrap();
        let gelu = QuantizedPwl::from_pwl(&gelu_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let mut reprogrammed = sigmoid.clone();
        reprogrammed.clone_from(&gelu);
        check(&reprogrammed);
        shares(&reprogrammed, &gelu);
    }

    #[test]
    fn dense_address_cap_boundary_is_exact() {
        // The fallback boundary is span-based. A full-range 16-bit domain
        // spans exactly DENSE_ADDR_MAX_ENTRIES raw words — the widest
        // span that stays dense...
        let ramp = |x: f64| 0.125 * x;
        let full16 = fit::fit_function(&ramp, (-8.0, 8.0), 4, fit::BreakpointStrategy::Uniform)
            .map(|pwl| QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap())
            .unwrap();
        let (lo, hi) = full16.clamp_bounds();
        assert_eq!(lo.raw(), Q4_12.min_raw());
        assert_eq!(hi.raw(), Q4_12.max_raw());
        assert_eq!(full16.dense_address_entries(), DENSE_ADDR_MAX_ENTRIES);
        assert!(full16.uses_dense_address());
        // ...while one more total bit over the same real domain doubles
        // the span past the cap: 17 bits is the narrowest format that
        // can fall back, and a full-range 17-bit domain does.
        let q5_12 = QFormat::new(17, 12).unwrap();
        let wide = fit::fit_function(&ramp, (-16.0, 16.0), 4, fit::BreakpointStrategy::Uniform)
            .map(|pwl| QuantizedPwl::from_pwl(&pwl, q5_12, Rounding::NearestEven).unwrap())
            .unwrap();
        let (wlo, whi) = wide.clamp_bounds();
        assert!(
            (whi.raw() - wlo.raw()) as usize + 1 > DENSE_ADDR_MAX_ENTRIES,
            "full 17-bit span must exceed the cap"
        );
        assert_eq!(wide.dense_address_entries(), 0);
        assert!(!wide.uses_dense_address());
        // A *narrow-domain* wide format stays dense — the boundary is the
        // span, not the word width.
        let narrow_domain =
            fit::fit_function(&ramp, (-2.0, 2.0), 4, fit::BreakpointStrategy::Uniform)
                .map(|pwl| QuantizedPwl::from_pwl(&pwl, q5_12, Rounding::NearestEven).unwrap())
                .unwrap();
        assert!(narrow_domain.uses_dense_address());
        assert_eq!(narrow_domain.dense_address_entries(), 4 * 4096 + 1);
        // Both sides of the boundary still evaluate identically to the
        // scalar datapath on their edge words.
        for q in [&full16, &wide, &narrow_domain] {
            let (lo, hi) = q.clamp_bounds();
            let xs = [lo, hi, Fixed::zero(q.format())];
            let mut out = vec![Fixed::zero(q.format()); xs.len()];
            q.eval_to_slice(&xs, &mut out);
            for (&x, &y) in xs.iter().zip(&out) {
                assert_eq!(y, q.eval(x));
            }
        }
    }

    #[test]
    fn empty_and_single_element_batches_on_both_paths() {
        // Chunked-kernel edge pins: the remainder loop must handle a
        // 0-element and a 1-element batch on the dense path, and the
        // binary-search path must do the same.
        let dense = sigmoid16();
        let wide_fmt = QFormat::new(24, 20).unwrap();
        let wide_pwl =
            fit::fit_activation(Activation::Tanh, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let wide = QuantizedPwl::from_pwl(&wide_pwl, wide_fmt, Rounding::NearestEven).unwrap();
        assert!(dense.uses_dense_address());
        assert!(!wide.uses_dense_address());
        for q in [&dense, &wide] {
            let fmt = q.format();
            // Empty: no panic, output untouched/cleared.
            q.eval_to_slice(&[], &mut []);
            let mut out = vec![Fixed::one(fmt); 3];
            q.eval_into(&[], &mut out);
            assert!(out.is_empty(), "eval_into must clear to the input length");
            // Single element, including the clamp edges.
            let (lo, hi) = q.clamp_bounds();
            for x in [lo, hi, Fixed::zero(fmt), Fixed::one(fmt)] {
                let mut one = [Fixed::zero(fmt)];
                q.eval_to_slice(&[x], &mut one);
                assert_eq!(one[0], q.eval(x));
                let mut v = Vec::new();
                q.eval_into(&[x], &mut v);
                assert_eq!(v, vec![q.eval(x)]);
            }
        }
    }

    #[test]
    fn wide_formats_fall_back_to_binary_search() {
        // At 20 fraction bits tanh's clamped domain spans ~2^23 raw
        // values — past the dense-table cap, so the table must stay empty
        // and lookups must still agree with partition_point on sampled
        // words.
        let wide = QFormat::new(24, 20).unwrap();
        let pwl =
            fit::fit_activation(Activation::Tanh, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let q = QuantizedPwl::from_pwl(&pwl, wide, Rounding::NearestEven).unwrap();
        assert_eq!(q.dense_address_entries(), 0, "wide span must not be dense");
        for raw in (wide.min_raw()..wide.max_raw()).step_by(65_537) {
            let x = Fixed::from_raw(raw, wide).unwrap();
            let xc = q.clamp(x);
            assert_eq!(
                q.lookup_address(x),
                q.breakpoints().partition_point(|d| d.raw() <= xc.raw())
            );
        }
        // The batch paths' binary-search branch must agree with scalar
        // eval too.
        let xs: Vec<Fixed> = (wide.min_raw()..wide.max_raw())
            .step_by(65_537)
            .map(|raw| Fixed::from_raw(raw, wide).unwrap())
            .collect();
        let mut out = vec![Fixed::zero(wide); xs.len()];
        q.eval_to_slice(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y, q.eval(x));
        }
    }

    #[test]
    fn eval_to_slice_matches_eval_slice() {
        let q = sigmoid16();
        let xs: Vec<Fixed> = (0..257)
            .map(|k| Fixed::from_f64(-8.0 + 0.0625 * k as f64, Q4_12, Rounding::NearestEven))
            .collect();
        let mut out = vec![Fixed::zero(Q4_12); xs.len()];
        q.eval_to_slice(&xs, &mut out);
        assert_eq!(out, q.eval_slice(&xs));
    }
}
