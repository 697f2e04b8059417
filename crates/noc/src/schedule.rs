//! The NOVA mapper's broadcast schedule.
//!
//! The mapper (paper §IV) turns a quantized PWL table into the cycle-by-
//! cycle flit sequence the NoC broadcasts, and sets the NoC clock
//! multiplier so the whole lookup still costs one accelerator cycle: with
//! 16 segments and 8 pairs per flit, two flits are needed, so the NoC runs
//! at 2× the core clock.
//!
//! Pair-to-flit assignment is interleaved by address LSBs (the hardware
//! tag-match scheme): table entry `k` rides in flit `k mod flits` at slot
//! `k div flits`, so a router holding lookup address `a` matches flit tag
//! `a mod flits` and reads slot `a div flits`.

use nova_approx::QuantizedPwl;

use crate::{Flit, LinkConfig, NocError};

/// A compiled broadcast schedule: the flits to send each core cycle and
/// the NoC clock multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastSchedule {
    flits: Vec<Flit>,
    link: LinkConfig,
    segments: usize,
}

impl BroadcastSchedule {
    /// The flit count a schedule for `table` on `link` has, without
    /// building any flit: the one rule for which tables the NoC can
    /// carry. [`compile`](Self::compile) checks it first, so a table
    /// this accepts always compiles. Every table's words fit the link's
    /// 16-bit words, because `QuantizedPwl` refuses wider formats, so
    /// the tag field is the one limit.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::TagOverflow`] if the table needs more flits than
    /// the tag field distinguishes (e.g. 32 segments on the paper's 1-bit
    /// tag link).
    pub fn flit_count_for(table: &QuantizedPwl, link: LinkConfig) -> Result<usize, NocError> {
        let flits_needed = table.segments().div_ceil(link.pairs_per_flit);
        if flits_needed > link.tag_capacity() {
            return Err(NocError::TagOverflow {
                flits_needed,
                tag_capacity: link.tag_capacity(),
            });
        }
        Ok(flits_needed)
    }

    /// Compiles a schedule for `table` on `link`.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`flit_count_for`](Self::flit_count_for).
    pub fn compile(table: &QuantizedPwl, link: LinkConfig) -> Result<Self, NocError> {
        let segments = table.segments();
        let flits_needed = Self::flit_count_for(table, link)?;
        let pairs = table.pairs();
        let mut flits = Vec::with_capacity(flits_needed);
        for tag in 0..flits_needed {
            // Entry k rides in flit (k mod flits) at slot (k div flits).
            let lane: Vec<_> = pairs
                .iter()
                .enumerate()
                .filter(|(k, _)| k % flits_needed == tag)
                .map(|(_, p)| *p)
                .collect();
            flits.push(Flit::from_pairs(&lane, tag as u8, link)?);
        }
        Ok(Self {
            flits,
            link,
            segments,
        })
    }

    /// The flit sequence, in broadcast order.
    #[must_use]
    pub fn flits(&self) -> &[Flit] {
        &self.flits
    }

    /// Flits per lookup (= distinct tags on the wire).
    #[must_use]
    pub fn flit_count(&self) -> usize {
        self.flits.len()
    }

    /// The NoC clock multiplier the mapper programs so the lookup costs a
    /// single core cycle (paper: 2× for 16 breakpoints).
    #[must_use]
    pub fn noc_clock_multiplier(&self) -> usize {
        self.flit_count()
    }

    /// Segments covered by this schedule.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The link geometry the schedule was compiled for.
    #[must_use]
    pub fn link(&self) -> LinkConfig {
        self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table(segments: usize) -> QuantizedPwl {
        let pwl = fit::fit_activation(Activation::Tanh, segments, fit::BreakpointStrategy::Uniform)
            .unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    #[test]
    fn sixteen_segments_need_two_flits_at_2x() {
        let s = BroadcastSchedule::compile(&table(16), LinkConfig::paper()).unwrap();
        assert_eq!(s.flit_count(), 2);
        assert_eq!(s.noc_clock_multiplier(), 2);
        assert_eq!(s.flits()[0].tag(), 0);
        assert_eq!(s.flits()[1].tag(), 1);
    }

    #[test]
    fn eight_segments_single_flit_1x() {
        let s = BroadcastSchedule::compile(&table(8), LinkConfig::paper()).unwrap();
        assert_eq!(s.flit_count(), 1);
        assert_eq!(s.noc_clock_multiplier(), 1);
    }

    #[test]
    fn interleaved_assignment_matches_tag_match() {
        // Entry k must be found at flit (k mod 2), slot (k div 2) — the
        // address-LSB tag-match contract of the router.
        let t = table(16);
        let s = BroadcastSchedule::compile(&t, LinkConfig::paper()).unwrap();
        for (k, p) in t.pairs().iter().enumerate() {
            let flit = &s.flits()[k % 2];
            let decoded = flit.pair(k / 2, t.format());
            assert_eq!(decoded, *p, "entry {k}");
        }
    }

    #[test]
    fn thirty_two_segments_overflow_paper_tag() {
        let err = BroadcastSchedule::compile(&table(32), LinkConfig::paper()).unwrap_err();
        assert!(matches!(
            err,
            NocError::TagOverflow {
                flits_needed: 4,
                tag_capacity: 2
            }
        ));
    }

    #[test]
    fn wider_tag_accepts_more_flits() {
        let link = LinkConfig::new(8, 2).unwrap();
        let s = BroadcastSchedule::compile(&table(32), link).unwrap();
        assert_eq!(s.flit_count(), 4);
        assert_eq!(s.noc_clock_multiplier(), 4);
    }

    #[test]
    fn narrow_link_ablation() {
        // 4 pairs per flit: 16 segments → 4 flits → 4× NoC clock.
        let link = LinkConfig::new(4, 2).unwrap();
        let s = BroadcastSchedule::compile(&table(16), link).unwrap();
        assert_eq!(s.noc_clock_multiplier(), 4);
    }
}
