//! The admission packer: one plan group's request lengths → batches of
//! request spans → work units.
//!
//! [`pack`] is the one place that decides the unit layout. Admission
//! (`ServingEngine::submit`) fills its input grids and scatter map from
//! the spans, and the analytic models
//! ([`crate::engine::evaluate_multi_stream`] and
//! [`crate::engine::evaluate_fused_softmax`]) count their batches and
//! deal their units from the same [`Layout`], so the models and the
//! runtime cannot drift apart.
//!
//! The plan picks one of two packing rules:
//!
//! - a one-stage lookup plan packs **query-continuously**: its requests
//!   fill `capacity`-slot batches back to back and split freely across
//!   batch boundaries;
//! - a multi-stage (fused) plan packs **row-aligned**: its reduce
//!   stages span a request's whole row, so a row never splits. A row
//!   that does not fit the open batch seals it and opens the next one,
//!   and a row wider than one batch is rejected.
//!
//! Either way only a batch's tail slots are padding, and empty requests
//! take no slot.

use std::ops::Range;

use crate::NovaError;

/// One request fragment inside a packed batch: `len` queries of request
/// `request`, starting at its query `offset`, in grid slots
/// `slot..slot + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// Index of the request in the submitted slate.
    pub(crate) request: usize,
    /// The fragment's first query within its request.
    pub(crate) offset: usize,
    /// The fragment's first grid slot. A span at slot 0 opens a batch;
    /// the spans of one batch tile its slots from 0 without gaps.
    pub(crate) slot: usize,
    /// Queries in the fragment (never 0).
    pub(crate) len: usize,
}

impl Span {
    /// The grid slots the fragment fills.
    pub(crate) fn slots(&self) -> Range<usize> {
        self.slot..self.slot + self.len
    }

    /// The request queries the fragment carries.
    pub(crate) fn queries(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Hard cap on batches per work unit. [`pack`] adapts the run length
/// `K` between 1 and this: fat units amortize ring hops and sequence
/// bookkeeping under deep slates, while a shallow slate still
/// dispatches one batch per unit so tail latency and shard spread are
/// unhurt at low load.
pub(crate) const MAX_UNIT_BATCHES: usize = 8;

/// The unit layout [`pack`] chose for one plan group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    /// Batches the group packs into.
    pub(crate) batches: usize,
    /// `K`: consecutive batches per work unit; only the group's last
    /// unit may carry fewer.
    pub(crate) unit_batches: usize,
}

impl Layout {
    /// Batches per work unit, in dispatch order: `K` each, and whatever
    /// is left in the group's last unit.
    pub(crate) fn units(self) -> impl Iterator<Item = usize> {
        (0..self.batches)
            .step_by(self.unit_batches)
            .map(move |start| (self.batches - start).min(self.unit_batches))
    }
}

/// Packs one plan group into `capacity`-slot batches and picks its
/// adaptive run length `K` (at most `unit_cap`) for `shards` workers.
///
/// `requests` yields each member request's `(slate index, length)` in
/// arrival order. One [`Span`] per request fragment is appended to
/// `spans`, in batch order.
///
/// # Errors
///
/// [`NovaError::BatchShape`] for a zero-capacity grid, or for a
/// `row_aligned` request wider than `capacity`. `spans` may then hold a
/// partial layout.
pub(crate) fn pack(
    requests: impl IntoIterator<Item = (usize, usize)>,
    row_aligned: bool,
    capacity: usize,
    shards: usize,
    unit_cap: usize,
    spans: &mut Vec<Span>,
) -> Result<Layout, NovaError> {
    if capacity == 0 {
        return Err(NovaError::BatchShape(
            "cannot pack into a zero-slot grid".into(),
        ));
    }
    let first = spans.len();
    // Slots used in the open batch; `capacity` means none is open.
    let mut fill = capacity;
    for (request, len) in requests {
        if !row_aligned {
            let mut offset = 0;
            while offset < len {
                if fill == capacity {
                    fill = 0;
                }
                let take = (capacity - fill).min(len - offset);
                spans.push(Span {
                    request,
                    offset,
                    slot: fill,
                    len: take,
                });
                fill += take;
                offset += take;
            }
        } else if len > capacity {
            return Err(NovaError::BatchShape(format!(
                "fused-plan request of {len} queries exceeds the batch capacity {capacity} \
                 (routers × neurons): reduce stages span a request's whole row, so it must \
                 fit one batch"
            )));
        } else if len > 0 {
            if fill + len > capacity {
                fill = 0;
            }
            spans.push(Span {
                request,
                offset: 0,
                slot: fill,
                len,
            });
            fill += len;
        }
    }
    let batches = spans[first..].iter().filter(|span| span.slot == 0).count();
    // Adaptive K: a group deep enough to keep every shard at least two
    // units busy fattens its units (amortizing ring hops and
    // bookkeeping); a shallow one stays at one batch per unit, so tail
    // latency and shard spread are unhurt at low load.
    let unit_batches = batches
        .div_ceil(2 * shards.max(1))
        .clamp(1, unit_cap.max(1));
    Ok(Layout {
        batches,
        unit_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate_fused_softmax;
    use crate::serving::{Plan, ServingEngine, ServingRequest, TableCache, TableKey};
    use crate::ApproximatorKind;
    use nova_accel::config::AcceleratorConfig;
    use nova_approx::Activation;
    use nova_fixed::rng::StdRng;
    use nova_fixed::{Fixed, Rounding, Q4_12};
    use nova_noc::LineConfig;

    fn pack_lens(lens: &[usize], row_aligned: bool, capacity: usize) -> (Vec<Span>, Layout) {
        let mut spans = Vec::new();
        let layout = pack(
            lens.iter().copied().enumerate(),
            row_aligned,
            capacity,
            1,
            8,
            &mut spans,
        )
        .unwrap();
        (spans, layout)
    }

    /// Ragged lengths with empty requests and ones wider than a batch.
    fn ragged_lens(rng: &mut StdRng, max: usize) -> Vec<usize> {
        (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(0..max + 1))
            .collect()
    }

    #[test]
    fn spans_cover_every_query_once_in_order() {
        let mut rng = StdRng::seed_from_u64(0x5A15);
        for _ in 0..200 {
            let capacity = rng.gen_range(1usize..12);
            for row_aligned in [false, true] {
                let max = if row_aligned { capacity } else { 3 * capacity };
                let lens = ragged_lens(&mut rng, max);
                let (spans, _) = pack_lens(&lens, row_aligned, capacity);
                let packed: Vec<(usize, usize)> = spans
                    .iter()
                    .flat_map(|s| s.queries().map(move |q| (s.request, q)))
                    .collect();
                let expected: Vec<(usize, usize)> = lens
                    .iter()
                    .enumerate()
                    .flat_map(|(r, &len)| (0..len).map(move |q| (r, q)))
                    .collect();
                assert_eq!(packed, expected, "{lens:?} into {capacity}");
            }
        }
    }

    #[test]
    fn no_span_crosses_a_batch() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for _ in 0..200 {
            let capacity = rng.gen_range(1usize..12);
            for row_aligned in [false, true] {
                let max = if row_aligned { capacity } else { 3 * capacity };
                let lens = ragged_lens(&mut rng, max);
                let (spans, layout) = pack_lens(&lens, row_aligned, capacity);
                let mut batches = 0;
                let mut fill = 0;
                for span in &spans {
                    if span.slot == 0 {
                        batches += 1;
                    } else {
                        assert_eq!(span.slot, fill, "spans tile their batch: {spans:?}");
                    }
                    assert!(span.len > 0 && span.slots().end <= capacity, "{span:?}");
                    fill = span.slots().end;
                }
                assert_eq!(layout.batches, batches);
                if !row_aligned {
                    // Query-continuous batches are full up to the tail.
                    let total: usize = lens.iter().sum();
                    assert_eq!(batches, total.div_ceil(capacity), "{lens:?}");
                }
            }
        }
    }

    #[test]
    fn fused_rows_never_split() {
        // Capacity 8: rows share batches, fill one exactly, and a row
        // that does not fit the open batch opens the next one.
        let lens = [7usize, 3, 8, 1, 0, 5, 8, 2, 6, 4];
        let (spans, layout) = pack_lens(&lens, true, 8);
        let rows: Vec<(usize, usize, usize)> =
            spans.iter().map(|s| (s.request, s.slot, s.len)).collect();
        assert_eq!(
            rows,
            [
                (0, 0, 7),
                (1, 0, 3),
                (2, 0, 8),
                (3, 0, 1),
                (5, 1, 5),
                (6, 0, 8),
                (7, 0, 2),
                (8, 2, 6),
                (9, 0, 4),
            ]
        );
        assert!(spans.iter().all(|s| s.offset == 0));
        assert_eq!(layout.batches, 7);
        // The same lengths query-continuously split freely instead.
        let (spans, layout) = pack_lens(&lens, false, 8);
        assert_eq!(layout.batches, 44usize.div_ceil(8));
        assert!(spans.iter().any(|s| s.offset > 0));
    }

    #[test]
    fn empty_requests_are_skipped() {
        for row_aligned in [false, true] {
            let (spans, layout) = pack_lens(&[0, 3, 0, 0, 2, 0], row_aligned, 4);
            assert_eq!(
                spans.iter().map(|s| s.request).collect::<Vec<_>>(),
                if row_aligned {
                    vec![1, 4]
                } else {
                    vec![1, 4, 4]
                }
            );
            assert_eq!(layout.batches, 2);
            let (spans, layout) = pack_lens(&[0, 0], row_aligned, 4);
            assert!(spans.is_empty());
            assert_eq!(layout.batches, 0);
        }
    }

    #[test]
    fn fused_row_wider_than_capacity_is_rejected() {
        let mut spans = Vec::new();
        let err = pack([(0, 3), (1, 9)], true, 8, 1, 8, &mut spans).unwrap_err();
        assert!(matches!(err, NovaError::BatchShape(_)), "{err:?}");
        // Query-continuous packing splits the same request instead.
        spans.clear();
        let layout = pack([(0, 3), (1, 9)], false, 8, 1, 8, &mut spans).unwrap();
        assert_eq!(layout.batches, 2);
        // A zero-slot grid can hold nothing.
        assert!(pack([(0, 1)], false, 0, 1, 8, &mut spans).is_err());
    }

    #[test]
    fn unit_size_honours_the_cap() {
        // K = ⌈batches / 2·shards⌉ clamped to [1, cap].
        for cap in [1usize, 3, 8] {
            for shards in [1usize, 2, 4] {
                for batches in [1usize, 2, 5, 16, 40] {
                    let mut spans = Vec::new();
                    let layout =
                        pack([(0, batches * 4)], false, 4, shards, cap, &mut spans).unwrap();
                    assert_eq!(layout.batches, batches);
                    let k = layout.unit_batches;
                    assert_eq!(k, batches.div_ceil(2 * shards).clamp(1, cap));
                    assert!((1..=cap).contains(&k), "cap {cap}: K = {k}");
                }
            }
        }
        // A deep run fattens to the cap; a shallow one stays at 1.
        let k = |queries, shards, cap| {
            let layout = pack([(0, queries)], false, 4, shards, cap, &mut Vec::new());
            layout.unwrap().unit_batches
        };
        assert_eq!(k(64, 1, 3), 3);
        assert_eq!(k(4, 4, 8), 1);
    }

    /// The property: for any mixed single/fused ragged slate and any
    /// shard count, the engine dispatches exactly the layout `pack`
    /// describes — batches, units (`jobs`) and padded slots — and the
    /// analytic fused model counts the same batches.
    #[test]
    fn layout_matches_what_the_engine_dispatched() {
        let (routers, neurons) = (2usize, 5usize);
        let capacity = routers * neurons;
        let gelu = TableKey::paper(Activation::Gelu);
        let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
        let host = AcceleratorConfig {
            nova_routers: routers,
            neurons_per_router: neurons,
            ..AcceleratorConfig::tpu_v4_like()
        };
        let cache = TableCache::new();
        let mut rng = StdRng::seed_from_u64(0x9AC4);
        for round in 0..6 {
            let requests: Vec<ServingRequest> = (0..rng.gen_range(1usize..14))
                .map(|stream| {
                    let fused = rng.gen_range(0u32..2) == 0;
                    let width = if fused {
                        rng.gen_range(0..capacity + 1)
                    } else {
                        rng.gen_range(0..3 * capacity)
                    };
                    let x = Fixed::from_f64(0.25, Q4_12, Rounding::NearestEven);
                    let plan = if fused { softmax.clone() } else { gelu.into() };
                    ServingRequest::new(stream, plan, vec![x; width])
                })
                .collect();
            let queries: usize = requests.iter().map(|r| r.inputs.len()).sum();
            for shards in [1usize, 2, 4] {
                let mut engine = ServingEngine::builder(ApproximatorKind::NovaNoc)
                    .line(LineConfig::paper_default(routers, neurons))
                    .cache(&cache)
                    .table(gelu)
                    .plan(&softmax)
                    .shards(shards)
                    .build()
                    .unwrap();
                let (mut batches, mut units) = (0, 0);
                for fused in [false, true] {
                    let members = requests
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.plan.is_fused() == fused)
                        .map(|(ri, r)| (ri, r.inputs.len()));
                    let mut spans = Vec::new();
                    let layout = pack(
                        members,
                        fused,
                        capacity,
                        shards,
                        MAX_UNIT_BATCHES,
                        &mut spans,
                    )
                    .unwrap();
                    batches += layout.batches;
                    units += layout.batches.div_ceil(layout.unit_batches);
                    if fused && layout.batches > 0 {
                        let rows: Vec<u64> = requests
                            .iter()
                            .filter(|r| r.plan.is_fused())
                            .map(|r| r.inputs.len() as u64)
                            .collect();
                        let model =
                            evaluate_fused_softmax(&host, &rows, ApproximatorKind::NovaNoc, shards)
                                .unwrap();
                        assert_eq!(model.batches, layout.batches as u64, "round {round}");
                    }
                }
                assert_eq!(
                    engine.serve(&requests).unwrap(),
                    engine.serve_reference(&requests)
                );
                let stats = engine.stats();
                let label = format!("round {round}, {shards} shard(s)");
                assert_eq!(stats.batches, batches as u64, "{label}");
                assert_eq!(stats.jobs, units as u64, "{label}");
                assert_eq!(
                    stats.padded_slots,
                    (batches * capacity - queries) as u64,
                    "{label}"
                );
            }
        }
    }
}
