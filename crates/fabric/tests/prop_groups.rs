//! Property test of [`CoflowGroups`]: walking its spans is the same as
//! filtering the id-sorted view once per coflow, which is the definition the
//! policies were written against.

use proptest::prelude::*;
use swallow_fabric::view::{CoflowGroups, FlowView};
use swallow_fabric::{CoflowId, FlowId, NodeId};

/// An id-sorted view: ascending flow ids with gaps, each flow in one of a
/// few coflows with sparse ids. `ordered` draws the coflows non-decreasing
/// (the already-grouped path); otherwise they interleave freely. Few coflows
/// over up to 40 flows gives wide coflows, many over few gives single-flow
/// ones, and length 0 is the empty view.
fn arb_view() -> impl Strategy<Value = Vec<FlowView>> {
    (
        proptest::collection::vec((1u64..4, 0u64..12), 0..40),
        1u64..1_000,
        any::<bool>(),
    )
        .prop_map(|(rows, stride, ordered)| {
            let mut coflows: Vec<u64> = rows.iter().map(|&(_, c)| c * stride + 5).collect();
            if ordered {
                coflows.sort_unstable();
            }
            let mut id = 0;
            rows.iter()
                .zip(coflows)
                .map(|(&(gap, _), coflow)| {
                    id += gap;
                    FlowView {
                        id: FlowId(id),
                        coflow: CoflowId(coflow),
                        src: NodeId(0),
                        dst: NodeId(1),
                        original_size: 1.0,
                        raw: 1.0,
                        compressed: 0.0,
                        arrival: 0.0,
                        compressible: true,
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spans_equal_the_filter_definition(flows in arb_view()) {
        let mut groups = CoflowGroups::default();
        // Rebuilt twice over, so state left by an earlier view is covered.
        groups.rebuild(&flows[..flows.len() / 2]);
        groups.rebuild(&flows);

        // Spans name the distinct coflows, ascending.
        let mut want_ids: Vec<CoflowId> = flows.iter().map(|f| f.coflow).collect();
        want_ids.sort_unstable();
        want_ids.dedup();
        let got_ids: Vec<CoflowId> = groups.spans().iter().map(|s| s.coflow).collect();
        prop_assert_eq!(&got_ids, &want_ids);

        let mut seen = 0;
        for span in groups.spans() {
            // A span yields what the filter yields, in the filter's order
            // (ascending flow id), with each flow's position in the view.
            let want: Vec<(usize, FlowId)> = flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.coflow == span.coflow)
                .map(|(pos, f)| (pos, f.id))
                .collect();
            let got: Vec<(usize, FlowId)> = groups
                .flows(span, &flows)
                .map(|(pos, f)| (pos, f.id))
                .collect();
            prop_assert!(!got.is_empty());
            prop_assert_eq!(&got, &want);
            seen += got.len();
        }
        // Every flow is in exactly one span.
        prop_assert_eq!(seen, flows.len());
    }
}
