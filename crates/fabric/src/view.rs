//! Read-only snapshot of the fabric handed to scheduling policies.

use crate::cpu::CpuModel;
use crate::flow::FlowProgress;
use crate::ids::{CoflowId, FlowId, NodeId};
use crate::port::Fabric;

/// Compression capability as seen by the scheduler and applied by the
/// engine: an input-side speed (bytes of raw data consumed per second on one
/// core) and an output ratio (compressed size / original size) that may
/// depend on the flow's original size, following the paper's Table III.
pub trait CompressionSpec: Send + Sync {
    /// Raw bytes consumed per second by one compression core.
    fn speed(&self) -> f64;
    /// Output ratio ξ ∈ [0, 1] for a flow whose original size is `size`.
    fn ratio(&self, size: f64) -> f64;
    /// Codec name for reports.
    fn name(&self) -> &str {
        "codec"
    }
    /// Compressed bytes consumed per second when decompressing on one core
    /// at the receiver. The paper omits decompression cost because it is
    /// much faster than compression (Table II); the default of infinity
    /// encodes that omission, and the engine only charges it when
    /// [`crate::SimConfig`]'s `model_decompression` is set.
    fn decompress_speed(&self) -> f64 {
        f64::INFINITY
    }
}

/// A fixed `(speed, ratio)` pair, as in the paper's Table II rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstCompression {
    /// Input speed in bytes/s.
    pub speed: f64,
    /// Output ratio ξ.
    pub ratio: f64,
    /// Display name.
    pub label: String,
}

impl ConstCompression {
    /// Build a constant-parameter compression spec.
    pub fn new(label: impl Into<String>, speed: f64, ratio: f64) -> Self {
        assert!(speed >= 0.0, "speed must be non-negative");
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
        Self {
            speed,
            ratio,
            label: label.into(),
        }
    }

    /// A spec that disables compression entirely (speed 0).
    pub fn disabled() -> Self {
        Self::new("disabled", 0.0, 1.0)
    }
}

impl CompressionSpec for ConstCompression {
    fn speed(&self) -> f64 {
        self.speed
    }
    fn ratio(&self, _size: f64) -> f64 {
        self.ratio
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// One active flow as the policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowView {
    /// Flow identifier.
    pub id: FlowId,
    /// Owning coflow.
    pub coflow: CoflowId,
    /// Sender machine.
    pub src: NodeId,
    /// Receiver machine.
    pub dst: NodeId,
    /// Original (raw) size in bytes.
    pub original_size: f64,
    /// Raw bytes still uncompressed and untransmitted (`d`).
    pub raw: f64,
    /// Compressed bytes awaiting transmission (`D`).
    pub compressed: f64,
    /// Arrival time of the owning coflow.
    pub arrival: f64,
    /// Whether the payload admits compression at all.
    pub compressible: bool,
}

impl FlowView {
    /// Remaining volume `V = d + D`.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.raw + self.compressed
    }

    pub(crate) fn from_progress(p: &FlowProgress) -> Self {
        Self {
            id: p.spec.id,
            coflow: p.coflow,
            src: p.spec.src,
            dst: p.spec.dst,
            original_size: p.spec.size,
            raw: p.raw,
            compressed: p.compressed,
            arrival: p.arrival,
            compressible: p.spec.compressible,
        }
    }
}

/// Everything a policy may consult when producing an [`crate::Allocation`].
pub struct FabricView<'a> {
    /// Current simulation time (slice boundary).
    pub now: f64,
    /// Slice length δ in seconds.
    pub slice: f64,
    /// Port capacities.
    pub fabric: &'a Fabric,
    /// CPU availability model.
    pub cpu: &'a CpuModel,
    /// Compression parameters in force.
    pub compression: &'a dyn CompressionSpec,
    /// All incomplete flows, sorted by flow id.
    pub flows: Vec<FlowView>,
}

impl<'a> FabricView<'a> {
    /// Look up one active flow.
    pub fn flow(&self, id: FlowId) -> Option<&FlowView> {
        self.flows
            .binary_search_by_key(&id, |f| f.id)
            .ok()
            .map(|i| &self.flows[i])
    }

    /// Free compression cores on `node` right now.
    pub fn free_cores(&self, node: NodeId) -> u32 {
        self.cpu.free_cores(node, self.now)
    }

    /// The essential available bandwidth `B = min(Bs, Br)` for a flow (paper
    /// Eq. 2), using full port capacities. Policies wanting the *residual*
    /// bandwidth after higher-priority allocations compute that themselves.
    pub fn min_port_cap(&self, flow: &FlowView) -> f64 {
        self.fabric
            .egress_cap(flow.src)
            .min(self.fabric.ingress_cap(flow.dst))
    }

    /// The compression-benefit condition `R·(1−ξ) > B` (paper Eq. 3) for a
    /// flow against bandwidth `b`.
    pub fn compression_beneficial(&self, flow: &FlowView, b: f64) -> bool {
        let r = self.compression.speed();
        let xi = self.compression.ratio(flow.original_size);
        r * (1.0 - xi) > b
    }
}

/// One coflow's run inside a [`CoflowGroups`] permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoflowSpan {
    /// The coflow every flow of the run belongs to.
    pub coflow: CoflowId,
    start: u32,
    len: u32,
}

/// The flows of an id-sorted view grouped by coflow: a permutation of the
/// positions in `view.flows` ordered by (coflow, flow id), cut into one
/// [`CoflowSpan`] per distinct coflow in ascending coflow id.
///
/// A policy owns one and calls [`CoflowGroups::rebuild`] once per
/// `allocate`, then walks spans instead of filtering the whole view once per
/// coflow. Flows inside a span come out in ascending flow id — the order a
/// filter over the id-sorted view yields — so per-coflow sums and maxima
/// are evaluated in the same order either way. Buffers are kept across
/// calls; a rebuild allocates only while the active set outgrows them.
#[derive(Debug, Clone, Default)]
pub struct CoflowGroups {
    perm: Vec<u32>,
    spans: Vec<CoflowSpan>,
}

impl CoflowGroups {
    /// Regroup for `flows`, which must be sorted by flow id. Linear when
    /// coflow ids are already non-decreasing along `flows` (traces number
    /// flows coflow by coflow, so this is the usual case); otherwise the
    /// positions are sorted by (coflow, position), in place.
    pub fn rebuild(&mut self, flows: &[FlowView]) {
        self.perm.clear();
        self.perm.extend(0..flows.len() as u32);
        if !flows.windows(2).all(|w| w[0].coflow <= w[1].coflow) {
            self.perm
                .sort_unstable_by_key(|&i| (flows[i as usize].coflow, i));
        }
        self.spans.clear();
        for (k, &i) in self.perm.iter().enumerate() {
            let coflow = flows[i as usize].coflow;
            match self.spans.last_mut() {
                Some(span) if span.coflow == coflow => span.len += 1,
                _ => self.spans.push(CoflowSpan {
                    coflow,
                    start: k as u32,
                    len: 1,
                }),
            }
        }
    }

    /// One span per distinct coflow, in ascending coflow id.
    pub fn spans(&self) -> &[CoflowSpan] {
        &self.spans
    }

    /// One coflow's flows in ascending flow id, each with its position in
    /// `flows` (the slice this grouping was rebuilt for).
    pub fn flows<'a>(
        &'a self,
        span: &CoflowSpan,
        flows: &'a [FlowView],
    ) -> impl Iterator<Item = (usize, &'a FlowView)> + 'a {
        self.perm[span.start as usize..(span.start + span.len) as usize]
            .iter()
            .map(move |&i| (i as usize, &flows[i as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::flow::FlowSpec;

    fn view_fixture<'a>(
        fabric: &'a Fabric,
        cpu: &'a CpuModel,
        comp: &'a ConstCompression,
        flows: Vec<FlowView>,
    ) -> FabricView<'a> {
        FabricView {
            now: 0.0,
            slice: 0.01,
            fabric,
            cpu,
            compression: comp,
            flows,
        }
    }

    fn fv(id: u64, coflow: u64, src: u32, dst: u32, size: f64) -> FlowView {
        FlowView {
            id: FlowId(id),
            coflow: CoflowId(coflow),
            src: NodeId(src),
            dst: NodeId(dst),
            original_size: size,
            raw: size,
            compressed: 0.0,
            arrival: 0.0,
            compressible: true,
        }
    }

    #[test]
    fn lookup_and_grouping() {
        let fabric = Fabric::uniform(3, 10.0);
        let cpu = CpuModel::unconstrained(3, 4);
        let comp = ConstCompression::new("test", 100.0, 0.5);
        let v = view_fixture(
            &fabric,
            &cpu,
            &comp,
            vec![
                fv(1, 1, 0, 1, 5.0),
                fv(2, 1, 0, 2, 3.0),
                fv(3, 2, 1, 2, 7.0),
            ],
        );
        assert_eq!(v.flow(FlowId(2)).unwrap().original_size, 3.0);
        assert!(v.flow(FlowId(9)).is_none());
        let mut groups = CoflowGroups::default();
        groups.rebuild(&v.flows);
        let spans = groups.spans();
        assert_eq!(
            spans.iter().map(|s| s.coflow).collect::<Vec<_>>(),
            vec![CoflowId(1), CoflowId(2)]
        );
        let positions = |i: usize| -> Vec<usize> {
            groups.flows(&spans[i], &v.flows).map(|(p, _)| p).collect()
        };
        assert_eq!(positions(0), vec![0, 1]);
        assert_eq!(positions(1), vec![2]);
    }

    #[test]
    fn grouping_sorts_interleaved_coflows_and_reuses_its_buffers() {
        // Flow ids alternate between sparse coflows 40 and 7, with a
        // single-flow coflow 9 in between.
        let flows = vec![
            fv(1, 40, 0, 1, 1.0),
            fv(2, 7, 0, 1, 1.0),
            fv(5, 9, 0, 1, 1.0),
            fv(6, 40, 0, 1, 1.0),
            fv(8, 7, 0, 1, 1.0),
        ];
        let mut groups = CoflowGroups::default();
        groups.rebuild(&flows);
        let got: Vec<(u64, Vec<u64>)> = groups
            .spans()
            .iter()
            .map(|s| {
                let ids = groups.flows(s, &flows).map(|(_, f)| f.id.0).collect();
                (s.coflow.0, ids)
            })
            .collect();
        assert_eq!(
            got,
            vec![(7, vec![2, 8]), (9, vec![5]), (40, vec![1, 6])],
            "coflows ascend, flow ids ascend inside each"
        );
        // A smaller, already grouped view leaves nothing of the old one.
        groups.rebuild(&flows[1..3]);
        assert_eq!(groups.spans().len(), 2);
        let last: Vec<usize> = groups
            .flows(&groups.spans()[1], &flows[1..3])
            .map(|(p, _)| p)
            .collect();
        assert_eq!(last, vec![1]);
        groups.rebuild(&[]);
        assert!(groups.spans().is_empty());
    }

    #[test]
    fn eq3_gate() {
        let fabric = Fabric::uniform(2, 10.0);
        let cpu = CpuModel::unconstrained(2, 4);
        // R = 100, ξ = 0.5 → R(1−ξ) = 50 > B = 10: compression wins.
        let comp = ConstCompression::new("fast", 100.0, 0.5);
        let v = view_fixture(&fabric, &cpu, &comp, vec![fv(1, 1, 0, 1, 5.0)]);
        let f = v.flows[0];
        assert!(v.compression_beneficial(&f, v.min_port_cap(&f)));
        // R(1−ξ) = 5 < 10: transmission wins.
        let comp = ConstCompression::new("slow", 10.0, 0.5);
        let v = view_fixture(&fabric, &cpu, &comp, vec![fv(1, 1, 0, 1, 5.0)]);
        let f = v.flows[0];
        assert!(!v.compression_beneficial(&f, v.min_port_cap(&f)));
    }

    #[test]
    fn const_compression_spec() {
        let c = ConstCompression::new("lz4", 785e6, 0.6215);
        assert_eq!(c.speed(), 785e6);
        assert_eq!(c.ratio(1e9), 0.6215);
        assert_eq!(c.name(), "lz4");
        let d = ConstCompression::disabled();
        assert_eq!(d.speed(), 0.0);
    }

    #[test]
    fn flow_view_from_progress_carries_state() {
        let mut p = FlowProgress::new(FlowSpec::new(7, 1, 2, 100.0), CoflowId(3), 4.0);
        (p.raw, p.compressed) = (90.0, 5.0);
        let v = FlowView::from_progress(&p);
        assert_eq!(v.id, FlowId(7));
        assert_eq!(v.raw, 90.0);
        assert_eq!(v.compressed, 5.0);
        assert_eq!(v.arrival, 4.0);
        assert!((v.volume() - 95.0).abs() < 1e-12);
        let _ = Coflow::builder(0).build(); // silence unused import paths
    }
}
