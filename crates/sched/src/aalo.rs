//! Aalo-style non-clairvoyant coflow scheduling (Chowdhury & Stoica,
//! SIGCOMM'15 — the paper's reference \[16\]).
//!
//! Unlike FVDF/SEBF, Aalo never learns coflow sizes in advance. Its
//! Discretized Coflow-Aware Least-Attained-Service (D-CLAS) policy tracks
//! the bytes each coflow has *already sent* and demotes coflows through
//! exponentially-spaced priority queues as their attained service grows:
//! queue `k` holds coflows with attained service in `[E·K^k, E·K^{k+1})`.
//! Lower queues get strict priority; within a queue coflows run FIFO by
//! arrival. Small coflows therefore finish in the top queues without anyone
//! knowing they were small — at the price of a gap to clairvoyant SEBF.
//!
//! Included as an extra baseline: it bounds what Swallow's *scheduling* half
//! is worth relative to a scheduler that needs no prior knowledge.

use crate::util::OrderedScratch;
use std::collections::BTreeMap;
use swallow_fabric::{Allocation, Coflow, CoflowId, FabricView, FlowCommand, Policy};
use swallow_trace::{TraceEvent, Tracer};

/// The D-CLAS policy.
#[derive(Debug, Clone)]
pub struct AaloPolicy {
    /// First queue's service bound `E` in bytes (Aalo's default: 10 MB).
    pub init_limit: f64,
    /// Exponential spacing `K` between queue bounds (Aalo's default: 10).
    pub multiplier: f64,
    /// Number of queues (the last one is unbounded).
    pub num_queues: usize,
    /// Original total bytes per coflow, learned as flows appear (needed to
    /// compute attained service = original − remaining without being told
    /// remaining sizes up front).
    observed_total: BTreeMap<CoflowId, f64>,
    arrivals: BTreeMap<CoflowId, f64>,
    // Reused across reschedules: the shared ordering scratch and the
    // (queue, arrival, span index) service order.
    scratch: OrderedScratch,
    order: Vec<(usize, f64, u32)>,
    tracer: Tracer,
}

impl AaloPolicy {
    /// D-CLAS with Aalo's published defaults, rescaled by `byte_scale`
    /// (pass 1.0 for production-sized traces; smaller for scaled ones).
    pub fn new(byte_scale: f64) -> Self {
        assert!(byte_scale > 0.0, "scale must be positive");
        Self {
            init_limit: 10e6 * byte_scale,
            multiplier: 10.0,
            num_queues: 10,
            observed_total: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            scratch: OrderedScratch::default(),
            order: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Queue index for a coflow with the given attained service.
    pub fn queue_of(&self, attained: f64) -> usize {
        let mut bound = self.init_limit;
        for q in 0..self.num_queues - 1 {
            if attained < bound {
                return q;
            }
            bound *= self.multiplier;
        }
        self.num_queues - 1
    }
}

impl Default for AaloPolicy {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Policy for AaloPolicy {
    fn name(&self) -> &str {
        "Aalo"
    }

    fn on_arrival(&mut self, coflow: &Coflow, now: f64) {
        self.arrivals.insert(coflow.id, now);
    }

    fn on_completion(&mut self, coflow: CoflowId, _now: f64) {
        self.observed_total.remove(&coflow);
        self.arrivals.remove(&coflow);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let mut s = std::mem::take(&mut self.scratch);
        let mut order = std::mem::take(&mut self.order);

        // Attained service per coflow: the first time we see a flow fixes
        // its "original" size; attained = observed original − remaining.
        // (The observation is causal: we only ever use bytes already sent.)
        // Per-coflow sums run in ascending flow id, so totals are
        // reproducible. Order: (queue, arrival, id) — span index order is
        // coflow id order.
        s.begin(view);
        order.clear();
        for (i, span) in s.groups.spans().iter().enumerate() {
            let (mut remaining, mut total) = (0.0f64, 0.0f64);
            for (_, f) in s.groups.flows(span, &view.flows) {
                remaining += f.volume();
                total += f.original_size;
            }
            let entry = self.observed_total.entry(span.coflow).or_insert(total);
            // New flows of a known coflow can only grow the total.
            *entry = entry.max(total);
            let attained = (*entry - remaining).max(0.0);
            let q = self.queue_of(attained);
            let arr = self.arrivals.get(&span.coflow).copied().unwrap_or(0.0);
            order.push((q, arr, i as u32));
        }
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let spans = s.groups.spans();
        self.tracer.emit(view.now, || TraceEvent::ScheduleOrder {
            policy: "Aalo".to_string(),
            order: order
                .iter()
                .map(|&(_, _, i)| spans[i as usize].coflow.0)
                .collect(),
        });

        // Greedy full-rate service in that order (Aalo's intra-queue FIFO
        // with strict inter-queue priority), flows of a coflow in ascending
        // id, then ordered backfill.
        for &(_, _, i) in &order {
            for (pos, f) in s.groups.flows(&spans[i as usize], &view.flows) {
                s.flow_order.push(pos as u32);
                let granted = s.residual.take(f.src, f.dst, f64::INFINITY);
                if granted > 0.0 {
                    s.cmds.set(pos, FlowCommand::transmit(granted));
                }
            }
        }
        s.backfill(view);
        let alloc = s.cmds.to_allocation(&view.flows);

        self.scratch = s;
        self.order = order;
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_fabric::{Engine, Fabric, FlowSpec, SimConfig};

    #[test]
    fn queue_boundaries_are_exponential() {
        let p = AaloPolicy::new(1.0);
        assert_eq!(p.queue_of(0.0), 0);
        assert_eq!(p.queue_of(9e6), 0);
        assert_eq!(p.queue_of(10e6), 1);
        assert_eq!(p.queue_of(99e6), 1);
        assert_eq!(p.queue_of(100e6), 2);
        assert_eq!(p.queue_of(1e30), 9); // clamped to the last queue
    }

    /// A small coflow arriving behind a big one overtakes it once the big
    /// one has been demoted — without the scheduler knowing either size.
    #[test]
    fn las_demotes_heavy_coflows() {
        let fabric = Fabric::uniform(3, 10e6);
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 200e6)) // elephant
                .build(),
            Coflow::builder(1)
                .arrival(3.0)
                .flow(FlowSpec::new(1, 0, 2, 5e6)) // mouse, same sender
                .build(),
        ];
        let mut p = AaloPolicy::new(1.0);
        let res = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.05)).run(&mut p);
        assert!(res.all_complete());
        let mouse = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        let elephant = res.coflows.iter().find(|c| c.id == CoflowId(0)).unwrap();
        // By t = 3 the elephant sent 30 MB → queue 2; the mouse starts in
        // queue 0 and preempts: CCT ≈ 5 MB / 10 MB/s = 0.5 s.
        assert!(
            mouse.cct().unwrap() < 1.0,
            "mouse blocked: {:?}",
            mouse.cct()
        );
        assert!(elephant.cct().unwrap() > 20.0);
    }

    #[test]
    fn comparable_to_sebf_but_not_better_on_average() {
        use swallow_workload::gen::{CoflowGen, GenConfig, Sizing};
        use swallow_workload::SizeDist;
        let bw = 12.5e6;
        let coflows = CoflowGen::new(GenConfig {
            num_coflows: 25,
            num_nodes: 10,
            interarrival: SizeDist::Exp { mean: 1.0 },
            width: SizeDist::Uniform { lo: 1.0, hi: 4.0 },
            flow_size: SizeDist::BoundedPareto {
                lo: 1e6,
                hi: 200e6,
                shape: 0.6,
            },
            sizing: Sizing::PerCoflow { skew: 0.3 },
            compressible_fraction: 1.0,
            deadline: None,
            seed: 5,
        })
        .generate();
        let fabric = Fabric::uniform(10, bw);
        let mut aalo = AaloPolicy::new(0.1); // queues scaled to the trace
        let aalo_res = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default().with_slice(0.01),
        )
        .run(&mut aalo);
        let mut sebf = crate::ordered::OrderedPolicy::sebf();
        let sebf_res =
            Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01)).run(&mut sebf);
        assert!(aalo_res.all_complete() && sebf_res.all_complete());
        // Non-clairvoyance costs something but stays in SEBF's ballpark
        // (Aalo's paper reports within ~1.2× of Varys).
        let ratio = aalo_res.avg_cct() / sebf_res.avg_cct();
        assert!(
            ratio >= 0.95,
            "Aalo should not beat clairvoyant SEBF: {ratio}"
        );
        assert!(ratio < 2.0, "Aalo too far behind SEBF: {ratio}");
    }
}
