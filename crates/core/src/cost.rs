//! Analytic shift-cost models.
//!
//! Cost models replay a trace against a placement and count shifts
//! *without* instantiating the bit-level device — they are the inner
//! loop of every algorithm comparison and sweep. The functional
//! simulator in `dwm-sim` replays the same accesses on a real
//! [`Dbc`](dwm_device::Dbc) and must produce identical shift counts
//! (cross-validation experiment V1).

use dwm_device::shift::{nearest_port_plan, single_port_distance};
use dwm_device::{
    PortLayout, ShiftStats, Topology, TopologyReplayer, TrackTopology, TypedPortLayout,
};
use dwm_graph::{AccessGraph, Edge};
use dwm_trace::Trace;

use crate::placement::Placement;

/// Outcome of replaying a trace under a cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Shift/access counters (`stats.shifts` is the figure of merit).
    pub stats: ShiftStats,
}

impl CostReport {
    /// Shift count per access.
    pub fn shifts_per_access(&self) -> f64 {
        self.stats.mean_shift()
    }
}

/// A shift-cost model: replays accesses and counts tape movement.
///
/// Object-safe so experiment sweeps can iterate over
/// `&[&dyn CostModel]`.
pub trait CostModel {
    /// Short name for report tables.
    fn name(&self) -> String;

    /// Replays `trace` under `placement` and returns the counters.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the trace references items outside
    /// the placement (callers pair a trace with a placement built from
    /// the same trace/graph).
    fn trace_cost(&self, placement: &Placement, trace: &Trace) -> CostReport;
}

/// Single-port tape: the state is the offset currently under the port;
/// moving from offset `a` to offset `b` costs `|a − b|` shifts.
///
/// The first access is charged from `initial_offset` (the port's rest
/// alignment, offset 0 by default).
///
/// Under this model, total cost (excluding the first alignment) equals
/// the [linear arrangement cost](AccessGraph::arrangement_cost) of the
/// placement on the trace's access graph — the identity the paper's
/// problem formulation rests on, and which
/// [`graph_cost`](SinglePortCost::graph_cost) exposes directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinglePortCost {
    /// Offset aligned with the port before the first access.
    pub initial_offset: usize,
}

impl SinglePortCost {
    /// Model with the tape initially at rest (offset 0 under the port).
    pub fn new() -> Self {
        SinglePortCost::default()
    }

    /// Arrangement cost of `placement` on an access graph — the
    /// steady-state shift count, cheaper to evaluate than a full trace
    /// replay when only the total matters.
    pub fn graph_cost(&self, placement: &Placement, graph: &AccessGraph) -> u64 {
        graph.arrangement_cost(placement.offsets())
    }
}

impl CostModel for SinglePortCost {
    fn name(&self) -> String {
        "single-port".into()
    }

    fn trace_cost(&self, placement: &Placement, trace: &Trace) -> CostReport {
        let mut stats = ShiftStats::new();
        let mut current = self.initial_offset;
        for a in trace.iter() {
            let next = placement.offset_of_id(a.item);
            stats.record(single_port_distance(current, next), a.kind.is_write());
            current = next;
        }
        CostReport { stats }
    }
}

/// Multi-port tape under the nearest-port policy: the state is the tape
/// displacement; each access picks the port minimizing shift distance.
///
/// With `PortLayout::single()` this reduces exactly to
/// [`SinglePortCost`] (verified by tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiPortCost {
    layout: PortLayout,
}

impl MultiPortCost {
    /// Model for the given port layout.
    pub fn new(layout: PortLayout) -> Self {
        MultiPortCost { layout }
    }

    /// Model with `count` evenly spaced ports over `l` words.
    pub fn evenly_spaced(count: usize, l: usize) -> Self {
        MultiPortCost {
            layout: if count == 1 {
                PortLayout::single()
            } else {
                PortLayout::evenly_spaced(count, l)
            },
        }
    }

    /// The port layout this model replays against.
    pub fn layout(&self) -> &PortLayout {
        &self.layout
    }
}

impl CostModel for MultiPortCost {
    fn name(&self) -> String {
        format!("{}-port", self.layout.len())
    }

    fn trace_cost(&self, placement: &Placement, trace: &Trace) -> CostReport {
        let mut stats = ShiftStats::new();
        let mut displacement = 0i64;
        for a in trace.iter() {
            let offset = placement.offset_of_id(a.item);
            let plan = nearest_port_plan(&self.layout, displacement, offset);
            stats.record(plan.distance, a.kind.is_write());
            displacement = plan.displacement;
        }
        CostReport { stats }
    }
}

/// Heterogeneous-port tape: reads may align with any port, writes only
/// with read-write ports (nearest eligible port policy).
///
/// Models the realistic DWM macro in which cheap MTJ read heads
/// outnumber expensive shift-based write heads. With an all-read-write
/// layout this reduces exactly to [`MultiPortCost`] (verified by
/// tests); with fewer writers, write-heavy traces pay longer shifts —
/// the asymmetry the F8 ablation sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedPortCost {
    layout: TypedPortLayout,
}

impl TypedPortCost {
    /// Model for the given typed layout.
    pub fn new(layout: TypedPortLayout) -> Self {
        TypedPortCost { layout }
    }

    /// The typed layout this model replays against.
    pub fn layout(&self) -> &TypedPortLayout {
        &self.layout
    }
}

impl CostModel for TypedPortCost {
    fn name(&self) -> String {
        format!(
            "{}r/{}w-port",
            self.layout.read_layout().len(),
            self.layout.write_layout().len()
        )
    }

    fn trace_cost(&self, placement: &Placement, trace: &Trace) -> CostReport {
        let mut stats = ShiftStats::new();
        let mut displacement = 0i64;
        for a in trace.iter() {
            let offset = placement.offset_of_id(a.item);
            let ports = if a.kind.is_write() {
                self.layout.write_layout()
            } else {
                self.layout.read_layout()
            };
            let plan = nearest_port_plan(ports, displacement, offset);
            stats.record(plan.distance, a.kind.is_write());
            displacement = plan.displacement;
        }
        CostReport { stats }
    }
}

/// Topology-parametric cost model: replays a trace under any
/// [`Topology`] (linear / ring / 2-D grid / PIRM) and port layout,
/// using [`TopologyReplayer`] as the single source of truth for shift
/// arithmetic.
///
/// With [`Topology::linear`] and [`PortLayout::single`] this reduces
/// exactly to [`SinglePortCost`]; with a linear topology and any port
/// layout it matches [`MultiPortCost`] (both verified by tests).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyCost {
    topology: Topology,
    layout: PortLayout,
    len: usize,
}

impl TopologyCost {
    /// Model for the given topology, port layout, and track length
    /// (`len` is the word count of the tape — ring and grid geometries
    /// need it; linear ignores it).
    pub fn new(topology: Topology, layout: PortLayout, len: usize) -> Self {
        TopologyCost {
            topology,
            layout,
            len,
        }
    }

    /// Single-port convenience over `len` words.
    pub fn single_port(topology: Topology, len: usize) -> Self {
        TopologyCost::new(topology, PortLayout::single(), len)
    }

    /// The topology this model replays against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The port layout this model replays against.
    pub fn layout(&self) -> &PortLayout {
        &self.layout
    }

    /// Steady-state graph cost: sum over access-graph edges of
    /// `weight × shift_distance(pos(u), pos(v))` under this topology.
    ///
    /// For a linear single-port tape this equals
    /// [`AccessGraph::arrangement_cost`] — the minimum-linear-arrangement
    /// objective; other topologies substitute their own distance metric
    /// (circular for ring, Manhattan-weighted for grids, windowed for
    /// PIRM).
    pub fn graph_cost(&self, placement: &Placement, graph: &AccessGraph) -> u64 {
        self.edges_cost(placement, graph.edges())
    }

    /// [`graph_cost`](Self::graph_cost) over any edge iterator, e.g.
    /// [`CsrGraph::edges`](dwm_graph::CsrGraph::edges) — the one
    /// evaluation both graph representations share.
    pub fn edges_cost(&self, placement: &Placement, edges: impl Iterator<Item = Edge>) -> u64 {
        let pos = placement.offsets();
        edges
            .map(|e| {
                e.weight
                    * self
                        .topology
                        .shift_distance(&self.layout, self.len, pos[e.u], pos[e.v])
            })
            .sum()
    }
}

impl CostModel for TopologyCost {
    fn name(&self) -> String {
        format!("{}@{}-port", self.topology.canonical(), self.layout.len())
    }

    fn trace_cost(&self, placement: &Placement, trace: &Trace) -> CostReport {
        let mut stats = ShiftStats::new();
        let mut replayer = TopologyReplayer::new(&self.topology, &self.layout, self.len);
        for a in trace.iter() {
            let offset = placement.offset_of_id(a.item);
            stats.record(replayer.access(offset), a.kind.is_write());
        }
        CostReport { stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::from_ids([0u32, 3, 1, 1, 2, 0])
    }

    #[test]
    fn single_port_counts_pairwise_distances() {
        let t = trace();
        let p = Placement::identity(4);
        let report = SinglePortCost::new().trace_cost(&p, &t);
        // 0(first) + |0−3| + |3−1| + 0 + |1−2| + |2−0| = 8.
        assert_eq!(report.stats.shifts, 8);
        assert_eq!(report.stats.accesses(), 6);
        assert_eq!(report.stats.aligned_hits, 2); // first access + repeat
    }

    #[test]
    fn graph_cost_matches_trace_cost_steady_state() {
        let t = trace();
        let g = AccessGraph::from_trace(&t);
        let p = Placement::from_order([2, 0, 3, 1]);
        let model = SinglePortCost::new();
        let replay = model.trace_cost(&p, &t).stats.shifts;
        let first_alignment = p.offset_of(0) as u64; // first access is item 0
        assert_eq!(model.graph_cost(&p, &g), replay - first_alignment);
    }

    #[test]
    fn multi_port_with_single_layout_matches_single_port() {
        let t = trace();
        for p in [Placement::identity(4), Placement::from_order([3, 1, 0, 2])] {
            let s = SinglePortCost::new().trace_cost(&p, &t).stats.shifts;
            let m = MultiPortCost::new(PortLayout::single())
                .trace_cost(&p, &t)
                .stats
                .shifts;
            assert_eq!(s, m);
        }
    }

    #[test]
    fn more_ports_help_far_jumps() {
        // Alternating far jumps: a single end port pays the full span
        // every time; spread ports serve each end locally. (On monotone
        // sweeps the greedy nearest-port policy gains nothing — every
        // port's required displacement advances in lockstep — so this
        // is the workload class where port count actually matters.)
        let ids: Vec<u32> = (0..32).flat_map(|_| [0u32, 63]).collect();
        let t = Trace::from_ids(ids);
        let p = Placement::identity(64);
        let one = MultiPortCost::evenly_spaced(1, 64).trace_cost(&p, &t);
        let four = MultiPortCost::evenly_spaced(4, 64).trace_cost(&p, &t);
        assert!(four.stats.shifts < one.stats.shifts);
    }

    #[test]
    fn placement_changes_cost() {
        let t = trace();
        let good = Placement::identity(4);
        // Scatter the hot pair 1–1,0 far apart.
        let bad = Placement::from_order([0, 3, 2, 1]);
        let m = SinglePortCost::new();
        assert_ne!(
            m.trace_cost(&good, &t).stats.shifts,
            m.trace_cost(&bad, &t).stats.shifts
        );
    }

    #[test]
    fn report_exposes_mean() {
        let t = Trace::from_ids([0u32, 1]);
        let r = SinglePortCost::new().trace_cost(&Placement::identity(2), &t);
        assert!((r.shifts_per_access() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn typed_all_rw_matches_multi_port() {
        use dwm_trace::Access;
        let t = Trace::from_accesses([
            Access::read(0u32),
            Access::write(3u32),
            Access::read(1u32),
            Access::write(2u32),
        ]);
        let p = Placement::identity(4);
        let typed = TypedPortCost::new(TypedPortLayout::evenly_spaced(2, 2, 4));
        let multi = MultiPortCost::evenly_spaced(2, 4);
        assert_eq!(
            typed.trace_cost(&p, &t).stats.shifts,
            multi.trace_cost(&p, &t).stats.shifts
        );
    }

    #[test]
    fn fewer_writers_cost_more_on_write_heavy_traces() {
        use dwm_trace::Access;
        // Writes alternating between the two ends of a 64-word tape.
        let t =
            Trace::from_accesses((0..32).flat_map(|_| [Access::write(0u32), Access::write(63u32)]));
        let p = Placement::identity(64);
        let four_writers = TypedPortCost::new(TypedPortLayout::evenly_spaced(4, 4, 64));
        let one_writer = TypedPortCost::new(TypedPortLayout::evenly_spaced(4, 1, 64));
        assert!(
            one_writer.trace_cost(&p, &t).stats.shifts
                > four_writers.trace_cost(&p, &t).stats.shifts
        );
    }

    #[test]
    fn read_only_ports_still_serve_reads() {
        let t = Trace::from_ids([0u32, 63, 0, 63]);
        let p = Placement::identity(64);
        let typed = TypedPortCost::new(TypedPortLayout::evenly_spaced(4, 1, 64));
        let single = SinglePortCost::new();
        // Reads can use the read-only heads, so the typed layout beats
        // a pure single-port tape on read ping-pong.
        assert!(typed.trace_cost(&p, &t).stats.shifts < single.trace_cost(&p, &t).stats.shifts);
    }

    #[test]
    fn topology_linear_single_port_matches_single_port_cost() {
        let t = trace();
        let g = AccessGraph::from_trace(&t);
        for p in [Placement::identity(4), Placement::from_order([3, 1, 0, 2])] {
            let legacy = SinglePortCost::new();
            let topo = TopologyCost::single_port(Topology::linear(), 4);
            assert_eq!(
                legacy.trace_cost(&p, &t).stats,
                topo.trace_cost(&p, &t).stats
            );
            assert_eq!(legacy.graph_cost(&p, &g), topo.graph_cost(&p, &g));
            assert_eq!(topo.graph_cost(&p, &g), g.arrangement_cost(p.offsets()));
        }
    }

    #[test]
    fn topology_linear_multi_port_matches_multi_port_cost() {
        let ids: Vec<u32> = (0..16).flat_map(|_| [0u32, 63, 17, 40]).collect();
        let t = Trace::from_ids(ids);
        let p = Placement::identity(64);
        let layout = PortLayout::evenly_spaced(4, 64);
        let legacy = MultiPortCost::new(layout.clone());
        let topo = TopologyCost::new(Topology::linear(), layout, 64);
        assert_eq!(
            legacy.trace_cost(&p, &t).stats,
            topo.trace_cost(&p, &t).stats
        );
    }

    #[test]
    fn ring_never_costs_more_than_linear() {
        let ids: Vec<u32> = (0..32).flat_map(|_| [0u32, 63]).collect();
        let t = Trace::from_ids(ids);
        let p = Placement::identity(64);
        let linear = TopologyCost::single_port(Topology::linear(), 64);
        let ring = TopologyCost::single_port(Topology::parse("ring").unwrap(), 64);
        let (ls, rs) = (
            linear.trace_cost(&p, &t).stats.shifts,
            ring.trace_cost(&p, &t).stats.shifts,
        );
        // End-to-end ping-pong: the ring wraps in 1 step, linear pays 63.
        assert!(rs < ls, "ring {rs} vs linear {ls}");
    }

    #[test]
    fn topologies_produce_distinct_graph_costs() {
        let ids: Vec<u32> = (0..8)
            .flat_map(|k| [k as u32, ((k * 7) % 64) as u32])
            .collect();
        let t = Trace::from_ids(ids);
        let g = AccessGraph::from_trace(&t);
        let p = Placement::identity(64);
        let costs: Vec<u64> = ["linear", "ring", "grid2d:8x8", "pirm:4"]
            .iter()
            .map(|s| TopologyCost::single_port(Topology::parse(s).unwrap(), 64).graph_cost(&p, &g))
            .collect();
        // All four geometries price the same placement differently.
        for i in 0..costs.len() {
            for j in (i + 1)..costs.len() {
                assert_ne!(costs[i], costs[j], "{i} vs {j}: {costs:?}");
            }
        }
    }

    #[test]
    fn models_are_object_safe() {
        let models: Vec<Box<dyn CostModel>> = vec![
            Box::new(SinglePortCost::new()),
            Box::new(MultiPortCost::evenly_spaced(2, 8)),
            Box::new(TypedPortCost::new(TypedPortLayout::evenly_spaced(2, 1, 8))),
            Box::new(TopologyCost::single_port(
                Topology::parse("ring").unwrap(),
                8,
            )),
        ];
        let t = Trace::from_ids([0u32, 1, 2]);
        let p = Placement::identity(3);
        for m in &models {
            assert!(!m.name().is_empty());
            let _ = m.trace_cost(&p, &t);
        }
    }
}
