use std::collections::VecDeque;

use dwm_graph::{AccessGraph, CsrGraph, Edge};

use crate::algorithms::frequency::OrganPipe;
use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// Adjacency-driven greedy chain merging.
///
/// The core of the proposed placement family: process access-graph
/// edges in descending weight order; an edge joins its two endpoints'
/// chains end-to-end whenever both endpoints are chain *ends* of
/// different chains. The result is a set of chains in which heavily
/// co-accessed items sit next to each other — exactly what a
/// single-port tape wants, since consecutive accesses then cost one
/// shift. Remaining chains are concatenated in descending total-weight
/// order.
///
/// This is the greedy-matching construction for weighted Hamiltonian
/// path / minimum linear arrangement, running in `O(E log E)` with
/// union-find-style chain bookkeeping.
///
/// # Example
///
/// ```
/// use dwm_graph::AccessGraph;
/// use dwm_core::{ChainGrowth, PlacementAlgorithm};
///
/// let mut g = AccessGraph::with_items(3);
/// g.add_weight(0, 2, 10); // hot pair
/// g.add_weight(0, 1, 1);
/// let p = ChainGrowth::default().place(&g);
/// // Hot pair ends up adjacent on the tape.
/// let d = (p.offset_of(0) as i64 - p.offset_of(2) as i64).abs();
/// assert_eq!(d, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainGrowth;

/// The chains produced by greedy edge merging, before final ordering.
#[derive(Debug, Clone)]
pub(crate) struct Chains {
    /// Each chain as an ordered item list.
    pub chains: Vec<VecDeque<usize>>,
}

/// Greedy chain merging over `n` items and their `edges` (each edge
/// once, `u < v`, in lexicographic order — what both
/// [`AccessGraph::edges`] and [`CsrGraph::edges`] yield).
pub(crate) fn grow_chains(n: usize, edges: impl Iterator<Item = Edge>) -> Chains {
    const NONE: usize = usize::MAX;
    assert!(n <= 1 << 32, "item ids must fit the packed u32 edge key");

    // Heaviest first; ties in (u, v) lexicographic order for
    // reproducibility. Each edge packs into one u128 — `!weight` in
    // the high bits (so ascending order means descending weight),
    // then `u`, then `v` — turning every comparison into a single
    // branchless integer compare instead of a three-field tuple walk.
    let mut edges: Vec<u128> = edges
        .map(|e| (u128::from(!e.weight) << 64) | (e.u as u128) << 32 | e.v as u128)
        .collect();
    edges.sort_unstable();

    // Chains live as undirected paths over per-item neighbour slots
    // (slot 0 fills first), with a union-find over membership — no
    // chain is materialised or relabelled until the final collection,
    // so merging is near-O(1) instead of O(chain length).
    let mut link = vec![[NONE; 2]; n];
    let mut parent: Vec<usize> = (0..n).collect();
    // Per-root [front, back] traversal ends; a singleton is its own
    // front and back.
    let mut ends: Vec<[usize; 2]> = (0..n).map(|v| [v, v]).collect();
    // The historical Vec-of-chains implementation re-pushed a merged
    // chain at a fresh index on every join, so chains came out ordered
    // by the index of their *last* merge; `last_merge` reproduces that
    // ordering (0 = never merged).
    let mut last_merge = vec![0usize; n];
    let mut merges = 0usize;

    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }

    for e in edges {
        let (u, v) = ((e >> 32) as u32 as usize, e as u32 as usize);
        // An item with both slots filled is interior to its chain.
        if link[u][1] != NONE || link[v][1] != NONE {
            continue;
        }
        let ru = find(&mut parent, u);
        let rv = find(&mut parent, v);
        if ru == rv {
            continue; // already in the same chain
        }
        // The historical merge oriented u's chain to end with u and
        // v's chain to start with v, so the joined path runs from u's
        // chain's other end to v's chain's other end.
        let front = if ends[ru][0] == u {
            ends[ru][1]
        } else {
            ends[ru][0]
        };
        let back = if ends[rv][0] == v {
            ends[rv][1]
        } else {
            ends[rv][0]
        };
        let su = usize::from(link[u][0] != NONE);
        link[u][su] = v;
        let sv = usize::from(link[v][0] != NONE);
        link[v][sv] = u;
        parent[ru] = rv;
        ends[rv] = [front, back];
        merges += 1;
        last_merge[rv] = merges;
    }

    // Collect merged chains by last-merge order, then leftover
    // singletons by item index — the order the historical
    // implementation produced.
    let mut roots: Vec<(usize, usize)> = (0..n)
        .filter(|&r| parent[r] == r && last_merge[r] > 0)
        .map(|r| (last_merge[r], r))
        .collect();
    roots.sort_unstable();
    let mut out: Vec<VecDeque<usize>> = Vec::with_capacity(roots.len());
    for (_, r) in roots {
        let [front, back] = ends[r];
        let mut chain = VecDeque::new();
        let (mut prev, mut cur) = (NONE, front);
        while cur != NONE {
            chain.push_back(cur);
            let next = if link[cur][0] == prev {
                link[cur][1]
            } else {
                link[cur][0]
            };
            prev = cur;
            cur = next;
        }
        debug_assert_eq!(*chain.back().expect("nonempty"), back);
        out.push(chain);
    }
    for (v, l) in link.iter().enumerate() {
        if l[0] == NONE {
            out.push(VecDeque::from([v]));
        }
    }
    Chains { chains: out }
}

/// Total access frequency of a chain (for ordering).
fn chain_weight(frequencies: &[u64], chain: &VecDeque<usize>) -> u64 {
    chain
        .iter()
        .map(|&v| frequencies.get(v).copied().unwrap_or(0))
        .sum()
}

/// Sorts chains heaviest-first, ties by front item. Cached keys: the
/// weight sum is O(chain length), too heavy to recompute on every
/// comparison.
fn sort_heaviest_first(chains: &mut [VecDeque<usize>], frequencies: &[u64]) {
    chains.sort_by_cached_key(|c| {
        (
            std::cmp::Reverse(chain_weight(frequencies, c)),
            c.front().copied().unwrap_or(0),
        )
    });
}

impl PlacementAlgorithm for ChainGrowth {
    fn name(&self) -> String {
        "chain".into()
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        let mut chains = grow_chains(graph.num_items(), graph.edges()).chains;
        // Concatenate heaviest-first (hot chains near the port end).
        sort_heaviest_first(&mut chains, graph.frequencies());
        let order: Vec<usize> = chains.into_iter().flatten().collect();
        Placement::from_order(order)
    }
}

/// The full proposed algorithm: chain growth followed by
/// frequency-anchored (organ-pipe) ordering *of the chains*.
///
/// Plain [`ChainGrowth`] concatenates chains heaviest-first, which
/// leaves a hot chain at one end of the tape far from cold chains it
/// still occasionally talks to. `GroupedChainGrowth` instead arranges
/// whole chains in an organ-pipe profile — the hottest chain in the
/// middle, cooler chains alternating outward — and then greedily
/// orients each chain to maximize the junction weight with its already-
/// placed neighbour. This combines the adjacency win (hot pairs
/// adjacent) with the frequency win (hot *groups* central).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupedChainGrowth;

impl GroupedChainGrowth {
    /// [`place`](PlacementAlgorithm::place) on a frozen graph with its
    /// per-item `frequencies` — no [`AccessGraph`] needed. Same
    /// algorithm, same inputs in the same order, so the placement is
    /// identical to placing the graph `csr` was frozen from.
    pub fn place_csr(&self, csr: &CsrGraph, frequencies: &[u64]) -> Placement {
        grouped_order(csr.num_items(), csr.edges(), frequencies, |u, v| {
            csr.weight(u, v)
        })
    }
}

impl PlacementAlgorithm for GroupedChainGrowth {
    fn name(&self) -> String {
        "grouped-chain".into()
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        grouped_order(
            graph.num_items(),
            graph.edges(),
            graph.frequencies(),
            |u, v| graph.weight(u, v),
        )
    }
}

/// The one implementation of [`GroupedChainGrowth`], generic over how
/// the graph is stored: `n` items, their `edges` in lexicographic
/// order, per-item `frequencies`, and an edge-weight lookup.
fn grouped_order(
    n: usize,
    edges: impl Iterator<Item = Edge>,
    frequencies: &[u64],
    weight: impl Fn(usize, usize) -> u64,
) -> Placement {
    let mut chains = grow_chains(n, edges).chains;
    // Sort chains by descending weight, then arrange in organ-pipe
    // profile at chain granularity.
    sort_heaviest_first(&mut chains, frequencies);
    let piped = OrganPipe::pipe_order(chains);

    // Concatenate, flipping each chain if that strengthens the
    // junction with the previously placed item.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for chain in piped {
        if let Some(&prev) = order.last() {
            let front = *chain.front().expect("chains are nonempty");
            let back = *chain.back().expect("chains are nonempty");
            if weight(prev, back) > weight(prev, front) {
                order.extend(chain.into_iter().rev());
                continue;
            }
        }
        order.extend(chain);
    }
    Placement::from_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{kernel_graph, two_cluster_graph};

    #[test]
    fn chains_keep_heavy_edges_adjacent() {
        let g = two_cluster_graph();
        for alg in [&ChainGrowth as &dyn PlacementAlgorithm, &GroupedChainGrowth] {
            let p = alg.place(&g);
            // The lone inter-cluster edge (2,3) is light; the heavy
            // intra-cluster structure must dominate: each cluster's
            // items occupy three consecutive offsets.
            let c1: Vec<usize> = (0..3).map(|i| p.offset_of(i)).collect();
            let c2: Vec<usize> = (3..6).map(|i| p.offset_of(i)).collect();
            let spread = |v: &[usize]| v.iter().max().unwrap() - v.iter().min().unwrap();
            assert_eq!(spread(&c1), 2, "{} scattered cluster 1", alg.name());
            assert_eq!(spread(&c2), 2, "{} scattered cluster 2", alg.name());
        }
    }

    #[test]
    fn grow_chains_covers_every_item_once() {
        let g = kernel_graph();
        let chains = grow_chains(g.num_items(), g.edges()).chains;
        let mut seen = vec![false; g.num_items()];
        for c in &chains {
            for &v in c {
                assert!(!seen[v]);
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chain_growth_beats_naive_on_kernel_graph() {
        let g = kernel_graph();
        let naive = g.arrangement_cost(Placement::identity(g.num_items()).offsets());
        let chain = g.arrangement_cost(ChainGrowth.place(&g).offsets());
        let grouped = g.arrangement_cost(GroupedChainGrowth.place(&g).offsets());
        assert!(chain <= naive);
        assert!(grouped <= naive);
    }

    #[test]
    fn edgeless_graph_yields_identity_like_order() {
        let g = AccessGraph::with_items(4);
        let p = ChainGrowth.place(&g);
        assert_eq!(p.num_items(), 4);
        let p = GroupedChainGrowth.place(&g);
        assert_eq!(p.num_items(), 4);
    }

    #[test]
    fn single_heavy_edge_is_adjacent() {
        let mut g = AccessGraph::with_items(8);
        g.add_weight(1, 6, 100);
        g.add_weight(0, 7, 1);
        let p = GroupedChainGrowth.place(&g);
        assert_eq!(
            (p.offset_of(1) as i64 - p.offset_of(6) as i64).abs(),
            1,
            "heavy pair must be adjacent"
        );
    }

    #[test]
    fn deterministic_output() {
        let g = kernel_graph();
        assert_eq!(ChainGrowth.place(&g), ChainGrowth.place(&g));
        assert_eq!(GroupedChainGrowth.place(&g), GroupedChainGrowth.place(&g));
    }
}
