//! Independent correctness checks on the daemon's answers.
//!
//! Costs are recomputed from the generated trace with
//! [`TopologyCost::single_port`], never taken from the server; a
//! placement must be a permutation of the workload's items.

use std::collections::HashMap;

use dwm_core::{Placement, TopologyCost};
use dwm_device::Topology;
use dwm_foundation::json::{Object, Value};
use dwm_graph::{fingerprint, AccessGraph};
use dwm_trace::Trace;

/// What a checked workload result carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// The result's `fingerprint` (hex).
    pub fingerprint: String,
    /// Served cost, recomputed (and equal to the body's).
    pub cost: u64,
    /// Naive cost, recomputed (and equal to the body's).
    pub naive: u64,
}

/// Parses a response body as a JSON object.
pub fn parse_object(body: &str) -> Result<Object, String> {
    match dwm_foundation::json::parse(body) {
        Ok(Value::Obj(obj)) => Ok(obj),
        Ok(other) => Err(format!("expected a JSON object, got {}", other.type_name())),
        Err(e) => Err(format!("unparseable body: {e}")),
    }
}

/// Unsigned integer field.
pub fn u64_field(obj: &Object, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_number)
        .and_then(|n| n.as_u64())
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// String field.
pub fn str_field<'a>(obj: &'a Object, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Array-of-unsigned field as `usize`s.
pub fn usize_array(obj: &Object, key: &str) -> Result<Vec<usize>, String> {
    let arr = obj
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field {key:?}"))?;
    arr.iter()
        .map(|v| {
            v.as_number()
                .and_then(|n| n.as_u64())
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("non-integer entry in {key:?}"))
        })
        .collect()
}

/// Array-of-objects field.
pub fn objects<'a>(obj: &'a Object, key: &str) -> Result<Vec<&'a Object>, String> {
    obj.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|v| {
            v.as_object()
                .ok_or_else(|| format!("non-object in {key:?}"))
        })
        .collect()
}

/// The access graph of a raw id sequence, over first-appearance ids
/// (the numbering both `/solve` and sessions use).
pub fn graph_of(ids: &[u32]) -> AccessGraph {
    AccessGraph::from_trace(&Trace::from_ids(ids.iter().copied()).normalize())
}

/// Recomputes `(cost, naive)` of `offsets` on `graph`, failing unless
/// `offsets` is a permutation of the graph's items.
pub fn costs(graph: &AccessGraph, offsets: Vec<usize>) -> Result<(u64, u64), String> {
    let n = graph.num_items();
    if offsets.len() != n {
        return Err(format!(
            "placement has {} offsets for {n} items",
            offsets.len()
        ));
    }
    let placement = Placement::from_offsets(offsets)
        .map_err(|e| format!("placement is not a permutation: {e}"))?;
    let model = TopologyCost::single_port(Topology::linear(), n);
    Ok((
        model.graph_cost(&placement, graph),
        model.graph_cost(&Placement::identity(n), graph),
    ))
}

/// Checks one `/solve` result object against the trace it answers:
/// fingerprint, item count, permutation, and both costs.
pub fn check_solve_result(ids: &[u32], result: &Object) -> Result<Checked, String> {
    let graph = graph_of(ids);
    let fp = str_field(result, "fingerprint")?;
    let want_fp = fingerprint(&graph).to_hex();
    if fp != want_fp {
        return Err(format!("fingerprint {fp} != recomputed {want_fp}"));
    }
    let items = u64_field(result, "items")?;
    if items != graph.num_items() as u64 {
        return Err(format!("items {items} != {}", graph.num_items()));
    }
    let (cost, naive) = costs(&graph, usize_array(result, "placement")?)?;
    let (got_cost, got_naive) = (u64_field(result, "cost")?, u64_field(result, "naive_cost")?);
    if (got_cost, got_naive) != (cost, naive) {
        return Err(format!(
            "server cost/naive {got_cost}/{got_naive} != recomputed {cost}/{naive}"
        ));
    }
    Ok(Checked {
        fingerprint: fp.to_owned(),
        cost,
        naive,
    })
}

/// The access graph of a growing prefix of one session stream, kept
/// incrementally so checking every placement read stays cheap. Items
/// are numbered in first-appearance order, like a session numbers them.
pub struct PrefixGraph<'a> {
    stream: &'a [u32],
    len: usize,
    dense: HashMap<u32, usize>,
    /// Raw ids in first-appearance order.
    order: Vec<usize>,
    /// `(min, max)` dense pair → adjacent-access count.
    pairs: HashMap<(usize, usize), u64>,
    freq: Vec<u64>,
}

impl<'a> PrefixGraph<'a> {
    /// An empty prefix of `stream`.
    pub fn new(stream: &'a [u32]) -> Self {
        PrefixGraph {
            stream,
            len: 0,
            dense: HashMap::new(),
            order: Vec::new(),
            pairs: HashMap::new(),
            freq: Vec::new(),
        }
    }

    /// Extends the prefix to `len` accesses; a shorter `len` restarts it.
    fn advance(&mut self, len: usize) -> Result<(), String> {
        if len > self.stream.len() {
            return Err(format!(
                "{len} accesses exceed the stream's {}",
                self.stream.len()
            ));
        }
        if len < self.len {
            *self = PrefixGraph::new(self.stream);
        }
        for i in self.len..len {
            let raw = self.stream[i];
            let next = self.order.len();
            let d = *self.dense.entry(raw).or_insert(next);
            if d == next {
                self.order.push(raw as usize);
                self.freq.push(0);
            }
            self.freq[d] += 1;
            if i > 0 {
                let p = self.dense[&self.stream[i - 1]];
                if p != d {
                    *self.pairs.entry((p.min(d), p.max(d))).or_default() += 1;
                }
            }
        }
        self.len = len;
        Ok(())
    }

    fn graph(&self) -> AccessGraph {
        let mut g = AccessGraph::with_items(self.order.len());
        for (&(u, v), &w) in &self.pairs {
            g.add_weight(u, v, w);
        }
        for (i, &f) in self.freq.iter().enumerate() {
            g.set_frequency(i, f);
        }
        g
    }
}

/// Checks a session placement read against the stream prefix the
/// session had ingested: the dense-id order, the permutation, and both
/// costs. Reads of one stream are cheapest in increasing prefix order.
pub fn check_session_read(prefix: &mut PrefixGraph<'_>, read: &Object) -> Result<(), String> {
    let accesses = usize::try_from(u64_field(read, "accesses")?).map_err(|e| e.to_string())?;
    prefix.advance(accesses)?;
    if usize_array(read, "ids")? != prefix.order {
        return Err("session ids are not the stream's first-appearance order".into());
    }
    let (cost, naive) = costs(&prefix.graph(), usize_array(read, "placement")?)?;
    let (got_cost, got_naive) = (u64_field(read, "cost")?, u64_field(read, "naive_cost")?);
    if (got_cost, got_naive) != (cost, naive) {
        return Err(format!(
            "session cost/naive {got_cost}/{got_naive} != recomputed {cost}/{naive}"
        ));
    }
    Ok(())
}

/// The raw text of the `"results":…` member of a solve body: the part
/// that must repeat byte for byte across identical requests.
pub fn results_portion(body: &str) -> Option<&str> {
    body.find(r#""results":"#).map(|i| &body[i..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_reject_non_permutations_and_count_adjacent_pairs() {
        // 0 1 0 2: edges {0,1} x2, {0,2} x1. Identity: 2*1 + 1*2 = 4.
        let g = graph_of(&[5, 9, 5, 7]);
        assert_eq!(costs(&g, vec![0, 1, 2]), Ok((4, 4)));
        // Put item 0 in the middle: every edge has length 1.
        assert_eq!(costs(&g, vec![1, 0, 2]), Ok((3, 4)));
        assert!(costs(&g, vec![0, 0, 2]).is_err());
        assert!(costs(&g, vec![0, 1]).is_err());
    }

    #[test]
    fn prefix_graphs_match_a_from_scratch_build() {
        let stream = [5u32, 9, 5, 7, 7, 9, 2, 5];
        let mut prefix = PrefixGraph::new(&stream);
        for len in [3, 6, 8, 2, 8] {
            prefix.advance(len).unwrap();
            let fresh = graph_of(&stream[..len]);
            let identity: Vec<usize> = (0..fresh.num_items()).collect();
            assert_eq!(
                costs(&prefix.graph(), identity.clone()),
                costs(&fresh, identity)
            );
            assert_eq!(prefix.graph().frequencies(), fresh.frequencies());
        }
        assert_eq!(prefix.order, vec![5, 9, 7, 2]);
        assert!(prefix.advance(9).is_err());
    }

    #[test]
    fn results_portion_skips_the_cache_labels() {
        let a = r#"{"cache":["miss"],"results":[{"cost":1}]}"#;
        let b = r#"{"cache":["hit"],"results":[{"cost":1}]}"#;
        assert_eq!(results_portion(a), results_portion(b));
        assert_eq!(results_portion("{}"), None);
    }
}
