//! The posting kernels behind
//! [`PartitionedCoverageIndex`](crate::PartitionedCoverageIndex): the
//! incidence structure between candidate protector edges and alive target
//! subgraphs.
//!
//! This is the data structure behind every greedy algorithm in the paper:
//! the dissimilarity gain of deleting edge `p` is exactly the number of
//! alive instances containing `p` (`Δ_p`), and deleting `p` kills those
//! instances. Because phase 1 fixes the instance universe (edge deletions
//! never *create* instances), the index is built once and only ever shrinks
//! under deletions — which is also the combinatorial heart of the
//! monotonicity and submodularity proofs (Lemmas 1–4).
//!
//! Each posting carries a maintained alive count (`Δ_p` itself), so a gain
//! is an `O(1)` lookup instead of a posting-list walk. The functions here
//! work on one posting or one posting map; the index applies them to the
//! postings of whichever shard owns an edge.

use crate::enumerate::enumerate_target_subgraphs;
use crate::instance::MotifInstance;
use crate::pattern::Motif;
use tpp_graph::{Edge, FastMap, NeighborAccess};

/// Index id of a motif instance inside a
/// [`PartitionedCoverageIndex`](crate::PartitionedCoverageIndex).
pub type InstanceId = u32;

/// Posting list of one candidate edge: the instances containing it, plus
/// the maintained count of how many of them are still alive (= `Δ_p`).
#[derive(Debug, Clone)]
pub(crate) struct Posting {
    /// Ids of every instance containing the edge, alive or dead.
    pub ids: Vec<InstanceId>,
    /// How many of `ids` are currently alive.
    pub alive: u32,
}

/// Builds the posting map for `instances`, with every instance alive.
pub(crate) fn build_postings(instances: &[MotifInstance]) -> FastMap<Edge, Posting> {
    let mut postings: FastMap<Edge, Posting> =
        tpp_graph::hash::fast_map_with_capacity(instances.len() * 2);
    for (id, inst) in instances.iter().enumerate() {
        for &e in inst.edges() {
            let p = postings.entry(e).or_insert_with(|| Posting {
                ids: Vec::new(),
                alive: 0,
            });
            p.ids.push(id as InstanceId);
            p.alive += 1;
        }
    }
    postings
}

/// Alive instances a posting can hold before [`posting_breakdown`] spills
/// its target-id buffer from the stack to the heap. Posting lists past
/// this length are rare hub edges, where one allocation is noise next to
/// the walk itself.
const BREAKDOWN_STACK: usize = 32;

/// Sparse per-target alive counts of one posting: `out` is cleared and
/// refilled with one `(target, broken)` pair per target owning at least
/// one alive instance of the posting, ascending by target — the sparse
/// breakdown kernel.
///
/// Cost is `O(a log a)` for the posting's `a` alive instances, independent
/// of the target count. Ids are posted in creation order, and
/// `insert_edge` appends instances out of target order, so the target ids
/// are gathered into a buffer (on the stack up to [`BREAKDOWN_STACK`]),
/// sorted, and run-length encoded.
pub(crate) fn posting_breakdown(
    posting: Option<&Posting>,
    alive: &[bool],
    instances: &[MotifInstance],
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let Some(po) = posting else {
        return;
    };
    let len = po.alive as usize;
    let mut stack = [0usize; BREAKDOWN_STACK];
    let mut heap = Vec::new();
    let buf: &mut [usize] = if len <= BREAKDOWN_STACK {
        &mut stack[..len]
    } else {
        heap.resize(len, 0);
        &mut heap
    };
    let mut filled = 0;
    for &id in &po.ids {
        if alive[id as usize] {
            buf[filled] = instances[id as usize].target_idx;
            filled += 1;
        }
    }
    debug_assert_eq!(filled, len, "posting alive count out of sync");
    buf.sort_unstable();
    for &t in buf.iter() {
        match out.last_mut() {
            Some((last, broken)) if *last == t => *broken += 1,
            _ => out.push((t, 1)),
        }
    }
}

/// Walks every posting of `postings`, asserts its maintained alive count
/// against the flags, and returns the sorted alive-candidate list — the
/// invariant-check kernel.
///
/// # Panics
/// Panics when a maintained count disagrees with the posting walk.
pub(crate) fn verify_posting_map(postings: &FastMap<Edge, Posting>, alive: &[bool]) -> Vec<Edge> {
    let mut candidates = Vec::new();
    for (&e, po) in postings {
        let walked = po.ids.iter().filter(|&&id| alive[id as usize]).count();
        assert_eq!(walked, po.alive as usize, "alive count of {e} out of sync");
        if walked > 0 {
            candidates.push(e);
        }
    }
    candidates.sort_unstable();
    candidates
}

/// Enumerates every target subgraph of every target (the sequential build
/// pass). Returns the instance list and the per-target alive counts.
///
/// # Panics
/// Panics if any target edge is still present in `g` (phase 1 not run).
pub(crate) fn enumerate_instances<G: NeighborAccess>(
    g: &G,
    targets: &[Edge],
    motif: Motif,
) -> (Vec<MotifInstance>, Vec<usize>) {
    for t in targets {
        assert!(
            !g.has_edge(t.u(), t.v()),
            "target {t} still present: run phase 1 (delete targets) before indexing"
        );
    }
    let mut instances = Vec::new();
    let mut per_target_alive = vec![0usize; targets.len()];
    for (idx, t) in targets.iter().enumerate() {
        let mut found = enumerate_target_subgraphs(g, t.u(), t.v(), motif, idx);
        per_target_alive[idx] = found.len();
        instances.append(&mut found);
    }
    (instances, per_target_alive)
}

#[cfg(test)]
mod tests {
    //! The kernels above, driven through the index at one and at three
    //! partitions: every count, split, and candidate list must agree.
    use crate::{Motif, PartitionedCoverageIndex};
    use tpp_graph::{Edge, Graph};

    const PARTS: [usize; 2] = [1, 3];

    /// Fig. 2(a)-style shared-protector fixture for triangles:
    /// targets (0,1) and (0,2); node 3 adjacent to 0, 1, 2 so protector
    /// (0,3) participates in instances of both targets.
    fn shared_protector_graph() -> (Graph, Vec<Edge>) {
        let mut g = Graph::from_edges([(0u32, 3u32), (3, 1), (3, 2)]);
        g.ensure_node(3);
        (g, vec![Edge::new(0, 1), Edge::new(0, 2)])
    }

    /// The fixture's index at every part count under test.
    fn shared_protector_indexes() -> Vec<PartitionedCoverageIndex> {
        let (g, targets) = shared_protector_graph();
        PARTS
            .iter()
            .map(|&parts| PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, parts))
            .collect()
    }

    #[test]
    fn build_counts_instances() {
        for idx in shared_protector_indexes() {
            assert_eq!(idx.total_similarity(), 2);
            assert_eq!(idx.target_similarity(0), 1);
            assert_eq!(idx.target_similarity(1), 1);
            assert_eq!(idx.initial_similarity(), 2);
            idx.check_invariants();
        }
    }

    #[test]
    fn gain_counts_cross_target_coverage() {
        for idx in shared_protector_indexes() {
            // (0,3) covers one instance of each target.
            assert_eq!(idx.gain(Edge::new(0, 3)), 2);
            assert_eq!(idx.gain(Edge::new(1, 3)), 1);
            assert_eq!(idx.gain(Edge::new(5, 6)), 0);
            // Per-target breakdowns: (0,3) breaks one instance of each
            // target, (1,3) only target 0's.
            let mut breakdown = Vec::new();
            idx.gain_breakdown(Edge::new(0, 3), &mut breakdown);
            assert_eq!(breakdown, [(0, 1), (1, 1)]);
            idx.gain_breakdown(Edge::new(1, 3), &mut breakdown);
            assert_eq!(breakdown, [(0, 1)]);
            idx.gain_breakdown(Edge::new(5, 6), &mut breakdown);
            assert!(breakdown.is_empty());
        }
    }

    #[test]
    fn delete_kills_instances_once() {
        for mut idx in shared_protector_indexes() {
            assert_eq!(idx.delete_edge(Edge::new(0, 3)), 2);
            assert_eq!(idx.total_similarity(), 0);
            assert_eq!(idx.delete_edge(Edge::new(1, 3)), 0, "already dead");
            assert_eq!(idx.gain(Edge::new(1, 3)), 0);
            idx.check_invariants();
        }
    }

    #[test]
    fn candidates_shrink_as_instances_die() {
        for mut idx in shared_protector_indexes() {
            assert_eq!(
                idx.all_candidate_edges(),
                vec![Edge::new(0, 3), Edge::new(1, 3), Edge::new(2, 3)]
            );
            idx.delete_edge(Edge::new(1, 3)); // kills target-0 instance
            assert_eq!(
                idx.alive_candidate_edges(),
                vec![Edge::new(0, 3), Edge::new(2, 3)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "phase 1")]
    fn build_rejects_unremoved_targets() {
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        let _ = PartitionedCoverageIndex::build(&g, &[Edge::new(0, 1)], Motif::Triangle, 3);
    }

    #[test]
    fn deletion_gain_matches_recount() {
        // Property-style check on a random graph: Δ_p from the index equals
        // the recount difference from the graph.
        let mut g = tpp_graph::generators::erdos_renyi_gnp(30, 0.2, 99);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        for motif in Motif::ALL {
            let before: usize = crate::count_all_targets(&g, &targets, motif).iter().sum();
            for parts in PARTS {
                let idx = PartitionedCoverageIndex::build(&g, &targets, motif, parts);
                assert_eq!(idx.total_similarity(), before);
                for p in idx.all_candidate_edges() {
                    let mut g2 = g.clone();
                    g2.remove_edge(p.u(), p.v());
                    let after: usize = crate::count_all_targets(&g2, &targets, motif).iter().sum();
                    assert_eq!(idx.gain(p), before - after, "motif {motif} edge {p}");
                }
            }
        }
    }

    #[test]
    fn alive_instances_iterator() {
        for mut idx in shared_protector_indexes() {
            assert_eq!(idx.alive_instances().count(), 2);
            idx.delete_edge(Edge::new(2, 3));
            assert_eq!(idx.alive_instances().count(), 1);
            assert_eq!(idx.alive_instances().next().unwrap().target_idx, 0);
        }
    }

    #[test]
    fn maintained_gains_track_deletions() {
        // The O(1) gain counts must track an arbitrary deletion sequence
        // exactly (cross-checked against the posting walk in invariants).
        let mut g = tpp_graph::generators::erdos_renyi_gnp(24, 0.3, 7);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        for parts in PARTS {
            let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, parts);
            while let Some(&p) = idx.alive_candidate_edges().first() {
                let expect = idx.gain(p);
                assert!(expect > 0, "candidate list must only hold alive edges");
                assert_eq!(idx.delete_edge(p), expect);
                idx.check_invariants();
            }
            assert_eq!(idx.total_similarity(), 0);
            assert!(idx.alive_candidate_edges().is_empty());
        }
    }
}
