//! The coverage index: the incidence structure between candidate protector
//! edges and alive target subgraphs.
//!
//! This is the data structure behind every greedy algorithm in the paper:
//! the dissimilarity gain of deleting edge `p` is exactly the number of
//! alive instances containing `p` (`Δ_p`), and deleting `p` kills those
//! instances. Because phase 1 fixes the instance universe (edge deletions
//! never *create* instances), the index is built once and only ever shrinks —
//! which is also the combinatorial heart of the monotonicity and
//! submodularity proofs (Lemmas 1–4).
//!
//! Beyond the posting lists, the index maintains two derived structures
//! incrementally so the greedy round loop never recomputes them:
//!
//! * a **per-edge alive count** (`Δ_p` itself), making [`CoverageIndex::gain`]
//!   an `O(1)` lookup instead of a posting-list walk;
//! * a **sorted alive-candidate list** (Lemma 5's restricted candidate set),
//!   compacted in place when deletions retire edges, so
//!   [`CoverageIndex::alive_candidate_edges`] returns a borrowed slice
//!   instead of re-walking and re-sorting every posting each round.
//!
//! For the partition-parallel variant whose commits touch only the shards
//! containing the broken instances, see
//! [`PartitionedCoverageIndex`](crate::PartitionedCoverageIndex).

use crate::enumerate::enumerate_target_subgraphs;
use crate::instance::MotifInstance;
use crate::pattern::Motif;
use tpp_graph::{Edge, FastMap, NeighborAccess};

/// Index id of a motif instance inside a [`CoverageIndex`].
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

/// `(own, cross)` split of a posting's alive instances relative to
/// `target_idx` — the CT/WT score kernel shared by both index flavors.
pub(crate) fn posting_gain_split(
    posting: Option<&Posting>,
    alive: &[bool],
    instances: &[MotifInstance],
    target_idx: usize,
) -> (usize, usize) {
    let (mut own, mut cross) = (0usize, 0usize);
    if let Some(po) = posting {
        for &id in &po.ids {
            if alive[id as usize] {
                if instances[id as usize].target_idx == target_idx {
                    own += 1;
                } else {
                    cross += 1;
                }
            }
        }
    }
    (own, cross)
}

/// Alive instances a posting can hold before [`posting_breakdown`] spills
/// its target-id buffer from the stack to the heap. Posting lists past
/// this length are rare hub edges, where one allocation is noise next to
/// the walk itself.
const BREAKDOWN_STACK: usize = 32;

/// Sparse per-target alive counts of one posting: `out` is cleared and
/// refilled with one `(target, broken)` pair per target owning at least
/// one alive instance of the posting, ascending by target — the breakdown
/// kernel shared by both index flavors.
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
/// invariant-check kernel shared by both index flavors.
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

/// Enumerates every target subgraph of every target (the shared build pass
/// of both index flavors). Returns the instance list and the per-target
/// alive counts.
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

/// Incidence index between edges and alive motif instances for a fixed
/// (graph, target set, motif) triple.
#[derive(Debug, Clone)]
pub struct CoverageIndex {
    motif: Motif,
    targets: Vec<Edge>,
    instances: Vec<MotifInstance>,
    alive: Vec<bool>,
    /// Edge -> posting (instance ids + maintained alive count).
    postings: FastMap<Edge, Posting>,
    /// Alive-instance count per target index: the similarity `s(P, t)`.
    per_target_alive: Vec<usize>,
    alive_total: usize,
    /// Sorted edges with at least one alive instance, compacted in place
    /// whenever a deletion retires edges (Lemma 5's candidate set).
    alive_candidates: Vec<Edge>,
    /// Reusable kill buffer so `delete_edge` never allocates per call.
    kill_scratch: Vec<InstanceId>,
}

impl CoverageIndex {
    /// Builds the index by enumerating every target subgraph of every target.
    ///
    /// `g` must already have all targets removed (phase 1); building against
    /// a graph that still contains target edges would let instances lean on
    /// links the adversary cannot see.
    ///
    /// # Panics
    /// Panics if any target edge is still present in `g`.
    #[must_use]
    pub fn build<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif) -> Self {
        let (instances, per_target_alive) = enumerate_instances(g, targets, motif);
        let postings = build_postings(&instances);
        let mut alive_candidates: Vec<Edge> = postings.keys().copied().collect();
        alive_candidates.sort_unstable();
        let alive_total = instances.len();
        CoverageIndex {
            motif,
            targets: targets.to_vec(),
            alive: vec![true; instances.len()],
            instances,
            postings,
            per_target_alive,
            alive_total,
            alive_candidates,
            kill_scratch: Vec::new(),
        }
    }

    /// The motif this index was built for.
    #[must_use]
    pub fn motif(&self) -> Motif {
        self.motif
    }

    /// The target set, in index order.
    #[must_use]
    pub fn targets(&self) -> &[Edge] {
        &self.targets
    }

    /// Total similarity `s(P, T)`: alive instances across all targets.
    #[must_use]
    pub fn total_similarity(&self) -> usize {
        self.alive_total
    }

    /// Similarity of a single target: `s(P, t) = |W_t alive|`.
    #[must_use]
    pub fn target_similarity(&self, target_idx: usize) -> usize {
        self.per_target_alive[target_idx]
    }

    /// Per-target similarity vector.
    #[must_use]
    pub fn similarities(&self) -> &[usize] {
        &self.per_target_alive
    }

    /// Initial total similarity `s(∅, T)` (instances ever indexed).
    #[must_use]
    pub fn initial_similarity(&self) -> usize {
        self.instances.len()
    }

    /// Dissimilarity gain `Δ_p` of deleting `p`: alive instances containing
    /// `p` across **all** targets (the SGB-Greedy score). `O(1)`: the count
    /// is maintained incrementally by [`CoverageIndex::delete_edge`].
    #[must_use]
    pub fn gain(&self, p: Edge) -> usize {
        self.postings.get(&p).map_or(0, |po| po.alive as usize)
    }

    /// Split gain for CT/WT-Greedy: `(own, cross)` where `own` counts alive
    /// instances of `target_idx` containing `p` and `cross` counts alive
    /// instances of every other target containing `p`. The paper's score is
    /// `Δ_t^p = own + cross / C`, i.e. lexicographic `(own, cross)`.
    #[must_use]
    pub fn gain_split(&self, p: Edge, target_idx: usize) -> (usize, usize) {
        posting_gain_split(
            self.postings.get(&p),
            &self.alive,
            &self.instances,
            target_idx,
        )
    }

    /// Sparse per-target breakdown of `Δ_p`: `out` is refilled with one
    /// `(target, broken)` pair per target that deleting `p` would cost at
    /// least one alive instance, ascending by target. The counts sum to
    /// [`gain`](Self::gain). One pass over `p`'s instance list.
    pub fn gain_breakdown(&self, p: Edge, out: &mut Vec<(usize, usize)>) {
        posting_breakdown(self.postings.get(&p), &self.alive, &self.instances, out);
    }

    /// Deletes edge `p`, killing every alive instance containing it.
    /// Returns the number of instances broken (= the realized `Δ_p`).
    ///
    /// Besides flipping alive flags this maintains the per-edge alive
    /// counts and compacts the alive-candidate list when edges retire — the
    /// whole-index walk the candidate set used to cost per round.
    pub fn delete_edge(&mut self, p: Edge) -> usize {
        // Collect the kill set first: the posting map cannot be borrowed
        // while other postings' counts are decremented below. The scratch
        // buffer is reused across calls, so no allocation either way.
        let mut killed = std::mem::take(&mut self.kill_scratch);
        killed.clear();
        if let Some(po) = self.postings.get(&p) {
            killed.extend(po.ids.iter().filter(|&&id| self.alive[id as usize]));
        }
        let broken = killed.len();
        let mut retired = false;
        for &id in &killed {
            let idx = id as usize;
            self.alive[idx] = false;
            self.per_target_alive[self.instances[idx].target_idx] -= 1;
            self.alive_total -= 1;
            // Every edge of a killed instance loses one alive posting.
            for e in self.instances[idx].edges() {
                let po = self
                    .postings
                    .get_mut(e)
                    .expect("instance edge must be posted");
                po.alive -= 1;
                retired |= po.alive == 0;
            }
        }
        if retired {
            // In-place compaction preserves sorted order; only rounds that
            // actually retire candidates pay this pass.
            let postings = &self.postings;
            self.alive_candidates
                .retain(|e| postings.get(e).is_some_and(|po| po.alive > 0));
        }
        self.kill_scratch = killed;
        #[cfg(debug_assertions)]
        self.check_invariants();
        broken
    }

    /// Edges that participate in at least one **alive** instance — the
    /// restricted candidate set of the scalable `-R` algorithms (Lemma 5).
    /// Sorted canonically; maintained incrementally by
    /// [`CoverageIndex::delete_edge`], so this is a borrow, not a rebuild.
    #[must_use]
    pub fn alive_candidate_edges(&self) -> &[Edge] {
        &self.alive_candidates
    }

    /// All edges that ever participated in an instance (alive or dead),
    /// sorted. This is the static candidate superset `edges(W)`.
    #[must_use]
    pub fn all_candidate_edges(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = self.postings.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Iterates alive instances (for reporting / verification).
    pub fn alive_instances(&self) -> impl Iterator<Item = &MotifInstance> + '_ {
        self.instances
            .iter()
            .enumerate()
            .filter(|&(id, _)| self.alive[id])
            .map(|(_, inst)| inst)
    }

    /// Verifies internal consistency (counters, alive counts, and the
    /// candidate list vs the alive flags). Runs automatically after every
    /// deletion in debug builds; release-mode rounds never pay this walk.
    pub fn check_invariants(&self) {
        let alive_count = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(alive_count, self.alive_total, "alive_total out of sync");
        let mut per_target = vec![0usize; self.targets.len()];
        for (id, inst) in self.instances.iter().enumerate() {
            if self.alive[id] {
                per_target[inst.target_idx] += 1;
            }
        }
        assert_eq!(per_target, self.per_target_alive, "per-target out of sync");
        assert_eq!(
            verify_posting_map(&self.postings, &self.alive),
            self.alive_candidates,
            "alive-candidate list out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Graph;

    /// Fig. 2(a)-style shared-protector fixture for triangles:
    /// targets (0,1) and (0,2); node 3 adjacent to 0, 1, 2 so protector
    /// (0,3) participates in instances of both targets.
    fn shared_protector_graph() -> (Graph, Vec<Edge>) {
        let mut g = Graph::from_edges([(0u32, 3u32), (3, 1), (3, 2)]);
        g.ensure_node(3);
        (g, vec![Edge::new(0, 1), Edge::new(0, 2)])
    }

    #[test]
    fn build_counts_instances() {
        let (g, targets) = shared_protector_graph();
        let idx = CoverageIndex::build(&g, &targets, Motif::Triangle);
        assert_eq!(idx.total_similarity(), 2);
        assert_eq!(idx.target_similarity(0), 1);
        assert_eq!(idx.target_similarity(1), 1);
        assert_eq!(idx.initial_similarity(), 2);
        idx.check_invariants();
    }

    #[test]
    fn gain_counts_cross_target_coverage() {
        let (g, targets) = shared_protector_graph();
        let idx = CoverageIndex::build(&g, &targets, Motif::Triangle);
        // (0,3) covers one instance of each target.
        assert_eq!(idx.gain(Edge::new(0, 3)), 2);
        assert_eq!(idx.gain(Edge::new(1, 3)), 1);
        assert_eq!(idx.gain(Edge::new(5, 6)), 0);
        assert_eq!(idx.gain_split(Edge::new(0, 3), 0), (1, 1));
        assert_eq!(idx.gain_split(Edge::new(1, 3), 0), (1, 0));
        assert_eq!(idx.gain_split(Edge::new(1, 3), 1), (0, 1));
    }

    #[test]
    fn delete_kills_instances_once() {
        let (g, targets) = shared_protector_graph();
        let mut idx = CoverageIndex::build(&g, &targets, Motif::Triangle);
        assert_eq!(idx.delete_edge(Edge::new(0, 3)), 2);
        assert_eq!(idx.total_similarity(), 0);
        assert_eq!(idx.delete_edge(Edge::new(1, 3)), 0, "already dead");
        assert_eq!(idx.gain(Edge::new(1, 3)), 0);
        idx.check_invariants();
    }

    #[test]
    fn candidates_shrink_as_instances_die() {
        let (g, targets) = shared_protector_graph();
        let mut idx = CoverageIndex::build(&g, &targets, Motif::Triangle);
        assert_eq!(
            idx.all_candidate_edges(),
            vec![Edge::new(0, 3), Edge::new(1, 3), Edge::new(2, 3)]
        );
        idx.delete_edge(Edge::new(1, 3)); // kills target-0 instance
        assert_eq!(
            idx.alive_candidate_edges(),
            &[Edge::new(0, 3), Edge::new(2, 3)]
        );
    }

    #[test]
    #[should_panic(expected = "phase 1")]
    fn build_rejects_unremoved_targets() {
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        let _ = CoverageIndex::build(&g, &[Edge::new(0, 1)], Motif::Triangle);
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
            let idx = CoverageIndex::build(&g, &targets, motif);
            let before: usize = crate::enumerate::count_all_targets(&g, &targets, motif)
                .iter()
                .sum();
            assert_eq!(idx.total_similarity(), before);
            for p in idx.all_candidate_edges() {
                let mut g2 = g.clone();
                g2.remove_edge(p.u(), p.v());
                let after: usize = crate::enumerate::count_all_targets(&g2, &targets, motif)
                    .iter()
                    .sum();
                assert_eq!(idx.gain(p), before - after, "motif {motif} edge {p}");
            }
        }
    }

    #[test]
    fn alive_instances_iterator() {
        let (g, targets) = shared_protector_graph();
        let mut idx = CoverageIndex::build(&g, &targets, Motif::Triangle);
        assert_eq!(idx.alive_instances().count(), 2);
        idx.delete_edge(Edge::new(2, 3));
        assert_eq!(idx.alive_instances().count(), 1);
        assert_eq!(idx.alive_instances().next().unwrap().target_idx, 0);
    }

    #[test]
    fn maintained_gains_track_deletions() {
        // The O(1) gain counts must track an arbitrary deletion sequence
        // exactly (cross-checked against the posting-walk in invariants).
        let mut g = tpp_graph::generators::erdos_renyi_gnp(24, 0.3, 7);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        let mut idx = CoverageIndex::build(&g, &targets, Motif::Triangle);
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
