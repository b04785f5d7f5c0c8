//! Gain oracles: how the greedy algorithms evaluate `Δ_p`.
//!
//! Three implementations back the same greedy loops, and [`AnyOracle`]
//! picks one per [`GreedyConfig`](crate::GreedyConfig). The
//! [`GainOracle`] contract is exactly what the
//! [`RoundEngine`](crate::RoundEngine) calls: similarities, gains and
//! their per-target breakdowns, candidates, commits, gain sets for batch
//! admission, and per-worker probes.
//!
//! * [`IndexOracle`] — the scalable path: a [`PartitionedCoverageIndex`]
//!   built once, with incremental shard-parallel deletion, over the
//!   borrowed released graph (never copied). Candidate edges can be
//!   restricted to target-subgraph edges (Lemma 5), giving the paper's
//!   `-R` algorithms.
//! * [`NaiveOracle`] — the paper-faithful plain path: every gain is a fresh
//!   motif recount on a scratch graph (delete, recount all targets, restore).
//!   This is what makes the plain algorithms ~20× slower in Fig. 5 and
//!   week-long on DBLP — we keep it both for fidelity and as an ablation
//!   baseline.
//! * [`SnapshotOracle`] — the recount cost model without any graph copy:
//!   candidate evaluation layers a tentative deletion over a
//!   [`tpp_store::DeltaView`] of the released graph (or any snapshot).
//!   Setup is `O(1)` and the base is never cloned or mutated, so one
//!   immutable snapshot can back many concurrent evaluations.

use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastSet, Graph, NeighborAccess};
use tpp_motif::{count_target_subgraphs, InstanceId, Motif, PartitionedCoverageIndex};
use tpp_store::DeltaView;

/// Candidate-set policy (Lemma 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// Every remaining edge of the released graph is a candidate — the
    /// plain SGB/CT/WT algorithms.
    AllEdges,
    /// Only edges participating in alive target subgraphs — the `-R`
    /// scalable variants.
    SubgraphEdges,
}

/// Uniform interface over gain evaluation strategies.
pub trait GainOracle {
    /// Current total similarity `s(P, T)`.
    fn total_similarity(&self) -> usize;
    /// `Δ_p`: total instances a deletion of `p` would break right now.
    fn gain(&mut self, p: Edge) -> usize;
    /// Sparse per-target breakdown of `Δ_p`: one `(target, broken)` pair
    /// for every target that deleting `p` would cost at least one
    /// instance, **ascending by target, nonzero counts only** — targets
    /// `p` leaves untouched are absent. `gain(p)` is the sum of the counts.
    ///
    /// The slice borrows the oracle's own scratch buffer (valid until the
    /// next call), so a scan allocates nothing per candidate. The index
    /// oracle walks `p`'s posting list: `O(instances through p)`, not
    /// `O(|T|)`.
    fn gain_breakdown(&mut self, p: Edge) -> &[(usize, usize)];
    /// Candidate protector edges under `policy`, sorted canonically.
    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge>;
    /// Permanently deletes `p`; returns the realized gain.
    fn commit(&mut self, p: Edge) -> usize;
    /// Permanently deletes a batch of edges; returns the per-edge realized
    /// gains in input order. The default commits sequentially; oracles with
    /// a partition-parallel index override it with one shard-parallel
    /// commit (same result, one candidate-list compaction instead of
    /// `edges.len()`).
    fn commit_batch(&mut self, edges: &[Edge]) -> Vec<usize> {
        edges.iter().map(|&e| self.commit(e)).collect()
    }
    /// The ids of the alive instances `p` would break — its current gain
    /// set — when the oracle can enumerate them cheaply. `None` means the
    /// oracle cannot, in which case the engine's batch-commit mode treats
    /// every pair of candidates as conflicting and falls back to
    /// sequential (single-pick) commits.
    fn gain_set(&mut self, p: Edge) -> Option<Vec<InstanceId>> {
        let _ = p;
        None
    }
    /// Hands the oracle the executor for commit-side parallelism (the
    /// engine forwards its own [`Parallelism`] handle here, so scans and
    /// commits share one pool). Purely a performance knob; the default
    /// ignores it.
    fn set_parallelism(&mut self, exec: &Parallelism) {
        let _ = exec;
    }
    /// Number of targets.
    fn target_count(&self) -> usize;
    /// Spawns an independent evaluation probe for one scan worker.
    ///
    /// Probes answer the same gain queries as the oracle but own whatever
    /// scratch state tentative evaluation needs, so any number of probes
    /// can score candidates concurrently between two commits. The oracle's
    /// committed state is only read, never written, through a probe.
    fn probe(&self) -> Box<dyn GainProbe + '_>;
    /// Rough relative cost of evaluating candidate `p` (used by the round
    /// engine to cut degree-balanced scan chunks; any positive value is
    /// correct, only balance is affected).
    fn candidate_weight(&self, p: Edge) -> usize {
        let _ = p;
        1
    }
}

/// A per-worker gain evaluator spawned by [`GainOracle::probe`].
///
/// Every [`GainOracle`] is trivially its own probe (the blanket impl), so
/// sequential scans run on the oracle directly with zero setup; parallel
/// scans give each worker thread a private probe instead. Method names use
/// the paper's `Δ` notation to stay distinct from the oracle's own
/// `gain`/`gain_breakdown`.
pub trait GainProbe {
    /// `Δ_p` under the probe's scratch state.
    fn delta(&mut self, p: Edge) -> usize;
    /// Sparse per-target breakdown of `Δ_p`, under the same contract as
    /// [`GainOracle::gain_breakdown`]: `(target, broken)` pairs ascending
    /// by target, nonzero counts only, borrowed from the probe's own
    /// scratch buffer until the next call.
    fn delta_breakdown(&mut self, p: Edge) -> &[(usize, usize)];
}

impl<O: GainOracle> GainProbe for O {
    fn delta(&mut self, p: Edge) -> usize {
        GainOracle::gain(self, p)
    }

    fn delta_breakdown(&mut self, p: Edge) -> &[(usize, usize)] {
        GainOracle::gain_breakdown(self, p)
    }
}

/// Borrowing probe over a shared [`PartitionedCoverageIndex`]: index gains
/// are pure reads, so a worker's only state is its breakdown buffer.
struct IndexProbe<'a> {
    index: &'a PartitionedCoverageIndex,
    breakdown: Vec<(usize, usize)>,
}

impl GainProbe for IndexProbe<'_> {
    fn delta(&mut self, p: Edge) -> usize {
        self.index.gain(p)
    }

    fn delta_breakdown(&mut self, p: Edge) -> &[(usize, usize)] {
        self.index.gain_breakdown(p, &mut self.breakdown);
        &self.breakdown
    }
}

/// Default partition count for [`IndexOracle`]'s coverage index: enough
/// shards that a commit's candidate-list compaction touches a fraction of
/// the candidate set even on one core, and enough headroom for the
/// shard-parallel commit phase to scale when threads are available.
pub const DEFAULT_INDEX_PARTITIONS: usize = 8;

/// Incremental oracle over a [`PartitionedCoverageIndex`] and the
/// borrowed released graph. Commits are shard-parallel: a deletion updates
/// only the index partitions containing edges of the broken instances.
/// The graph is never copied; `AllEdges` candidates are its edges minus
/// the committed deletions.
pub struct IndexOracle<'a> {
    index: PartitionedCoverageIndex,
    released: &'a Graph,
    /// Edges committed so far (read only by `AllEdges` candidate lists).
    deleted: FastSet<Edge>,
    /// Scratch behind [`GainOracle::gain_breakdown`].
    breakdown: Vec<(usize, usize)>,
}

impl<'a> IndexOracle<'a> {
    /// Builds the oracle from the released graph and targets with
    /// [`DEFAULT_INDEX_PARTITIONS`] index partitions, shard-parallel on
    /// `exec` ([`PartitionedCoverageIndex::build_parallel`] — targets
    /// enumerate directly into per-shard postings), bit-identical to a
    /// sequential build at every executor width. The handle carries over
    /// to the commit phase (until the engine overrides it).
    #[must_use]
    pub fn new(released: &'a Graph, targets: &[Edge], motif: Motif, exec: &Parallelism) -> Self {
        let index = PartitionedCoverageIndex::build_parallel(
            released,
            targets,
            motif,
            DEFAULT_INDEX_PARTITIONS,
            exec,
        );
        Self::from_prebuilt(index, released)
    }

    /// Wraps an already-built index (a warm clone from a serve registry)
    /// instead of building one. The caller guarantees `index` was built
    /// over `released` with the run's motif and targets; a deterministic
    /// build means the clone behaves bit-identically to a fresh build.
    #[must_use]
    pub fn from_prebuilt(index: PartitionedCoverageIndex, released: &'a Graph) -> Self {
        IndexOracle {
            index,
            released,
            deleted: FastSet::default(),
            breakdown: Vec::new(),
        }
    }

    /// Read access to the underlying partitioned index (reporting,
    /// verification).
    #[must_use]
    pub fn index(&self) -> &PartitionedCoverageIndex {
        &self.index
    }
}

impl GainOracle for IndexOracle<'_> {
    fn total_similarity(&self) -> usize {
        self.index.total_similarity()
    }

    fn gain(&mut self, p: Edge) -> usize {
        self.index.gain(p)
    }

    fn gain_breakdown(&mut self, p: Edge) -> &[(usize, usize)] {
        self.index.gain_breakdown(p, &mut self.breakdown);
        &self.breakdown
    }

    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
        match policy {
            CandidatePolicy::AllEdges => {
                let mut edges = self.released.edge_vec();
                edges.retain(|e| !self.deleted.contains(e));
                edges
            }
            CandidatePolicy::SubgraphEdges => self.index.alive_candidate_edges(),
        }
    }

    fn commit(&mut self, p: Edge) -> usize {
        self.deleted.insert(p);
        self.index.delete_edge(p)
    }

    fn commit_batch(&mut self, edges: &[Edge]) -> Vec<usize> {
        self.deleted.extend(edges.iter().copied());
        self.index.delete_edges(edges)
    }

    fn gain_set(&mut self, p: Edge) -> Option<Vec<InstanceId>> {
        Some(self.index.alive_instance_ids(p))
    }

    fn set_parallelism(&mut self, exec: &Parallelism) {
        self.index.set_parallelism(exec.clone());
    }

    fn target_count(&self) -> usize {
        self.index.targets().len()
    }

    fn probe(&self) -> Box<dyn GainProbe + '_> {
        Box::new(IndexProbe {
            index: &self.index,
            breakdown: Vec::new(),
        })
    }

    fn candidate_weight(&self, p: Edge) -> usize {
        // Index gains walk the instance lists of p's endpoints — degree is
        // the cheap proxy for that list mass. Released degrees ignore the
        // committed deletions; weights only schedule scan spans.
        self.released.degree(p.u()) + self.released.degree(p.v()) + 1
    }
}

/// Recount-everything oracle: each gain is two full similarity evaluations
/// on a scratch graph. Deliberately unoptimized — this reproduces the cost
/// model of the paper's plain algorithms.
#[derive(Clone)]
pub struct NaiveOracle {
    graph: Graph,
    targets: Vec<Edge>,
    motif: Motif,
    /// Scratch behind [`GainOracle::gain_breakdown`].
    breakdown: Vec<(usize, usize)>,
}

impl NaiveOracle {
    /// Builds the oracle (clones the released graph as scratch space).
    #[must_use]
    pub fn new(released: &Graph, targets: &[Edge], motif: Motif) -> Self {
        NaiveOracle {
            graph: released.clone(),
            targets: targets.to_vec(),
            motif,
            breakdown: Vec::new(),
        }
    }
}

impl GainOracle for NaiveOracle {
    fn total_similarity(&self) -> usize {
        self.targets
            .iter()
            .map(|t| count_target_subgraphs(&self.graph, t.u(), t.v(), self.motif))
            .sum()
    }

    fn gain(&mut self, p: Edge) -> usize {
        if !self.graph.contains(p) {
            return 0;
        }
        let before = self.total_similarity();
        // What-if evaluation by mutate-and-restore: remove p, recount every
        // target from adjacency, add p back. This is the paper's plain cost
        // model O(n (log N)^2) per candidate.
        self.graph.remove_edge(p.u(), p.v());
        let after = self.total_similarity();
        self.graph.add_edge(p.u(), p.v());
        before - after
    }

    fn gain_breakdown(&mut self, p: Edge) -> &[(usize, usize)] {
        self.breakdown.clear();
        if !self.graph.contains(p) {
            return &self.breakdown;
        }
        // The recount is this oracle's cost model; the sparse form only
        // filters its dense result.
        let before = count_each(&self.graph, &self.targets, self.motif);
        self.graph.remove_edge(p.u(), p.v());
        let after = count_each(&self.graph, &self.targets, self.motif);
        self.graph.add_edge(p.u(), p.v());
        push_nonzero_differences(&mut self.breakdown, &before, &after);
        &self.breakdown
    }

    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
        match policy {
            CandidatePolicy::AllEdges => self.graph.edge_vec(),
            CandidatePolicy::SubgraphEdges => {
                // Re-enumerate instances from scratch (the restricted variant
                // without the incremental index).
                subgraph_edge_candidates(&self.graph, &self.targets, self.motif)
            }
        }
    }

    fn commit(&mut self, p: Edge) -> usize {
        let before = self.total_similarity();
        self.graph.remove_edge(p.u(), p.v());
        before - self.total_similarity()
    }

    fn target_count(&self) -> usize {
        self.targets.len()
    }

    fn probe(&self) -> Box<dyn GainProbe + '_> {
        // One scratch clone per worker per round — still the plain cost
        // model per candidate, but the recounts fan out.
        Box::new(self.clone())
    }
}

/// Recount oracle over a [`DeltaView`]: the same cost model as
/// [`NaiveOracle`], but with **zero** graph clones — the base stays
/// immutable and shared; committed deletions live in the overlay, and each
/// candidate evaluation is a tentative overlay delete + recount + restore.
///
/// The base can be the released [`Graph`] itself or a `tpp_store::CsrGraph`
/// snapshot (anything implementing [`NeighborAccess`]).
pub struct SnapshotOracle<'a, B: NeighborAccess> {
    view: DeltaView<'a, B>,
    targets: Vec<Edge>,
    motif: Motif,
    /// Per-target similarities under the current committed overlay —
    /// invariant between commits, so `gain`/`gain_breakdown` cost one
    /// tentative recount instead of two.
    current_per_target: Vec<usize>,
    /// Sum of `current_per_target` (the total similarity).
    current_total: usize,
    /// Scratch behind [`GainOracle::gain_breakdown`].
    breakdown: Vec<(usize, usize)>,
}

// Cloning shares the immutable base and copies only the (small) committed
// overlay — this is what a per-worker probe costs.
impl<B: NeighborAccess> Clone for SnapshotOracle<'_, B> {
    fn clone(&self) -> Self {
        SnapshotOracle {
            view: self.view.clone(),
            targets: self.targets.clone(),
            motif: self.motif,
            current_per_target: self.current_per_target.clone(),
            current_total: self.current_total,
            breakdown: Vec::new(),
        }
    }
}

impl<'a, B: NeighborAccess> SnapshotOracle<'a, B> {
    /// Builds the oracle over an immutable base (no copy is taken).
    #[must_use]
    pub fn new(base: &'a B, targets: &[Edge], motif: Motif) -> Self {
        let view = DeltaView::new(base);
        let current_per_target = count_each(&view, targets, motif);
        let current_total = current_per_target.iter().sum();
        SnapshotOracle {
            view,
            targets: targets.to_vec(),
            motif,
            current_per_target,
            current_total,
            breakdown: Vec::new(),
        }
    }

    /// The overlay view with all committed deletions applied.
    #[must_use]
    pub fn view(&self) -> &DeltaView<'a, B> {
        &self.view
    }
}

fn count_each<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif) -> Vec<usize> {
    targets
        .iter()
        .map(|t| count_target_subgraphs(g, t.u(), t.v(), motif))
        .collect()
}

/// Appends `(t, before[t] - after[t])` for every target whose count fell:
/// a dense recount filtered into the sparse breakdown form.
fn push_nonzero_differences(out: &mut Vec<(usize, usize)>, before: &[usize], after: &[usize]) {
    out.extend(
        before
            .iter()
            .zip(after)
            .enumerate()
            .filter(|(_, (b, a))| b > a)
            .map(|(t, (b, a))| (t, b - a)),
    );
}

/// Re-enumerates the Lemma 5 restricted candidate set (edges of alive
/// target subgraphs) from scratch on any readable representation — shared
/// by the non-incremental oracles.
fn subgraph_edge_candidates<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif) -> Vec<Edge> {
    let mut out: tpp_graph::FastSet<Edge> = tpp_graph::FastSet::default();
    for (idx, t) in targets.iter().enumerate() {
        for inst in tpp_motif::enumerate_target_subgraphs(g, t.u(), t.v(), motif, idx) {
            out.extend(inst.edges().iter().copied());
        }
    }
    let mut v: Vec<Edge> = out.into_iter().collect();
    v.sort_unstable();
    v
}

impl<B: NeighborAccess> GainOracle for SnapshotOracle<'_, B> {
    fn total_similarity(&self) -> usize {
        self.current_total
    }

    fn gain(&mut self, p: Edge) -> usize {
        if !self.view.delete_edge(p) {
            return 0;
        }
        let after: usize = self
            .targets
            .iter()
            .map(|t| count_target_subgraphs(&self.view, t.u(), t.v(), self.motif))
            .sum();
        self.view.restore_edge(p);
        self.current_total - after
    }

    fn gain_breakdown(&mut self, p: Edge) -> &[(usize, usize)] {
        self.breakdown.clear();
        if !self.view.delete_edge(p) {
            return &self.breakdown;
        }
        // One tentative pass per target; "before" is the cached committed
        // state, invariant between commits.
        let after = count_each(&self.view, &self.targets, self.motif);
        self.view.restore_edge(p);
        push_nonzero_differences(&mut self.breakdown, &self.current_per_target, &after);
        &self.breakdown
    }

    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
        match policy {
            CandidatePolicy::AllEdges => self.view.collect_edges(),
            CandidatePolicy::SubgraphEdges => {
                subgraph_edge_candidates(&self.view, &self.targets, self.motif)
            }
        }
    }

    fn commit(&mut self, p: Edge) -> usize {
        if !self.view.delete_edge(p) {
            return 0;
        }
        self.current_per_target = count_each(&self.view, &self.targets, self.motif);
        let after: usize = self.current_per_target.iter().sum();
        let broken = self.current_total - after;
        self.current_total = after;
        broken
    }

    fn target_count(&self) -> usize {
        self.targets.len()
    }

    fn probe(&self) -> Box<dyn GainProbe + '_> {
        // Zero-clone of the base: the probe shares the snapshot and copies
        // only the committed overlay (O(committed deletions)).
        Box::new(self.clone())
    }
}

/// The oracle selected by a [`GreedyConfig`](crate::GreedyConfig), type-
/// erased so every greedy algorithm can hand a single concrete type to the
/// round engine instead of triplicating its evaluator dispatch.
pub enum AnyOracle<'a> {
    /// Incremental coverage index ([`EvaluatorKind::Index`](crate::EvaluatorKind::Index)).
    Index(IndexOracle<'a>),
    /// Plain recount on a scratch clone
    /// ([`EvaluatorKind::NaiveRecount`](crate::EvaluatorKind::NaiveRecount)).
    Naive(NaiveOracle),
    /// Overlay recount over the borrowed released graph
    /// ([`EvaluatorKind::DeltaRecount`](crate::EvaluatorKind::DeltaRecount)).
    Snapshot(SnapshotOracle<'a, Graph>),
}

impl<'a> AnyOracle<'a> {
    /// Builds the oracle `config.evaluator` selects over the instance's
    /// released graph and targets, on the run's shared executor — the
    /// index build dispatches on the same pool the engine's scans and the
    /// commit phase will (the shard-parallel build is bit-identical at
    /// every pool width).
    #[must_use]
    pub fn for_instance(
        instance: &'a crate::problem::TppInstance,
        config: &crate::algorithms::GreedyConfig,
        exec: &Parallelism,
    ) -> Self {
        use crate::algorithms::EvaluatorKind;
        let (released, targets) = (instance.released(), instance.targets());
        match config.evaluator {
            EvaluatorKind::Index => {
                // A matching registry seed skips the index build entirely
                // (the warm path of `tpp serve`); anything else builds
                // fresh on the shared executor.
                let oracle = match config.index_seed.clone_matching(config.motif, targets) {
                    Some(index) => IndexOracle::from_prebuilt(index, released),
                    None => IndexOracle::new(released, targets, config.motif, exec),
                };
                AnyOracle::Index(oracle)
            }
            EvaluatorKind::NaiveRecount => {
                AnyOracle::Naive(NaiveOracle::new(released, targets, config.motif))
            }
            EvaluatorKind::DeltaRecount => {
                AnyOracle::Snapshot(SnapshotOracle::new(released, targets, config.motif))
            }
        }
    }
}

macro_rules! any_oracle_delegate {
    ($self:ident, $o:ident => $body:expr) => {
        match $self {
            AnyOracle::Index($o) => $body,
            AnyOracle::Naive($o) => $body,
            AnyOracle::Snapshot($o) => $body,
        }
    };
}

impl GainOracle for AnyOracle<'_> {
    fn total_similarity(&self) -> usize {
        any_oracle_delegate!(self, o => o.total_similarity())
    }

    fn gain(&mut self, p: Edge) -> usize {
        any_oracle_delegate!(self, o => GainOracle::gain(o, p))
    }

    fn gain_breakdown(&mut self, p: Edge) -> &[(usize, usize)] {
        any_oracle_delegate!(self, o => GainOracle::gain_breakdown(o, p))
    }

    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
        any_oracle_delegate!(self, o => o.candidates(policy))
    }

    fn commit(&mut self, p: Edge) -> usize {
        any_oracle_delegate!(self, o => o.commit(p))
    }

    fn commit_batch(&mut self, edges: &[Edge]) -> Vec<usize> {
        any_oracle_delegate!(self, o => o.commit_batch(edges))
    }

    fn gain_set(&mut self, p: Edge) -> Option<Vec<InstanceId>> {
        any_oracle_delegate!(self, o => o.gain_set(p))
    }

    fn set_parallelism(&mut self, exec: &Parallelism) {
        any_oracle_delegate!(self, o => o.set_parallelism(exec))
    }

    fn target_count(&self) -> usize {
        any_oracle_delegate!(self, o => o.target_count())
    }

    fn probe(&self) -> Box<dyn GainProbe + '_> {
        any_oracle_delegate!(self, o => o.probe())
    }

    fn candidate_weight(&self, p: Edge) -> usize {
        any_oracle_delegate!(self, o => o.candidate_weight(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::erdos_renyi_gnp;

    /// A released graph (targets removed) and its three targets.
    fn fixture() -> (Graph, Vec<Edge>) {
        let mut g = erdos_renyi_gnp(24, 0.25, 5);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        (g, targets)
    }

    fn index_oracle<'a>(g: &'a Graph, targets: &[Edge], motif: Motif) -> IndexOracle<'a> {
        IndexOracle::new(g, targets, motif, &Parallelism::sequential())
    }

    /// `(own, cross)` of a sparse breakdown relative to target `t`.
    fn split(breakdown: &[(usize, usize)], t: usize) -> (usize, usize) {
        let total: usize = breakdown.iter().map(|&(_, broken)| broken).sum();
        let own = breakdown
            .iter()
            .find(|&&(target, _)| target == t)
            .map_or(0, |&(_, broken)| broken);
        (own, total - own)
    }

    #[test]
    fn oracles_agree_on_everything() {
        for motif in Motif::ALL {
            let (g, targets) = fixture();
            let mut idx = index_oracle(&g, &targets, motif);
            let mut naive = NaiveOracle::new(&g, &targets, motif);
            assert_eq!(idx.total_similarity(), naive.total_similarity());
            let cands = idx.candidates(CandidatePolicy::SubgraphEdges);
            assert_eq!(cands, naive.candidates(CandidatePolicy::SubgraphEdges));
            for &p in cands.iter().take(12) {
                assert_eq!(idx.gain(p), naive.gain(p), "{motif} gain({p})");
                let breakdown = idx.gain_breakdown(p).to_vec();
                assert_eq!(breakdown, naive.gain_breakdown(p), "{motif} breakdown({p})");
                assert_eq!(
                    breakdown.iter().map(|&(_, broken)| broken).sum::<usize>(),
                    idx.gain(p)
                );
            }
            // Commit a few deletions and re-check agreement.
            for &p in cands.iter().take(3) {
                assert_eq!(idx.commit(p), naive.commit(p), "{motif} commit({p})");
                assert_eq!(idx.total_similarity(), naive.total_similarity());
            }
        }
    }

    #[test]
    fn gain_split_sums_to_gain() {
        let (g, targets) = fixture();
        let mut idx = index_oracle(&g, &targets, Motif::Triangle);
        for p in idx.candidates(CandidatePolicy::SubgraphEdges) {
            let total = idx.gain(p);
            let breakdown = idx.gain_breakdown(p).to_vec();
            assert!(breakdown.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
            assert!(breakdown.iter().all(|&(_, broken)| broken > 0), "nonzero");
            let split_sum: usize = (0..idx.target_count())
                .map(|t| split(&breakdown, t).0)
                .sum();
            assert_eq!(total, split_sum);
            let (own, cross) = split(&breakdown, 0);
            assert_eq!(own + cross, total);
            assert!(
                own <= idx.index().target_similarity(0),
                "own bounded by s(P, t0)"
            );
        }
    }

    #[test]
    fn all_edges_policy_includes_zero_gain_edges() {
        let (g, targets) = fixture();
        let idx = index_oracle(&g, &targets, Motif::Triangle);
        let all = idx.candidates(CandidatePolicy::AllEdges);
        let restricted = idx.candidates(CandidatePolicy::SubgraphEdges);
        assert_eq!(all.len(), g.edge_count());
        assert!(restricted.len() <= all.len());
        for e in &restricted {
            assert!(all.contains(e), "restricted ⊆ all violated at {e}");
        }
    }

    #[test]
    fn committed_edges_leave_candidates() {
        let (g, targets) = fixture();
        let mut idx = index_oracle(&g, &targets, Motif::Triangle);
        let all_before = idx.candidates(CandidatePolicy::AllEdges).len();
        let cands = idx.candidates(CandidatePolicy::SubgraphEdges);
        idx.commit(cands[0]);
        let all_after = idx.candidates(CandidatePolicy::AllEdges);
        assert_eq!(all_after.len(), all_before - 1);
        assert!(!all_after.contains(&cands[0]));
        assert!(!idx
            .candidates(CandidatePolicy::SubgraphEdges)
            .contains(&cands[0]));
        // Batch commits leave the all-edges list too, and the borrowed
        // released graph itself is never touched.
        idx.commit_batch(&cands[1..3]);
        let all_batch = idx.candidates(CandidatePolicy::AllEdges);
        assert_eq!(all_batch.len(), all_before - 3);
        assert!(cands[..3].iter().all(|p| !all_batch.contains(p)));
        assert!(all_batch.is_sorted());
        assert_eq!(g.edge_count(), all_before);
    }

    #[test]
    fn snapshot_oracle_agrees_with_both_paths() {
        for motif in Motif::ALL {
            let (g, targets) = fixture();
            let mut idx = index_oracle(&g, &targets, motif);
            let mut naive = NaiveOracle::new(&g, &targets, motif);
            let csr = tpp_store::CsrGraph::from_graph(&g);
            let mut snap_graph = SnapshotOracle::new(&g, &targets, motif);
            let mut snap_csr = SnapshotOracle::new(&csr, &targets, motif);
            assert_eq!(snap_graph.total_similarity(), idx.total_similarity());
            assert_eq!(snap_csr.total_similarity(), idx.total_similarity());
            let cands = idx.candidates(CandidatePolicy::SubgraphEdges);
            assert_eq!(cands, snap_graph.candidates(CandidatePolicy::SubgraphEdges));
            assert_eq!(cands, snap_csr.candidates(CandidatePolicy::SubgraphEdges));
            assert_eq!(
                snap_csr.candidates(CandidatePolicy::AllEdges),
                naive.candidates(CandidatePolicy::AllEdges)
            );
            for &p in cands.iter().take(10) {
                assert_eq!(idx.gain(p), snap_graph.gain(p), "{motif} gain({p})");
                assert_eq!(idx.gain(p), snap_csr.gain(p), "{motif} csr gain({p})");
                let breakdown = idx.gain_breakdown(p).to_vec();
                assert_eq!(breakdown, snap_csr.gain_breakdown(p));
                assert_eq!(breakdown, snap_graph.gain_breakdown(p));
            }
            for &p in cands.iter().take(3) {
                let broken = idx.commit(p);
                assert_eq!(broken, naive.commit(p));
                assert_eq!(broken, snap_graph.commit(p), "{motif} commit({p})");
                assert_eq!(broken, snap_csr.commit(p));
                assert_eq!(idx.total_similarity(), snap_csr.total_similarity());
            }
            // Tentative evaluation never dirtied the base beyond commits.
            assert_eq!(snap_csr.view().deleted_count(), 3.min(cands.len()));
        }
    }

    #[test]
    fn snapshot_oracle_gain_on_missing_edge_is_zero() {
        let (g, targets) = fixture();
        let csr = tpp_store::CsrGraph::from_graph(&g);
        let mut snap = SnapshotOracle::new(&csr, &targets, Motif::Triangle);
        // Find a guaranteed-absent pair so the assertions always execute.
        let absent = (0..24u32)
            .flat_map(|u| ((u + 1)..24).map(move |v| Edge::new(u, v)))
            .find(|e| !csr.has_edge(e.u(), e.v()))
            .expect("a 24-node graph with p = 0.25 always has non-edges");
        assert_eq!(snap.gain(absent), 0);
        assert!(snap.gain_breakdown(absent).is_empty());
        assert_eq!(snap.commit(absent), 0);
    }

    #[test]
    fn naive_gain_on_missing_edge_is_zero() {
        let (g, targets) = fixture();
        let mut naive = NaiveOracle::new(&g, &targets, Motif::Triangle);
        assert_eq!(naive.gain(Edge::new(0, 1)), 0, "target edge absent");
        assert!(naive.gain_breakdown(Edge::new(0, 1)).is_empty());
    }
}
