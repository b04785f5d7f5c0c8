//! [`PartitionedCoverageIndex`]: the coverage index with its candidate-edge
//! → motif-instance postings split across degree-balanced node-range
//! partitions, so **commits scale like scans do**.
//!
//! One posting map and one alive-candidate list would make every deletion
//! that retires candidates pay a compaction pass over the *whole* list.
//! Here the postings and the candidate list are partitioned by the owning
//! shard of each edge (the shard whose node range contains the edge's lower
//! endpoint — the same ownership discipline as
//! `tpp_store::CsrShard::owns_edge`, over the same degree-balanced
//! boundaries as `tpp_store::CsrGraph::shard_ranges`).
//! A deletion therefore touches only the shards that actually contain edges
//! of the broken instances, and the per-shard updates are independent: with
//! a parallel [`Parallelism`] handle they run concurrently on the shared
//! executor pool (`tpp-exec`) — spawn-once workers, not per-commit threads.
//!
//! Every result is **bit-identical for every shard count and every thread
//! count**: the kill phase walks instances in posting order, per-shard
//! update sets are disjoint by construction, and aggregate counts reduce in
//! shard order.

use crate::coverage::{build_postings, enumerate_instances, InstanceId, Posting};
use crate::instance::MotifInstance;
use crate::pattern::Motif;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastMap, NeighborAccess, NodeId};

/// Below this many count decrements a commit applies its shard updates
/// inline: a handful of hash-map decrements costs tens of nanoseconds,
/// and even a pooled dispatch (wake workers, claim shards, join) costs
/// single-digit microseconds.
const MIN_PARALLEL_COMMIT_OPS: usize = 4096;

/// Target chunks per worker for the shard-parallel build's enumeration
/// phase: several per worker so the atomic-cursor claim loop absorbs
/// per-target skew (hub targets enumerate orders of magnitude more
/// instances than leaf targets).
const TARGET_CHUNKS_PER_WORKER: usize = 4;

/// Degree-prefix-balanced shard bounds over `g`'s node space — the
/// boundary computation shared by both build paths (the CSR offset shape,
/// cut into payload-balanced contiguous node ranges).
fn degree_balanced_bounds<G: NeighborAccess>(g: &G, parts: usize) -> Vec<NodeId> {
    let n = g.node_count();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    let mut acc = 0u64;
    for u in 0..n {
        acc += g.degree(u as NodeId) as u64;
        prefix.push(acc);
    }
    let ranges = tpp_store::balanced_prefix_ranges(&prefix, parts);
    let mut bounds: Vec<NodeId> = vec![0];
    for r in &ranges {
        bounds.push(r.end as NodeId);
    }
    if bounds.len() == 1 {
        bounds.push(0); // empty node space still gets one (empty) shard
    }
    bounds
}

/// The shard owning node `u` under `bounds` (shard `i` spans
/// `bounds[i]..bounds[i + 1]`; out-of-range nodes clamp to the last
/// shard). **The** ownership lookup — the build paths and the commit path
/// must route edges identically, so they all call this.
#[inline]
fn owner_shard(bounds: &[NodeId], u: NodeId) -> usize {
    bounds
        .partition_point(|&b| b <= u)
        .saturating_sub(1)
        .min(bounds.len().saturating_sub(2))
}

/// One partition of the index: the postings and alive-candidate list of the
/// edges this shard owns.
#[derive(Debug, Clone, Default)]
struct IndexShard {
    /// Posting lists of the owned edges (instance ids + alive counts).
    postings: FastMap<Edge, Posting>,
    /// Sorted owned edges with at least one alive instance.
    alive_candidates: Vec<Edge>,
}

impl IndexShard {
    /// Applies one batch of alive-count decrements (one entry per killed
    /// instance × owned edge) and compacts the candidate list if any edge
    /// retired. Pure shard-local state: safe to run concurrently with other
    /// shards' updates, and deterministic regardless of who runs it.
    /// Returns whether a candidate-list compaction ran.
    fn apply_decrements(&mut self, ops: &[Edge]) -> bool {
        let mut retired = false;
        for e in ops {
            let po = self
                .postings
                .get_mut(e)
                .expect("killed instance edge must be posted in its owner shard");
            po.alive -= 1;
            retired |= po.alive == 0;
        }
        if retired {
            let postings = &self.postings;
            self.alive_candidates
                .retain(|e| postings.get(e).is_some_and(|po| po.alive > 0));
        }
        retired
    }
}

/// Incidence index between candidate edges and alive motif instances for a
/// fixed (graph, target set, motif) triple, with its postings partitioned
/// across degree-balanced node-range shards and shard-parallel commits.
///
/// Scans read one posting (`gain` is an `O(1)` count lookup,
/// `gain_breakdown` walks one posting list);
/// [`delete_edge`](Self::delete_edge) and the batch
/// [`delete_edges`](Self::delete_edges) update only the dirty shards.
#[derive(Debug, Clone)]
pub struct PartitionedCoverageIndex {
    motif: Motif,
    targets: Vec<Edge>,
    instances: Vec<MotifInstance>,
    alive: Vec<bool>,
    per_target_alive: Vec<usize>,
    alive_total: usize,
    /// Shard boundaries over the node space: shard `i` owns nodes
    /// `bounds[i]..bounds[i + 1]` (and every edge whose lower endpoint
    /// falls in that range). `bounds.len() == shards.len() + 1`.
    bounds: Vec<NodeId>,
    shards: Vec<IndexShard>,
    /// Inverted target map: node → indexes of targets with that endpoint.
    /// Lets [`insert_edge`](Self::insert_edge) find the targets whose
    /// instances a new edge can touch by probing the edge's radius-1 ball
    /// (degree-sized) instead of scanning the full target list.
    targets_by_node: FastMap<NodeId, Vec<u32>>,
    /// Executor handle for the per-shard commit phase (sequential handles
    /// run commits inline). Clones of the index share the same pool.
    exec: Parallelism,
    /// Reusable kill buffer (killed instance ids of the current commit).
    kill_scratch: Vec<InstanceId>,
    /// Reusable per-shard decrement-op buffers.
    op_scratch: Vec<Vec<Edge>>,
}

/// Builds the node → target-indexes inverted map (two entries per target,
/// one when the endpoints coincide — which [`Edge`] forbids anyway).
fn invert_targets(targets: &[Edge]) -> FastMap<NodeId, Vec<u32>> {
    let mut by_node: FastMap<NodeId, Vec<u32>> = FastMap::default();
    for (ti, t) in targets.iter().enumerate() {
        by_node.entry(t.u()).or_default().push(ti as u32);
        by_node.entry(t.v()).or_default().push(ti as u32);
    }
    by_node
}

impl PartitionedCoverageIndex {
    /// Builds the index over `parts` degree-balanced partitions (the same
    /// boundary computation as `tpp_store::CsrGraph::shard_ranges`, via
    /// [`tpp_store::balanced_prefix_ranges`] over the degree prefix sum).
    ///
    /// `g` must already have all targets removed (phase 1). Shard count is
    /// purely a performance knob: every query and deletion result is
    /// bit-identical for every `parts` value.
    ///
    /// # Panics
    /// Panics if `parts == 0` or any target edge is still present in `g`.
    #[must_use]
    pub fn build<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one partition");
        let (instances, per_target_alive) = enumerate_instances(g, targets, motif);

        let bounds = degree_balanced_bounds(g, parts);
        let shard_count = bounds.len() - 1;

        // Partition the global posting map by edge ownership; per-shard
        // candidate lists sort locally, and concatenate globally sorted
        // because ownership follows ascending lower-endpoint ranges.
        let mut shards: Vec<IndexShard> = vec![IndexShard::default(); shard_count];
        for (e, posting) in build_postings(&instances) {
            shards[owner_shard(&bounds, e.u())]
                .postings
                .insert(e, posting);
        }
        for shard in &mut shards {
            shard.alive_candidates = shard.postings.keys().copied().collect();
            shard.alive_candidates.sort_unstable();
        }

        let alive_total = instances.len();
        let op_scratch = vec![Vec::new(); shard_count];
        PartitionedCoverageIndex {
            motif,
            targets_by_node: invert_targets(targets),
            targets: targets.to_vec(),
            alive: vec![true; instances.len()],
            instances,
            per_target_alive,
            alive_total,
            bounds,
            shards,
            exec: Parallelism::sequential(),
            kill_scratch: Vec::new(),
            op_scratch,
        }
    }

    /// The **shard-parallel build**: enumerates motif targets directly
    /// into per-shard postings, with no global posting map built and
    /// split afterwards (what [`build`](Self::build) does).
    ///
    /// Two phases, both dispatched on `exec`'s shared executor pool
    /// (`tpp-exec`), work claimed through one atomic cursor:
    ///
    /// 1. **enumerate** — the target list is cut into contiguous chunks of
    ///    near-equal endpoint-degree mass (`TARGET_CHUNKS_PER_WORKER`
    ///    per worker); each chunk enumerates its targets' instances and
    ///    routes every (instance, edge) pair straight to the owning
    ///    shard's posting fragment under chunk-local instance ids;
    /// 2. **merge** — each shard (shards are independent state) folds its
    ///    fragments together **in chunk order**, shifting local ids by the
    ///    chunk's global offset.
    ///
    /// Chunks are ascending target ranges and ids shift by chunk-order
    /// offsets, so instance ids, posting id lists, alive counts, and
    /// candidate lists come out **bit-identical to the sequential build
    /// for every chunk, shard, and thread count** — pinned by the
    /// differential build tests. The handle also becomes the index's
    /// commit-phase executor (as
    /// [`set_parallelism`](Self::set_parallelism)).
    ///
    /// # Panics
    /// Panics if `parts == 0` or any target edge is still present in `g`.
    #[must_use]
    pub fn build_parallel<G: NeighborAccess + Sync>(
        g: &G,
        targets: &[Edge],
        motif: Motif,
        parts: usize,
        exec: &Parallelism,
    ) -> Self {
        assert!(parts >= 1, "need at least one partition");
        let stats = exec.recorder().stats();
        let build_span = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_ns));
        let threads = exec.threads();
        for t in targets {
            assert!(
                !g.has_edge(t.u(), t.v()),
                "target {t} still present: run phase 1 (delete targets) before indexing"
            );
        }
        let bounds = degree_balanced_bounds(g, parts);
        let shard_count = bounds.len() - 1;
        let shard_of = |u: NodeId| -> usize { owner_shard(&bounds, u) };

        // Cut the target list into contiguous chunks of near-equal
        // endpoint-degree mass (the enumeration-cost proxy).
        let n = g.node_count();
        let degree_of = |u: NodeId| -> usize {
            if (u as usize) < n {
                g.degree(u)
            } else {
                0
            }
        };
        let mut prefix = Vec::with_capacity(targets.len() + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for t in targets {
            acc += (degree_of(t.u()) + degree_of(t.v()) + 1) as u64;
            prefix.push(acc);
        }
        let chunk_goal = (threads * TARGET_CHUNKS_PER_WORKER).min(targets.len().max(1));
        let chunks = tpp_store::balanced_prefix_ranges(&prefix, chunk_goal);

        // Phase 1: enumerate chunk targets directly into per-shard posting
        // fragments under chunk-local instance ids.
        struct ChunkBuild {
            instances: Vec<MotifInstance>,
            per_target: Vec<usize>,
            /// Shard -> edge -> chunk-local ids of instances containing it.
            fragments: Vec<FastMap<Edge, Vec<InstanceId>>>,
        }
        let enumerate_chunk = |range: &std::ops::Range<usize>| -> ChunkBuild {
            let mut out = ChunkBuild {
                instances: Vec::new(),
                per_target: Vec::with_capacity(range.len()),
                fragments: vec![FastMap::default(); shard_count],
            };
            for ti in range.clone() {
                let t = targets[ti];
                let found =
                    crate::enumerate::enumerate_target_subgraphs(g, t.u(), t.v(), motif, ti);
                out.per_target.push(found.len());
                for inst in found {
                    let local = out.instances.len() as InstanceId;
                    for &e in inst.edges() {
                        out.fragments[shard_of(e.u())]
                            .entry(e)
                            .or_default()
                            .push(local);
                    }
                    out.instances.push(inst);
                }
            }
            out
        };
        // Executor dispatch: chunks are claimed work-stealing and the
        // results come back in chunk order — which worker enumerated a
        // chunk is scheduling noise; chunk order is the deterministic
        // target order.
        let enumerate_span =
            tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_enumerate_ns));
        let chunk_outs: Vec<ChunkBuild> =
            exec.run_indexed(chunks.len(), |i| enumerate_chunk(&chunks[i]));
        enumerate_span.stop();

        // Chunk-order id offsets: concatenating chunk outputs reproduces
        // the sequential enumeration order exactly.
        let mut offsets = Vec::with_capacity(chunk_outs.len());
        let mut total_instances = 0usize;
        for out in &chunk_outs {
            offsets.push(total_instances as InstanceId);
            total_instances += out.instances.len();
        }

        // Phase 2: fold fragments into each shard in chunk order (per-edge
        // id lists ascend exactly like the sequential build's); shards are
        // disjoint state, chunked across the worker budget.
        let mut shards: Vec<IndexShard> = vec![IndexShard::default(); shard_count];
        let merge_shard = |s: usize, shard: &mut IndexShard| {
            for (out, &off) in chunk_outs.iter().zip(&offsets) {
                for (&e, local_ids) in &out.fragments[s] {
                    let po = shard.postings.entry(e).or_insert_with(|| Posting {
                        ids: Vec::new(),
                        alive: 0,
                    });
                    po.ids.extend(local_ids.iter().map(|&id| id + off));
                    po.alive += local_ids.len() as u32;
                }
            }
            shard.alive_candidates = shard.postings.keys().copied().collect();
            shard.alive_candidates.sort_unstable();
        };
        let merge_span = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_merge_ns));
        exec.for_each_mut(&mut shards, |s, shard| merge_shard(s, shard));
        merge_span.stop();

        let mut instances = Vec::with_capacity(total_instances);
        let mut per_target_alive = Vec::with_capacity(targets.len());
        for out in chunk_outs {
            instances.extend(out.instances);
            per_target_alive.extend(out.per_target);
        }
        debug_assert_eq!(per_target_alive.len(), targets.len());

        let op_scratch = vec![Vec::new(); shard_count];
        let built = PartitionedCoverageIndex {
            motif,
            targets_by_node: invert_targets(targets),
            targets: targets.to_vec(),
            alive: vec![true; total_instances],
            instances,
            per_target_alive,
            alive_total: total_instances,
            bounds,
            shards,
            exec: exec.clone(),
            kill_scratch: Vec::new(),
            op_scratch,
        };
        if let Some(st) = stats {
            st.index.builds.inc();
        }
        build_span.stop();
        #[cfg(debug_assertions)]
        built.check_invariants();
        built
    }

    /// Sets the executor handle for the per-shard commit phase (a
    /// sequential handle runs commits inline). Purely a performance knob —
    /// deletions produce bit-identical state for every handle.
    pub fn set_parallelism(&mut self, exec: Parallelism) {
        self.exec = exec;
    }

    /// Number of partitions.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.shards.len()
    }

    /// The partition boundaries as node ranges (ascending, covering the
    /// node space the index was built over).
    #[must_use]
    pub fn shard_ranges(&self) -> Vec<std::ops::Range<NodeId>> {
        self.bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// Alive-candidate count per shard (reporting / balance diagnostics).
    #[must_use]
    pub fn shard_candidate_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.alive_candidates.len())
            .collect()
    }

    #[inline]
    fn shard_of(&self, u: NodeId) -> usize {
        owner_shard(&self.bounds, u)
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

    /// Dissimilarity gain `Δ_p`: `O(1)` lookup of the maintained alive
    /// count in `p`'s owner shard.
    #[must_use]
    pub fn gain(&self, p: Edge) -> usize {
        self.shards[self.shard_of(p.u())]
            .postings
            .get(&p)
            .map_or(0, |po| po.alive as usize)
    }

    /// Sparse per-target breakdown of `Δ_p`: `out` is refilled with one
    /// `(target, broken)` pair per target that deleting `p` would cost at
    /// least one alive instance, ascending by target, so the counts sum to
    /// [`gain`](Self::gain). Walks `p`'s one posting list, never the target
    /// set, and allocates nothing once `out` has grown to the round's
    /// widest breakdown.
    pub fn gain_breakdown(&self, p: Edge, out: &mut Vec<(usize, usize)>) {
        crate::coverage::posting_breakdown(
            self.shards[self.shard_of(p.u())].postings.get(&p),
            &self.alive,
            &self.instances,
            out,
        );
    }

    /// Ids of the **alive** instances containing `p` — `p`'s current gain
    /// set. Two candidates with disjoint gain sets break disjoint instances,
    /// which is exactly the batch-commit admission test in `tpp-core`.
    #[must_use]
    pub fn alive_instance_ids(&self, p: Edge) -> Vec<InstanceId> {
        self.shards[self.shard_of(p.u())]
            .postings
            .get(&p)
            .map_or_else(Vec::new, |po| {
                po.ids
                    .iter()
                    .copied()
                    .filter(|&id| self.alive[id as usize])
                    .collect()
            })
    }

    /// Deletes edge `p`, killing every alive instance containing it.
    /// Returns the realized `Δ_p`. See [`delete_edges`](Self::delete_edges).
    pub fn delete_edge(&mut self, p: Edge) -> usize {
        self.delete_edges(&[p])[0]
    }

    /// Deletes a batch of edges, killing every alive instance containing
    /// any of them; returns the per-edge broken counts in input order
    /// (an instance containing several batch edges is charged to the first
    /// one in input order).
    ///
    /// Three phases:
    ///
    /// 1. **kill** (sequential, tiny): walk each edge's posting list in its
    ///    owner shard, flip alive flags, update per-target counters;
    /// 2. **route**: group one alive-count decrement per killed instance ×
    ///    instance edge by the edge's owner shard;
    /// 3. **apply**: each dirty shard decrements its counts and compacts
    ///    its candidate list — chunked across at most `threads` worker
    ///    threads when the batch is large enough to amortize the spawns.
    ///
    /// Only the dirty shards are touched, and the result is bit-identical
    /// for every shard and thread count.
    pub fn delete_edges(&mut self, ps: &[Edge]) -> Vec<usize> {
        let stats = self.exec.recorder().stats();
        let mut killed = std::mem::take(&mut self.kill_scratch);
        killed.clear();
        let mut broken_out = Vec::with_capacity(ps.len());

        // Phase 1: kill, in input order (disjoint-field borrows: postings
        // live in `shards`, flags in `alive` — no posting-list clone).
        for &p in ps {
            let s = self.shard_of(p.u());
            let before = killed.len();
            if let Some(po) = self.shards[s].postings.get(&p) {
                for &id in &po.ids {
                    let idx = id as usize;
                    if self.alive[idx] {
                        self.alive[idx] = false;
                        self.per_target_alive[self.instances[idx].target_idx] -= 1;
                        self.alive_total -= 1;
                        killed.push(id);
                    }
                }
            }
            broken_out.push(killed.len() - before);
        }

        // Phase 2: route decrements to owner shards.
        let mut ops = std::mem::take(&mut self.op_scratch);
        for v in &mut ops {
            v.clear();
        }
        for &id in &killed {
            for &e in self.instances[id as usize].edges() {
                ops[self.shard_of(e.u())].push(e);
            }
        }

        // Phase 3: apply per dirty shard. Shard states are disjoint, so
        // the outcome cannot depend on scheduling; the pooled dispatch is
        // gated on the commit being big enough to amortize waking the
        // executor's workers (single greedy picks decrement a handful of
        // counters — below even a pooled dispatch's cost). Each dirty
        // shard is claimed by exactly one worker of the shared pool.
        let mut dirty: Vec<(&mut IndexShard, &Vec<Edge>)> = self
            .shards
            .iter_mut()
            .zip(&ops)
            .filter(|(_, shard_ops)| !shard_ops.is_empty())
            .collect();
        let total_ops: usize = dirty.iter().map(|(_, o)| o.len()).sum();
        let dirty_count = dirty.len();
        let parallel =
            !self.exec.is_sequential() && dirty.len() > 1 && total_ops >= MIN_PARALLEL_COMMIT_OPS;
        if parallel {
            self.exec.for_each_mut(&mut dirty, |_, (shard, shard_ops)| {
                // Counters are atomic, so compactions report safely from
                // whichever worker claimed the shard.
                if shard.apply_decrements(shard_ops) {
                    if let Some(st) = stats {
                        st.index.compactions.inc();
                    }
                }
            });
        } else {
            for (shard, shard_ops) in dirty {
                if shard.apply_decrements(shard_ops) {
                    if let Some(st) = stats {
                        st.index.compactions.inc();
                    }
                }
            }
        }
        if let Some(st) = stats {
            st.index.commits.inc();
            st.index.instances_killed.record(killed.len() as u64);
            st.index.dirty_shards.record(dirty_count as u64);
            if parallel {
                st.index.parallel_commits.inc();
            }
        }

        self.kill_scratch = killed;
        self.op_scratch = ops;
        #[cfg(debug_assertions)]
        self.check_invariants();
        broken_out
    }

    /// Applies an edge **insertion** to the index: localized enumeration
    /// around `e` (see
    /// [`enumerate_target_subgraphs_through`](crate::enumerate_target_subgraphs_through))
    /// discovers exactly the instances the insertion created, and each one
    /// is appended as a fresh alive instance — postings append in the
    /// owning shard of each instance edge, alive counts increment, and
    /// retired-then-revived candidate edges re-enter their shard's sorted
    /// candidate list in place. The mirror image of the kill-flag delete
    /// path: deletes only flip instances dead, inserts only append live
    /// ones, and neither renumbers existing instances.
    ///
    /// `g` must be the **post-insert** graph (`e` already present); apply
    /// multi-edge deltas one edge at a time, each against the graph state
    /// containing every edge inserted so far, or instances spanning two
    /// new edges are discovered twice. Returns the number of instances
    /// discovered (the similarity increase).
    ///
    /// Queries and subsequent deletions on the updated index are
    /// indistinguishable from a rebuild on the mutated graph: counts,
    /// gains, and candidate lists agree exactly (instance *ids* may
    /// differ — a reinserted edge revives killed instances under fresh
    /// ids — which no query observes).
    ///
    /// # Panics
    /// Panics if `e` is absent from `g`, is one of the index's targets, or
    /// already participates in alive instances (a double insertion).
    pub fn insert_edge<G: NeighborAccess>(&mut self, g: &G, e: Edge) -> usize {
        assert!(
            g.has_edge(e.u(), e.v()),
            "insert_edge({e}) requires the post-insert graph: edge absent"
        );
        assert!(
            !self.targets.contains(&e),
            "cannot insert target edge {e}: targets stay deleted (phase 1)"
        );
        // A genuinely new edge cannot already sit in an alive instance:
        // an alive posting here means `e` was present (and indexed) before
        // the claimed insertion, and enumerating would double-count.
        assert!(
            self.shards[owner_shard(&self.bounds, e.u())]
                .postings
                .get(&e)
                .is_none_or(|po| po.alive == 0),
            "insert_edge({e}): edge already participates in alive instances (double insertion)"
        );
        let stats = self.exec.recorder().stats();
        let mut discovered = 0usize;
        let mut appended = 0u64;
        // Radius-1 locality: only targets with an endpoint within one hop
        // of `e` can gain instances through it (sound for every motif but
        // KPath(5) — see `enumerate::locality_filter_applies`). Probing
        // the ball's nodes against the inverted target map keeps the cost
        // degree-local: O(deg(u) + deg(v)) map lookups instead of a scan
        // over every target.
        let tids: Vec<u32> = if crate::enumerate::locality_filter_applies(self.motif) {
            let mut tids = Vec::new();
            for n in [e.u(), e.v()]
                .into_iter()
                .chain(g.neighbors_iter(e.u()))
                .chain(g.neighbors_iter(e.v()))
            {
                if let Some(hits) = self.targets_by_node.get(&n) {
                    tids.extend_from_slice(hits);
                }
            }
            // Overlapping neighborhoods and two-endpoint hits duplicate
            // entries; instances append in ascending-target order either
            // way, matching the unfiltered scan.
            tids.sort_unstable();
            tids.dedup();
            tids
        } else {
            (0..self.targets.len() as u32).collect()
        };
        for ti in tids {
            let ti = ti as usize;
            let t = self.targets[ti];
            let found = crate::enumerate::enumerate_target_subgraphs_through(
                g,
                t.u(),
                t.v(),
                self.motif,
                ti,
                e,
            );
            discovered += found.len();
            for inst in found {
                let id = self.instances.len() as InstanceId;
                for &edge in inst.edges() {
                    let shard = &mut self.shards[owner_shard(&self.bounds, edge.u())];
                    let po = shard.postings.entry(edge).or_insert_with(|| Posting {
                        ids: Vec::new(),
                        alive: 0,
                    });
                    if po.alive == 0 {
                        // Compaction keeps candidate lists exactly the
                        // alive>0 edges, so a zero-count posting is never
                        // listed: insert at the sorted position.
                        match shard.alive_candidates.binary_search(&edge) {
                            Ok(_) => unreachable!("dead edge {edge} still listed as candidate"),
                            Err(pos) => shard.alive_candidates.insert(pos, edge),
                        }
                    }
                    // `id` exceeds every existing id, so the posting's id
                    // list stays ascending without a sort.
                    po.ids.push(id);
                    po.alive += 1;
                    appended += 1;
                }
                self.alive.push(true);
                self.per_target_alive[ti] += 1;
                self.alive_total += 1;
                self.instances.push(inst);
            }
        }
        if let Some(st) = stats {
            st.update.inserts.inc();
            st.update.instances_discovered.add(discovered as u64);
            st.update.postings_appended.add(appended);
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        discovered
    }

    /// Edges participating in at least one alive instance, sorted
    /// canonically: the concatenation of the per-shard candidate lists
    /// (shard ownership follows ascending lower-endpoint ranges, so the
    /// concatenation is globally sorted without any merge).
    #[must_use]
    pub fn alive_candidate_edges(&self) -> Vec<Edge> {
        let total: usize = self.shards.iter().map(|s| s.alive_candidates.len()).sum();
        let mut out = Vec::with_capacity(total);
        for shard in &self.shards {
            out.extend_from_slice(&shard.alive_candidates);
        }
        out
    }

    /// The per-shard alive-candidate slices, in shard order (zero-copy
    /// alternative to [`alive_candidate_edges`](Self::alive_candidate_edges)).
    pub fn alive_candidate_slices(&self) -> impl Iterator<Item = &[Edge]> + '_ {
        self.shards.iter().map(|s| s.alive_candidates.as_slice())
    }

    /// All edges that ever participated in an instance (alive or dead),
    /// sorted.
    #[must_use]
    pub fn all_candidate_edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.postings.keys().copied());
        }
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

    /// Verifies internal consistency: counters vs alive flags, per-shard
    /// alive counts vs posting walks, candidate lists, and edge ownership.
    /// Runs automatically after every deletion in debug builds; release
    /// rounds never pay this walk.
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
        assert_eq!(self.bounds.len(), self.shards.len() + 1, "bounds arity");
        for (s, shard) in self.shards.iter().enumerate() {
            for &e in shard.postings.keys() {
                assert_eq!(self.shard_of(e.u()), s, "edge {e} posted off-shard");
            }
            assert_eq!(
                crate::coverage::verify_posting_map(&shard.postings, &self.alive),
                shard.alive_candidates,
                "candidate list of shard {s} out of sync"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_all_targets;
    use tpp_graph::Graph;

    /// `p`'s sparse gain breakdown as an owned list (test readability).
    fn breakdown(idx: &PartitionedCoverageIndex, p: Edge) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        idx.gain_breakdown(p, &mut out);
        out
    }

    fn fixture() -> (Graph, Vec<Edge>) {
        let mut g = tpp_graph::generators::holme_kim(80, 4, 0.5, 11);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 5), Edge::new(3, 7)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        (g, targets)
    }

    #[test]
    fn matches_one_part_index_and_recount_at_every_part_count() {
        let (g, targets) = fixture();
        for motif in Motif::ALL {
            let one = PartitionedCoverageIndex::build(&g, &targets, motif, 1);
            let before = count_all_targets(&g, &targets, motif);
            assert_eq!(one.similarities(), before, "{motif} similarities");
            let before_total: usize = before.iter().sum();
            for p in one.alive_candidate_edges() {
                let mut g2 = g.clone();
                g2.remove_edge(p.u(), p.v());
                let after: usize = count_all_targets(&g2, &targets, motif).iter().sum();
                assert_eq!(one.gain(p), before_total - after, "{motif} gain({p})");
            }
            for parts in [2usize, 3, 7] {
                let part = PartitionedCoverageIndex::build(&g, &targets, motif, parts);
                assert_eq!(part.total_similarity(), one.total_similarity());
                assert_eq!(part.similarities(), one.similarities());
                assert_eq!(part.all_candidate_edges(), one.all_candidate_edges());
                assert_eq!(
                    part.alive_candidate_edges(),
                    one.alive_candidate_edges(),
                    "{motif} x{parts}"
                );
                for p in one.alive_candidate_edges() {
                    assert_eq!(part.gain(p), one.gain(p), "{motif} gain({p})");
                    assert_eq!(breakdown(&part, p), breakdown(&one, p));
                }
                part.check_invariants();
            }
        }
    }

    #[test]
    fn deletions_agree_with_one_part_index_for_all_parts_and_threads() {
        let (g, targets) = fixture();
        let mut one = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 1);
        let mut parted: Vec<PartitionedCoverageIndex> = Vec::new();
        for parts in [1usize, 4, 8] {
            for threads in [1usize, 3] {
                let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, parts);
                idx.set_parallelism(Parallelism::new(threads));
                parted.push(idx);
            }
        }
        let mut live = g.clone();
        while let Some(&p) = one.alive_candidate_edges().first() {
            let broken = one.delete_edge(p);
            live.remove_edge(p.u(), p.v());
            assert_eq!(
                one.similarities(),
                count_all_targets(&live, &targets, Motif::Triangle),
                "recount after delete({p})"
            );
            for idx in &mut parted {
                assert_eq!(idx.delete_edge(p), broken, "delete({p})");
                assert_eq!(idx.total_similarity(), one.total_similarity());
                assert_eq!(idx.alive_candidate_edges(), one.alive_candidate_edges());
            }
        }
        assert_eq!(one.total_similarity(), 0);
    }

    #[test]
    fn batch_delete_equals_sequential_on_disjoint_gain_sets() {
        let (g, targets) = fixture();
        let base = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 4);
        // Assemble a batch with pairwise-disjoint gain sets, greedily.
        let mut batch: Vec<Edge> = Vec::new();
        let mut claimed: Vec<InstanceId> = Vec::new();
        for p in base.alive_candidate_edges() {
            let ids = base.alive_instance_ids(p);
            if !ids.is_empty() && ids.iter().all(|id| !claimed.contains(id)) {
                claimed.extend(ids);
                batch.push(p);
            }
            if batch.len() == 4 {
                break;
            }
        }
        assert!(batch.len() >= 2, "fixture must admit a real batch");

        let mut sequential = base.clone();
        let seq_broken: Vec<usize> = batch.iter().map(|&p| sequential.delete_edge(p)).collect();
        let mut batched = base.clone();
        assert_eq!(batched.delete_edges(&batch), seq_broken);
        assert_eq!(batched.total_similarity(), sequential.total_similarity());
        assert_eq!(
            batched.alive_candidate_edges(),
            sequential.alive_candidate_edges()
        );
    }

    #[test]
    fn overlapping_batch_charges_shared_instances_once() {
        // Two edges of the same triangle instance: the first in input order
        // gets the kill, the second breaks only what is left.
        let mut g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        g.remove_edge(0, 1);
        let mut idx = PartitionedCoverageIndex::build(&g, &[Edge::new(0, 1)], Motif::Triangle, 2);
        let broken = idx.delete_edges(&[Edge::new(0, 2), Edge::new(1, 2)]);
        assert_eq!(broken, vec![1, 0]);
        assert_eq!(idx.total_similarity(), 0);
    }

    #[test]
    fn empty_and_unknown_edges_are_harmless() {
        let (g, targets) = fixture();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 3);
        let before = idx.total_similarity();
        let one = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 1);
        let far = Edge::new(70, 79);
        assert_eq!(idx.gain(far), one.gain(far));
        let mut g2 = g.clone();
        g2.remove_edge(far.u(), far.v());
        let after: usize = count_all_targets(&g2, &targets, Motif::Triangle)
            .iter()
            .sum();
        assert_eq!(idx.gain(far), before - after, "gain({far}) vs recount");
        assert_eq!(idx.gain(Edge::new(1000, 2000)), 0, "out-of-range edge");
        assert_eq!(idx.delete_edges(&[]), Vec::<usize>::new());
        assert_eq!(idx.delete_edge(Edge::new(1000, 2000)), 0);
        assert_eq!(idx.total_similarity(), before);
        let empty = PartitionedCoverageIndex::build(&Graph::new(0), &[], Motif::Triangle, 4);
        assert_eq!(empty.total_similarity(), 0);
        assert!(empty.alive_candidate_edges().is_empty());
    }

    #[test]
    fn recorder_counts_builds_and_commits_without_changing_results() {
        let (g, targets) = fixture();
        let rec = tpp_obs::Recorder::enabled();
        let exec = tpp_exec::Parallelism::with_recorder(2, rec.clone());
        let mut observed =
            PartitionedCoverageIndex::build_parallel(&g, &targets, Motif::Triangle, 4, &exec);
        let mut plain = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 4);
        let st = rec.stats().unwrap();
        assert_eq!(st.index.builds.get(), 1);
        assert!(st.index.build_ns.get() >= st.index.build_enumerate_ns.get());
        while let Some(&p) = plain.alive_candidate_edges().first() {
            assert_eq!(observed.delete_edge(p), plain.delete_edge(p));
        }
        assert_eq!(observed.total_similarity(), 0);
        assert_eq!(st.index.commits.get(), st.index.instances_killed.count());
        assert!(st.index.commits.get() > 0);
        assert!(st.index.compactions.get() > 0, "full teardown must compact");
    }

    /// The first `count` canonical non-edges of `g` that avoid `targets`
    /// (deterministic scan order, so failures replay).
    fn non_edges(g: &Graph, targets: &[Edge], count: usize) -> Vec<Edge> {
        let n = g.node_count() as u32;
        let mut out = Vec::new();
        'scan: for u in 0..n {
            for v in (u + 1)..n {
                let e = Edge::new(u, v);
                if !g.contains(e) && !targets.contains(&e) {
                    out.push(e);
                    if out.len() == count {
                        break 'scan;
                    }
                }
            }
        }
        out
    }

    /// Queries of `idx` must be indistinguishable from `rebuilt` (a fresh
    /// build on the mutated graph): counts, candidates, and gains.
    fn assert_matches_rebuild(idx: &PartitionedCoverageIndex, rebuilt: &PartitionedCoverageIndex) {
        assert_eq!(idx.total_similarity(), rebuilt.total_similarity());
        assert_eq!(idx.similarities(), rebuilt.similarities());
        assert_eq!(idx.alive_candidate_edges(), rebuilt.alive_candidate_edges());
        for p in rebuilt.alive_candidate_edges() {
            assert_eq!(idx.gain(p), rebuilt.gain(p), "gain({p})");
            assert_eq!(breakdown(idx, p), breakdown(rebuilt, p));
        }
        idx.check_invariants();
    }

    #[test]
    fn insert_then_query_equals_rebuild_for_all_parts() {
        let (g, targets) = fixture();
        // A deterministic non-edge batch (includes target-endpoint-incident
        // edges: the scan starts at node 0).
        let adds = non_edges(&g, &targets, 3);
        assert_eq!(adds.len(), 3);
        for motif in Motif::ALL {
            for parts in [1usize, 3, 8] {
                let mut idx = PartitionedCoverageIndex::build(&g, &targets, motif, parts);
                let mut g2 = g.clone();
                for &e in &adds {
                    assert!(!g2.contains(e), "fixture add {e} must be a non-edge");
                    g2.add_edge(e.u(), e.v());
                    idx.insert_edge(&g2, e);
                }
                let rebuilt = PartitionedCoverageIndex::build(&g2, &targets, motif, parts);
                assert_matches_rebuild(&idx, &rebuilt);
            }
        }
    }

    #[test]
    fn breakdown_is_target_ascending_after_out_of_order_insert() {
        // Target 1 = (2, 3) owns the triangle 2-0-3 at build time; inserting
        // (1, 2) then discovers target 0 = (0, 1)'s triangle 0-2-1 under a
        // later id. The shared edge (0, 2) posts target 1's instance before
        // target 0's, yet its breakdown must list target 0 first.
        let targets = [Edge::new(0, 1), Edge::new(2, 3)];
        let mut g = Graph::from_edges([(0u32, 2u32), (0, 3)]);
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 2);
        g.add_edge(1, 2);
        assert_eq!(idx.insert_edge(&g, Edge::new(1, 2)), 1);
        let shared = Edge::new(0, 2);
        let posted: Vec<usize> = idx
            .alive_instance_ids(shared)
            .iter()
            .map(|&id| idx.instances[id as usize].target_idx)
            .collect();
        assert_eq!(posted, vec![1, 0], "fixture must post out of target order");
        assert_eq!(breakdown(&idx, shared), vec![(0, 1), (1, 1)]);
        assert_eq!(breakdown(&idx, Edge::new(1, 2)), vec![(0, 1)]);
        assert_eq!(breakdown(&idx, Edge::new(0, 3)), vec![(1, 1)]);
        assert!(breakdown(&idx, Edge::new(5, 6)).is_empty());
    }

    #[test]
    fn insert_returns_the_similarity_increase() {
        let (g, targets) = fixture();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 4);
        let before = idx.total_similarity();
        let e = non_edges(&g, &targets, 1)[0];
        let mut g2 = g.clone();
        g2.add_edge(e.u(), e.v());
        let discovered = idx.insert_edge(&g2, e);
        assert_eq!(idx.total_similarity(), before + discovered);
        // Deleting the inserted edge undoes exactly its contribution.
        assert_eq!(idx.delete_edge(e), discovered);
        assert_eq!(idx.total_similarity(), before);
    }

    #[test]
    fn interleaved_insert_delete_matches_rebuild() {
        let (g, targets) = fixture();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 4);
        let mut live = g.clone();
        // Delete a committed protector, insert a new edge, delete another,
        // then reinsert the first deleted edge. `add` is picked from the
        // original graph's non-edges so it cannot collide with `kill1`
        // (which becomes a non-edge of `live` after its deletion).
        let add = non_edges(&g, &targets, 1)[0];
        let kill1 = idx.alive_candidate_edges()[0];
        idx.delete_edge(kill1);
        live.remove_edge(kill1.u(), kill1.v());
        live.add_edge(add.u(), add.v());
        idx.insert_edge(&live, add);
        let kill2 = *idx
            .alive_candidate_edges()
            .last()
            .expect("candidates remain");
        idx.delete_edge(kill2);
        live.remove_edge(kill2.u(), kill2.v());
        live.add_edge(kill1.u(), kill1.v());
        idx.insert_edge(&live, kill1);
        let rebuilt = PartitionedCoverageIndex::build(&live, &targets, Motif::Triangle, 4);
        assert_matches_rebuild(&idx, &rebuilt);
    }

    #[test]
    #[should_panic(expected = "post-insert graph")]
    fn insert_rejects_absent_edges() {
        let (g, targets) = fixture();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 2);
        let absent = non_edges(&g, &targets, 1)[0];
        let _ = idx.insert_edge(&g, absent);
    }

    #[test]
    #[should_panic(expected = "target edge")]
    fn insert_rejects_target_edges() {
        let (mut g, targets) = fixture();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 2);
        g.add_edge(0, 1);
        let _ = idx.insert_edge(&g, Edge::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "double insertion")]
    fn insert_rejects_already_indexed_edges() {
        let (g, targets) = fixture();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 2);
        let present = idx.alive_candidate_edges()[0];
        let _ = idx.insert_edge(&g, present);
    }

    #[test]
    fn insert_records_update_stats() {
        let (g, targets) = fixture();
        let rec = tpp_obs::Recorder::enabled();
        let mut idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Triangle, 4);
        idx.set_parallelism(Parallelism::with_recorder(1, rec.clone()));
        let e = non_edges(&g, &targets, 1)[0];
        let mut g2 = g.clone();
        g2.add_edge(e.u(), e.v());
        let discovered = idx.insert_edge(&g2, e);
        let st = rec.stats().unwrap();
        assert_eq!(st.update.inserts.get(), 1);
        assert_eq!(st.update.instances_discovered.get(), discovered as u64);
        assert_eq!(
            st.update.postings_appended.get(),
            (discovered * Motif::Triangle.edges_per_instance()) as u64
        );
    }

    #[test]
    fn shard_ranges_cover_and_candidates_partition() {
        let (g, targets) = fixture();
        let idx = PartitionedCoverageIndex::build(&g, &targets, Motif::Rectangle, 5);
        let ranges = idx.shard_ranges();
        assert_eq!(ranges.len(), idx.parts());
        assert_eq!(ranges[0].start, 0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let counts = idx.shard_candidate_counts();
        let flat: Vec<Edge> = idx.alive_candidate_slices().flatten().copied().collect();
        assert_eq!(counts.iter().sum::<usize>(), flat.len());
        assert_eq!(flat, idx.alive_candidate_edges());
    }
}
