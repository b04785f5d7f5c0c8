//! Clustering coefficients (Table II metric `clust`).

use tpp_graph::{Graph, NodeId};

/// Local clustering coefficient of node `v`:
/// `|{(a, b) ∈ E : a, b ∈ Γ(v)}| / (d_v (d_v − 1) / 2)`.
/// Nodes with degree < 2 have coefficient 0 by convention.
#[must_use]
pub fn local_clustering(g: &Graph, v: NodeId) -> f64 {
    let d = g.degree(v);
    if d < 2 {
        return 0.0;
    }
    let links = triangles_through(g, v);
    links as f64 / (d * (d - 1) / 2) as f64
}

/// Number of edges among the neighbors of `v` (= triangles through `v`).
///
/// Computed as `Σ_{a ∈ Γ(v)} |Γ(v) ∩ Γ(a)| / 2` via the count-only
/// intersection kernels: each neighbor-neighbor edge `(a, b)` is seen from
/// both `a` and `b`, hence the halving. Replaces the old `O(d_v²)`
/// pairwise `has_edge` loop — the same result through the size-adaptive
/// merge/gallop dispatch instead of `d_v²/2` binary searches.
#[must_use]
pub fn triangles_through(g: &Graph, v: NodeId) -> usize {
    g.neighbors(v)
        .iter()
        .map(|&a| g.common_neighbor_count(v, a))
        .sum::<usize>()
        / 2
}

/// Exact number of triangles through every node, from one degree-ordered
/// forward pass (Latapy, TCS 2008; Schank & Wagner, WEA 2005).
///
/// Each edge is oriented from the lower to the higher `(degree, id)` rank,
/// so every triangle is found exactly once: at its lowest-ranked corner
/// `u`, as an out-neighbour `w` shared by `u` and its out-neighbour `v`.
/// Out-lists are short (at most `√(2m)` entries), which bounds the pass by
/// `O(m^{3/2})` even on hub-heavy graphs. The three corners of each
/// triangle are credited once, so `counts[v] == triangles_through(g, v)`
/// (which fits `u32` while `v`'s neighbourhood holds fewer than 2³² edges).
#[must_use]
pub fn triangle_counts(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let ahead = |u: NodeId, v: NodeId| (g.degree(u), u) < (g.degree(v), v);
    // Out-lists in CSR form, each in ascending id order.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut out: Vec<NodeId> = Vec::with_capacity(g.edge_count());
    offsets.push(0);
    for u in g.nodes() {
        out.extend(g.neighbors(u).iter().copied().filter(|&v| ahead(u, v)));
        offsets.push(out.len());
    }
    let out_of = |u: NodeId| &out[offsets[u as usize]..offsets[u as usize + 1]];
    let mut counts = vec![0u32; n];
    // `mark[w] == u + 1` while `w` is an out-neighbour of the current `u`.
    let mut mark = vec![0 as NodeId; n];
    for u in g.nodes() {
        let out_u = out_of(u);
        if out_u.len() < 2 {
            continue;
        }
        for &v in out_u {
            mark[v as usize] = u + 1;
        }
        for &v in out_u {
            for &w in out_of(v) {
                if mark[w as usize] == u + 1 {
                    counts[u as usize] += 1;
                    counts[v as usize] += 1;
                    counts[w as usize] += 1;
                }
            }
        }
    }
    counts
}

/// Average clustering from per-node triangle counts (as returned by
/// [`triangle_counts`]): the same per-node expression as
/// [`local_clustering`], summed in node order, so the result is
/// bit-identical to averaging `local_clustering` over the nodes.
pub(crate) fn clustering_from_counts(g: &Graph, triangles: &[u32]) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = g
        .nodes()
        .map(|v| {
            let d = g.degree(v);
            if d < 2 {
                0.0
            } else {
                f64::from(triangles[v as usize]) / (d * (d - 1) / 2) as f64
            }
        })
        .sum();
    sum / n as f64
}

/// Average clustering coefficient `clust = Σ_v clust_v / N` over **all**
/// nodes, exactly as defined in the paper (§VI, metric 2).
#[must_use]
pub fn average_clustering(g: &Graph) -> f64 {
    clustering_from_counts(g, &triangle_counts(g))
}

/// Total number of triangles in the graph (each counted once).
#[must_use]
pub fn triangle_count(g: &Graph) -> usize {
    // Each triangle is credited to all 3 of its corners.
    triangle_counts(g)
        .iter()
        .map(|&t| t as usize)
        .sum::<usize>()
        / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn complete_graph_is_fully_clustered() {
        let g = complete_graph(5);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 10); // C(5,3)
    }

    #[test]
    fn triangle_free_graphs() {
        assert_eq!(average_clustering(&path_graph(6)), 0.0);
        assert_eq!(average_clustering(&cycle_graph(6)), 0.0);
        assert_eq!(average_clustering(&star_graph(5)), 0.0);
        assert_eq!(triangle_count(&cycle_graph(6)), 0);
    }

    #[test]
    fn single_triangle_with_tail() {
        // triangle 0-1-2 plus pendant 3 attached to 0.
        let g = tpp_graph::Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2), (0, 3)]);
        assert_eq!(triangles_through(&g, 0), 1);
        assert!((local_clustering(&g, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((local_clustering(&g, 1) - 1.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 3), 0.0);
        // average: (1/3 + 1 + 1 + 0) / 4
        assert!((average_clustering(&g) - (1.0 / 3.0 + 2.0) / 4.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn kernel_count_matches_naive_pairwise_loop() {
        let g = tpp_graph::generators::holme_kim(150, 4, 0.5, 11);
        let naive = naive_triangles(&g);
        for v in 0..150u32 {
            assert_eq!(
                triangles_through(&g, v),
                naive[v as usize] as usize,
                "node {v}"
            );
        }
    }

    /// Triangles through each node by the pairwise `has_edge` definition.
    fn naive_triangles(g: &tpp_graph::Graph) -> Vec<u32> {
        g.nodes()
            .map(|v| {
                let nbrs = g.neighbors(v);
                let mut count = 0u32;
                for (i, &a) in nbrs.iter().enumerate() {
                    for &b in &nbrs[i + 1..] {
                        count += u32::from(g.has_edge(a, b));
                    }
                }
                count
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// The forward pass credits each triangle to exactly its corners.
        #[test]
        fn triangle_counts_match_naive_pairwise_count(
            n in 5usize..=160,
            m in 1usize..=6,
            p in 0.0f64..1.0,
            seed in 0u64..=10_000,
        ) {
            let g = tpp_graph::generators::holme_kim(n, m.min(n - 1), p, seed);
            proptest::prop_assert_eq!(triangle_counts(&g), naive_triangles(&g));
        }
    }

    #[test]
    fn forward_pass_on_cliques_and_stars() {
        assert_eq!(triangle_counts(&complete_graph(6)), vec![10; 6]); // C(5,2)
        assert_eq!(triangle_counts(&star_graph(7)), vec![0; 8]);
        assert!(triangle_counts(&tpp_graph::Graph::new(0)).is_empty());
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(average_clustering(&tpp_graph::Graph::new(0)), 0.0);
        assert_eq!(average_clustering(&tpp_graph::Graph::new(3)), 0.0);
    }
}
