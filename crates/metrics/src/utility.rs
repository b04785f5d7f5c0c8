//! Graph-utility measurement and utility-loss-ratio reports (paper §VI,
//! Table II and the `ulr` definition).
//!
//! A loss evaluation measures the original and the released graph. The
//! original's side is a [`UtilityBaseline`]: its metric values plus its
//! per-node triangle counts. A released graph that is the original minus
//! some edges (every TPP release) gets its triangle counts by subtracting
//! the triangles through the deleted edges from the baseline's, instead of
//! a second full triangle pass; any other graph is measured from scratch.

use crate::{
    assortativity::assortativity,
    clustering::{average_clustering, clustering_from_counts, triangle_counts},
    community::louvain_modularity,
    core_number::average_core_number,
    paths::{average_path_length, sampled_path_length},
    spectral::second_largest_laplacian_eigenvalue,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use tpp_graph::{Edge, FastSet, Graph};

/// The six utility metrics of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilityMetric {
    /// `l`: average shortest-path length.
    AvgPathLength,
    /// `clust`: average clustering coefficient.
    Clustering,
    /// `r`: degree assortativity.
    Assortativity,
    /// `cn`: average core number (k-shell).
    CoreNumber,
    /// `µ`: second-largest Laplacian eigenvalue.
    SecondEigenvalue,
    /// `Mod`: Newman modularity of detected communities.
    Modularity,
}

impl UtilityMetric {
    /// All metrics in Table II order.
    pub const ALL: [UtilityMetric; 6] = [
        UtilityMetric::AvgPathLength,
        UtilityMetric::Clustering,
        UtilityMetric::Assortativity,
        UtilityMetric::CoreNumber,
        UtilityMetric::SecondEigenvalue,
        UtilityMetric::Modularity,
    ];

    /// The paper's notation for the metric.
    #[must_use]
    pub fn notation(self) -> &'static str {
        match self {
            UtilityMetric::AvgPathLength => "l",
            UtilityMetric::Clustering => "clust",
            UtilityMetric::Assortativity => "r",
            UtilityMetric::CoreNumber => "cn",
            UtilityMetric::SecondEigenvalue => "mu",
            UtilityMetric::Modularity => "Mod",
        }
    }
}

impl fmt::Display for UtilityMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.notation())
    }
}

/// What to measure and how hard to work at it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityConfig {
    /// Metrics to evaluate.
    pub metrics: Vec<UtilityMetric>,
    /// `None` = exact all-pairs path length; `Some(s)` = sample `s` BFS
    /// roots (for DBLP-scale graphs).
    pub path_sources: Option<usize>,
    /// Seed for the randomized components (sampling, eigensolver start
    /// vector, Louvain ordering).
    pub seed: u64,
}

impl UtilityConfig {
    /// All six metrics, exact computations — the Arenas-email protocol of
    /// Tables III and IV.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        UtilityConfig {
            metrics: UtilityMetric::ALL.to_vec(),
            path_sources: None,
            seed,
        }
    }

    /// Clustering + core number only — the DBLP protocol of Table V
    /// ("many utility metrics such as the average path length and eigenvalue
    /// can't be efficiently computed on a general server").
    #[must_use]
    pub fn large_graph(seed: u64) -> Self {
        UtilityConfig {
            metrics: vec![UtilityMetric::Clustering, UtilityMetric::CoreNumber],
            path_sources: Some(64),
            seed,
        }
    }
}

/// Measured metric values for one graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityValues {
    /// `(metric, value)` pairs in the order of the config.
    pub values: Vec<(UtilityMetric, f64)>,
}

impl UtilityValues {
    /// Looks up a metric's value.
    #[must_use]
    pub fn get(&self, metric: UtilityMetric) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|&(_, v)| v)
    }
}

/// Evaluates the configured metrics on `g`.
#[must_use]
pub fn compute_utility(g: &Graph, config: &UtilityConfig) -> UtilityValues {
    measure(g, config, None)
}

/// [`compute_utility`], taking clustering from `triangles` (exact per-node
/// counts of `g`) when given.
fn measure(g: &Graph, config: &UtilityConfig, triangles: Option<&[u32]>) -> UtilityValues {
    let values = config
        .metrics
        .iter()
        .map(|&m| {
            let v = match m {
                UtilityMetric::AvgPathLength => match config.path_sources {
                    None => average_path_length(g).mean,
                    Some(s) => sampled_path_length(g, s, config.seed).mean,
                },
                UtilityMetric::Clustering => triangles
                    .map_or_else(|| average_clustering(g), |t| clustering_from_counts(g, t)),
                UtilityMetric::Assortativity => assortativity(g).unwrap_or(0.0),
                UtilityMetric::CoreNumber => average_core_number(g),
                UtilityMetric::SecondEigenvalue => {
                    second_largest_laplacian_eigenvalue(g, config.seed)
                }
                UtilityMetric::Modularity => louvain_modularity(g, config.seed),
            };
            (m, v)
        })
        .collect();
    UtilityValues { values }
}

/// The paper's utility loss ratio for one metric:
/// `ulr(z, G, G') = |z(G) − z(G')| / |z(G)|`.
///
/// When `z(G) = 0` the ratio is defined as the absolute difference (so a
/// perturbation of an already-zero metric is still reported rather than
/// producing a division by zero).
#[must_use]
pub fn loss_ratio(original: f64, perturbed: f64) -> f64 {
    let diff = (original - perturbed).abs();
    if original.abs() < 1e-12 {
        diff
    } else {
        diff / original.abs()
    }
}

/// Per-metric and average utility loss between an original and a released
/// graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityLossReport {
    /// `(metric, ulr)` pairs.
    pub per_metric: Vec<(UtilityMetric, f64)>,
    /// `ulr(G, G')`: mean loss ratio over all measured metrics.
    pub average: f64,
}

impl UtilityLossReport {
    /// Average loss formatted as a percentage string like `1.95%`.
    #[must_use]
    pub fn average_percent(&self) -> String {
        format!("{:.2}%", self.average * 100.0)
    }
}

/// Measures both graphs under `config` and reports the loss ratios.
///
/// Shorthand for `UtilityBaseline::new(original, config).loss(original,
/// released)`; a caller that evaluates several releases of one original
/// should keep the [`UtilityBaseline`] instead.
#[must_use]
pub fn utility_loss(
    original: &Graph,
    released: &Graph,
    config: &UtilityConfig,
) -> UtilityLossReport {
    UtilityBaseline::new(original, config).loss(original, released)
}

/// The original graph's side of a utility-loss evaluation: its metric
/// values under one config and, when the config measures clustering, its
/// exact per-node triangle counts.
#[derive(Debug, Clone)]
pub struct UtilityBaseline {
    config: UtilityConfig,
    nodes: usize,
    edges: usize,
    /// Per-node triangle counts of the original, when the config measures
    /// clustering.
    triangles: Option<Vec<u32>>,
    values: UtilityValues,
}

impl UtilityBaseline {
    /// Measures `original` under `config`.
    #[must_use]
    pub fn new(original: &Graph, config: &UtilityConfig) -> Self {
        let triangles = config
            .metrics
            .contains(&UtilityMetric::Clustering)
            .then(|| triangle_counts(original));
        let values = measure(original, config, triangles.as_deref());
        UtilityBaseline {
            config: config.clone(),
            nodes: original.node_count(),
            edges: original.edge_count(),
            triangles,
            values,
        }
    }

    /// Whether measuring under `config` yields exactly this baseline's
    /// values: the same metrics, and the same sampling and seed where a
    /// measured metric depends on them. `large_graph(s)` baselines serve
    /// every seed `s`, since clustering and core number use none.
    #[must_use]
    pub fn serves(&self, config: &UtilityConfig) -> bool {
        let mine = &self.config;
        let sampled_paths =
            mine.metrics.contains(&UtilityMetric::AvgPathLength) && mine.path_sources.is_some();
        let seeded = sampled_paths
            || mine.metrics.iter().any(|m| {
                matches!(
                    m,
                    UtilityMetric::SecondEigenvalue | UtilityMetric::Modularity
                )
            });
        mine.metrics == config.metrics
            && (!mine.metrics.contains(&UtilityMetric::AvgPathLength)
                || mine.path_sources == config.path_sources)
            && (!seeded || mine.seed == config.seed)
    }

    /// The loss report of `released` against the original this baseline
    /// measured, which the caller passes back in as `original`.
    ///
    /// When `released` is `original` minus some edges, its triangle counts
    /// come from the baseline's by subtraction; otherwise it is measured
    /// from scratch. Either way the report is bit-identical to measuring
    /// both graphs afresh.
    ///
    /// # Panics
    /// Panics if `original`'s node or edge count differs from the graph
    /// the baseline was built on.
    #[must_use]
    pub fn loss(&self, original: &Graph, released: &Graph) -> UtilityLossReport {
        assert!(
            original.node_count() == self.nodes && original.edge_count() == self.edges,
            "utility baseline of a {}-node, {}-edge graph used with a {}-node, {}-edge one",
            self.nodes,
            self.edges,
            original.node_count(),
            original.edge_count()
        );
        let triangles = self.triangles.as_ref().map(|before| {
            released_triangles(before, original, released)
                .unwrap_or_else(|| triangle_counts(released))
        });
        let after = measure(released, &self.config, triangles.as_deref());
        let per_metric: Vec<(UtilityMetric, f64)> = self
            .values
            .values
            .iter()
            .zip(&after.values)
            .map(|(&(m, a), &(_, b))| (m, loss_ratio(a, b)))
            .collect();
        let average = if per_metric.is_empty() {
            0.0
        } else {
            per_metric.iter().map(|&(_, v)| v).sum::<f64>() / per_metric.len() as f64
        };
        UtilityLossReport {
            per_metric,
            average,
        }
    }
}

/// Per-node triangle counts of `released` derived from `before`, the
/// counts of `original`, or `None` when `released` is not `original` minus
/// some edges.
///
/// Each triangle of the original that lost at least one edge is subtracted
/// once, at its smallest deleted edge: walking the common neighbours `w` of
/// a deleted edge `e = (u, v)` in the original, the triangle `{u, v, w}` is
/// skipped when `(u, w)` or `(v, w)` is a deleted edge ordered before `e`.
fn released_triangles(before: &[u32], original: &Graph, released: &Graph) -> Option<Vec<u32>> {
    let deleted = deleted_edges(original, released)?;
    let gone: FastSet<Edge> = deleted.iter().copied().collect();
    let mut counts = before.to_vec();
    for &e in &deleted {
        let (u, v) = e.endpoints();
        original.for_each_common_neighbor(u, v, |w| {
            let earlier = |a, b| {
                let f = Edge::new(a, b);
                f < e && gone.contains(&f)
            };
            if !earlier(u, w) && !earlier(v, w) {
                for corner in [u, v, w] {
                    counts[corner as usize] -= 1;
                }
            }
        });
    }
    Some(counts)
}

/// The edges of `original` missing from `released`, in canonical order,
/// from a sorted merge of each node's two neighbour lists; `None` when
/// `released` has a node or an edge that `original` lacks.
fn deleted_edges(original: &Graph, released: &Graph) -> Option<Vec<Edge>> {
    if released.node_count() != original.node_count()
        || released.edge_count() > original.edge_count()
    {
        return None;
    }
    let mut deleted = Vec::with_capacity(original.edge_count() - released.edge_count());
    for u in original.nodes() {
        let (before, after) = (original.neighbors(u), released.neighbors(u));
        if before.len() <= after.len() {
            // Equal lengths: a subset is the whole list.
            if before == after {
                continue;
            }
            return None;
        }
        let mut j = 0;
        for &x in before {
            match after.get(j) {
                Some(&y) if y == x => j += 1,
                Some(&y) if y < x => return None,
                _ if u < x => deleted.push(Edge::new(u, x)),
                _ => {}
            }
        }
        if j != after.len() {
            return None;
        }
    }
    Some(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::local_clustering;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tpp_graph::generators::holme_kim;

    /// The from-scratch evaluation this module replaced: both graphs
    /// measured independently, clustering as the node-order mean of
    /// `local_clustering` (per-node neighbour intersections).
    fn reference_loss(
        original: &Graph,
        released: &Graph,
        config: &UtilityConfig,
    ) -> UtilityLossReport {
        let measure = |g: &Graph| -> Vec<f64> {
            config
                .metrics
                .iter()
                .map(|&m| match m {
                    UtilityMetric::AvgPathLength => match config.path_sources {
                        None => average_path_length(g).mean,
                        Some(s) => sampled_path_length(g, s, config.seed).mean,
                    },
                    UtilityMetric::Clustering => {
                        let n = g.node_count();
                        if n == 0 {
                            0.0
                        } else {
                            g.nodes().map(|v| local_clustering(g, v)).sum::<f64>() / n as f64
                        }
                    }
                    UtilityMetric::Assortativity => assortativity(g).unwrap_or(0.0),
                    UtilityMetric::CoreNumber => average_core_number(g),
                    UtilityMetric::SecondEigenvalue => {
                        second_largest_laplacian_eigenvalue(g, config.seed)
                    }
                    UtilityMetric::Modularity => louvain_modularity(g, config.seed),
                })
                .collect()
        };
        let (before, after) = (measure(original), measure(released));
        let per_metric: Vec<(UtilityMetric, f64)> = config
            .metrics
            .iter()
            .zip(before.iter().zip(&after))
            .map(|(&m, (&a, &b))| (m, loss_ratio(a, b)))
            .collect();
        let average = if per_metric.is_empty() {
            0.0
        } else {
            per_metric.iter().map(|&(_, v)| v).sum::<f64>() / per_metric.len() as f64
        };
        UtilityLossReport {
            per_metric,
            average,
        }
    }

    /// A report as exact bit patterns, for bit-identity comparisons.
    fn bits(r: &UtilityLossReport) -> (Vec<(UtilityMetric, u64)>, u64) {
        let per = r
            .per_metric
            .iter()
            .map(|&(m, v)| (m, v.to_bits()))
            .collect();
        (per, r.average.to_bits())
    }

    /// `g` minus about `percent`% of its edges and at least two edges of
    /// one of its triangles (all three when `pick` is even), so several
    /// deleted edges share a triangle.
    fn delete_some(g: &Graph, percent: u64, pick: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut released = g.clone();
        for e in g.edges() {
            if rng.gen_range(0..100u64) < percent {
                released.remove_edge(e.u(), e.v());
            }
        }
        let triangles: Vec<(u32, u32, u32)> = g
            .edges()
            .flat_map(|e| {
                g.common_neighbors(e.u(), e.v())
                    .into_iter()
                    .filter(move |&w| w > e.v())
                    .map(move |w| (e.u(), e.v(), w))
            })
            .collect();
        if !triangles.is_empty() {
            let (a, b, c) = triangles[pick % triangles.len()];
            released.remove_edge(a, b);
            released.remove_edge(a, c);
            if pick.is_multiple_of(2) {
                released.remove_edge(b, c);
            }
        }
        released
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]

        /// Subtracting the deleted edges' triangles gives the same report,
        /// bit for bit, as measuring the released graph from scratch.
        #[test]
        fn subtraction_is_bit_identical_to_from_scratch(
            n in 10usize..=90,
            m in 2usize..=5,
            p in 0.0f64..1.0,
            seed in 0u64..=10_000,
            percent in 0u64..=30,
            pick in 0usize..1_000,
        ) {
            let g = holme_kim(n, m, p, seed);
            let released = delete_some(&g, percent, pick, seed ^ 0x5eed);
            let deleted = deleted_edges(&g, &released).expect("a subgraph takes the subtraction");
            let expected: Vec<Edge> = g.edges().filter(|&e| !released.contains(e)).collect();
            proptest::prop_assert_eq!(&deleted, &expected);
            for config in [UtilityConfig::large_graph(seed), UtilityConfig::full(seed)] {
                let fast = utility_loss(&g, &released, &config);
                proptest::prop_assert_eq!(bits(&fast), bits(&reference_loss(&g, &released, &config)));
            }
        }
    }

    #[test]
    fn non_subgraph_releases_fall_back_exactly() {
        let g = holme_kim(90, 3, 0.5, 9);
        let mut added = delete_some(&g, 10, 3, 4);
        let (u, v) = (0..90u32)
            .flat_map(|u| (u + 1..90).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("a sparse graph has a non-edge");
        added.add_edge(u, v);
        let mut grown = delete_some(&g, 10, 4, 5);
        grown.ensure_node(90);
        for released in [&added, &grown] {
            assert!(deleted_edges(&g, released).is_none());
            for config in [UtilityConfig::large_graph(3), UtilityConfig::full(3)] {
                let fast = utility_loss(&g, released, &config);
                assert_eq!(bits(&fast), bits(&reference_loss(&g, released, &config)));
            }
        }
    }

    #[test]
    fn baseline_serves_configs_with_the_same_values() {
        let g = holme_kim(60, 3, 0.4, 1);
        let large = UtilityBaseline::new(&g, &UtilityConfig::large_graph(1));
        assert!(
            large.serves(&UtilityConfig::large_graph(2)),
            "no seeded metric"
        );
        assert!(!large.serves(&UtilityConfig::full(1)));
        let full = UtilityBaseline::new(&g, &UtilityConfig::full(1));
        assert!(full.serves(&UtilityConfig::full(1)));
        assert!(
            !full.serves(&UtilityConfig::full(2)),
            "Louvain and µ are seeded"
        );
        let values = compute_utility(&g, &UtilityConfig::full(1)).values;
        let bits =
            |v: &[(UtilityMetric, f64)]| -> Vec<u64> { v.iter().map(|x| x.1.to_bits()).collect() };
        assert_eq!(bits(&full.values.values), bits(&values));
    }

    #[test]
    #[should_panic(expected = "utility baseline")]
    fn baseline_rejects_another_original() {
        let g = holme_kim(60, 3, 0.4, 1);
        let other = holme_kim(61, 3, 0.4, 1);
        let _ = UtilityBaseline::new(&g, &UtilityConfig::large_graph(1)).loss(&other, &g);
    }

    #[test]
    fn loss_ratio_definition() {
        assert!((loss_ratio(2.0, 1.5) - 0.25).abs() < 1e-12);
        assert!((loss_ratio(-2.0, -1.0) - 0.5).abs() < 1e-12);
        assert_eq!(loss_ratio(0.0, 0.0), 0.0);
        assert!(
            (loss_ratio(0.0, 0.3) - 0.3).abs() < 1e-12,
            "zero-base fallback"
        );
    }

    #[test]
    fn identical_graphs_have_zero_loss() {
        let g = holme_kim(120, 3, 0.4, 2);
        let report = utility_loss(&g, &g, &UtilityConfig::full(7));
        assert_eq!(report.per_metric.len(), 6);
        for &(m, v) in &report.per_metric {
            assert!(v.abs() < 1e-9, "metric {m} loss {v} should be 0");
        }
        assert!(report.average.abs() < 1e-9);
    }

    #[test]
    fn deleting_edges_costs_utility() {
        let g = holme_kim(150, 4, 0.5, 3);
        let mut g2 = g.clone();
        let edges = g2.edge_vec();
        // Delete 20% of edges.
        for e in edges.iter().take(edges.len() / 5) {
            g2.remove_edge(e.u(), e.v());
        }
        let report = utility_loss(&g, &g2, &UtilityConfig::full(7));
        assert!(
            report.average > 0.01,
            "heavy deletion should show loss, got {}",
            report.average_percent()
        );
    }

    #[test]
    fn config_presets() {
        let full = UtilityConfig::full(0);
        assert_eq!(full.metrics.len(), 6);
        assert!(full.path_sources.is_none());
        let big = UtilityConfig::large_graph(0);
        assert_eq!(big.metrics.len(), 2);
    }

    #[test]
    fn values_lookup() {
        let g = tpp_graph::generators::complete_graph(5);
        let vals = compute_utility(&g, &UtilityConfig::full(1));
        assert!((vals.get(UtilityMetric::Clustering).unwrap() - 1.0).abs() < 1e-12);
        assert!((vals.get(UtilityMetric::AvgPathLength).unwrap() - 1.0).abs() < 1e-12);
        assert!((vals.get(UtilityMetric::CoreNumber).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn percent_formatting() {
        let report = UtilityLossReport {
            per_metric: vec![(UtilityMetric::Clustering, 0.0195)],
            average: 0.0195,
        };
        assert_eq!(report.average_percent(), "1.95%");
    }
}
