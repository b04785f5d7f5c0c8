//! # tpp-metrics
//!
//! Graph-utility metrics for the Target Privacy Preserving workspace — the
//! six statistics of the paper's Table II (average path length, clustering,
//! assortativity, core number, second-largest Laplacian eigenvalue, and
//! modularity), their supporting algorithms (BFS aggregation, k-shell
//! peeling, deflated power iteration, Louvain / label-propagation community
//! detection), and the utility-loss-ratio report used in Tables III–V.
//!
//! Clustering is computed from exact per-node triangle counts
//! ([`triangle_counts`]): one degree-ordered forward pass that finds each
//! triangle once. A loss evaluation keeps the original's side as a
//! [`UtilityBaseline`]; a released graph that is the original minus some
//! edges gets its counts by subtracting the triangles through the deleted
//! edges (each broken triangle once, at its smallest deleted edge), and
//! any other graph falls back to a full pass. Every value is bit-identical
//! to measuring each graph from scratch.
//!
//! ```
//! use tpp_graph::generators::holme_kim;
//! use tpp_metrics::{UtilityBaseline, UtilityConfig, utility_loss};
//!
//! let g = holme_kim(200, 4, 0.4, 7);
//! let mut released = g.clone();
//! released.remove_edge(0, 1);
//! let report = utility_loss(&g, &released, &UtilityConfig::full(1));
//! assert!(report.average < 0.05, "one deletion barely moves utility");
//!
//! // A kept baseline answers later releases of the same original.
//! let baseline = UtilityBaseline::new(&g, &UtilityConfig::full(1));
//! assert_eq!(baseline.loss(&g, &released).average, report.average);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod assortativity;
pub mod clustering;
pub mod community;
pub mod core_number;
pub mod degree;
pub mod distance;
pub mod paths;
pub mod spectral;
pub mod utility;

pub use assortativity::assortativity;
pub use clustering::{average_clustering, local_clustering, triangle_count, triangle_counts};
pub use community::{label_propagation, louvain, louvain_modularity, modularity};
pub use core_number::{average_core_number, core_numbers, degeneracy};
pub use degree::{degree_histogram, degree_stats, power_law_alpha, DegreeStats};
pub use distance::{distance_distribution, sampled_distance_distribution, DistanceDistribution};
pub use paths::{average_path_length, sampled_path_length, PathLengthStats};
pub use spectral::{largest_laplacian_eigenvalue, second_largest_laplacian_eigenvalue};
pub use utility::{
    compute_utility, loss_ratio, utility_loss, UtilityBaseline, UtilityConfig, UtilityLossReport,
    UtilityMetric, UtilityValues,
};
