//! Seeded input generation: graphs, target lists and edge deltas, all a
//! pure function of the workload seed. The program under test only ever
//! sees the files written from these.

use std::collections::BTreeSet;
use tpp_graph::{Edge, Graph};

/// SplitMix64: small, seedable, and stable across toolchains.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for one input of a run, so every input moves with `--seed`
/// but no two inputs share a stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95)).next_u64()
}

/// `count` distinct edges of `g`, drawn uniformly, in canonical order.
pub fn sample_edges(g: &Graph, count: usize, avoid: &BTreeSet<Edge>, rng: &mut Rng) -> Vec<Edge> {
    let edges = g.edge_vec();
    assert!(
        edges.len() >= count + avoid.len(),
        "graph too small for {count} samples"
    );
    let mut picked = BTreeSet::new();
    while picked.len() < count {
        let e = edges[rng.below(edges.len())];
        if !avoid.contains(&e) {
            picked.insert(e);
        }
    }
    picked.into_iter().collect()
}

/// An edge delta and its exact inverse: `removals` existing edges outside
/// `avoid`, and `additions` triadic closures (a missing edge `u-v` whose
/// endpoints share a neighbour), so each insertion creates motif
/// instances for the index to discover. Applying the delta and then its
/// inverse restores the graph exactly, which keeps the work per iteration
/// constant in a loop that alternates them.
pub struct DeltaPair {
    pub removed: Vec<Edge>,
    pub added: Vec<Edge>,
}

impl DeltaPair {
    pub fn generate(
        g: &Graph,
        removals: usize,
        additions: usize,
        avoid: &BTreeSet<Edge>,
        rng: &mut Rng,
    ) -> DeltaPair {
        let removed = sample_edges(g, removals, avoid, rng);
        let gone: BTreeSet<Edge> = removed.iter().copied().collect();
        let mut added = BTreeSet::new();
        let n = g.node_count();
        let mut attempts = 0usize;
        while added.len() < additions {
            attempts += 1;
            assert!(attempts < 1_000_000, "no triadic closures left to add");
            let w = rng.below(n) as u32;
            let nbrs = g.neighbors(w);
            if nbrs.len() < 2 {
                continue;
            }
            let u = nbrs[rng.below(nbrs.len())];
            let v = nbrs[rng.below(nbrs.len())];
            if u == v || g.has_edge(u, v) {
                continue;
            }
            // Both legs of the closure must survive the removals.
            if gone.contains(&Edge::new(u, w)) || gone.contains(&Edge::new(v, w)) {
                continue;
            }
            added.insert(Edge::new(u, v));
        }
        DeltaPair {
            removed,
            added: added.into_iter().collect(),
        }
    }

    /// The delta file text: removals, then additions.
    pub fn forward_text(&self) -> String {
        delta_text(&self.removed, &self.added)
    }

    /// The exact inverse: re-add what was removed, remove what was added.
    pub fn inverse_text(&self) -> String {
        delta_text(&self.added, &self.removed)
    }

    /// `g` with the forward delta applied.
    pub fn apply(&self, g: &Graph) -> Graph {
        let mut h = g.clone();
        for e in &self.removed {
            assert!(h.remove_edge(e.u(), e.v()), "removal {e} is an edge");
        }
        for e in &self.added {
            assert!(h.add_edge(e.u(), e.v()), "addition {e} is new");
        }
        h
    }
}

fn delta_text(removed: &[Edge], added: &[Edge]) -> String {
    let mut out = String::new();
    for e in removed {
        out.push_str(&format!("- {} {}\n", e.u(), e.v()));
    }
    for e in added {
        out.push_str(&format!("+ {} {}\n", e.u(), e.v()));
    }
    out
}

/// `u-v,u-v,...`, the `--targets` flag value.
pub fn targets_flag(targets: &[Edge]) -> String {
    targets
        .iter()
        .map(|e| format!("{}-{}", e.u(), e.v()))
        .collect::<Vec<_>>()
        .join(",")
}
