//! A fixed yardstick of host speed. The shared hosts this benchmark runs
//! on change speed by up to half over a few minutes, and every kind of
//! CPU work slows together (CPU time tracks wall time; steal time stays
//! at zero). The probe times a fixed graph kernel while the program is
//! idle, so a run's latencies can be scaled to a reference host speed.
//! It runs on two threads at once, one per vCPU of the hosts the bounds
//! were set on, and reads the slower: the two vCPUs change speed apart,
//! and the served workloads keep both busy.
//!
//! The kernel is written here, against no workspace crate, so no change
//! to the program moves it: triangle counting by sorted-list merges over
//! a fixed preferential-attachment graph, the memory-bound, branchy kind
//! of work `tpp` itself does.

use crate::inputs::Rng;
use std::time::Instant;

/// The probe time, in ms, that adjusted figures are scaled to: about what
/// a sample reads on the 2-vCPU host the bounds were set on.
pub const REFERENCE_MS: f64 = 45.0;

/// Kernel passes per thread in a sample.
const PASSES: usize = 3;

/// Threads a sample runs the kernel on at once.
const THREADS: usize = 2;

/// The probe graph in CSR form: sorted, duplicate-free adjacency.
pub struct Probe {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Probe {
    /// Builds the probe graph: 50,000 nodes, each attached to 4 earlier
    /// ones with probability proportional to degree, from a fixed seed.
    pub fn new() -> Probe {
        const NODES: usize = 50_000;
        const LINKS: usize = 4;
        let mut rng = Rng::new(0x0070_726f_6265);
        let mut ends: Vec<u32> = Vec::with_capacity(NODES * (2 * LINKS + 1));
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); NODES];
        for v in 0..NODES as u32 {
            for _ in 0..LINKS {
                if ends.is_empty() {
                    break;
                }
                let u = ends[rng.below(ends.len())];
                if u != v {
                    adj[u as usize].push(v);
                    adj[v as usize].push(u);
                    ends.push(u);
                }
            }
            ends.extend(std::iter::repeat_n(v, LINKS + 1));
        }
        let mut offsets = vec![0];
        let mut neighbors = Vec::new();
        for mut a in adj {
            a.sort_unstable();
            a.dedup();
            neighbors.extend(a);
            offsets.push(neighbors.len());
        }
        Probe { offsets, neighbors }
    }

    fn adj(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// One kernel pass: the triangle count, each triangle once per edge
    /// `u < v` that closes it.
    fn triangles(&self) -> u64 {
        let mut count = 0u64;
        for u in 0..self.offsets.len() - 1 {
            let a = self.adj(u);
            for &v in a.iter().filter(|&&v| v as usize > u) {
                let b = self.adj(v as usize);
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        count
    }

    /// The median of [`PASSES`] timed passes, in ms.
    fn passes(&self) -> f64 {
        let mut times: Vec<f64> = (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.triangles());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[PASSES / 2]
    }

    /// One sample, in ms: [`THREADS`] threads time their passes at once,
    /// and the slowest thread's median is the sample.
    pub fn sample(&self) -> f64 {
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| scope.spawn(|| self.passes()))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("probe threads do not panic"))
                .fold(0.0, f64::max)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_graph_is_fixed() {
        let (a, b) = (Probe::new(), Probe::new());
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.triangles(), b.triangles());
        assert!(a.triangles() > 0);
    }
}
