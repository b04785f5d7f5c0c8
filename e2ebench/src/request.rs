//! The operations a workload sends, in one structured form: rendered as
//! `tpp` argv for the one-shot and served runs, and interpreted call by
//! call by the traced replay. Keeping both views on one type is what
//! makes the replay repeat the operation the untraced run timed.

use crate::inputs::targets_flag;
use tpp_graph::Edge;
use tpp_motif::Motif;

/// Worker threads for every one-shot run and the daemon's shared pool.
pub const THREADS: usize = 2;

#[derive(Clone, Debug)]
pub enum Targets {
    /// `--random N`: the program samples them from the request's seed.
    Random(usize),
    /// `--targets u-v,...`.
    Explicit(Vec<Edge>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    Sgb,
    Ct,
}

impl Algorithm {
    pub fn flag(self) -> &'static str {
        match self {
            Algorithm::Sgb => "sgb",
            Algorithm::Ct => "ct",
        }
    }
}

#[derive(Clone, Debug)]
pub enum Request {
    Protect {
        graph: String,
        motif: Motif,
        algorithm: Algorithm,
        budget: usize,
        targets: Targets,
        seed: u64,
        plan: String,
    },
    /// `protect --incremental`: repair the plan in `prior` after `delta`.
    Repair {
        graph: String,
        prior: String,
        delta: String,
        budget: usize,
        seed: u64,
        plan: String,
    },
    /// A `cn` attack on the graph with its sampled targets hidden.
    Attack {
        graph: String,
        targets: usize,
        negatives: usize,
        seed: u64,
    },
    /// A served `update`: apply `delta` to the resident graph.
    Update { graph: String, delta: String },
}

impl Request {
    /// The op type name latencies are reported under.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Protect { .. } => "protect",
            Request::Repair { .. } => "repair",
            Request::Attack { .. } => "attack",
            Request::Update { .. } => "update",
        }
    }

    /// The plan file this request writes, if any.
    pub fn plan_path(&self) -> Option<&str> {
        match self {
            Request::Protect { plan, .. } | Request::Repair { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The same request writing its plan to `path` instead.
    pub fn with_plan(&self, path: &str) -> Request {
        let mut r = self.clone();
        if let Request::Protect { plan, .. } | Request::Repair { plan, .. } = &mut r {
            *plan = path.to_string();
        }
        r
    }

    /// The same request against another graph file.
    pub fn with_graph(&self, path: &str) -> Request {
        let mut r = self.clone();
        match &mut r {
            Request::Protect { graph, .. }
            | Request::Repair { graph, .. }
            | Request::Attack { graph, .. }
            | Request::Update { graph, .. } => *graph = path.to_string(),
        }
        r
    }

    /// The argv `tpp` (or `tpp client <socket>`) takes for this request.
    pub fn argv(&self) -> Vec<String> {
        let threads = THREADS.to_string();
        let v: Vec<String> = match self {
            Request::Protect {
                graph,
                motif,
                algorithm,
                budget,
                targets,
                seed,
                plan,
            } => {
                let mut v = vec![
                    "protect".into(),
                    graph.clone(),
                    "--budget".into(),
                    budget.to_string(),
                    "--motif".into(),
                    motif.to_string(),
                    "--algorithm".into(),
                    algorithm.flag().into(),
                ];
                match targets {
                    Targets::Random(n) => v.extend(["--random".into(), n.to_string()]),
                    Targets::Explicit(t) => v.extend(["--targets".into(), targets_flag(t)]),
                }
                v.extend([
                    "--seed".into(),
                    seed.to_string(),
                    "--threads".into(),
                    threads,
                    "--plan".into(),
                    plan.clone(),
                ]);
                v
            }
            Request::Repair {
                graph,
                prior,
                delta,
                budget,
                seed,
                plan,
            } => vec![
                "protect".into(),
                graph.clone(),
                "--incremental".into(),
                "--plan-in".into(),
                prior.clone(),
                "--delta".into(),
                delta.clone(),
                "--budget".into(),
                budget.to_string(),
                "--seed".into(),
                seed.to_string(),
                "--threads".into(),
                threads,
                "--plan".into(),
                plan.clone(),
            ],
            Request::Attack {
                graph,
                targets,
                negatives,
                seed,
            } => vec![
                "attack".into(),
                graph.clone(),
                "--random".into(),
                targets.to_string(),
                "--seed".into(),
                seed.to_string(),
                "--attacker".into(),
                "cn".into(),
                "--negatives".into(),
                negatives.to_string(),
                "--threads".into(),
                threads,
            ],
            Request::Update { graph, delta } => vec![
                "update".into(),
                graph.clone(),
                "--delta".into(),
                delta.clone(),
            ],
        };
        v
    }
}
