//! The three workloads: seeded inputs, set-up, one-shot references for
//! every distinct request and graph state, and the closed-loop measured
//! run through the real `tpp` binary and daemon.

use crate::inputs::{derive, sample_edges, DeltaPair, Rng};
use crate::probe::Probe;
use crate::request::{Algorithm, Request, Targets, THREADS};
use crate::sys::{run_child, Daemon};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tpp_core::TppInstance;
use tpp_graph::{write_edge_list, Edge, Graph};
use tpp_motif::Motif;

pub const ONESHOT: &str = "oneshot-ba50k";
pub const WARM: &str = "served-warm-ba50k";
pub const CHURN: &str = "served-churn-hk20k";
pub const WORKLOADS: [&str; 3] = [ONESHOT, WARM, CHURN];

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] runs the
/// same code paths in seconds for the self-test.
pub struct Scale {
    pub ba_graph: fn(u64) -> Graph,
    pub ba_targets: usize,
    pub ba_budget: usize,
    /// Edges in the one-shot repair delta (half removed, half added).
    pub repair_delta: usize,
    pub negatives: usize,
    pub hk_graph: fn(u64) -> Graph,
    pub hk_targets: usize,
    pub hk_budget: usize,
    /// Edges in the churn delta (half removed, half added).
    pub churn_delta: usize,
    /// Seconds of checked but untimed ops before the measured run.
    pub warmup_s: f64,
    /// Set-ups per run of each workload; `setup_s` is their median. The
    /// shorter the set-up, the more of them: a short span is noisier.
    /// One-shot: two snapshot builds, ~0.1 s.
    pub snapshot_setups: usize,
    /// served-warm-ba50k: snapshot build, server start, four index
    /// builds and six warm-up requests, ~1.3 s.
    pub warm_setups: usize,
    /// served-churn-hk20k: snapshot build, server start, one index build
    /// and its protect, ~0.3 s.
    pub churn_setups: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            ba_graph: |s| tpp_graph::generators::barabasi_albert(50_000, 4, s),
            ba_targets: 2_500,
            ba_budget: 20,
            repair_delta: 200,
            negatives: 2_500,
            hk_graph: |s| tpp_graph::generators::holme_kim(20_000, 4, 0.4, s),
            hk_targets: 1_000,
            hk_budget: 100,
            churn_delta: 64,
            warmup_s: 3.0,
            snapshot_setups: 15,
            warm_setups: 7,
            churn_setups: 15,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            ba_graph: tpp_datasets::arenas_email_like,
            ba_targets: 100,
            ba_budget: 5,
            repair_delta: 20,
            negatives: 100,
            hk_graph: |s| tpp_graph::generators::holme_kim(1_500, 4, 0.4, s),
            hk_targets: 50,
            hk_budget: 10,
            churn_delta: 16,
            warmup_s: 0.2,
            snapshot_setups: 1,
            warm_setups: 1,
            churn_setups: 1,
        }
    }
}

/// What a correct reply looks like.
#[derive(Clone)]
pub struct Expected {
    pub reply: String,
    /// The plan file's bytes, for requests that write one.
    pub plan: Option<Vec<u8>>,
    /// What that plan achieves.
    pub quality: Option<Quality>,
}

/// A plan's objectives: the disclosure left and the utility lost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub final_similarity: f64,
    /// `final_similarity` as a percentage of the initial similarity.
    pub final_similarity_pct: f64,
    pub utility_loss_pct: f64,
    /// Protector deletions the plan makes.
    pub deletions: usize,
}

#[derive(Clone)]
pub struct Op {
    pub req: Request,
    pub expect: Expected,
}

impl Op {
    /// The op as one client sends it: its own plan file, and the
    /// reference reply with the plan path swapped to match.
    pub fn for_client(&self, plan: &str) -> Op {
        match self.req.plan_path() {
            None => self.clone(),
            Some(reference) => Op {
                req: self.req.with_plan(plan),
                expect: Expected {
                    reply: self.expect.reply.replace(reference, plan),
                    ..self.expect.clone()
                },
            },
        }
    }
}

/// A workload after set-up: references computed, the daemon (if any)
/// warm, and the op schedules fixed.
pub struct Prepared {
    /// The op type reported as `second_op_*`.
    pub second_op: &'static str,
    pub setup_s: Vec<f64>,
    /// Host-speed probe samples (ms), one after each set-up.
    pub probe_ms: Vec<f64>,
    /// Whether the ops go to a daemon (kept `true` after it stops).
    pub served: bool,
    pub daemon: Option<Daemon>,
    /// Every distinct op, writing plans to their reference paths.
    pub ops: Vec<Op>,
    /// Per client: the op indices it cycles through.
    pub clients: Vec<Vec<usize>>,
    /// Served workloads: the ops the registry warm-up sends, in order.
    pub warmup: Vec<usize>,
    /// Op sequences that leave the graph state as they found it; the
    /// traced replay runs each once traced and once untraced.
    pub units: Vec<Vec<usize>>,
    /// Registry counters right after warm-up.
    pub registry_before: Option<Registry>,
}

/// The registry counters of a `tpp serve` `info` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    pub graph_hits: u64,
    pub graph_misses: u64,
    pub index_hits: u64,
    pub index_misses: u64,
}

impl Registry {
    pub fn read(daemon: &Daemon) -> Result<Registry, String> {
        let info = daemon.request(&["info"])?;
        let counts = |prefix: &str| -> Result<(u64, u64), String> {
            let line = info
                .lines()
                .find(|l| l.starts_with(prefix))
                .ok_or_else(|| format!("info reply lacks a {prefix:?} line"))?;
            let num = |word: &str| -> Result<u64, String> {
                let end = line
                    .find(word)
                    .ok_or_else(|| format!("no {word:?} in {line:?}"))?;
                line[..end]
                    .rsplit(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| format!("no count before {word:?} in {line:?}"))
            };
            Ok((num(" hits")?, num(" misses")?))
        };
        let (graph_hits, graph_misses) = counts("graphs:")?;
        let (index_hits, index_misses) = counts("indexes:")?;
        Ok(Registry {
            graph_hits,
            graph_misses,
            index_hits,
            index_misses,
        })
    }

    /// The graph and index hit ratios of the requests served between
    /// `self` and `later`.
    pub fn hit_ratios(&self, later: &Registry) -> (f64, f64) {
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        (
            ratio(
                later.graph_hits - self.graph_hits,
                later.graph_misses - self.graph_misses,
            ),
            ratio(
                later.index_hits - self.index_hits,
                later.index_misses - self.index_misses,
            ),
        )
    }
}

pub struct Env<'a> {
    pub tpp: &'a Path,
    pub probe: &'a Probe,
    pub work: PathBuf,
    pub seed: u64,
    pub scale: &'a Scale,
}

impl Env<'_> {
    /// A path inside the work directory, relative to the checkout root:
    /// short enough for a unix socket, and the same for the daemon (which
    /// runs from the same directory) as for this process.
    pub fn file(&self, name: &str) -> String {
        self.work.join(name).to_string_lossy().into_owned()
    }

    fn write(&self, name: &str, text: &str) -> Result<String, String> {
        let path = self.file(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        Ok(path)
    }

    fn tpp(&self, args: &[String]) -> Result<String, String> {
        let run = run_child(self.tpp, args)?;
        if !run.success {
            return Err(format!(
                "tpp {} failed: {}",
                args.join(" "),
                run.stderr.trim()
            ));
        }
        Ok(run.stdout)
    }

    fn store_build(&self, text: &str, csr: &str) -> Result<(), String> {
        let args: Vec<String> = ["store", "build", text, "--out", csr, "--threads"]
            .iter()
            .map(|s| s.to_string())
            .chain([THREADS.to_string()])
            .collect();
        self.tpp(&args).map(drop)
    }

    /// The one-shot reference for `req`: its stdout and plan file.
    fn reference(&self, req: Request) -> Result<Op, String> {
        let reply = self.tpp(&req.argv())?;
        let (plan, quality) = match req.plan_path() {
            None => (None, None),
            Some(path) => {
                let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
                let quality = plan_quality(&bytes)?;
                (Some(bytes), Some(quality))
            }
        };
        Ok(Op {
            req,
            expect: Expected {
                reply,
                plan,
                quality,
            },
        })
    }
}

/// The fields of a `--plan` file the benchmark reads back.
#[derive(serde::Deserialize)]
struct PlanSummary {
    targets: Vec<Edge>,
    plan: FinalSimilarity,
    utility_loss_percent: f64,
}

#[derive(serde::Deserialize)]
struct FinalSimilarity {
    protectors: Vec<Edge>,
    initial_similarity: usize,
    final_similarity: usize,
}

fn plan_summary(bytes: &[u8]) -> Result<PlanSummary, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("a plan file is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("parsing a plan file: {e}"))
}

fn plan_quality(bytes: &[u8]) -> Result<Quality, String> {
    let p = plan_summary(bytes)?;
    let (initial, fin) = (
        p.plan.initial_similarity as f64,
        p.plan.final_similarity as f64,
    );
    Ok(Quality {
        final_similarity: fin,
        final_similarity_pct: 100.0 * fin / initial.max(1.0),
        utility_loss_pct: p.utility_loss_percent,
        deletions: p.plan.protectors.len(),
    })
}

fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// A seed small enough to read in an argv.
fn short_seed(seed: u64, stream: u64) -> u64 {
    derive(seed, stream) % 1_000_000
}

pub fn prepare(name: &str, env: &Env) -> Result<Prepared, String> {
    let _ = std::fs::remove_dir_all(&env.work);
    std::fs::create_dir_all(&env.work)
        .map_err(|e| format!("creating {}: {e}", env.work.display()))?;
    match name {
        ONESHOT => prepare_oneshot(env),
        WARM => prepare_warm(env),
        CHURN => prepare_churn(env),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Cold `tpp protect` processes on a ba_50k snapshot, alternating with
/// `--incremental` repairs across a delta and its inverse.
fn prepare_oneshot(env: &Env) -> Result<Prepared, String> {
    let s = env.scale;
    let g0 = (s.ba_graph)(derive(env.seed, 1));
    let tseed = short_seed(env.seed, 2);
    let targets = TppInstance::sample_targets(&g0, s.ba_targets.min(g0.edge_count()), tseed);
    let avoid: BTreeSet<Edge> = targets.iter().copied().collect();
    let mut rng = Rng::new(derive(env.seed, 3));
    let delta = DeltaPair::generate(
        &g0,
        s.repair_delta / 2,
        s.repair_delta / 2,
        &avoid,
        &mut rng,
    );
    let g1 = delta.apply(&g0);
    let g0_txt = env.write("g0.txt", &write_edge_list(&g0))?;
    let g1_txt = env.write("g1.txt", &write_edge_list(&g1))?;
    let fwd = env.write("delta.txt", &delta.forward_text())?;
    let inv = env.write("delta-inverse.txt", &delta.inverse_text())?;
    let (g0_csr, g1_csr) = (env.file("g0.csr"), env.file("g1.csr"));

    // Set-up: the snapshot builds a user pays before the first protect.
    let mut setup_s = Vec::new();
    let mut probe_ms = Vec::new();
    for _ in 0..s.snapshot_setups {
        let t = Instant::now();
        env.store_build(&g0_txt, &g0_csr)?;
        env.store_build(&g1_txt, &g1_csr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        probe_ms.push(env.probe.sample());
    }

    let protect = |graph: &str, targets: Targets, plan: &str| Request::Protect {
        graph: graph.to_string(),
        motif: Motif::Rectangle,
        algorithm: Algorithm::Sgb,
        budget: s.ba_budget,
        targets,
        seed: tseed,
        plan: env.file(plan),
    };
    let random = env.reference(protect(
        &g0_csr,
        Targets::Random(s.ba_targets),
        "ref-protect.json",
    ))?;
    let random_plan = random.expect.plan.clone().expect("protect writes a plan");
    check(plan_summary(&random_plan)?.targets == targets, || {
        "the program sampled other targets than TppInstance::sample_targets".into()
    })?;
    // From-scratch plans on both graph states, with the prior plan's
    // target list: what every repair must reproduce byte for byte.
    let scratch1 = env.reference(protect(
        &g1_csr,
        Targets::Explicit(targets.clone()),
        "scratch-g1.json",
    ))?;
    let scratch0 = env.reference(protect(
        &g0_csr,
        Targets::Explicit(targets.clone()),
        "scratch-g0.json",
    ))?;
    check(scratch0.expect.plan.as_ref() == Some(&random_plan), || {
        "--targets and --random plans differ for the same targets".into()
    })?;
    let repair = |graph: &str, prior: &str, delta: &str, plan: &str| Request::Repair {
        graph: graph.to_string(),
        prior: prior.to_string(),
        delta: delta.to_string(),
        budget: s.ba_budget,
        seed: tseed,
        plan: env.file(plan),
    };
    let prior0 = random
        .req
        .plan_path()
        .expect("protect writes a plan")
        .to_string();
    let prior1 = scratch1
        .req
        .plan_path()
        .expect("protect writes a plan")
        .to_string();
    let fwd_op = env.reference(repair(&g0_csr, &prior0, &fwd, "ref-repair.json"))?;
    let inv_op = env.reference(repair(&g1_csr, &prior1, &inv, "ref-repair-inverse.json"))?;
    for (rep, scratch) in [(&fwd_op, &scratch1), (&inv_op, &scratch0)] {
        check(rep.expect.plan == scratch.expect.plan, || {
            format!(
                "{} differs from the from-scratch plan",
                rep.req.argv().join(" ")
            )
        })?;
        // The repair's report is the from-scratch report behind one
        // `incremental:` line.
        let (first, rest) = rep.expect.reply.split_once('\n').unwrap_or_default();
        let scratch_reply = scratch.expect.reply.replace(
            scratch.req.plan_path().expect("protect writes a plan"),
            rep.req.plan_path().expect("repair writes a plan"),
        );
        check(
            first.starts_with("incremental: ") && rest == scratch_reply,
            || {
                format!(
                    "repair report {:?} does not match the from-scratch report",
                    rep.expect.reply
                )
            },
        )?;
    }
    Ok(Prepared {
        second_op: "repair",
        setup_s,
        probe_ms,
        served: false,
        daemon: None,
        ops: vec![random, fwd_op, inv_op],
        clients: vec![vec![0, 1, 0, 2]],
        warmup: Vec::new(),
        units: vec![vec![0], vec![1], vec![2]],
        registry_before: None,
    })
}

/// Starts a daemon and sends the warm-up ops, checking each reply.
fn start_warm(env: &Env, socket: &str, ops: &[Op], warmup: &[usize]) -> Result<Daemon, String> {
    let daemon = Daemon::start(env.tpp, socket, THREADS)?;
    for &i in warmup {
        let op = ops[i].for_client(&env.file("plan-warmup.json"));
        verify(&op, daemon.request(&op.req.argv()))?;
    }
    Ok(daemon)
}

/// `tpp serve` with warm registries on a ba_50k snapshot: four protect
/// keys (two motifs x two target sets) and `cn` attacks, from two clients.
fn prepare_warm(env: &Env) -> Result<Prepared, String> {
    let s = env.scale;
    let g = (s.ba_graph)(derive(env.seed, 11));
    let g_txt = env.write("g.txt", &write_edge_list(&g))?;
    let g_csr = env.file("g.csr");
    env.store_build(&g_txt, &g_csr)?;
    let seeds = [short_seed(env.seed, 12), short_seed(env.seed, 13)];
    let mut ops = Vec::new();
    for motif in [Motif::Triangle, Motif::Rectangle] {
        for seed in seeds {
            ops.push(env.reference(Request::Protect {
                graph: g_csr.clone(),
                motif,
                algorithm: Algorithm::Sgb,
                budget: s.ba_budget,
                targets: Targets::Random(s.ba_targets),
                seed,
                plan: env.file(&format!("ref-protect-{}.json", ops.len())),
            })?);
        }
    }
    for seed in seeds {
        ops.push(env.reference(Request::Attack {
            graph: g_csr.clone(),
            targets: s.ba_targets,
            negatives: s.negatives,
            seed,
        })?);
    }
    let warmup: Vec<usize> = (0..ops.len()).collect();
    let socket = env.file("serve.sock");
    let mut setup_s = Vec::new();
    let mut probe_ms = Vec::new();
    let mut daemon = None;
    for _ in 0..s.warm_setups {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        env.store_build(&g_txt, &g_csr)?;
        daemon = Some(start_warm(env, &socket, &ops, &warmup)?);
        setup_s.push(t.elapsed().as_secs_f64());
        probe_ms.push(env.probe.sample());
    }
    let daemon = daemon.expect("at least one set-up");
    let registry = Registry::read(&daemon)?;
    check(
        registry.graph_misses == 1 && registry.index_misses == 4,
        || {
            format!(
                "warm-up left the registries at {registry:?}, expected 1 graph and 4 index misses"
            )
        },
    )?;
    // Each client cycles through a seeded shuffle of 12 protects (three
    // per key) and 4 attacks (two per target set): protect:attack = 3:1.
    let cycle: Vec<usize> = [0, 1, 2, 3]
        .repeat(3)
        .into_iter()
        .chain([4, 4, 5, 5])
        .collect();
    let clients = (0..2)
        .map(|c| {
            let mut order = cycle.clone();
            let mut rng = Rng::new(derive(env.seed, 20 + c));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            order
        })
        .collect();
    Ok(Prepared {
        second_op: "attack",
        setup_s,
        probe_ms,
        served: true,
        daemon: Some(daemon),
        units: (0..ops.len()).map(|i| vec![i]).collect(),
        ops,
        clients,
        warmup,
        registry_before: Some(registry),
    })
}

/// `tpp serve` on a Holme–Kim graph, alternating `update` (a delta, then
/// its inverse) with CT-Greedy protects that must hit the patched index.
fn prepare_churn(env: &Env) -> Result<Prepared, String> {
    let s = env.scale;
    let h0 = (s.hk_graph)(derive(env.seed, 21));
    let mut rng = Rng::new(derive(env.seed, 22));
    // Explicit targets: a served `--random` protect after an update would
    // re-sample from the mutated graph, miss the index and rebuild.
    let targets = sample_edges(&h0, s.hk_targets, &BTreeSet::new(), &mut rng);
    let avoid: BTreeSet<Edge> = targets.iter().copied().collect();
    let delta = DeltaPair::generate(&h0, s.churn_delta / 2, s.churn_delta / 2, &avoid, &mut rng);
    let h1 = delta.apply(&h0);
    let h0_txt = env.write("h0.txt", &write_edge_list(&h0))?;
    let h1_txt = env.write("h1.txt", &write_edge_list(&h1))?;
    let fwd = env.write("delta.txt", &delta.forward_text())?;
    let inv = env.write("delta-inverse.txt", &delta.inverse_text())?;
    let seed = short_seed(env.seed, 23);
    let protect = |graph: &str, plan: &str| Request::Protect {
        graph: graph.to_string(),
        motif: Motif::RecTri,
        algorithm: Algorithm::Ct,
        budget: s.hk_budget,
        targets: Targets::Explicit(targets.clone()),
        seed,
        plan: env.file(plan),
    };
    // One-shot references on a snapshot of each graph state.
    let (ref0_csr, ref1_csr) = (env.file("state0.csr"), env.file("state1.csr"));
    env.store_build(&h0_txt, &ref0_csr)?;
    env.store_build(&h1_txt, &ref1_csr)?;
    let state0 = env.reference(protect(&ref0_csr, "ref-state0.json"))?;
    let state1 = env.reference(protect(&ref1_csr, "ref-state1.json"))?;

    // The served graph: one file, mutated only in the daemon's registry.
    let h_csr = env.file("h.csr");
    let served = |op: &Op| Op {
        req: op.req.with_graph(&h_csr),
        expect: op.expect.clone(),
    };
    let mut ops = vec![served(&state0), served(&state1)];
    let socket = env.file("serve.sock");
    let mut setup_s = Vec::new();
    let mut probe_ms = Vec::new();
    let mut daemon = None;
    for _ in 0..s.churn_setups {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        env.store_build(&h0_txt, &h_csr)?;
        daemon = Some(start_warm(env, &socket, &ops, &[0])?);
        setup_s.push(t.elapsed().as_secs_f64());
        probe_ms.push(env.probe.sample());
    }
    let daemon = daemon.expect("at least one set-up");

    // Update replies have no one-shot counterpart: take each direction's
    // first reply as its reference, after checking it against the graph
    // state the bench computed and the one warm index it must patch.
    for (path, graph, after) in [(&fwd, &h1, 1), (&inv, &h0, 0)] {
        let req = Request::Update {
            graph: h_csr.clone(),
            delta: path.clone(),
        };
        let reply = daemon.request(&req.argv())?;
        let head = format!(
            "updated {h_csr}: -{}/+{} edge(s), now {} nodes, {} edges (resident only)\n\
             indexes: 1 patched in place, 0 dropped (delta hit their targets), ",
            s.churn_delta / 2,
            s.churn_delta / 2,
            graph.node_count(),
            graph.edge_count()
        );
        check(reply.starts_with(&head), || {
            format!("unexpected update reply {reply:?}")
        })?;
        ops.push(Op {
            req,
            expect: Expected {
                reply,
                plan: None,
                quality: None,
            },
        });
        let op = ops[after].for_client(&env.file("plan-warmup.json"));
        verify(&op, daemon.request(&op.req.argv()))?;
    }
    let registry = Registry::read(&daemon)?;
    check(registry.index_misses == 1, || {
        format!("warm-up left the index registry at {registry:?}, expected 1 miss")
    })?;
    Ok(Prepared {
        second_op: "update",
        setup_s,
        probe_ms,
        served: true,
        daemon: Some(daemon),
        ops,
        // update, protect on the mutated graph, inverse update, protect.
        clients: vec![vec![2, 1, 3, 0]],
        warmup: vec![0],
        units: vec![vec![2, 1, 3, 0]],
        registry_before: Some(registry),
    })
}

/// Compares one reply (and the plan file it wrote) with its reference.
pub fn verify(op: &Op, reply: Result<String, String>) -> Result<(), String> {
    let reply = reply?;
    check(reply == op.expect.reply, || {
        format!(
            "{}: reply differs from its reference\n  got:  {reply:?}\n  want: {:?}",
            op.req.kind(),
            op.expect.reply
        )
    })?;
    if let (Some(path), Some(want)) = (op.req.plan_path(), &op.expect.plan) {
        let got = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        check(&got == want, || {
            format!("{path} differs from its reference plan")
        })?;
    }
    Ok(())
}

/// One op's outcome in the measured loop.
pub struct Sample {
    /// Index of the op in [`Prepared::ops`].
    pub op: usize,
    pub kind: &'static str,
    pub ms: f64,
    pub ok: bool,
    /// Sent after the warm-up: the latency and rate figures use only
    /// these. Every sample counts in `attempted` and `failed`.
    pub timed: bool,
    pub quality: Option<Quality>,
}

/// The untraced closed-loop run.
pub struct Measured {
    pub samples: Vec<Sample>,
    /// Seconds the timed segments took, each from its start to its last
    /// reply.
    pub elapsed_s: f64,
    /// Host-speed probe samples (ms), taken between the segments.
    pub probe_ms: Vec<f64>,
    pub peak_rss_kib: u64,
    /// Registry misses after warm-up plus churn protects that missed the
    /// patched index: each counts as a failed op.
    pub registry_failures: u64,
    pub registry_after: Option<Registry>,
    pub errors: Vec<String>,
}

impl Measured {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64 + self.registry_failures
    }
}

/// Length of one timed segment; the probe runs between segments, while
/// no op is in flight.
const SEGMENT_S: f64 = 5.0;

/// Runs every client's schedule in a closed loop: each client sends its
/// next op only when the previous one returned. First `warmup` seconds
/// whose ops are checked but not timed, so the page cache, the daemon's
/// allocator and the clock have settled; then `seconds` of timed
/// segments, with a host-speed probe before, between and after them.
pub fn measure(prep: &Prepared, env: &Env, warmup: f64, seconds: f64) -> Result<Measured, String> {
    let client_ops: Vec<Vec<(usize, Op)>> = prep
        .clients
        .iter()
        .enumerate()
        .map(|(c, order)| {
            let plan = env.file(&format!("plan-client{c}.json"));
            order
                .iter()
                .map(|&i| (i, prep.ops[i].for_client(&plan)))
                .collect()
        })
        .collect();
    let mut m = Measured {
        samples: Vec::new(),
        elapsed_s: 0.0,
        probe_ms: Vec::new(),
        peak_rss_kib: 0,
        registry_failures: 0,
        registry_after: None,
        errors: Vec::new(),
    };
    // Each client's position in its schedule, kept across segments.
    let mut next = vec![0usize; client_ops.len()];
    let segments = (seconds / SEGMENT_S).ceil().max(1.0);
    let phases = std::iter::once((warmup, false)).chain(std::iter::repeat_n(
        (seconds / segments, true),
        segments as usize,
    ));
    for (length, timed) in phases {
        if timed {
            m.probe_ms.push(env.probe.sample());
        }
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(length);
        let results: Vec<(Vec<Sample>, u64, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = client_ops
                .iter()
                .zip(next.iter_mut())
                .map(|(ops, i)| {
                    scope.spawn(|| client_loop(ops, i, prep.daemon.as_ref(), env, timed, end))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        if timed {
            m.elapsed_s += start.elapsed().as_secs_f64();
        }
        for (samples, rss, errors) in results {
            m.samples.extend(samples);
            m.peak_rss_kib = m.peak_rss_kib.max(rss);
            m.errors.extend(errors);
        }
    }
    m.probe_ms.push(env.probe.sample());
    if let Some(daemon) = &prep.daemon {
        m.peak_rss_kib = daemon.peak_rss_kib()?;
        let protects = m.samples.iter().filter(|s| s.kind == "protect").count() as u64;
        let (failures, after) = registry_failures(prep, daemon, protects)?;
        if failures > 0 {
            m.errors.push(format!(
                "registry accounting failed: after warm-up {:?}, now {after:?}, {protects} protects",
                prep.registry_before
            ));
        }
        m.registry_failures = failures;
        m.registry_after = Some(after);
    }
    Ok(m)
}

/// Registry misses since warm-up plus protects that missed the index:
/// each counts as a failed op. A churn protect that missed the patched
/// entry shows here even if the rebuild it triggered was cached.
pub fn registry_failures(
    prep: &Prepared,
    daemon: &Daemon,
    protects: u64,
) -> Result<(u64, Registry), String> {
    let before = prep.registry_before.unwrap_or_default();
    let after = Registry::read(daemon)?;
    let misses =
        (after.graph_misses - before.graph_misses) + (after.index_misses - before.index_misses);
    let hits = after.index_hits - before.index_hits;
    Ok((misses + protects.saturating_sub(hits), after))
}

/// One client's closed loop until `end`, resuming its schedule at `next`.
fn client_loop(
    ops: &[(usize, Op)],
    next: &mut usize,
    daemon: Option<&Daemon>,
    env: &Env,
    timed: bool,
    end: Instant,
) -> (Vec<Sample>, u64, Vec<String>) {
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut peak = 0u64;
    while Instant::now() < end {
        let (id, op) = &ops[*next % ops.len()];
        *next += 1;
        let (ms, rss, result) = send(op, daemon, env.tpp);
        peak = peak.max(rss);
        if let Err(e) = &result {
            if errors.len() < 5 {
                errors.push(e.clone());
            }
        }
        samples.push(Sample {
            op: *id,
            kind: op.req.kind(),
            ms,
            ok: result.is_ok(),
            timed,
            quality: op.expect.quality,
        });
    }
    (samples, peak, errors)
}

/// Sends one op through the program, as a one-shot process or a request
/// to the daemon, and checks the reply. Returns the latency in ms, the
/// one-shot child's peak resident set in KiB, and the verdict.
pub fn send(op: &Op, daemon: Option<&Daemon>, tpp: &Path) -> (f64, u64, Result<(), String>) {
    send_argv(op, &op.req.argv(), daemon, tpp)
}

/// [`send`] with the argv given: `op`'s own, or with flags appended whose
/// effect on the reply `op.expect` already holds.
pub fn send_argv(
    op: &Op,
    argv: &[String],
    daemon: Option<&Daemon>,
    tpp: &Path,
) -> (f64, u64, Result<(), String>) {
    let mut rss = 0;
    let t = Instant::now();
    let reply = match daemon {
        Some(d) => d.request(argv),
        None => run_child(tpp, argv).and_then(|run| {
            rss = run.max_rss_kib;
            if run.success {
                Ok(run.stdout)
            } else {
                Err(run.stderr)
            }
        }),
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, rss, verify(op, reply))
}

/// Median round trip of `count` `ping` requests, in ms.
pub fn ping_ms(daemon: &Daemon, count: usize) -> Result<f64, String> {
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        daemon.request(&["ping"])?;
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&v))
}

/// The mean [`Quality`] over the distinct plans the run verified (an op
/// with any failed reply is left out), so the figure does not move with
/// how many of each op fit in the run.
pub fn mean_quality(samples: &[Sample]) -> Quality {
    let mut plans: std::collections::BTreeMap<usize, Option<Quality>> = Default::default();
    for s in samples {
        if let Some(q) = s.quality {
            let entry = plans.entry(s.op).or_insert(Some(q));
            if !s.ok {
                *entry = None;
            }
        }
    }
    let q: Vec<Quality> = plans.into_values().flatten().collect();
    let n = q.len().max(1) as f64;
    Quality {
        final_similarity: q.iter().map(|x| x.final_similarity).sum::<f64>() / n,
        final_similarity_pct: q.iter().map(|x| x.final_similarity_pct).sum::<f64>() / n,
        utility_loss_pct: q.iter().map(|x| x.utility_loss_pct).sum::<f64>() / n,
        ..Quality::default()
    }
}
