//! The traced replay: each workload op re-run in-process through the
//! public functions of every layer, in the order `run_protect`,
//! `prepare_incremental`, `run_attack` and `Server::update` call them
//! (README.md lists those call sequences), with a span around each call.
//!
//! Spans (name, start, end, parent, op id) stay in memory and are written
//! out when the run ends. A layer's self time is its span minus the child
//! spans under it. Every replayed reply and plan is compared with the
//! op's one-shot reference, so the replay provably repeats the timed work.
//!
//! What the program records about itself comes from the program: the
//! same ops are also sent with `--stats FILE`, and the index-build, scan
//! and commit times and every count (probes, memoized candidates, scored
//! pairs, discovered instances, executor dispatches) are read from that
//! file.

use crate::request::{Algorithm, Request, Targets, THREADS};
use crate::workloads::{self, Env, Op, Prepared};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpp_core::{
    delta_dirty_edges, divide_budget, BudgetDivision, GreedyConfig, ProtectionPlan, TppInstance,
    DEFAULT_INDEX_PARTITIONS,
};
use tpp_exec::Parallelism;
use tpp_graph::{Edge, Graph};
use tpp_linkpred::{evaluate_attack_on, sample_non_edges, Attacker, SimilarityIndex};
use tpp_metrics::{average_clustering, core_numbers, utility_loss, UtilityConfig};
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_store::{GraphDelta, VerifyMode};

#[derive(Serialize)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans; the top is the parent of the next one.
    stack: Vec<usize>,
    op: u32,
    /// Layer spans are recorded only for traced ops; op roots always are.
    on: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in order");
    }

    /// Times `f` as one call into a layer; returns the span id when on.
    fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let id = self.open(name);
        let r = f();
        self.close(id);
        (r, Some(id))
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.layer(name, f).0
    }
}

/// The sections of the program's `--stats` JSON the benchmark reads.
#[derive(Deserialize)]
struct ProgramStats {
    round: RoundSection,
    index: IndexSection,
    exec: ExecSection,
    attack: AttackSection,
    update: UpdateSection,
}

#[derive(Deserialize)]
struct RoundSection {
    candidates_probed: u64,
    scan_ns: TimeHistogram,
    commit_ns: TimeHistogram,
}

#[derive(Deserialize)]
struct TimeHistogram {
    sum_ns: u64,
}

#[derive(Deserialize)]
struct IndexSection {
    builds: u64,
    build_ns: u64,
}

#[derive(Deserialize)]
struct ExecSection {
    dispatches: u64,
    dispatch_ns: TimeHistogram,
    items_claimed: u64,
    items_stolen: u64,
    idle_participants: u64,
}

#[derive(Deserialize)]
struct AttackSection {
    pairs_scored: u64,
}

#[derive(Deserialize)]
struct UpdateSection {
    instances_discovered: u64,
    candidates_rescored: u64,
    candidates_memoized: u64,
}

/// One op sent through the program with `--stats`.
struct ProgramRecord {
    kind: &'static str,
    stats: ProgramStats,
    /// Protector deletions of the plan the op wrote, if it wrote one.
    deletions: Option<usize>,
}

/// `tpp protect --plan`'s file format, field for field.
#[derive(Serialize)]
struct PlanFile<'a> {
    algorithm: String,
    motif: String,
    budget: usize,
    targets: &'a [Edge],
    plan: &'a ProtectionPlan,
    utility_loss_percent: f64,
}

#[derive(Deserialize)]
struct PlanFileIn {
    motif: String,
    targets: Vec<Edge>,
    plan: ProtectionPlan,
}

/// Per-op telemetry of one replayed op.
#[derive(Default)]
struct OpRecord {
    kind: &'static str,
    traced: bool,
    warmup: bool,
    root_ns: u64,
    /// Time inside layer spans: the op's root minus its own glue.
    layer_ns: u64,
    /// Target subgraph instances of the plan's problem (its initial
    /// similarity).
    instances: Option<u64>,
}

/// The daemon's registries, held in-process for a served replay.
struct Registry {
    graph: Option<Graph>,
    indexes: HashMap<(Motif, Vec<Edge>), Arc<PartitionedCoverageIndex>>,
}

struct Replay<'a> {
    prep: &'a Prepared,
    tracer: Tracer,
    /// The shared pool of a served replay; `None` replays one-shot runs,
    /// each with a private pool as a cold process has.
    pool: Option<Parallelism>,
    registry: Registry,
    records: Vec<OpRecord>,
    program: Vec<ProgramRecord>,
    /// Probes (clustering, core number, index clone) taken per op type.
    probes: BTreeMap<&'static str, usize>,
    /// Probe time inside the current op, kept out of its root span.
    probe_ns: u64,
    bytes_mapped: u64,
}

/// What the traced run measured.
pub struct Traced {
    /// `(name, value, unit)` in report order: only metrics that had
    /// samples in this run.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Latencies of the real ops sent between the replays, per op type.
    pub real: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

const PROBES_PER_KIND: usize = 2;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `prep`'s ops for about `seconds`. The served warm-up replays once
/// (traced). Then every round takes each replay unit four ways: through
/// the program (the one-shot binary or the daemon, one client), through
/// the program with `--stats`, as a traced replay and as an untraced
/// replay, in an order that reverses each round. Interleaving keeps the
/// four under the same host load, so `*.unattributed_ms` (program latency
/// minus the replay's layer time) and `obs.trace_overhead_pct` compare
/// like with like. Program latencies come from the plain sends only, so
/// the program's own recording does not count as unattributed time.
pub fn run(prep: &Prepared, env: &Env, seconds: f64) -> Traced {
    let mut r = Replay {
        prep,
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            on: true,
        },
        pool: prep.served.then(|| Parallelism::new(THREADS)),
        registry: Registry {
            graph: None,
            indexes: HashMap::new(),
        },
        records: Vec::new(),
        program: Vec::new(),
        probes: BTreeMap::new(),
        probe_ns: 0,
        bytes_mapped: 0,
    };
    let mut real: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut errors = Vec::new();
    let mut check = |res: Result<(), String>, attempted: &mut u64| {
        *attempted += 1;
        if let Err(e) = res {
            errors.push(e);
        }
    };
    for &i in &prep.warmup {
        let res = r.op(i, true, true);
        check(res, &mut attempted);
    }
    let plan = env.file("plan-trace.json");
    let stats = env.file("stats-trace.json");
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed() < budget {
        for unit in &prep.units {
            let mut ways = [Way::Program, Way::Stats, Way::Traced, Way::Untraced];
            if round % 2 == 1 {
                ways.reverse();
            }
            for way in ways {
                for &i in unit {
                    let res = match way {
                        Way::Program => {
                            let op = prep.ops[i].for_client(&plan);
                            let (ms, _, res) = workloads::send(&op, prep.daemon.as_ref(), env.tpp);
                            if res.is_ok() {
                                real.entry(op.req.kind()).or_default().push(ms);
                            }
                            res
                        }
                        Way::Stats => r.program_stats(i, env, &plan, &stats),
                        Way::Traced => r.op(i, true, false),
                        Way::Untraced => r.op(i, false, false),
                    };
                    check(res, &mut attempted);
                }
            }
        }
        round += 1;
    }
    let failed = errors.len() as u64;
    let metrics = r.metrics(&real);
    Traced {
        metrics,
        real,
        attempted,
        failed,
        errors,
        spans: r.tracer.spans,
    }
}

#[derive(Clone, Copy)]
enum Way {
    Program,
    Stats,
    Traced,
    Untraced,
}

impl Replay<'_> {
    /// Sends op `i` through the program with `--stats FILE`, checks the
    /// reply (the reference plus the program's `stats -> FILE` line) and
    /// keeps what the program recorded.
    fn program_stats(
        &mut self,
        i: usize,
        env: &Env,
        plan: &str,
        stats: &str,
    ) -> Result<(), String> {
        let mut op = self.prep.ops[i].for_client(plan);
        let _ = writeln!(op.expect.reply, "stats -> {stats}");
        let mut argv = op.req.argv();
        argv.extend(["--stats".to_string(), stats.to_string()]);
        let (_, _, res) = workloads::send_argv(&op, &argv, self.prep.daemon.as_ref(), env.tpp);
        res?;
        let text = std::fs::read_to_string(stats).map_err(|e| format!("reading {stats}: {e}"))?;
        let parsed: ProgramStats =
            serde_json::from_str(&text).map_err(|e| format!("parsing {stats}: {e}"))?;
        self.program.push(ProgramRecord {
            kind: op.req.kind(),
            stats: parsed,
            deletions: op.expect.quality.map(|q| q.deletions),
        });
        Ok(())
    }

    /// Replays op `i` and checks its reply and plan against the reference.
    fn op(&mut self, i: usize, traced: bool, warmup: bool) -> Result<(), String> {
        let op: &Op = &self.prep.ops[i];
        self.tracer.op += 1;
        self.tracer.on = true;
        self.probe_ns = 0;
        let root = self.tracer.open(op.req.kind());
        self.tracer.on = traced;
        let mut record = OpRecord {
            kind: op.req.kind(),
            traced,
            warmup,
            ..OpRecord::default()
        };
        let result = match &op.req {
            Request::Protect { .. } => self.protect(&op.req, &mut record),
            Request::Repair { .. } => self.repair(&op.req, &mut record),
            Request::Attack { .. } => self.attack(&op.req),
            Request::Update { .. } => self.update(&op.req),
        };
        self.tracer.close(root);
        record.root_ns = self.tracer.spans[root].ns() - self.probe_ns;
        record.layer_ns = self
            .tracer
            .spans
            .iter()
            .skip(root + 1)
            .filter(|s| s.parent == Some(root))
            .map(Span::ns)
            .sum();
        self.records.push(record);
        let (reply, plan) = result?;
        let context = || format!("traced replay of {}", op.req.argv()[..2].join(" "));
        if reply != op.expect.reply {
            return Err(format!(
                "{}: reply {reply:?} differs from its reference {:?}",
                context(),
                op.expect.reply
            ));
        }
        if plan.is_some() && plan != op.expect.plan {
            return Err(format!("{}: plan differs from its reference", context()));
        }
        Ok(())
    }

    /// The input graph: mapped and converted per op when replaying
    /// one-shot runs; a clone of the registry entry (loaded on first use)
    /// when replaying the daemon.
    fn graph(&mut self, path: &str) -> Result<Graph, String> {
        if self.pool.is_some() {
            if let Some(g) = &self.registry.graph {
                return Ok(self.tracer.span("graph.clone", || g.clone()));
            }
        }
        let csr = self
            .tracer
            .span("store.load", || {
                tpp_store::format::load_mapped(path, VerifyMode::Full)
            })
            .map_err(|e| format!("loading {path}: {e}"))?;
        self.bytes_mapped = std::fs::metadata(path).map_or(0, |m| m.len());
        let g = self.tracer.span("store.to_graph", move || csr.to_graph());
        if self.pool.is_some() {
            let copy = self.tracer.span("graph.clone", || g.clone());
            self.registry.graph = Some(copy);
        }
        Ok(g)
    }

    /// Resolves a target list as `parse_targets` does.
    fn targets(&mut self, g: &Graph, targets: &Targets, seed: u64) -> Vec<Edge> {
        match targets {
            Targets::Explicit(t) => t.clone(),
            Targets::Random(n) => self.tracer.span("core.targets", || {
                TppInstance::sample_targets(g, (*n).min(g.edge_count()), seed)
            }),
        }
    }

    /// The daemon's index registry: a hit hands out the warm index, a
    /// miss builds it on the shared pool and caches it.
    fn index_for(
        &mut self,
        g: &Graph,
        motif: Motif,
        targets: Vec<Edge>,
    ) -> Result<Arc<PartitionedCoverageIndex>, String> {
        let key = (motif, targets);
        if let Some(idx) = self.registry.indexes.get(&key) {
            return Ok(Arc::clone(idx));
        }
        let copy = self.tracer.span("graph.clone", || g.clone());
        let instance = self
            .tracer
            .span("core.instance", || TppInstance::new(copy, key.1.clone()))
            .map_err(|e| e.to_string())?;
        let exec = self.pool.as_ref().expect("served replay");
        let index = self.tracer.span("motif.index_build", || {
            PartitionedCoverageIndex::build_parallel(
                instance.released(),
                instance.targets(),
                motif,
                DEFAULT_INDEX_PARTITIONS,
                exec,
            )
        });
        let index = Arc::new(index);
        self.registry.indexes.insert(key, Arc::clone(&index));
        Ok(index)
    }

    fn config(&self, motif: Motif) -> GreedyConfig {
        let cfg = GreedyConfig::scalable(motif).with_threads(THREADS);
        match &self.pool {
            Some(pool) => cfg.with_shared_pool(pool.clone()),
            None => cfg,
        }
    }

    /// Probes of calls made inside a layer that has no recorder section for
    /// them: timed standalone on the op's inputs, outside the op's spans.
    fn probe<R>(&mut self, kind: &'static str, name: &'static str, f: impl FnOnce() -> R) {
        if !self.tracer.on || self.probes.get(kind).copied().unwrap_or(0) >= PROBES_PER_KIND {
            return;
        }
        let saved = std::mem::take(&mut self.tracer.stack);
        let (r, id) = self.tracer.layer(name, f);
        drop(r);
        self.tracer.stack = saved;
        self.probe_ns += id.map_or(0, |i| self.tracer.spans[i].ns());
    }

    /// `run_protect` after target resolution: instance, greedy, apply,
    /// utility, report and plan file.
    #[allow(clippy::too_many_arguments)]
    fn finish_protect(
        &mut self,
        mut out: String,
        motif: Motif,
        budget: usize,
        seed: u64,
        plan_path: &str,
        original: Graph,
        instance: &TppInstance,
        plan: ProtectionPlan,
        record: &mut OpRecord,
    ) -> Result<(String, Option<Vec<u8>>), String> {
        record.instances = Some(plan.initial_similarity as u64);
        let _ = writeln!(
            out,
            "{}: similarity {} -> {} with {} protector deletions (+{} targets removed)",
            plan.algorithm,
            plan.initial_similarity,
            plan.final_similarity,
            plan.deletions(),
            instance.target_count()
        );
        if plan.is_full_protection() {
            let _ = writeln!(
                out,
                "all targets fully protected against the {motif} pattern"
            );
        }
        let released = self
            .tracer
            .span("core.apply", || instance.apply_protectors(&plan.protectors));
        let config = UtilityConfig::large_graph(seed);
        let loss = self.tracer.span("metrics.utility", || {
            utility_loss(&original, &released, &config)
        });
        let _ = writeln!(out, "utility loss (clust, cn): {}", loss.average_percent());
        let file = PlanFile {
            algorithm: plan.algorithm.to_string(),
            motif: motif.to_string(),
            budget,
            targets: instance.targets(),
            plan: &plan,
            utility_loss_percent: loss.average * 100.0,
        };
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "plan -> {plan_path}");
        let kind = record.kind;
        self.probe(kind, "metrics.clustering", || average_clustering(&original));
        self.probe(kind, "metrics.core_number", || core_numbers(&original));
        *self.probes.entry(kind).or_default() += usize::from(self.tracer.on);
        Ok((out, Some(json.into_bytes())))
    }

    fn protect(
        &mut self,
        req: &Request,
        record: &mut OpRecord,
    ) -> Result<(String, Option<Vec<u8>>), String> {
        let Request::Protect {
            graph,
            motif,
            algorithm,
            budget,
            targets,
            seed,
            plan,
        } = req
        else {
            unreachable!("protect replays a protect request")
        };
        let (motif, algorithm, budget, seed) = (*motif, *algorithm, *budget, *seed);
        let g = self.graph(graph)?;
        let mut cfg = self.config(motif);
        if self.pool.is_some() {
            // `Server::index_for` resolves the targets for its key, then
            // `run_protect` resolves them again.
            let key_targets = self.targets(&g, targets, seed);
            let index = self.index_for(&g, motif, key_targets)?;
            let seed_index = Arc::clone(&index);
            self.probe("protect", "motif.index_clone", move || {
                (*seed_index).clone()
            });
            cfg = cfg.with_index_seed(index);
        }
        let targets = self.targets(&g, targets, seed);
        let original = self.tracer.span("graph.clone", || g.clone());
        let instance = self
            .tracer
            .span("core.instance", || TppInstance::new(g, targets))
            .map_err(|e| e.to_string())?;
        let plan_out = self.tracer.span("core.greedy", || match algorithm {
            Algorithm::Sgb => Ok(tpp_core::sgb_greedy(&instance, budget, &cfg)),
            Algorithm::Ct => {
                let budgets = divide_budget(BudgetDivision::Tbd, budget, &instance, motif);
                tpp_core::ct_greedy_batch(&instance, &budgets, 1, &cfg)
            }
        });
        let result = plan_out.map_err(|e| e.to_string())?;
        self.finish_protect(
            String::new(),
            motif,
            budget,
            seed,
            plan,
            original,
            &instance,
            result,
            record,
        )
    }

    fn repair(
        &mut self,
        req: &Request,
        record: &mut OpRecord,
    ) -> Result<(String, Option<Vec<u8>>), String> {
        let Request::Repair {
            graph,
            prior,
            delta,
            budget,
            seed,
            plan,
        } = req
        else {
            unreachable!("repair replays a repair request")
        };
        let g = self.graph(graph)?;
        let text = std::fs::read_to_string(prior).map_err(|e| format!("reading {prior}: {e}"))?;
        let prior: PlanFileIn =
            serde_json::from_str(&text).map_err(|e| format!("parsing {prior}: {e}"))?;
        let motif = Motif::from_name(&prior.motif).ok_or("prior plan names an unknown motif")?;
        let applied = self
            .tracer
            .span("store.delta_apply", || {
                GraphDelta::load(std::path::Path::new(delta)).and_then(|d| d.apply(&g))
            })
            .map_err(|e| format!("applying {delta}: {e}"))?;
        let targets = prior.targets;
        let base = self
            .tracer
            .span("core.instance", || TppInstance::new(g, targets.clone()))
            .map_err(|e| e.to_string())?;
        let original = applied.graph;
        let copy = self.tracer.span("graph.clone", || original.clone());
        let instance = self
            .tracer
            .span("core.instance", || TppInstance::new(copy, targets.clone()))
            .map_err(|e| e.to_string())?;
        let dirty = self.tracer.span("core.dirty", || {
            delta_dirty_edges(
                base.released(),
                instance.released(),
                &targets,
                motif,
                &applied.removed,
                &applied.added,
            )
        });
        drop(base);
        let out = format!(
            "incremental: delta -{}/+{} edges, {} dirty candidate(s)\n",
            applied.removed.len(),
            applied.added.len(),
            dirty.len()
        );
        let cfg = self.config(motif);
        let result = self.tracer.span("core.repair", || {
            tpp_core::sgb_greedy_incremental(&instance, *budget, &prior.plan.steps, &dirty, &cfg)
        });
        self.finish_protect(
            out, motif, *budget, *seed, plan, original, &instance, result, record,
        )
    }

    fn attack(&mut self, req: &Request) -> Result<(String, Option<Vec<u8>>), String> {
        let Request::Attack {
            graph,
            targets,
            negatives,
            seed,
        } = req
        else {
            unreachable!("attack replays an attack request")
        };
        let g = self.graph(graph)?;
        let targets = self.targets(&g, &Targets::Random(*targets), *seed);
        let mut released = self.tracer.span("graph.clone", || g.clone());
        self.tracer.span("graph.edit", || {
            for t in &targets {
                released.remove_edge(t.u(), t.v());
            }
        });
        let negatives = self.tracer.span("linkpred.negatives", || {
            sample_non_edges(&released, *negatives, &targets, *seed)
        });
        let cn = *SimilarityIndex::ALL
            .iter()
            .find(|i| i.name() == "cn")
            .expect("cn is a similarity index");
        let exec = match &self.pool {
            Some(pool) => pool.clone(),
            None => Parallelism::new(THREADS),
        };
        let outcome = self.tracer.span("linkpred.attack", || {
            evaluate_attack_on(&released, &targets, &negatives, Attacker::Index(cn), &exec)
        });
        let mut out = String::new();
        let _ = writeln!(out, "attacker:       {}", outcome.attacker);
        let _ = writeln!(out, "auc:            {:.4}", outcome.auc);
        let _ = writeln!(out, "precision@|T|:  {:.4}", outcome.precision_at_t);
        let _ = writeln!(out, "mean target score: {:.4}", outcome.mean_target_score);
        if outcome.targets_fully_hidden() {
            let _ = writeln!(out, "verdict: targets fully hidden from this attacker");
        } else {
            let _ = writeln!(out, "verdict: residual evidence remains");
        }
        Ok((out, None))
    }

    /// `Server::update`: apply the delta to the resident graph, then patch
    /// every warm index over it on a clone-on-write copy.
    fn update(&mut self, req: &Request) -> Result<(String, Option<Vec<u8>>), String> {
        let Request::Update { graph, delta } = req else {
            unreachable!("update replays an update request")
        };
        let resident = self.registry.graph.take().ok_or("update before any load")?;
        // `graph_for`'s clone, which the server drops unused.
        self.tracer.span("graph.clone", || drop(resident.clone()));
        let base = self.tracer.span("graph.clone", || resident.clone());
        let applied = self
            .tracer
            .span("store.delta_apply", || {
                GraphDelta::load(std::path::Path::new(delta)).and_then(|d| d.apply(&base))
            })
            .map_err(|e| format!("applying {delta}: {e}"))?;
        let stored = self.tracer.span("graph.clone", || applied.graph.clone());
        self.registry.graph = Some(stored);
        let (mut patched, mut dropped, mut discovered) = (0usize, 0usize, 0usize);
        let mut keys: Vec<(Motif, Vec<Edge>)> = self.registry.indexes.keys().cloned().collect();
        keys.sort_by(|a, b| (a.0.name(), &a.1).cmp(&(b.0.name(), &b.1)));
        for key in keys {
            let collides = applied
                .removed
                .iter()
                .chain(&applied.added)
                .any(|e| key.1.contains(e));
            if collides {
                self.registry.indexes.remove(&key);
                dropped += 1;
                continue;
            }
            let warm = Arc::clone(&self.registry.indexes[&key]);
            let mut idx = self.tracer.span("motif.index_clone", || (*warm).clone());
            idx.set_parallelism(self.pool.clone().expect("served replay"));
            let mut released = self.tracer.span("graph.clone", || base.clone());
            self.tracer.span("graph.edit", || {
                for e in &key.1 {
                    released.remove_edge(e.u(), e.v());
                }
            });
            discovered += self.tracer.span("motif.patch", || {
                let mut found = 0usize;
                for &e in &applied.removed {
                    idx.delete_edge(e);
                    released.remove_edge(e.u(), e.v());
                }
                for &e in &applied.added {
                    released.add_edge(e.u(), e.v());
                    found += idx.insert_edge(&released, e);
                }
                found
            });
            self.registry.indexes.insert(key, Arc::new(idx));
            patched += 1;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "updated {graph}: -{}/+{} edge(s), now {} nodes, {} edges (resident only)",
            applied.removed.len(),
            applied.added.len(),
            applied.graph.node_count(),
            applied.graph.edge_count(),
        );
        let _ = writeln!(
            out,
            "indexes: {patched} patched in place, {dropped} dropped (delta hit their targets), \
             {discovered} instance(s) discovered",
        );
        Ok((out, None))
    }

    /// Self time of every layer span of traced ops, per span name, in ms.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = &self.tracer.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            // Op roots have no dot in their name; layers all have one.
            if s.name.contains('.') {
                let own = s.ns().saturating_sub(child_ns[i]);
                out.entry(s.name).or_default().push(own as f64 / 1e6);
            }
        }
        out
    }

    fn metrics(&self, real: &BTreeMap<&str, Vec<f64>>) -> Vec<(String, f64, &'static str)> {
        use crate::stats::median;
        // A metric is only reported when this run gave it samples: the
        // caller fails a run that lacks one its workload should measure.
        let med = |vals: Vec<f64>| (!vals.is_empty()).then(|| median(&vals));
        let ratio = |part: u64, whole: u64| (whole > 0).then(|| part as f64 / whole as f64);
        let mut m: Vec<(String, Option<f64>, &'static str)> = Vec::new();
        // Replayed layers: self time per call. The program's own index
        // builds (one-shot protects build inside the greedy) join the
        // replay's warm-up builds.
        let mut times = self.self_times();
        let builds = self.program.iter().filter(|p| p.stats.index.builds > 0);
        times
            .entry("motif.index_build")
            .or_default()
            .extend(builds.map(|p| ms(p.stats.index.build_ns) / p.stats.index.builds as f64));
        for (name, v) in times {
            m.push((format!("{name}_ms"), med(v), "ms"));
        }
        m.push((
            "store.bytes_mapped".into(),
            (self.bytes_mapped > 0).then_some(self.bytes_mapped as f64),
            "bytes",
        ));
        let steady = |kind: Option<&'static str>, traced: bool| {
            self.records.iter().filter(move |r| {
                !r.warmup && r.traced == traced && kind.is_none_or(|k| r.kind == k)
            })
        };
        m.push((
            "motif.instances".into(),
            med(steady(Some("protect"), true)
                .filter_map(|r| r.instances.map(|n| n as f64))
                .collect()),
            "count",
        ));
        // Program-recorded figures, per op of the kind they belong to.
        let program = |kind: &'static str| self.program.iter().filter(move |p| p.kind == kind);
        let of = |kind, f: fn(&ProgramRecord) -> f64| med(program(kind).map(f).collect());
        m.push((
            "core.scan_ms".into(),
            of("protect", |p| ms(p.stats.round.scan_ns.sum_ns)),
            "ms",
        ));
        m.push((
            "core.commit_ms".into(),
            of("protect", |p| ms(p.stats.round.commit_ns.sum_ns)),
            "ms",
        ));
        m.push((
            "core.candidates_probed".into(),
            of("protect", |p| p.stats.round.candidates_probed as f64),
            "count",
        ));
        m.push((
            "core.probes_per_deletion".into(),
            of("protect", |p| {
                p.stats.round.candidates_probed as f64 / p.deletions.unwrap_or(0).max(1) as f64
            }),
            "ratio",
        ));
        let (rescored, memoized) = program("repair").fold((0, 0), |(a, b), p| {
            (
                a + p.stats.update.candidates_rescored,
                b + p.stats.update.candidates_memoized,
            )
        });
        m.push((
            "core.memoized_ratio".into(),
            program("repair")
                .next()
                .map(|_| memoized as f64 / (rescored + memoized).max(1) as f64),
            "ratio",
        ));
        m.push((
            "motif.instances_discovered".into(),
            of("update", |p| p.stats.update.instances_discovered as f64),
            "count",
        ));
        m.push((
            "linkpred.pairs_scored".into(),
            of("attack", |p| p.stats.attack.pairs_scored as f64),
            "count",
        ));
        let exec = |f: fn(&ExecSection) -> u64| self.program.iter().map(move |p| f(&p.stats.exec));
        m.push((
            "exec.dispatches".into(),
            med(exec(|e| e.dispatches).map(|n| n as f64).collect()),
            "count",
        ));
        m.push((
            "exec.dispatch_ms".into(),
            ratio(
                exec(|e| e.dispatch_ns.sum_ns).sum(),
                exec(|e| e.dispatches).sum(),
            )
            .map(|ns| ns / 1e6),
            "ms",
        ));
        m.push((
            "exec.idle_participants".into(),
            med(exec(|e| e.idle_participants).map(|n| n as f64).collect()),
            "count",
        ));
        m.push((
            "exec.steal_ratio".into(),
            ratio(
                exec(|e| e.items_stolen).sum(),
                exec(|e| e.items_claimed).sum(),
            ),
            "ratio",
        ));
        // Unattributed: the program's median latency minus the median
        // layer time of a traced replay of the same op type.
        let front = if self.prep.served { "serve" } else { "cli" };
        let second = self.prep.second_op;
        for kind in ["protect", second] {
            let layer = med(steady(Some(kind), true)
                .map(|r| r.layer_ns as f64 / 1e6)
                .collect());
            let e2e = real.get(kind).and_then(|v| med(v.clone()));
            m.push((
                format!("{front}.{kind}.unattributed_ms"),
                e2e.zip(layer).map(|(e, l)| e - l),
                "ms",
            ));
        }
        let (mut traced, mut plain) = (0.0, 0.0);
        for kind in ["protect", second] {
            let root = |t| med(steady(Some(kind), t).map(|r| r.root_ns as f64).collect());
            traced += root(true).unwrap_or(0.0);
            plain += root(false).unwrap_or(0.0);
        }
        m.push((
            "obs.trace_overhead_pct".into(),
            (plain > 0.0).then(|| 100.0 * (traced - plain) / plain),
            "%",
        ));
        m.into_iter()
            .filter_map(|(name, v, unit)| v.map(|v| (name, v, unit)))
            .collect()
    }
}
