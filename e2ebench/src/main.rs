//! End-to-end benchmark of `tpp`: three closed-loop workloads through the
//! real binary and daemon, every reply checked against a one-shot
//! reference, and a traced in-process replay that breaks each op type's
//! latency down by layer. See README.md for the metrics and workloads.
//!
//! ```text
//! e2ebench --tpp PATH --workload NAME --seed N --seconds S --trace 0|1
//! e2ebench --tpp PATH --self-test
//! ```
//!
//! Run from the repository root (`bash e2ebench/run.sh ...` builds both
//! binaries first). The last stdout line is the result as one JSON object.

mod inputs;
mod probe;
mod replay;
mod request;
mod stats;
mod sys;
mod workloads;

use probe::Probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workloads::{Env, Prepared, Scale, CHURN, ONESHOT, WARM, WORKLOADS};

/// End-to-end metrics, printed by every untraced run. Times and rates are
/// adjusted to the reference host speed of [`probe::REFERENCE_MS`]; the
/// report lines give them raw too. Tails and the peak resident set are in
/// the report lines only: on a shared host they spread wider between runs
/// than any bound could allow (see README.md).
const END_TO_END: [(&str, &str); 5] = [
    ("protect_p50_adj_ms", "ms"),
    ("second_op_p50_adj_ms", "ms"),
    ("ops_per_s_adj", "ops/s"),
    ("setup_s", "s"),
    ("final_similarity_pct", "%"),
];

/// Workloads on which a per-layer metric is measured.
const ALL: &[&str] = &WORKLOADS;
const SERVED: &[&str] = &[WARM, CHURN];

/// Per-layer metrics, printed by every traced run: name, unit, and the
/// workloads that call the layer. A traced run of one of those workloads
/// fails if it gave the metric no sample; elsewhere the metric reads 0.
const PER_LAYER: [(&str, &str, &[&str]); 41] = [
    ("store.load_ms", "ms", ALL),
    ("store.bytes_mapped", "bytes", ALL),
    ("store.to_graph_ms", "ms", ALL),
    ("store.delta_apply_ms", "ms", &[ONESHOT, CHURN]),
    ("graph.clone_ms", "ms", ALL),
    ("graph.edit_ms", "ms", SERVED),
    ("core.targets_ms", "ms", &[ONESHOT, WARM]),
    ("core.instance_ms", "ms", ALL),
    ("core.greedy_ms", "ms", ALL),
    ("core.scan_ms", "ms", ALL),
    ("core.commit_ms", "ms", ALL),
    ("core.candidates_probed", "count", ALL),
    ("core.probes_per_deletion", "ratio", ALL),
    ("core.apply_ms", "ms", ALL),
    ("core.dirty_ms", "ms", &[ONESHOT]),
    ("core.repair_ms", "ms", &[ONESHOT]),
    ("core.memoized_ratio", "ratio", &[ONESHOT]),
    ("motif.index_build_ms", "ms", ALL),
    ("motif.instances", "count", ALL),
    ("motif.index_clone_ms", "ms", SERVED),
    ("motif.patch_ms", "ms", &[CHURN]),
    ("motif.instances_discovered", "count", &[CHURN]),
    ("metrics.utility_ms", "ms", ALL),
    ("metrics.clustering_ms", "ms", ALL),
    ("metrics.core_number_ms", "ms", ALL),
    ("linkpred.negatives_ms", "ms", &[WARM]),
    ("linkpred.attack_ms", "ms", &[WARM]),
    ("linkpred.pairs_scored", "count", &[WARM]),
    ("exec.dispatches", "count", ALL),
    ("exec.dispatch_ms", "ms", ALL),
    ("exec.idle_participants", "count", ALL),
    ("exec.steal_ratio", "ratio", ALL),
    ("serve.ping_ms", "ms", SERVED),
    ("serve.graph_hit_ratio", "ratio", SERVED),
    ("serve.index_hit_ratio", "ratio", SERVED),
    ("cli.protect.unattributed_ms", "ms", &[ONESHOT]),
    ("cli.repair.unattributed_ms", "ms", &[ONESHOT]),
    ("serve.protect.unattributed_ms", "ms", SERVED),
    ("serve.attack.unattributed_ms", "ms", &[WARM]),
    ("serve.update.unattributed_ms", "ms", &[CHURN]),
    ("obs.trace_overhead_pct", "%", ALL),
];

struct Args {
    tpp: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tpp: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--tpp" => args.tpp = PathBuf::from(value),
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !args.tpp.is_file() {
        return Err(format!("--tpp {:?} is not the tpp binary", args.tpp));
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// One run's result: report lines, then the JSON the last line carries.
struct Outcome {
    report: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn run(name: &str, env: &Env, seconds: f64, trace: bool, corrupt: bool) -> Result<Outcome, String> {
    let mut prep = workloads::prepare(name, env)?;
    if corrupt {
        // Self-test: one reference reply goes bad; every op checked
        // against it must count as failed.
        let first = prep.clients[0][0];
        prep.ops[first].expect.reply.insert(0, '#');
    }
    let header = format!(
        "e2ebench workload={name} seed={} seconds={seconds} trace={} nproc={} git_rev={} profile={}",
        env.seed,
        u8::from(trace),
        sys::nproc(),
        sys::git_revision(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let outcome = if trace {
        traced(name, &prep, env, seconds, header)
    } else {
        measured(&prep, env, seconds, header)
    };
    if let Some(daemon) = prep.daemon.take() {
        daemon.stop()?;
    }
    outcome
}

/// The untraced closed-loop run: the end-to-end metrics.
fn measured(prep: &Prepared, env: &Env, seconds: f64, header: String) -> Result<Outcome, String> {
    let m = workloads::measure(prep, env, env.scale.warmup_s, seconds)?;
    let mut report = vec![header];
    for e in &m.errors {
        eprintln!("e2ebench: {e}");
    }
    // Every timed latency in completion order, per distinct op, for
    // looking past the summary.
    let timed: Vec<&workloads::Sample> = m.samples.iter().filter(|s| s.ok && s.timed).collect();
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &timed {
        series
            .entry(format!("{}/{}", s.kind, s.op))
            .or_default()
            .push(s.ms);
    }
    write_json(&env.work.join("samples.json"), &series)?;
    // Host speed over the run: adjusted figures are what the run would
    // read on a host whose probe takes the reference time.
    let probes: Vec<f64> = prep.probe_ms.iter().chain(&m.probe_ms).copied().collect();
    let probe = stats::median(&probes);
    let adjust = probe::REFERENCE_MS / probe;
    report.push(format!(
        "host probe = {probe:.3} ms (median of {} samples; reference {} ms, so times x {adjust:.4})",
        probes.len(),
        probe::REFERENCE_MS
    ));
    let mut e2e = Vec::new();
    for (kind, label) in [("protect", "protect"), (prep.second_op, "second_op")] {
        // The mean of each distinct op's median: the op types mix
        // requests of different cost (triangle and rectangle protects, a
        // delta and its inverse), and a median over the mix would jump
        // between their modes with the share of each that fits a run.
        let per_op: Vec<f64> = series
            .iter()
            .filter(|(key, _)| key.split('/').next() == Some(kind))
            .map(|(_, v)| stats::median(v))
            .collect();
        let p50 = per_op.iter().sum::<f64>() / per_op.len().max(1) as f64;
        let samples: Vec<f64> = timed
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        let (tail, pct, n) = stats::tail(&samples);
        report.push(format!(
            "{kind}_p50_ms = {p50:.3} ms, adjusted {:.3} ms ({label}_p50_adj_ms: mean of the medians of {} distinct op(s), {n} samples)",
            p50 * adjust,
            per_op.len()
        ));
        report.push(format!(
            "{kind}_tail_ms = {tail:.3} ms (p{pct:.1} of {n} samples)"
        ));
        e2e.push((format!("{label}_p50_adj_ms"), p50 * adjust));
    }
    let completed = timed.len();
    let rate = completed as f64 / m.elapsed_s;
    e2e.push(("ops_per_s_adj".into(), rate / adjust));
    let setup = stats::median(&prep.setup_s);
    e2e.push(("setup_s".into(), setup * adjust));
    let quality = workloads::mean_quality(&m.samples);
    e2e.push(("final_similarity_pct".into(), quality.final_similarity_pct));
    let attempted = m.samples.len() as u64;
    let failed = m.failed();
    report.push(format!(
        "ops_per_s = {rate:.3} ops/s, adjusted {:.3} ops/s ({completed} ops by {} closed-loop client(s) in {:.2} s after a {} s warm-up)",
        rate / adjust,
        prep.clients.len(),
        m.elapsed_s,
        env.scale.warmup_s
    ));
    let setups: Vec<String> = prep.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    report.push(format!(
        "setup_s = {:.3} s adjusted, {setup:.3} s raw (median of [{}])",
        setup * adjust,
        setups.join(", ")
    ));
    report.push(format!(
        "peak_rss_mb = {:.1} MiB ({})",
        m.peak_rss_kib as f64 / 1024.0,
        if prep.served {
            "daemon VmHWM"
        } else {
            "largest one-shot child"
        }
    ));
    report.push(format!(
        "final_similarity = {} count, final_similarity_pct = {:.4} % of initial \
         (means over the distinct verified plans)",
        quality.final_similarity, quality.final_similarity_pct
    ));
    report.push(format!(
        "utility_loss_pct = {:.6} %",
        quality.utility_loss_pct
    ));
    report.push(format!(
        "error_rate = {:.4} ({failed} failed of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    if let (Some(before), Some(after)) = (prep.registry_before, m.registry_after) {
        let (gh, ih) = before.hit_ratios(&after);
        report.push(format!("serve.graph_hit_ratio = {gh:.4} ratio"));
        report.push(format!("serve.index_hit_ratio = {ih:.4} ratio"));
    }
    let units: BTreeMap<&str, &str> = END_TO_END.into_iter().collect();
    let metrics = e2e
        .into_iter()
        .map(|(n, v)| {
            let unit = units[n.as_str()].to_string();
            (n, v, unit)
        })
        .collect();
    Ok(Outcome {
        report,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: program ops interleaved with traced and untraced
/// in-process replays; the per-layer metrics.
fn traced(
    name: &str,
    prep: &Prepared,
    env: &Env,
    seconds: f64,
    header: String,
) -> Result<Outcome, String> {
    let mut report = vec![header];
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(daemon) = &prep.daemon {
        values.insert("serve.ping_ms".into(), workloads::ping_ms(daemon, 50)?);
    }
    let traced = replay::run(prep, env, seconds);
    for e in &traced.errors {
        eprintln!("e2ebench: {e}");
    }
    let mut failed = traced.failed;
    if let Some(daemon) = &prep.daemon {
        let protects = traced.real.get("protect").map_or(0, Vec::len) as u64;
        let (misses, after) = workloads::registry_failures(prep, daemon, protects)?;
        if misses > 0 {
            eprintln!("e2ebench: registry accounting failed: {after:?} after {protects} protects");
        }
        failed += misses;
        let (gh, ih) = prep.registry_before.unwrap_or_default().hit_ratios(&after);
        values.insert("serve.graph_hit_ratio".into(), gh);
        values.insert("serve.index_hit_ratio".into(), ih);
    }
    write_json(&env.work.join("trace.json"), &traced.spans)?;
    for kind in ["protect", prep.second_op] {
        let v = traced.real.get(kind).cloned().unwrap_or_default();
        report.push(format!(
            "{kind}_p50_ms = {:.3} ms (one client, between the replays; {} samples)",
            stats::median(&v),
            v.len()
        ));
    }
    for (metric, value, _) in &traced.metrics {
        values.insert(metric.clone(), *value);
    }
    let mut metrics = Vec::new();
    for &(metric, unit, on) in &PER_LAYER {
        let value = match values.remove(metric) {
            Some(v) => {
                report.push(format!("{metric} = {v:.4} {unit}"));
                v
            }
            None if on.contains(&name) => {
                return Err(format!("the traced run of {name} gave {metric} no sample"));
            }
            None => 0.0,
        };
        metrics.push((metric.to_string(), value, unit.to_string()));
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!(
            "the traced run measured {extra}, which is not declared"
        ));
    }
    report.push(format!(
        "trace: {} spans -> {}",
        traced.spans.len(),
        env.work.join("trace.json").display()
    ));
    Ok(Outcome {
        report,
        correct: failed == 0,
        attempted: traced.attempted,
        failed,
        metrics,
    })
}

fn write_json<T: serde::Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[derive(serde::Deserialize)]
struct Spec {
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(serde::Deserialize)]
struct Named {
    name: String,
}

/// The metric names `BENCHMARK.json` declares: end-to-end, per-layer.
fn declared() -> Result<(Vec<String>, Vec<String>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let spec: Spec =
        serde_json::from_str(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let names = |v: Vec<Named>| v.into_iter().map(|m| m.name).collect();
    Ok((names(spec.end_to_end), names(spec.per_layer)))
}

/// Every workload at a tiny scale: each run must print exactly the
/// declared metric names and pass its checks, each traced run must give
/// a sample to every per-layer metric its workload calls (`traced` fails
/// otherwise), and a run whose reference reply was corrupted must report
/// failures instead of passing.
fn self_test(tpp: &Path) -> Result<(), String> {
    let scale = Scale::tiny();
    let mut log = String::new();
    let (end_to_end, per_layer) = declared()?;
    for (key, listed, ours) in [
        ("end_to_end", end_to_end, END_TO_END.map(|m| m.0).to_vec()),
        ("per_layer", per_layer, PER_LAYER.map(|m| m.0).to_vec()),
    ] {
        if listed != ours {
            return Err(format!(
                "BENCHMARK.json {key} {listed:?} != printed {ours:?}"
            ));
        }
    }
    let probe = Probe::new();
    for name in WORKLOADS {
        let env = Env {
            tpp,
            probe: &probe,
            work: Path::new(".e2ebench").join("self-test").join(name),
            seed: 7,
            scale: &scale,
        };
        for (trace, corrupt, want) in [
            (false, false, END_TO_END.map(|m| m.0).to_vec()),
            (true, false, PER_LAYER.map(|m| m.0).to_vec()),
            (false, true, END_TO_END.map(|m| m.0).to_vec()),
        ] {
            let o = run(name, &env, 1.0, trace, corrupt)?;
            let names: Vec<&str> = o.metrics.iter().map(|m| m.0.as_str()).collect();
            if names != want {
                return Err(format!("{name}: printed {names:?}, expected {want:?}"));
            }
            o.json()?;
            if corrupt == o.correct || (corrupt && o.failed == 0) {
                return Err(format!(
                    "{name} (trace {trace}, corrupt {corrupt}): correct={} failed={}\n{}",
                    o.correct,
                    o.failed,
                    o.report.join("\n")
                ));
            }
            let _ = writeln!(
                log,
                "self-test {name} trace={} corrupt={}: {} attempted, {} failed: ok",
                u8::from(trace),
                u8::from(corrupt),
                o.attempted,
                o.failed
            );
        }
    }
    print!("{log}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        if let Err(e) = self_test(&args.tpp) {
            eprintln!("e2ebench self-test failed: {e}");
            std::process::exit(1);
        }
        println!("self-test passed");
        return;
    }
    let scale = Scale::full();
    let probe = Probe::new();
    let env = Env {
        tpp: &args.tpp,
        probe: &probe,
        work: Path::new(".e2ebench").join(&args.workload),
        seed: args.seed,
        scale: &scale,
    };
    let outcome = run(&args.workload, &env, args.seconds, args.trace, false);
    match outcome.and_then(|o| o.json().map(|j| (o, j))) {
        Ok((o, json)) => {
            for line in &o.report {
                println!("{line}");
            }
            let result = env.work.join("result.json");
            if let Err(e) = std::fs::write(&result, format!("{}\n{json}\n", o.report[0])) {
                eprintln!("e2ebench: writing {}: {e}", result.display());
            }
            println!("{json}");
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
