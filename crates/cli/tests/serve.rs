//! Integration tests for `tpp serve`: served plans must be byte-identical
//! to one-shot CLI plans (cold, warm, and under concurrent mixed
//! requests), the warm registry must skip the index rebuild, and a
//! panicking request must leave the server and its shared pool usable.
#![cfg(unix)]

use std::path::PathBuf;
use tpp_cli::{args, commands, serve};

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

fn dispatch(argv: &[&str]) {
    commands::dispatch(&args::parse(&strs(argv)).unwrap()).unwrap();
}

/// A per-test scratch dir plus a socket path short enough for `bind`.
fn scratch(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("tpp-serve-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("tpp.sock").to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&socket);
    (dir, socket)
}

/// Starts a server on its own thread and blocks until it answers pings.
fn start_server(socket: &str, threads: usize) -> std::thread::JoinHandle<Result<(), String>> {
    start_server_with(
        socket,
        serve::ServeOptions {
            threads,
            ..serve::ServeOptions::default()
        },
    )
}

/// Starts a server with explicit registry bounds and blocks until ready.
fn start_server_with(
    socket: &str,
    options: serve::ServeOptions,
) -> std::thread::JoinHandle<Result<(), String>> {
    let sock = socket.to_string();
    let handle = std::thread::spawn(move || serve::serve_with_options(&sock, &options));
    for _ in 0..200 {
        if serve::request(socket, &strs(&["ping"])).is_ok() {
            return handle;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("server on {socket} never became ready");
}

fn shut_down(socket: &str, handle: std::thread::JoinHandle<Result<(), String>>) {
    let reply = serve::request(socket, &strs(&["shutdown"])).unwrap();
    assert!(reply.contains("stopping"), "got: {reply}");
    handle.join().unwrap().unwrap();
    assert!(
        !std::path::Path::new(socket).exists(),
        "socket file must be removed on clean shutdown"
    );
}

fn generate(dir: &std::path::Path, name: &str) -> String {
    let path = dir.join(name).to_str().unwrap().to_string();
    dispatch(&[
        "generate", "--model", "hk", "--nodes", "150", "--out", &path,
    ]);
    path
}

#[test]
fn concurrent_served_plans_are_byte_identical_to_one_shot() {
    let (dir, socket) = scratch("concurrent");
    let graph = generate(&dir, "g.txt");

    // Mixed motifs, strategies, and batch widths — including a random
    // baseline (no index) and two requests sharing an index key.
    let cases: &[&[&str]] = &[
        &["--algorithm", "sgb", "--motif", "triangle"],
        &["--algorithm", "celf", "--motif", "triangle"],
        &["--algorithm", "ct", "--motif", "rectangle"],
        &["--algorithm", "wt", "--motif", "triangle", "--batch", "2"],
        &["--algorithm", "rd", "--seed", "7"],
        &[
            "--algorithm",
            "sgb",
            "--motif",
            "rectangle",
            "--threads",
            "2",
        ],
    ];
    let case_args = |case: &[&str], plan: &str| {
        let mut argv = strs(&["protect", &graph, "--budget", "4", "--random", "4"]);
        argv.extend(strs(case));
        argv.extend(strs(&["--plan", plan]));
        argv
    };

    let mut one_shot = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let plan = dir.join(format!("one-shot-{i}.json"));
        let argv = case_args(case, plan.to_str().unwrap());
        commands::dispatch(&args::parse(&argv).unwrap()).unwrap();
        one_shot.push(std::fs::read(&plan).unwrap());
    }

    let handle = start_server(&socket, 2);
    for round in ["cold", "warm"] {
        let served: Vec<Vec<u8>> = std::thread::scope(|s| {
            let workers: Vec<_> = cases
                .iter()
                .enumerate()
                .map(|(i, case)| {
                    let plan = dir.join(format!("served-{round}-{i}.json"));
                    let socket = &socket;
                    s.spawn(move || {
                        let argv = case_args(case, plan.to_str().unwrap());
                        serve::request(socket, &argv).unwrap();
                        std::fs::read(&plan).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, bytes) in served.iter().enumerate() {
            assert_eq!(
                bytes, &one_shot[i],
                "{round} served plan {i} ({:?}) diverged from one-shot",
                cases[i]
            );
        }
    }
    shut_down(&socket, handle);
}

#[test]
fn warm_registry_skips_the_index_rebuild() {
    let (dir, socket) = scratch("warm");
    let graph = generate(&dir, "g.txt");
    let handle = start_server(&socket, 2);

    let argv = strs(&[
        "protect", &graph, "--budget", "4", "--random", "4", "--stats", "-",
    ]);
    let cold = serve::request(&socket, &argv).unwrap();
    assert!(cold.contains("\"builds\": 1"), "cold reply: {cold}");
    assert!(!cold.contains("\"build_ns\": 0"), "cold reply: {cold}");
    assert!(cold.contains("\"index_misses\": 1"), "cold reply: {cold}");
    assert!(cold.contains("\"graph_misses\": 1"), "cold reply: {cold}");

    let warm = serve::request(&socket, &argv).unwrap();
    assert!(warm.contains("\"builds\": 0"), "warm reply: {warm}");
    assert!(warm.contains("\"build_ns\": 0"), "warm reply: {warm}");
    assert!(warm.contains("\"index_hits\": 1"), "warm reply: {warm}");
    assert!(warm.contains("\"graph_hits\": 1"), "warm reply: {warm}");

    // Identical run summaries either way (the stats JSON legitimately
    // differs: cold carries the build, warm the registry hits).
    let summary = |reply: &str| {
        reply
            .lines()
            .take_while(|l| !l.starts_with('{'))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(summary(&cold), summary(&warm));
    shut_down(&socket, handle);
}

#[test]
fn panicking_request_leaves_server_and_pool_usable() {
    let (dir, socket) = scratch("panic");
    let graph = generate(&dir, "g.txt");
    let handle = start_server(&socket, 2);

    for _ in 0..2 {
        let err = serve::request(&socket, &strs(&["__panic"])).unwrap_err();
        assert!(err.contains("panicked"), "got: {err}");
        // The shared pool still dispatches: a parallel protect succeeds.
        let reply = serve::request(
            &socket,
            &strs(&[
                "protect",
                &graph,
                "--budget",
                "3",
                "--random",
                "3",
                "--threads",
                "2",
            ]),
        )
        .unwrap();
        assert!(reply.contains("similarity"), "got: {reply}");
    }
    shut_down(&socket, handle);
}

#[test]
fn stale_socket_file_is_replaced_and_live_sockets_are_refused() {
    let (_dir, socket) = scratch("stale");
    // Fabricate the unclean-exit case: a bound socket file whose server
    // is gone. Dropping the listener closes the fd but leaves the file.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(
        std::path::Path::new(&socket).exists(),
        "stale socket file must exist before startup"
    );
    // Startup must replace the stale file and come up listening.
    let handle = start_server(&socket, 1);
    assert_eq!(serve::request(&socket, &strs(&["ping"])).unwrap(), "pong\n");
    // A live server, by contrast, must be refused — never stolen.
    let err = serve::serve(&socket, 1).unwrap_err();
    assert!(err.contains("already listening"), "got: {err}");
    shut_down(&socket, handle);
}

#[test]
fn registry_caps_evict_least_recently_used_entries() {
    let (dir, socket) = scratch("evict");
    let g1 = generate(&dir, "g1.txt");
    let g2 = generate(&dir, "g2.txt");
    let handle = start_server_with(
        &socket,
        serve::ServeOptions {
            threads: 1,
            max_graphs: 1,
            max_indexes: 1,
            ..serve::ServeOptions::default()
        },
    );
    let protect = |graph: &str, motif: &str| {
        serve::request(
            &socket,
            &strs(&[
                "protect", graph, "--budget", "3", "--random", "3", "--motif", motif,
            ]),
        )
        .unwrap()
    };
    // Two distinct graphs and two distinct index keys: each registry
    // must hold only the most recent entry and count the evictions.
    protect(&g1, "triangle");
    protect(&g2, "triangle");
    protect(&g2, "rectangle");
    let info = serve::request(&socket, &strs(&["info"])).unwrap();
    assert!(info.contains("graphs: 1 cached (cap 1"), "got: {info}");
    assert!(info.contains("indexes: 1 cached (cap 1"), "got: {info}");
    assert!(info.contains("1 evictions"), "got: {info}");
    assert!(!info.contains("g1.txt"), "g1 must be evicted: {info}");
    // The evicted graph still serves — it just reloads (a miss).
    protect(&g1, "triangle");
    shut_down(&socket, handle);
}

#[test]
fn update_request_patches_warm_indexes_to_match_from_scratch_plans() {
    let (dir, socket) = scratch("update");
    let graph = generate(&dir, "g.txt");
    let g = tpp_graph::parse_edge_list(&std::fs::read_to_string(&graph).unwrap()).unwrap();
    let edges = g.edge_vec();
    let targets = [edges[0], edges[edges.len() / 2]];
    let targets_spec = format!(
        "{}-{},{}-{}",
        targets[0].u(),
        targets[0].v(),
        targets[1].u(),
        targets[1].v()
    );

    // The delta: two removals, two additions, none touching a target.
    let mut view = tpp_store::DeltaView::new(&g);
    let mut removed = 0;
    for e in &edges {
        if removed == 2 {
            break;
        }
        if !targets.contains(e) && view.delete_edge(*e) {
            removed += 1;
        }
    }
    let mut added = 0;
    'outer: for u in 0..g.node_count() as u32 {
        for v in (u + 1)..g.node_count() as u32 {
            if added == 2 {
                break 'outer;
            }
            let e = tpp_graph::Edge::new(u, v);
            if !g.has_edge(u, v) && !targets.contains(&e) && view.add_edge(e) {
                added += 1;
            }
        }
    }
    let mut delta_text = String::new();
    for e in view.deleted_edges() {
        delta_text.push_str(&format!("- {} {}\n", e.u(), e.v()));
    }
    for e in view.added_edges() {
        delta_text.push_str(&format!("+ {} {}\n", e.u(), e.v()));
    }
    let delta_path = dir.join("delta.txt");
    std::fs::write(&delta_path, &delta_text).unwrap();
    let mutated_path = dir.join("mutated.txt");
    std::fs::write(&mutated_path, tpp_graph::write_edge_list(&view.to_graph())).unwrap();

    // One-shot from-scratch run on the mutated graph: the ground truth.
    let scratch_plan = dir.join("scratch.json");
    dispatch(&[
        "protect",
        mutated_path.to_str().unwrap(),
        "--budget",
        "4",
        "--targets",
        &targets_spec,
        "--plan",
        scratch_plan.to_str().unwrap(),
    ]);

    let handle = start_server(&socket, 2);
    // Warm the registries on the pre-delta graph...
    serve::request(
        &socket,
        &strs(&[
            "protect",
            &graph,
            "--budget",
            "4",
            "--targets",
            &targets_spec,
        ]),
    )
    .unwrap();
    // ...mutate the resident graph, patching the warm index in place...
    let reply = serve::request(
        &socket,
        &strs(&["update", &graph, "--delta", delta_path.to_str().unwrap()]),
    )
    .unwrap();
    assert!(reply.contains("-2/+2 edge(s)"), "got: {reply}");
    assert!(reply.contains("1 patched in place"), "got: {reply}");
    // ...and the next served plan must match the from-scratch run on the
    // mutated graph, answered from the patched index without a rebuild.
    let served_plan = dir.join("served.json");
    let warm = serve::request(
        &socket,
        &strs(&[
            "protect",
            &graph,
            "--budget",
            "4",
            "--targets",
            &targets_spec,
            "--plan",
            served_plan.to_str().unwrap(),
            "--stats",
            "-",
        ]),
    )
    .unwrap();
    assert!(warm.contains("\"builds\": 0"), "index was rebuilt: {warm}");
    assert!(warm.contains("\"index_hits\": 1"), "got: {warm}");
    assert_eq!(
        std::fs::read_to_string(&scratch_plan).unwrap(),
        std::fs::read_to_string(&served_plan).unwrap(),
        "served post-update plan diverged from the from-scratch run"
    );
    // A delta that removes a target edge drops the index instead.
    let bad_delta = dir.join("bad-delta.txt");
    std::fs::write(
        &bad_delta,
        format!("- {} {}\n", targets[0].u(), targets[0].v()),
    )
    .unwrap();
    let reply = serve::request(
        &socket,
        &strs(&["update", &graph, "--delta", bad_delta.to_str().unwrap()]),
    )
    .unwrap();
    assert!(reply.contains("1 dropped"), "got: {reply}");
    shut_down(&socket, handle);
}

#[test]
fn info_reports_registries_and_absurd_threads_are_rejected() {
    let (dir, socket) = scratch("info");
    let graph = generate(&dir, "g.txt");
    let handle = start_server(&socket, 1);

    let err = serve::request(
        &socket,
        &strs(&["protect", &graph, "--budget", "3", "--threads", "100000000"]),
    )
    .unwrap_err();
    assert!(err.contains("exceeds"), "got: {err}");

    serve::request(
        &socket,
        &strs(&["protect", &graph, "--budget", "3", "--random", "3"]),
    )
    .unwrap();
    let info = serve::request(&socket, &strs(&["info"])).unwrap();
    assert!(info.contains("graphs: 1 cached"), "got: {info}");
    assert!(info.contains("150 nodes"), "got: {info}");
    assert!(info.contains("indexes: 1 cached"), "got: {info}");

    let err = serve::request(&socket, &strs(&["frobnicate"])).unwrap_err();
    assert!(err.contains("unknown serve request"), "got: {err}");
    shut_down(&socket, handle);
}

/// The report a one-shot `tpp protect` prints for `args`.
fn one_shot_report(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tpp"))
        .arg("protect")
        .args(args)
        .output()
        .unwrap();
    assert!(out.status.success(), "one-shot protect failed: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn utility_baseline_never_outlives_an_update() {
    let (dir, socket) = scratch("utility");
    let graph = dir.join("g.txt").to_str().unwrap().to_string();
    dispatch(&[
        "generate", "--model", "hk", "--nodes", "300", "--out", &graph,
    ]);
    let g = tpp_graph::parse_edge_list(&std::fs::read_to_string(&graph).unwrap()).unwrap();
    let edges = g.edge_vec();
    let targets = [edges[1], edges[edges.len() / 3], edges[2 * edges.len() / 3]];
    let targets_spec = targets
        .iter()
        .map(|e| format!("{}-{}", e.u(), e.v()))
        .collect::<Vec<_>>()
        .join(",");
    let touches_target = |e: tpp_graph::Edge| {
        targets
            .iter()
            .any(|t| [t.u(), t.v()].contains(&e.u()) || [t.u(), t.v()].contains(&e.v()))
    };

    // A delta that moves clustering: three removals that break triangles
    // and three triadic closures, none touching a target's endpoints.
    let mut view = tpp_store::DeltaView::new(&g);
    let removals = edges
        .iter()
        .filter(|&&e| !touches_target(e) && g.common_neighbor_count(e.u(), e.v()) > 0)
        .step_by(7)
        .take(3);
    for &e in removals {
        assert!(view.delete_edge(e));
    }
    let mut closures = 0;
    'outer: for u in g.nodes() {
        for &v in g.neighbors(u) {
            for &w in g.neighbors(v) {
                if u < w && !g.has_edge(u, w) {
                    let e = tpp_graph::Edge::new(u, w);
                    if !touches_target(e) && view.add_edge(e) {
                        closures += 1;
                        if closures == 3 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    let mut forward = String::new();
    let mut inverse = String::new();
    for e in view.deleted_edges() {
        forward.push_str(&format!("- {} {}\n", e.u(), e.v()));
        inverse.push_str(&format!("+ {} {}\n", e.u(), e.v()));
    }
    for e in view.added_edges() {
        forward.push_str(&format!("+ {} {}\n", e.u(), e.v()));
        inverse.push_str(&format!("- {} {}\n", e.u(), e.v()));
    }
    let forward_path = dir.join("forward.txt").to_str().unwrap().to_string();
    let inverse_path = dir.join("inverse.txt").to_str().unwrap().to_string();
    std::fs::write(&forward_path, forward).unwrap();
    std::fs::write(&inverse_path, inverse).unwrap();
    let mutated = dir.join("mutated.txt").to_str().unwrap().to_string();
    std::fs::write(&mutated, tpp_graph::write_edge_list(&view.to_graph())).unwrap();

    // One-shot references per graph state, with the plan path the served
    // run reuses (the report names it).
    let plan = dir.join("plan.json").to_str().unwrap().to_string();
    let args = |file: &str| -> Vec<String> {
        strs(&[
            file,
            "--budget",
            "4",
            "--targets",
            &targets_spec,
            "--plan",
            &plan,
        ])
    };
    let reference = |file: &str| {
        let argv = args(file);
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let report = one_shot_report(&argv);
        (report, std::fs::read(&plan).unwrap())
    };
    let before = reference(&graph);
    let after = reference(&mutated);
    let loss_line = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .lines()
            .find(|l| l.contains("utility_loss_percent"))
            .unwrap()
            .to_string()
    };
    assert_ne!(
        loss_line(&before.1),
        loss_line(&after.1),
        "the delta must move the utility loss, or a stale baseline would pass"
    );

    let handle = start_server(&socket, 2);
    let protect = |expected: &(String, Vec<u8>), utility: &str| {
        let mut argv = strs(&["protect"]);
        argv.extend(args(&graph));
        argv.extend(strs(&["--stats", "-"]));
        let reply = serve::request(&socket, &argv).unwrap();
        let (report, stats) = reply.split_at(reply.find("\n{").unwrap() + 1);
        assert_eq!(report, expected.0, "served report diverged from one-shot");
        assert_eq!(
            std::fs::read(&plan).unwrap(),
            expected.1,
            "served plan diverged from one-shot"
        );
        let (hits, misses) = if utility == "hit" { (1, 0) } else { (0, 1) };
        assert!(
            stats.contains(&format!("\"utility_hits\": {hits}"))
                && stats.contains(&format!("\"utility_misses\": {misses}")),
            "expected a utility {utility}: {stats}"
        );
    };
    let update = |delta: &str| {
        let reply = serve::request(&socket, &strs(&["update", &graph, "--delta", delta])).unwrap();
        assert!(reply.contains("-3/+3 edge(s)"), "got: {reply}");
    };
    protect(&before, "miss");
    protect(&before, "hit");
    update(&forward_path);
    protect(&after, "miss");
    protect(&after, "hit");
    update(&inverse_path);
    protect(&before, "miss");
    protect(&before, "hit");
    let info = serve::request(&socket, &strs(&["info"])).unwrap();
    assert!(
        info.contains("utility baselines: 3 hits, 3 misses"),
        "got: {info}"
    );
    shut_down(&socket, handle);
}
