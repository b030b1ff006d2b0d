//! End-to-end service tests: a real daemon on a unix socket (and HTTP),
//! overlapping grid queries from concurrent clients, and the core
//! guarantee — warm-path results bit-identical to a direct `run_matrix`
//! sweep, and cold sampled cells to the sampled-mode oracle
//! (`run_sampled_digest` over an independent packed capture).

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use aurora_bench::harness::run_matrix;
use aurora_core::{replay, run_sampled_digest, IssueWidth, MachineModel, WarmDigest};
use aurora_mem::LatencyModel;
use aurora_serve::json::Json;
use aurora_serve::proto::{CellResult, QueryRequest, ResponseLine};
use aurora_serve::{client, server, Engine, ResultStore};
use aurora_workloads::{workload_by_name, Scale};

/// One NDJSON response stream, parsed: the cell lines' wire fingerprints
/// (exact cells) or estimates (sampled cells), and the summary counters.
#[derive(Default)]
struct Reply {
    /// `(config index, workload name, stats fingerprint hex string)` per
    /// exact cell line, in stream order.
    fingerprints: Vec<(usize, String, String)>,
    /// `(config index, workload name, cpi, ci_half_width)` per sampled
    /// cell line, in stream order.
    sampled: Vec<(usize, String, f64, f64)>,
    cells: u64,
    memo_hits: u64,
    simulated: u64,
}

/// Parses a response stream: cell lines, then exactly one summary line,
/// which must come last.
fn parse_reply(lines: &[String]) -> Reply {
    let mut reply = Reply::default();
    for (i, line) in lines.iter().enumerate() {
        let v = Json::parse(line).expect("daemon emitted malformed JSON");
        match v.get("type").and_then(Json::as_str) {
            Some("cell") => {
                let ci = v.get("config").and_then(Json::as_u64).expect("config") as usize;
                let w = v.get("workload").and_then(Json::as_str).expect("workload");
                let stats = v.get("stats").expect("stats");
                match stats.get("fingerprint").and_then(Json::as_str) {
                    Some(fp) => reply.fingerprints.push((ci, w.to_owned(), fp.to_owned())),
                    None => {
                        let cpi = stats.get("cpi").and_then(Json::as_f64).expect("cpi");
                        let ci_half = stats
                            .get("ci_half_width")
                            .and_then(Json::as_f64)
                            .expect("ci_half_width");
                        reply.sampled.push((ci, w.to_owned(), cpi, ci_half));
                    }
                }
            }
            Some("summary") => {
                assert_eq!(i + 1, lines.len(), "the summary must be the last line");
                reply.cells = v.get("cells").and_then(Json::as_u64).expect("cells");
                reply.memo_hits = v
                    .get("memo_hits")
                    .and_then(Json::as_u64)
                    .expect("memo_hits");
                reply.simulated = v
                    .get("simulated")
                    .and_then(Json::as_u64)
                    .expect("simulated");
            }
            _ => panic!("unexpected response line: {line}"),
        }
    }
    assert_eq!(
        (reply.fingerprints.len() + reply.sampled.len()) as u64,
        reply.cells,
        "one cell line per summarised cell"
    );
    reply
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aurora-serve-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Two overlapping grid queries race on a fresh daemon; afterwards the
/// union grid is fully memoised and a repeat query simulates nothing.
/// Then the warm cells are checked bit-identical against run_matrix, both
/// as engine-level `SimStats` and as the fingerprint on the wire.
#[test]
fn overlapping_queries_memoise_and_match_run_matrix() {
    let dir = scratch("overlap");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open store"),
    ));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");

    // Query A: {baseline-single, baseline-dual} × {eqntott};
    // Query B: {baseline-dual, small-dual} × {eqntott, compress}.
    // They overlap on the (baseline-dual, eqntott) cell.
    let req_a = r#"{"configs": [{"model": "baseline", "issue": "single"},
                                {"model": "baseline", "issue": "dual"}],
                    "workloads": ["eqntott"], "scale": "test", "mode": "block"}"#;
    let req_b = r#"{"configs": [{"model": "baseline", "issue": "dual"},
                                {"model": "small", "issue": "dual"}],
                    "workloads": ["eqntott", "compress"], "scale": "test", "mode": "block"}"#;

    let run_query = |req: &str| {
        let mut lines = Vec::new();
        client::query_unix(&socket, req, |l| lines.push(l.to_owned())).expect("query");
        lines
    };
    let (lines_a, lines_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_query(req_a));
        let b = scope.spawn(|| run_query(req_b));
        (a.join().expect("query A"), b.join().expect("query B"))
    });

    let (a, b) = (parse_reply(&lines_a), parse_reply(&lines_b));
    assert_eq!(a.cells, 2);
    assert_eq!(b.cells, 4);
    assert_eq!(
        a.memo_hits + a.simulated,
        2,
        "every A cell answered exactly once"
    );
    assert_eq!(
        b.memo_hits + b.simulated,
        4,
        "every B cell answered exactly once"
    );
    // Cell lines precede the summary and carry stats objects.
    assert_eq!(lines_a.len() as u64, a.cells + 1);
    assert_eq!(lines_b.len() as u64, b.cells + 1);

    // The union grid (5 distinct cells) is now warm: repeats of both
    // queries must hit the memo for every cell and simulate nothing.
    let mut warm_b = Reply::default();
    for req in [req_a, req_b] {
        let reply = parse_reply(&run_query(req));
        assert_eq!(
            reply.memo_hits, reply.cells,
            "warm repeat must be all memo hits"
        );
        assert_eq!(reply.simulated, 0, "warm repeat must not re-simulate");
        warm_b = reply;
    }
    assert_eq!(engine.store().len(), 5, "five distinct cells memoised");

    // Bit-identity: execute query B warm at the engine level (full
    // SimStats, no JSON round trip) and compare against run_matrix.
    let req = QueryRequest::from_json_str(req_b).expect("parse");
    let configs = req.machine_configs().expect("resolve");
    let workloads: Vec<_> = req
        .workloads
        .iter()
        .map(|w| workload_by_name(w, req.scale).expect("workload"))
        .collect();
    let mut warm_cells = Vec::new();
    let summary = engine
        .execute(&req, &mut |line: &ResponseLine| {
            if let ResponseLine::Cell {
                config_index,
                workload,
                result: CellResult::Exact(stats),
                ..
            } = line
            {
                warm_cells.push((*config_index, workload.clone(), stats.clone()));
            }
        })
        .expect("warm execute");
    assert_eq!(summary.memo_hits, 4);
    assert_eq!(summary.simulated, 0);
    let direct = run_matrix(&configs, &workloads);
    assert_eq!(warm_cells.len(), 4);
    for (ci, wname, stats) in &warm_cells {
        let wi = req.workloads.iter().position(|w| w == wname).expect("wi");
        assert_eq!(
            stats, &direct[*ci][wi],
            "memoised stats must be bit-identical to run_matrix for config {ci} × {wname}"
        );
    }
    // The same cells as the socket client saw them: the `stats.fingerprint`
    // string of each warm cell line is the direct sweep's fingerprint.
    assert_eq!(warm_b.fingerprints.len(), 4);
    for (ci, wname, fp) in &warm_b.fingerprints {
        let wi = req.workloads.iter().position(|w| w == wname).expect("wi");
        assert_eq!(
            fp,
            &format!("{:#018x}", direct[*ci][wi].fingerprint()),
            "wire fingerprint must match run_matrix for config {ci} × {wname}"
        );
    }

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The store persists across daemon restarts: a second daemon on the
/// same directory answers the first daemon's cells from the memo.
#[test]
fn warm_cells_survive_daemon_restart() {
    let dir = scratch("restart");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let store_dir = dir.join("store");
    let req = r#"{"configs": [{"model": "small", "issue": "single"}],
                  "workloads": ["li"], "scale": "test", "mode": "block"}"#;

    let run_query = |socket: &std::path::Path| {
        let mut last = String::new();
        client::query_unix(socket, req, |l| last = l.to_owned()).expect("query");
        Json::parse(&last).expect("summary json")
    };

    let engine = Arc::new(Engine::new(ResultStore::open(&store_dir).expect("open")));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");
    let cold = run_query(&socket);
    assert_eq!(cold.get("simulated").and_then(Json::as_u64), Some(1));
    handle.shutdown();
    drop(engine);

    let engine = Arc::new(Engine::new(ResultStore::open(&store_dir).expect("reopen")));
    assert_eq!(engine.store().len(), 1);
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("rebind");
    let warm = run_query(&socket);
    assert_eq!(warm.get("memo_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(warm.get("simulated").and_then(Json::as_u64), Some(0));
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A second server started on a live server's socket path fails with
/// `AddrInUse` and leaves the first reachable, and the daemon binary
/// refused there leaves no store behind; a socket file that nothing
/// answers on (a dead daemon's) is replaced.
#[test]
fn second_server_cannot_take_over_a_live_socket() {
    let dir = scratch("takeover");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let first = Arc::new(Engine::new(
        ResultStore::open(&dir.join("a")).expect("open a"),
    ));
    let second = Arc::new(Engine::new(
        ResultStore::open(&dir.join("b")).expect("open b"),
    ));
    let handle = server::spawn_unix(Arc::clone(&first), &socket).expect("bind");
    let err = server::spawn_unix(Arc::clone(&second), &socket)
        .err()
        .expect("a second bind on a live socket must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    // The first server still answers, into its own store.
    let req = r#"{"configs": [{"model": "small", "issue": "single"}],
                  "workloads": ["li"], "scale": "test", "mode": "block"}"#;
    client::query_unix(&socket, req, |_| {}).expect("the first server still answers");
    assert_eq!(first.store().len(), 1);
    assert_eq!(second.store().len(), 0);

    // The daemon binary on the live path is refused before it creates
    // (or recovers) its store.
    let fresh_store = dir.join("c");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_aurora-serve"))
        .arg("--store")
        .arg(&fresh_store)
        .arg("--unix")
        .arg(&socket)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run aurora-serve");
    assert!(
        !status.success(),
        "a daemon on a live socket must exit non-zero"
    );
    assert!(
        !fresh_store.exists(),
        "a refused daemon must not create its store"
    );
    client::query_unix(&socket, req, |_| {}).expect("the first server still answers");
    handle.shutdown();

    // A listener dropped without unlinking leaves a stale socket file.
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("raw bind"));
    assert!(socket.exists());
    let handle = server::spawn_unix(Arc::clone(&second), &socket).expect("stale socket replaced");
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The HTTP transport: /health reports the store, /query streams the
/// same NDJSON the unix transport does, bad requests answer error lines.
#[test]
fn http_transport_serves_health_and_queries() {
    let dir = scratch("http");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open"),
    ));
    let (handle, addr) = server::spawn_http(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = addr.to_string();

    let health = client::health_http(&addr).expect("health");
    let health = Json::parse(&health).expect("health json");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("cells").and_then(Json::as_u64), Some(0));

    let mut lines = Vec::new();
    client::query_http(
        &addr,
        r#"{"configs": [{"model": "small", "issue": "dual"}],
            "workloads": ["ear"], "scale": "test", "mode": "sampled"}"#,
        |l| lines.push(l.to_owned()),
    )
    .expect("query");
    assert_eq!(lines.len(), 2, "one cell line plus the summary");
    let cell = Json::parse(&lines[0]).expect("cell json");
    assert_eq!(cell.get("type").and_then(Json::as_str), Some("cell"));
    let stats = cell.get("stats").expect("stats");
    assert!(stats.get("cpi").and_then(Json::as_f64).expect("cpi") > 0.5);
    assert!(stats.get("ci_half_width").and_then(Json::as_f64).is_some());

    // Unknown workloads and malformed JSON both answer an error line
    // (the connection stays usable for the next client either way).
    for bad in [
        r#"{"configs": [{}], "workloads": ["no-such-kernel"], "scale": "test"}"#,
        "this is not json",
    ] {
        let mut lines = Vec::new();
        client::query_http(&addr, bad, |l| lines.push(l.to_owned())).expect("send");
        assert_eq!(lines.len(), 1);
        assert_eq!(client::line_type(&lines[0]).as_deref(), Some("error"));
    }

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Detailed and block modes memoise separately but agree bit-for-bit on
/// statistics (the fingerprints in the cell lines match).
#[test]
fn detailed_and_block_modes_agree() {
    let dir = scratch("modes");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open"),
    ));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");

    let fingerprint_for = |mode: &str| {
        let req = format!(
            r#"{{"configs": [{{"model": "baseline", "issue": "dual"}}],
                 "workloads": ["eqntott"], "scale": "test", "mode": "{mode}"}}"#
        );
        let mut fp = String::new();
        client::query_unix(&socket, &req, |l| {
            let v = Json::parse(l).expect("json");
            if v.get("type").and_then(Json::as_str) == Some("cell") {
                fp = v
                    .get("stats")
                    .and_then(|s| s.get("fingerprint"))
                    .and_then(Json::as_str)
                    .expect("fingerprint")
                    .to_owned();
            }
        })
        .expect("query");
        fp
    };
    let block_fp = fingerprint_for("block");
    let detailed_fp = fingerprint_for("detailed");
    assert_eq!(block_fp, detailed_fp, "modes must agree bit-for-bit");
    assert_eq!(engine.store().len(), 2, "modes memoise as separate cells");
    // Both exact modes are answered by block replay; the per-op oracle
    // on an independent packed capture must agree with them.
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let trace = workload_by_name("eqntott", Scale::Test)
        .expect("kernel")
        .capture()
        .expect("kernel captures");
    let oracle = format!("{:#018x}", replay(&cfg, &trace).fingerprint());
    assert_eq!(block_fp, oracle, "served cells != per-op replay");

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Two cold sampled queries on one kernel, each with a config of its
/// own, walk the daemon's one memoised block trace; both answers must
/// be bit-equal to the oracle, `run_sampled_digest` over an independent
/// packed capture and its warming digest.
#[test]
fn cold_sampled_cells_match_run_sampled() {
    let dir = scratch("sampled");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open"),
    ));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");
    let trace = workload_by_name("compress", Scale::Test)
        .expect("kernel")
        .capture()
        .expect("kernel captures");

    for (model, issue) in [("baseline", "dual"), ("small", "single")] {
        let text = format!(
            r#"{{"configs": [{{"model": "{model}", "issue": "{issue}"}}],
                 "workloads": ["compress"], "scale": "test", "mode": "sampled"}}"#
        );
        let mut lines = Vec::new();
        client::query_unix(&socket, &text, |l| lines.push(l.to_owned())).expect("query");
        let reply = parse_reply(&lines);
        assert_eq!((reply.cells, reply.simulated), (1, 1), "{model}-{issue}");
        let (_, _, cpi, ci_half) = reply.sampled[0];

        let req = QueryRequest::from_json_str(&text).expect("parse");
        let cfg = &req.machine_configs().expect("resolve")[0];
        let digest = WarmDigest::build(trace.records(), cfg.line_bytes);
        let oracle = run_sampled_digest(cfg, &req.sampling, trace.records(), &digest);
        assert!(oracle.windows > 1, "the trace must be long enough to warm");
        assert_eq!(cpi.to_bits(), oracle.cpi.to_bits(), "{model}-{issue} cpi");
        assert_eq!(
            ci_half.to_bits(),
            oracle.ci_half_width.to_bits(),
            "{model}-{issue} ci_half_width"
        );
    }
    assert_eq!(engine.store().len(), 2);

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
