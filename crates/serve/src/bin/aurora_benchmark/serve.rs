//! The serve workloads: an in-process daemon on a primed store, queried
//! over its unix socket by a closed loop of [`CLIENTS`] clients.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aurora_bench::harness::run_cached;
use aurora_core::{
    replay, run_sampled_digest, IssueWidth, MachineModel, SamplingConfig, WarmDigest,
};
use aurora_isa::PackedTrace;
use aurora_mem::LatencyModel;
use aurora_serve::engine::cell_config_fp;
use aurora_serve::json::Json;
use aurora_serve::proto::{CellResult, CellSource, QueryRequest, ResponseLine};
use aurora_serve::{client, server, CellKey, CellValue, Engine, Mode, ResultStore, SampledCell};
use aurora_workloads::{workload_by_name, Scale, TraceStore, Workload};

use crate::gen::{self, client_share, CheckCell, ServePlan, ServeQuery, CLIENTS, PRIMED_CONFIGS};
use crate::spans::{layer_times, Span, Spans};
use crate::stats::{median, percentile, tail_percentile};
use crate::{hex, peak_rss_mb, BenchWorkload, ChildOutput};

/// Queries in a full serve-warm list: every cell a memo hit.
const WARM_QUERIES: usize = 8000;
/// Queries in a full serve-cold list: one novel configuration each.
const COLD_QUERIES: usize = 1200;

fn plan(workload: BenchWorkload, seed: u64) -> ServePlan {
    match workload {
        BenchWorkload::ServeCold => ServePlan::new(seed, true, COLD_QUERIES),
        _ => ServePlan::new(seed, false, WARM_QUERIES),
    }
}

/// Queries a run of `workload` sends to last about `seconds` on a 2-vCPU
/// host, from the rates measured there (roughly 450 warm and 90 cold
/// queries per second). Runs send a fixed amount of work rather than
/// stop at a deadline: serve-cold's peak memory grows with the cells it
/// has answered, so with a deadline a faster daemon would read worse.
pub fn queries_for(workload: BenchWorkload, seconds: f64) -> usize {
    let per_second = match workload {
        BenchWorkload::ServeCold => 90.0,
        _ => 450.0,
    };
    (seconds * per_second).ceil() as usize
}

/// A check cell's configuration and packed trace.
fn cell_input(
    plan: &ServePlan,
    cell: &CheckCell,
) -> Result<(aurora_core::MachineConfig, Arc<PackedTrace>), String> {
    let cfg = plan.configs[cell.config]
        .resolve()
        .map_err(|e| e.to_string())?;
    let w = workload_by_name(cell.kernel, Scale::Test)
        .ok_or_else(|| format!("unknown kernel {}", cell.kernel))?;
    let trace = TraceStore::global()
        .get(&w)
        .map_err(|e| format!("{}: {e}", cell.kernel))?;
    Ok((cfg, trace))
}

/// Primes a store in `store_dir` with every primed configuration × every
/// kernel in all three modes, then computes the references for the
/// run's check cells: a direct `replay` fingerprint for each exact cell,
/// and for each sampled cell a direct `run_sampled_digest` plus the
/// exact CPI. Runs once per invocation, in a process of its own.
pub fn prime(workload: BenchWorkload, seed: u64, store_dir: &Path) -> Result<Json, String> {
    let plan = plan(workload, seed);
    let engine = Engine::new(ResultStore::open(store_dir).map_err(|e| e.to_string())?);
    for text in plan.prime_requests() {
        let req = QueryRequest::from_json_str(&text).map_err(|e| e.to_string())?;
        let summary = engine
            .execute(&req, &mut |_| {})
            .map_err(|e| e.to_string())?;
        if summary.cells != PRIMED_CONFIGS * gen::kernel_names().len() {
            return Err(format!("priming answered {} cells", summary.cells));
        }
    }
    let mut exact = Vec::new();
    for cell in &plan.exact_checks {
        let (cfg, trace) = cell_input(&plan, cell)?;
        exact.push(Json::Str(hex(replay(&cfg, &trace).fingerprint())));
    }
    let sampling = SamplingConfig::recommended();
    let mut sampled = Vec::new();
    let mut errors = Vec::new();
    for cell in &plan.sampled_checks {
        let (cfg, trace) = cell_input(&plan, cell)?;
        let digest = WarmDigest::build(trace.records(), cfg.line_bytes);
        let est = run_sampled_digest(&cfg, &sampling, trace.records(), &digest);
        let exact_cpi = replay(&cfg, &trace).cpi();
        errors.push((est.cpi - exact_cpi).abs() / exact_cpi * 100.0);
        sampled.push(Json::Arr(vec![
            Json::Num(est.cpi),
            Json::Num(est.ci_half_width),
        ]));
    }
    let accuracy = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    Ok(aurora_serve::json::obj([
        ("exact", Json::Arr(exact)),
        ("sampled", Json::Arr(sampled)),
        ("sampled_cpi_err_pct", Json::Num(accuracy)),
    ]))
}

/// A check cell's answer as read off the socket.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Exact(String),
    Sampled(f64, f64),
}

impl Answer {
    fn to_json(&self) -> Json {
        match self {
            Answer::Exact(fp) => Json::Str(fp.clone()),
            Answer::Sampled(cpi, ci) => Json::Arr(vec![Json::Num(*cpi), Json::Num(*ci)]),
        }
    }
}

type AnswerKey = (usize, &'static str, u8);

/// One client's share of the closed loop.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    completed: Vec<usize>,
    /// `(seconds since the loop started, instructions answered)` per
    /// completed query.
    answered: Vec<(f64, u64)>,
    failed: u64,
    answers: BTreeMap<AnswerKey, Answer>,
    end_s: f64,
}

/// Checks one reply against what its query must produce, returning the
/// instructions its cells cover. Answers of cells in the check prefix
/// are kept in `answers`.
fn check_reply(
    q: &ServeQuery,
    lines: &[String],
    answers: Option<&mut BTreeMap<AnswerKey, Answer>>,
) -> Result<u64, String> {
    let mut kept = Vec::new();
    let mut cells = 0usize;
    let mut instructions = 0u64;
    let mut summary = None;
    for line in lines {
        let v = Json::parse(line).map_err(|e| format!("bad reply line: {e}"))?;
        match v.get("type").and_then(Json::as_str) {
            Some("cell") => {
                cells += 1;
                let stats = v.get("stats").ok_or("cell without stats")?;
                instructions += stats
                    .get("instructions")
                    .and_then(Json::as_u64)
                    .ok_or("cell without instructions")?;
                let config = v
                    .get("config")
                    .and_then(Json::as_u64)
                    .and_then(|i| q.configs.get(usize::try_from(i).ok()?))
                    .ok_or("cell names no config of the query")?;
                let name = v.get("workload").and_then(Json::as_str);
                let kernel = q
                    .kernels
                    .iter()
                    .find(|k| Some(**k) == name)
                    .ok_or("cell names no kernel of the query")?;
                let answer = match q.mode {
                    Mode::Sampled => Answer::Sampled(
                        stats.get("cpi").and_then(Json::as_f64).ok_or("no cpi")?,
                        stats
                            .get("ci_half_width")
                            .and_then(Json::as_f64)
                            .ok_or("no ci_half_width")?,
                    ),
                    Mode::Block | Mode::Detailed => Answer::Exact(
                        stats
                            .get("fingerprint")
                            .and_then(Json::as_str)
                            .ok_or("no fingerprint")?
                            .to_owned(),
                    ),
                };
                kept.push(((*config, *kernel, q.mode.code()), answer));
            }
            Some("summary") => {
                let field = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                summary = Some([field("cells"), field("memo_hits"), field("simulated")]);
            }
            Some("error") => return Err(format!("daemon answered an error: {line}")),
            _ => return Err(format!("unexpected reply line: {line}")),
        }
    }
    let want_sim = q.expected_simulated() as u64;
    let want = [q.cells() as u64, q.cells() as u64 - want_sim, want_sim];
    if summary != Some(want) || cells != q.cells() {
        return Err(format!(
            "expected {cells:?} cell lines and [cells, memo_hits, simulated] = {want:?}, got {summary:?}",
            cells = q.cells()
        ));
    }
    if let Some(answers) = answers {
        answers.extend(kept);
    }
    Ok(instructions)
}

/// One client: send its share of the first `sent` queries of the list in
/// order, one query at a time.
fn client_loop(
    c: usize,
    plan: &ServePlan,
    sent: usize,
    socket: &Path,
    start: Instant,
) -> ClientLog {
    let prefix = plan.check_prefix();
    let mut log = ClientLog::default();
    for qi in client_share(sent.min(plan.queries.len()), c) {
        let q = &plan.queries[qi];
        let mut lines = Vec::new();
        let mut done_at = None;
        let sent = Instant::now();
        let outcome = client::query_unix(socket, &q.text, |line| {
            if line.contains("\"type\":\"summary\"") {
                done_at = Some(sent.elapsed());
            }
            lines.push(line.to_owned());
        })
        .map_err(|e| format!("transport: {e}"))
        .and_then(|()| check_reply(q, &lines, (qi < prefix).then_some(&mut log.answers)));
        match outcome {
            Ok(instructions) => {
                log.answered
                    .push((start.elapsed().as_secs_f64(), instructions));
                let latency = done_at.unwrap_or_else(|| sent.elapsed());
                log.latencies_ms.push(latency.as_secs_f64() * 1e3);
                log.completed.push(qi);
            }
            Err(e) => {
                eprintln!("query {qi}: {e}");
                log.failed += 1;
            }
        }
    }
    log.end_s = start.elapsed().as_secs_f64();
    log
}

/// Seconds per throughput window.
const WINDOW_S: f64 = 0.5;

/// Answered instructions per second (in millions) in each whole
/// half-second window of the loop, so that taking the median lets a
/// transient host slowdown move a window rather than the run. A loop
/// shorter than one window yields its plain average.
fn window_mips(answered: &[(f64, u64)], wall_s: f64) -> Vec<f64> {
    let windows = (wall_s / WINDOW_S) as usize;
    if windows == 0 {
        let total: u64 = answered.iter().map(|&(_, n)| n).sum();
        return vec![total as f64 / wall_s.max(1e-9) / 1e6];
    }
    let mut sums = vec![0u64; windows];
    for &(t, n) in answered {
        if let Some(s) = sums.get_mut((t / WINDOW_S) as usize) {
            *s += n;
        }
    }
    sums.iter().map(|&s| s as f64 / WINDOW_S / 1e6).collect()
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One run in a fresh process: set the daemon up on a copy of the primed
/// store, send the first `queries` of the list (all of it for `None`,
/// and never fewer than the check prefix) in a closed loop, and (traced)
/// replay the answered queries in-process with a span around each call.
pub fn child(
    workload: BenchWorkload,
    seed: u64,
    traced: bool,
    queries: Option<usize>,
    primed: &Path,
    dir: &Path,
) -> Result<ChildOutput, String> {
    let plan = plan(workload, seed);
    let sent = queries.map_or(plan.queries.len(), |n| n.max(plan.check_prefix()));
    let store_dir = dir.join("store");
    copy_store(primed, &store_dir)?;
    let socket = dir.join("serve.sock");
    let spans = Spans::new(traced);
    let kernels = gen::kernel_names();

    let t0 = Instant::now();
    let store = spans
        .time("serve.store_open", 0, || ResultStore::open(&store_dir))
        .map_err(|e| e.to_string())?;
    let store_records = store.len();
    let engine = Arc::new(Engine::new(store));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).map_err(|e| e.to_string())?;
    // Trace warm-up through the harness API: capture, then lower inside
    // the first cached run. A traced run times a second, memoised run
    // too, counts the first one's excess over it as lowering, and leaves
    // the second run out of set-up.
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let (mut captured_ops, mut lower_s, mut probe_s) = (0usize, 0.0, 0.0);
    for (i, name) in kernels.iter().enumerate() {
        let i = i as u64;
        let w = spans
            .time("workloads.assemble", i, || {
                workload_by_name(name, Scale::Test)
            })
            .ok_or_else(|| format!("unknown kernel {name}"))?;
        let trace = spans.time("isa.capture", i, || TraceStore::global().get(&w));
        captured_ops += trace.map_err(|e| format!("{name}: {e}"))?.len();
        let timed_run = |w: &Workload| {
            let t = Instant::now();
            run_cached(&cfg, w);
            t.elapsed().as_secs_f64()
        };
        let first = spans.time("harness.run_cached", i, || timed_run(&w));
        if traced {
            let again = spans.time("harness.run_cached", i, || timed_run(&w));
            lower_s += (first - again).max(0.0);
            probe_s += again;
        }
    }
    let setup_s = t0.elapsed().as_secs_f64() - probe_s;

    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (plan, socket) = (&plan, &socket);
                scope.spawn(move || client_loop(c, plan, sent, socket, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    handle.shutdown();
    let wall_s = logs.iter().map(|l| l.end_s).fold(0.0, f64::max);
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms.clone()).collect();
    let mut answers = BTreeMap::new();
    let mut completed = Vec::new();
    for log in &logs {
        answers.extend(log.answers.clone());
        completed.extend(&log.completed);
    }
    completed.sort_unstable();
    let p50 = median(&latencies).unwrap_or(0.0);
    let answer = |c: &CheckCell| {
        answers
            .get(&(c.config, c.kernel, c.mode.code()))
            .map_or(Json::Null, Answer::to_json)
    };
    let tail = tail_percentile(latencies.len());
    let tail_ms = tail.and_then(|p| percentile(&latencies, p)).unwrap_or(0.0);

    let answered: Vec<(f64, u64)> = logs.iter().flat_map(|l| l.answered.clone()).collect();
    let samples = BTreeMap::from([
        ("setup_s", vec![setup_s]),
        ("answer_mips", window_mips(&answered, wall_s)),
        ("answer_p50_ms", latencies.clone()),
        ("peak_rss_mb", vec![peak_rss_mb()]),
        ("tail_ms", vec![tail_ms]),
        (
            "queries_per_s",
            vec![completed.len() as f64 / wall_s.max(1e-9)],
        ),
    ]);

    let mut layers = BTreeMap::new();
    let mut span_list = Vec::new();
    if traced {
        let totals = replay_in_process(&plan, &completed, primed, dir, &spans)?;
        span_list = spans.into_spans();
        let times = layer_times(&span_list);
        let total = |name: &str| times.get(name).map_or(0.0, |t| t.total_s);
        let per_call = |name: &str| times.get(name).map_or(0.0, |t| t.median_us);
        layers.insert("workloads.assemble_s", total("workloads.assemble"));
        layers.insert("isa.capture_s", total("isa.capture"));
        layers.insert(
            "isa.capture_minstr_per_s",
            captured_ops as f64 / total("isa.capture").max(1e-9) / 1e6,
        );
        layers.insert("isa.lower_s", lower_s);
        layers.insert("isa.lowerings", TraceStore::global().lowerings() as f64);
        layers.insert("serve.store_open_s", total("serve.store_open"));
        layers.insert("serve.store_records", store_records as f64);
        for (metric, span) in [
            ("serve.parse_us", "serve.parse"),
            ("serve.resolve_us", "serve.resolve"),
            ("serve.memo_get_us", "serve.memo_get"),
            ("serve.encode_us", "serve.encode"),
            ("serve.execute_us", "serve.execute"),
            ("serve.store_put_us", "serve.store_put"),
        ] {
            layers.insert(metric, per_call(span));
        }
        layers.insert(
            "serve.transport_us",
            p50 * 1e3 - in_process_p50_us(&span_list),
        );
        layers.insert("serve.queries", completed.len() as f64);
        layers.insert("serve.cells", totals.cells as f64);
        layers.insert(
            "serve.memo_hit_ratio",
            totals.memo_hits as f64 / totals.cells.max(1) as f64,
        );
        layers.insert("serve.simulate_s", totals.simulate_s);
        layers.insert("serve.cells_simulated", totals.simulated as f64);
        layers.insert(
            "serve.pool_parallelism",
            totals.pool_busy_s / totals.simulate_s.max(1e-9),
        );
        layers.insert("serve.store_bytes", dir_bytes(&dir.join("put-store")));
    }
    let attempted = logs
        .iter()
        .map(|l| l.completed.len() as u64 + l.failed)
        .sum();
    Ok(ChildOutput {
        samples,
        layers,
        attempted,
        failed: logs.iter().map(|l| l.failed).sum(),
        pool_threads: aurora_bench::harness::sweep_threads(usize::MAX),
        extra: vec![
            ("latencies", Json::Num(latencies.len() as f64)),
            ("tail_pct", Json::Num(tail.unwrap_or(0.0))),
            (
                "exact",
                Json::Arr(plan.exact_checks.iter().map(answer).collect()),
            ),
            (
                "sampled",
                Json::Arr(plan.sampled_checks.iter().map(answer).collect()),
            ),
        ],
        spans: span_list,
    })
}

/// Totals over the in-process replay's query summaries.
#[derive(Default)]
struct ReplayTotals {
    cells: usize,
    memo_hits: usize,
    simulated: usize,
    simulate_s: f64,
    pool_busy_s: f64,
}

/// Median over queries of the daemon's own work per query (parse plus
/// execute), in microseconds.
fn in_process_p50_us(spans: &[Span]) -> f64 {
    let mut per_query: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.name == "serve.parse" || s.name == "serve.execute" {
            *per_query.entry(s.request).or_default() += s.seconds() * 1e6;
        }
    }
    median(&per_query.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn dir_bytes(dir: &Path) -> f64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Replays the answered queries single-threaded against a fresh copy of
/// the primed store, with a span around each public call on the query
/// path. Cold values are also appended to a scratch store, to time the
/// store's append on its own.
fn replay_in_process(
    plan: &ServePlan,
    completed: &[usize],
    primed: &Path,
    dir: &Path,
    spans: &Spans,
) -> Result<ReplayTotals, String> {
    let mut totals = ReplayTotals::default();
    let store_dir = dir.join("replay-store");
    copy_store(primed, &store_dir)?;
    let engine = Engine::new(ResultStore::open(&store_dir).map_err(|e| e.to_string())?);
    let scratch = ResultStore::open(&dir.join("put-store")).map_err(|e| e.to_string())?;
    for &qi in completed {
        let q = &plan.queries[qi];
        let r = qi as u64;
        let req = spans
            .time("serve.parse", r, || QueryRequest::from_json_str(&q.text))
            .map_err(|e| e.to_string())?;
        let (fps, hashes) = spans.time("serve.resolve", r, || {
            let configs = req.machine_configs().map_err(|e| e.to_string())?;
            let fps: Vec<u64> = configs
                .iter()
                .map(|cfg| cell_config_fp(cfg, req.mode, &req.sampling))
                .collect();
            let hashes = req
                .workloads
                .iter()
                .map(|name| {
                    workload_by_name(name, req.scale)
                        .map(|w| (name.clone(), w.trace_hash()))
                        .ok_or_else(|| format!("unknown kernel {name}"))
                })
                .collect::<Result<BTreeMap<String, u64>, String>>()?;
            Ok::<_, String>((fps, hashes))
        })?;
        for &trace_hash in hashes.values() {
            for &config_fp in &fps {
                let key = CellKey {
                    config_fp,
                    trace_hash,
                    mode: req.mode,
                };
                spans.time("serve.memo_get", r, || engine.store().get(&key));
            }
        }
        let mut cold: Vec<(CellKey, CellValue)> = Vec::new();
        let summary = spans.time("serve.execute", r, || {
            engine.execute(&req, &mut |line: &ResponseLine| {
                spans.time("serve.encode", r, || line.to_json().to_string());
                if let ResponseLine::Cell {
                    config_index,
                    workload,
                    source: CellSource::Simulated,
                    result,
                    ..
                } = line
                {
                    let (Some(&config_fp), Some(&trace_hash)) =
                        (fps.get(*config_index), hashes.get(workload))
                    else {
                        return;
                    };
                    let key = CellKey {
                        config_fp,
                        trace_hash,
                        mode: req.mode,
                    };
                    cold.push((key, cell_value(result)));
                }
            })
        });
        let summary = summary.map_err(|e| e.to_string())?;
        if summary.simulated != cold.len() {
            return Err(format!(
                "query {qi}: {} cold cells streamed, the summary says {}",
                cold.len(),
                summary.simulated
            ));
        }
        totals.cells += summary.cells;
        totals.memo_hits += summary.memo_hits;
        totals.simulated += summary.simulated;
        totals.simulate_s += summary.cold_wall_seconds;
        totals.pool_busy_s += summary.cold_wall_seconds * summary.achieved_parallelism;
        for (key, value) in &cold {
            spans
                .time("serve.store_put", r, || scratch.put(key, value))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(totals)
}

fn cell_value(result: &CellResult) -> CellValue {
    match result {
        CellResult::Exact(stats) => CellValue::Exact(stats.clone()),
        CellResult::Sampled(s) => CellValue::Sampled(SampledCell {
            instructions: s.instructions,
            detailed_instructions: s.detailed_instructions,
            windows: s.windows as u64,
            cpi_bits: s.cpi.to_bits(),
            ci_bits: s.ci_half_width.to_bits(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_counted_per_whole_window() {
        // Three whole windows answering 1, 9 and 2 Minstr, plus a partial
        // fourth that is dropped.
        let answered = [
            (0.1, 1_000_000),
            (0.6, 4_000_000),
            (0.9, 5_000_000),
            (1.2, 2_000_000),
            (1.6, 7_000_000),
        ];
        assert_eq!(window_mips(&answered, 1.7), [2.0, 18.0, 4.0]);
        assert_eq!(window_mips(&[(0.1, 3_000_000)], 0.3), [10.0]);
    }
}
