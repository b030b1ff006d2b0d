//! Metric definitions, the commands' output, and `compare`.
//!
//! `BENCHMARK.json` at the repository root is the one definition of the
//! benchmark: its workload names, metric names, units, directions and
//! bounds are compiled in from there, so the file, this program's
//! output and `compare`'s verdicts cannot drift apart.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use aurora_serve::json::{obj, Json};

use crate::gen::CLIENTS;
use crate::runner::{measure, Budget, Measured, SweepBudget};
use crate::serve;
use crate::stats::{median, verdict, Summary, Verdict};
use crate::BenchWorkload;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Untraced serve children per `run` measurement.
const SERVE_RUNS: usize = 5;
/// Untraced serve children per `--seconds` measurement, each sending a
/// third of its time's worth of queries. Runs this long cover enough of
/// the list that serve-cold's peak memory, which grows with the cells
/// answered, does not hang on a short prefix.
const MEASURE_SERVE_RUNS: usize = 3;
/// Untraced sweep children per `run` measurement.
const SWEEP_RUNS: usize = 8;
/// Seconds each sweep child of `run` lasts: it replays warm passes after
/// its cold sweep until then, so that each cell's fastest replay is the
/// best of several rather than of one.
const RUN_SWEEP_SECONDS: f64 = 6.0;
/// Untraced sweep children per `--seconds` measurement. Each sets the
/// grid up, so `setup_s` is the median of this many set-ups. Only the
/// last sweeps the whole grid, cold and then warm for the rest of the
/// time, so that each cell's fastest replay is the best of as many as
/// the time allows.
const MEASURE_SWEEP_RUNS: usize = 5;
/// Most samples `compare` accepts for one metric: far more runs than
/// this program makes, so a longer list is not one of its result files.
const MAX_SAMPLES: usize = 10_000;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by; 0 for
    /// per-layer metrics, which have no bound.
    pub bound: f64,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Definition {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// Parses the compiled-in `BENCHMARK.json`.
///
/// # Panics
///
/// If the file is not the shape this program expects — a bug in
/// the checked-in file, caught by this module's tests.
pub fn definition() -> Definition {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let metrics = |key: &str| -> Vec<MetricDef> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| MetricDef {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_owned(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .expect("metric unit")
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            })
            .collect()
    };
    Definition {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds"),
        workloads: doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// The metrics that `run` records and `compare` judges for one kind of
/// workload only, beside `BENCHMARK.json`'s. They cannot live there:
/// a measurement's result line carries every end-to-end metric of that
/// file on every workload, and none may be zero. Where such a metric is
/// already one of that file's on this kind of workload it is not
/// repeated: a sweep's warm replay speed is its `answer_mips`, and a
/// query's median latency is its `answer_p50_ms`.
///
/// A throughput takes `answer_mips`'s bound and a latency takes
/// `answer_p50_ms`'s, so that `BENCHMARK.json` holds every timing bound.
pub fn kind_metrics(workload: BenchWorkload, defs: &Definition) -> Vec<MetricDef> {
    let bound_of = |name: &str| {
        defs.end_to_end
            .iter()
            .find(|d| d.name == name)
            .map_or(0.0, |d| d.bound)
    };
    let (throughput, latency) = (bound_of("answer_mips"), bound_of("answer_p50_ms"));
    let def = |name: &str, unit: &str, lower_is_better, bound| MetricDef {
        name: name.to_owned(),
        unit: unit.to_owned(),
        lower_is_better,
        bound,
    };
    if workload.is_sweep() {
        vec![def("sweep_cold_mips", "Minstr/s", false, throughput)]
    } else {
        vec![
            def("tail_ms", "ms", true, latency),
            def("queries_per_s", "q/s", false, throughput),
            // Deterministic per seed: any worsening is a regression.
            def("sampled_cpi_err_pct", "%", true, 0.0),
        ]
    }
}

/// A fresh scratch directory for this process's children, inside the
/// working directory.
fn scratch_dir() -> PathBuf {
    Path::new("target")
        .join("aurora_benchmark")
        .join(std::process::id().to_string())
}

/// Measures each workload in turn, removing the scratch files after.
fn measure_all(
    workloads: &[BenchWorkload],
    seed: u64,
    budget: impl Fn(BenchWorkload) -> Budget,
    traced: bool,
    spans_path: impl Fn(BenchWorkload) -> Option<PathBuf>,
) -> Result<Vec<Measured>, String> {
    let scratch = scratch_dir();
    let result = workloads
        .iter()
        .map(|&w| {
            let spans = spans_path(w);
            measure(
                w,
                seed,
                budget(w),
                traced,
                &scratch.join(w.name()),
                spans.as_deref(),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

/// The traced run's per-layer metrics: every `per_layer` metric of
/// `BENCHMARK.json`, zero where the workload's path has no such layer.
///
/// Tracing overhead compares `answer_p50_ms`, whose path is the same
/// traced or not; a traced sweep captures its kernels one by one before
/// the cold sweep, so its cold numbers differ by design. Both sweep
/// runs make one warm pass, so that like is compared with like.
fn per_layer(m: &Measured, defs: &Definition) -> BTreeMap<String, f64> {
    let traced = m.traced.as_ref();
    let untraced = median(&m.samples("answer_p50_ms"));
    let traced_p50 = traced.and_then(|t| t.metrics.get("answer_p50_ms").copied());
    defs.per_layer
        .iter()
        .map(|d| {
            let v = match d.name.as_str() {
                "trace_overhead_pct" => match (untraced, traced_p50) {
                    (Some(u), Some(t)) if u > 0.0 => (t / u - 1.0) * 100.0,
                    _ => 0.0,
                },
                "serve.sampled_cpi_err_pct" => m.sampled_cpi_err_pct.unwrap_or(0.0),
                name => traced
                    .and_then(|t| t.layers.get(name).copied())
                    .unwrap_or(0.0),
            };
            (d.name.clone(), v)
        })
        .collect()
}

/// One measurement: measure one workload for about `seconds` and print
/// the result line.
pub fn measure_command(
    workload: BenchWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<i32, String> {
    let defs = definition();
    // Sweeps: cold processes, the last replaying warm passes until the time
    // is up. Serve: a fixed number of processes sharing the time, so each
    // run sets up anew.
    let budget = match (workload.is_sweep(), traced) {
        (true, false) => Budget {
            runs: MEASURE_SWEEP_RUNS,
            sweep: SweepBudget::Shared(seconds),
            queries: None,
        },
        (true, true) => Budget {
            runs: 1,
            sweep: SweepBudget::Each(0.0),
            queries: None,
        },
        (false, _) => Budget {
            runs: if traced { 1 } else { MEASURE_SERVE_RUNS },
            sweep: SweepBudget::Each(0.0),
            queries: Some(serve::queries_for(
                workload,
                seconds / MEASURE_SERVE_RUNS as f64,
            )),
        },
    };
    let spans = |w: BenchWorkload| {
        traced.then(|| {
            Path::new("target").join(format!(
                "aurora_benchmark-{}-seed{seed}.spans.ndjson",
                w.name()
            ))
        })
    };
    let m = measure_all(&[workload], seed, |_| budget, traced, spans)?
        .pop()
        .ok_or("nothing measured")?;
    let metrics: Vec<(String, f64, &str)> = if traced {
        let layers = per_layer(&m, &defs);
        defs.per_layer
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    layers.get(&d.name).copied().unwrap_or(0.0),
                    d.unit.as_str(),
                )
            })
            .collect()
    } else {
        defs.end_to_end
            .iter()
            .map(|d| {
                let v = median(&m.pooled(&d.name)).unwrap_or(0.0);
                (d.name.clone(), v, d.unit.as_str())
            })
            .collect()
    };
    let line = obj([
        ("correct", Json::Bool(m.failed == 0)),
        ("attempted", num(m.attempted.max(1) as f64)),
        ("failed", num(m.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v, unit)| {
                        (
                            k,
                            obj([("value", num(v)), ("unit", Json::Str(unit.to_owned()))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
    Ok(0)
}

/// Host and build facts every result file records.
fn header(kind: &str, seed: u64, measured: &[Measured]) -> BTreeMap<String, Json> {
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = measured.iter().map(|m| m.pool_threads).max().unwrap_or(0);
    [
        ("kind", Json::Str(kind.to_owned())),
        ("seed", num(seed as f64)),
        ("host_cores", num(cores as f64)),
        ("pool_threads", num(pool as f64)),
        ("client_threads", num(CLIENTS as f64)),
        ("connections", num(CLIENTS as f64)),
        ("git_rev", Json::Str(output("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(output("rustc", &["-V"]))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

fn summary_json(samples: &[f64], unit: &str) -> Json {
    let s = Summary::of(samples).unwrap_or(Summary {
        median: 0.0,
        q1: 0.0,
        q3: 0.0,
        n: 0,
    });
    obj([
        ("unit", Json::Str(unit.to_owned())),
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", num(s.n as f64)),
        (
            "samples",
            Json::Arr(samples.iter().map(|&x| num(x)).collect()),
        ),
    ])
}

fn write_file(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
}

/// `run`: measures each workload as repeated cold runs, prints every
/// end-to-end metric, writes the result file, and fails if any check
/// failed.
pub fn run_command(workloads: &[BenchWorkload], seed: u64, out: &str) -> Result<i32, String> {
    let defs = definition();
    let budget = |w: BenchWorkload| Budget {
        runs: if w.is_sweep() { SWEEP_RUNS } else { SERVE_RUNS },
        sweep: SweepBudget::Each(RUN_SWEEP_SECONDS),
        queries: None,
    };
    let measured = measure_all(workloads, seed, budget, false, |_| None)?;
    let mut doc = header("run", seed, &measured);
    let mut per_workload = BTreeMap::new();
    for m in &measured {
        println!(
            "{} ({} runs, seed {seed}): stats_digest {}, failed {}/{}",
            m.workload.name(),
            m.runs.len(),
            m.digest,
            m.failed,
            m.attempted
        );
        let mut metrics = BTreeMap::new();
        for d in defs
            .end_to_end
            .iter()
            .chain(&kind_metrics(m.workload, &defs))
        {
            let samples = match d.name.as_str() {
                "sampled_cpi_err_pct" => m.sampled_cpi_err_pct.into_iter().collect(),
                name => m.samples(name),
            };
            if let Some(s) = Summary::of(&samples) {
                println!(
                    "  {:<19} {:>12.4} {:<9} [{:.4}, {:.4}] n={}",
                    d.name, s.median, d.unit, s.q1, s.q3, s.n
                );
            }
            metrics.insert(d.name.clone(), summary_json(&samples, &d.unit));
        }
        let mut entry = obj([
            ("runs", num(m.runs.len() as f64)),
            ("attempted", num(m.attempted as f64)),
            ("failed", num(m.failed as f64)),
            (
                "failed_frac",
                num(m.failed as f64 / m.attempted.max(1) as f64),
            ),
            ("stats_digest", Json::Str(m.digest.clone())),
            ("metrics", Json::Obj(metrics)),
        ]);
        if !m.workload.is_sweep() {
            let pct = median(&m.field("tail_pct")).unwrap_or(0.0);
            println!(
                "  tail_ms is p{pct}, from {} latencies per run",
                median(&m.field("latencies")).unwrap_or(0.0)
            );
            if let Json::Obj(e) = &mut entry {
                e.insert("tail_pct".to_owned(), num(pct));
            }
        }
        per_workload.insert(m.workload.name().to_owned(), entry);
    }
    doc.insert("workloads".to_owned(), Json::Obj(per_workload));
    write_file(out, &Json::Obj(doc))?;
    println!("wrote {out}");
    let failed = measured.iter().any(|m| m.failed > 0);
    Ok(i32::from(failed))
}

/// `trace`: for each workload, one untraced and one traced run. Writes
/// the per-layer metrics, per-span self times and the tracing overhead
/// to `out`, and each workload's spans beside it as NDJSON. Serve runs
/// send as many queries as the serve runs of a `--seconds` measurement.
pub fn trace_command(workloads: &[BenchWorkload], seed: u64, out: &str) -> Result<i32, String> {
    let defs = definition();
    let spans_path =
        |w: BenchWorkload| Some(PathBuf::from(format!("{out}.{}.spans.ndjson", w.name())));
    let budget = |w| Budget {
        runs: 1,
        sweep: SweepBudget::Each(0.0),
        queries: Some(serve::queries_for(
            w,
            defs.run_seconds / MEASURE_SERVE_RUNS as f64,
        )),
    };
    let measured = measure_all(workloads, seed, budget, true, spans_path)?;
    let mut doc = header("trace", seed, &measured);
    let mut per_workload = BTreeMap::new();
    for m in &measured {
        let layers = per_layer(m, &defs);
        let spans_file = spans_path(m.workload).unwrap_or_default();
        let span_table = m
            .traced
            .as_ref()
            .and_then(|t| t.raw.get("span_table"))
            .cloned()
            .unwrap_or(Json::Null);
        println!(
            "{} (seed {seed}, failed {}/{})",
            m.workload.name(),
            m.failed,
            m.attempted
        );
        let pick = |r: Option<&BTreeMap<String, f64>>| {
            Json::Obj(
                defs.end_to_end
                    .iter()
                    .filter_map(|d| Some((d.name.clone(), num(*r?.get(&d.name)?))))
                    .collect(),
            )
        };
        for d in &defs.per_layer {
            println!(
                "  {:<28} {:>14.4} {}",
                d.name,
                layers.get(&d.name).copied().unwrap_or(0.0),
                d.unit
            );
        }
        println!(
            "  {:<28} {:>8} {:>12} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s", "median_us"
        );
        if let Json::Obj(rows) = &span_table {
            for (name, t) in rows {
                let f = |k: &str| t.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "  {name:<28} {:>8} {:>12.6} {:>12.6} {:>12.3}",
                    f("calls"),
                    f("total_s"),
                    f("self_s"),
                    f("median_us")
                );
            }
        }
        let entry = obj([
            ("untraced", pick(m.runs.first().map(|r| &r.metrics))),
            ("traced", pick(m.traced.as_ref().map(|r| &r.metrics))),
            (
                "per_layer",
                Json::Obj(layers.into_iter().map(|(k, v)| (k, num(v))).collect()),
            ),
            ("spans", span_table),
            (
                "span_file",
                Json::Str(spans_file.to_string_lossy().into_owned()),
            ),
            ("attempted", num(m.attempted as f64)),
            ("failed", num(m.failed as f64)),
            ("stats_digest", Json::Str(m.digest.clone())),
        ]);
        per_workload.insert(m.workload.name().to_owned(), entry);
    }
    doc.insert("workloads".to_owned(), Json::Obj(per_workload));
    write_file(out, &Json::Obj(doc))?;
    println!("wrote {out}");
    Ok(i32::from(measured.iter().any(|m| m.failed > 0)))
}

/// `compare A B`: one row per workload × metric (`BENCHMARK.json`'s
/// end-to-end metrics, then the workload's [`kind_metrics`]) with each
/// side's median and quartiles, the bound, and a verdict. A changed
/// `stats_digest`, any failed check, or a workload either file lacks is
/// always a failure. Exits 0 only when every row reads `ok`.
pub fn compare_command(a: &str, b: &str) -> Result<i32, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (bad, unresolved) = compare_docs(&load(a)?, &load(b)?, &definition())?;
    println!("{bad} failing row(s), {unresolved} unresolved");
    Ok(i32::from(bad + unresolved > 0))
}

/// Prints `compare`'s rows for result documents `da` and `db`, and
/// returns how many rows fail and how many are unresolved.
fn compare_docs(da: &Json, db: &Json, defs: &Definition) -> Result<(usize, usize), String> {
    let mut bad = 0usize;
    let mut unresolved = 0usize;
    println!(
        "{:<12} {:<19} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    for w in &defs.workloads {
        let kind = BenchWorkload::from_name(w).ok_or_else(|| format!("unknown workload {w}"))?;
        let (Some(wa), Some(wb)) = (
            da.get("workloads").and_then(|x| x.get(w)),
            db.get("workloads").and_then(|x| x.get(w)),
        ) else {
            println!("{w:<12} {:<19} {:>70}  missing", "(workload)", "");
            bad += 1;
            continue;
        };
        for d in defs.end_to_end.iter().chain(&kind_metrics(kind, defs)) {
            let samples = |x: &Json| -> Vec<f64> {
                x.get("metrics")
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("samples"))
                    .and_then(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let (sa, sb) = (samples(wa), samples(wb));
            if sa.len().max(sb.len()) > MAX_SAMPLES {
                return Err(format!("{w}/{} has too many samples", d.name));
            }
            let v = verdict(&sa, &sb, d.lower_is_better, d.bound);
            match v {
                Verdict::Regressed => bad += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let fmt = |s: &[f64]| {
                Summary::of(s).map_or_else(
                    || "-".to_owned(),
                    |s| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3),
                )
            };
            println!(
                "{w:<12} {:<19} {:>30} {:>30} {:>5.0}%  {}",
                d.name,
                fmt(&sa),
                fmt(&sb),
                d.bound * 100.0,
                v.name()
            );
        }
        let text = |x: &Json, k: &str| x.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let (ga, gb) = (text(wa, "stats_digest"), text(wb, "stats_digest"));
        let digest_ok = !ga.is_empty() && ga == gb;
        println!(
            "{w:<12} {:<19} {ga:>30} {gb:>30} {:>6}  {}",
            "stats_digest",
            "",
            if digest_ok { "ok" } else { "changed" }
        );
        let failed = |x: &Json| x.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (fa, fb) = (failed(wa), failed(wb));
        let failed_ok = fa == 0.0 && fb == 0.0;
        println!(
            "{w:<12} {:<19} {fa:>30} {fb:>30} {:>6}  {}",
            "failed",
            "",
            if failed_ok { "ok" } else { "failed" }
        );
        bad += usize::from(!digest_ok) + usize::from(!failed_ok);
    }
    Ok((bad, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_program() {
        let defs = definition();
        let names: Vec<&str> = BenchWorkload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(defs.workloads, names);
        let e2e: Vec<&str> = defs.end_to_end.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            e2e,
            ["setup_s", "answer_mips", "answer_p50_ms", "peak_rss_mb"]
        );
        let setup = &defs.end_to_end[0];
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        let largest = defs.end_to_end.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!(defs
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(defs.per_layer.iter().all(|d| d.bound == 0.0));
        assert!(defs.per_layer.len() >= 20);
    }

    /// A result file as `run` writes it, for `workloads`, with every
    /// metric reading `value` in each of three runs.
    fn result_doc(workloads: &[BenchWorkload], value: f64, defs: &Definition) -> Json {
        let per = workloads
            .iter()
            .map(|&w| {
                let metrics = defs
                    .end_to_end
                    .iter()
                    .chain(&kind_metrics(w, defs))
                    .map(|d| (d.name.clone(), summary_json(&[value; 3], &d.unit)))
                    .collect();
                let entry = obj([
                    ("failed", num(0.0)),
                    ("stats_digest", Json::Str("0x1".to_owned())),
                    ("metrics", Json::Obj(metrics)),
                ]);
                (w.name().to_owned(), entry)
            })
            .collect();
        obj([("workloads", Json::Obj(per))])
    }

    #[test]
    fn compare_fails_on_a_missing_workload_or_a_regression() {
        let defs = definition();
        let all = result_doc(&BenchWorkload::ALL, 1.0, &defs);
        assert_eq!(compare_docs(&all, &all, &defs), Ok((0, 0)));
        let partial = result_doc(&BenchWorkload::ALL[..3], 1.0, &defs);
        assert_eq!(compare_docs(&all, &partial, &defs), Ok((1, 0)));
        assert_eq!(compare_docs(&partial, &all, &defs), Ok((1, 0)));
        // Everything doubled: each lower-is-better metric regresses, and
        // each higher-is-better one improves.
        let doubled = result_doc(&BenchWorkload::ALL, 2.0, &defs);
        let lower = |w: BenchWorkload| {
            defs.end_to_end
                .iter()
                .chain(&kind_metrics(w, &defs))
                .filter(|d| d.lower_is_better)
                .count()
        };
        let want: usize = BenchWorkload::ALL.into_iter().map(lower).sum();
        assert_eq!(compare_docs(&all, &doubled, &defs), Ok((want, 0)));
    }
}
