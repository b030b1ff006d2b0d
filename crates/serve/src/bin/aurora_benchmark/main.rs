//! `aurora_benchmark`: the benchmark of record for aurora3's two user
//! paths, design-space sweeps through `run_matrix_timed` and queries to
//! the `aurora-serve` daemon, measured end to end and layer by layer.
//! `README.md` beside this file explains the workloads and metrics.
//!
//! ```text
//! aurora_benchmark run   --seed S --out FILE [--workload NAME]
//! aurora_benchmark trace --seed S --out FILE [--workload NAME]
//! aurora_benchmark compare A.json B.json
//! aurora_benchmark --workload NAME --seed S --seconds T --trace 0|1
//! ```
//!
//! Every run is a fresh child process of this binary, one at a time: the
//! trace store is process-wide, so only a new process sweeps cold.

mod gen;
mod report;
mod runner;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;

use aurora_serve::json::{obj, Json};

use crate::spans::Span;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    SweepPaper,
    SweepWide,
    ServeWarm,
    ServeCold,
}

impl BenchWorkload {
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::SweepPaper,
        BenchWorkload::SweepWide,
        BenchWorkload::ServeWarm,
        BenchWorkload::ServeCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::SweepPaper => "sweep-paper",
            BenchWorkload::SweepWide => "sweep-wide",
            BenchWorkload::ServeWarm => "serve-warm",
            BenchWorkload::ServeCold => "serve-cold",
        }
    }

    pub fn from_name(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sweep(self) -> bool {
        matches!(self, BenchWorkload::SweepPaper | BenchWorkload::SweepWide)
    }
}

/// What one child run reports to its parent, as one JSON line.
pub struct ChildOutput {
    /// End-to-end metrics by name, `BENCHMARK.json`'s and the workload
    /// kind's (`report::kind_metrics`), as the samples the run took: one
    /// for a whole-run quantity such as set-up time, many for per-request
    /// latencies or throughput windows. The run's value is their median;
    /// a measurement of several runs pools them.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub pool_threads: usize,
    /// Workload-specific fields: the sweep digest and spot-cell
    /// fingerprints, or the serve check-cell answers and tail latency.
    pub extra: Vec<(&'static str, Json)>,
    pub spans: Vec<Span>,
}

impl ChildOutput {
    fn to_json(&self) -> Json {
        let nums = |m: &BTreeMap<&'static str, f64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                    .collect(),
            )
        };
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                let list = v.iter().map(|&x| Json::Num(x)).collect();
                ((*k).to_owned(), Json::Arr(list))
            })
            .collect();
        let mut out = obj([
            ("samples", Json::Obj(samples)),
            ("layers", nums(&self.layers)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("pool_threads", Json::Num(self.pool_threads as f64)),
        ]);
        if let Json::Obj(members) = &mut out {
            for (k, v) in &self.extra {
                members.insert((*k).to_owned(), v.clone());
            }
            let table = spans::layer_times(&self.spans)
                .into_iter()
                .map(|(name, t)| {
                    let row = obj([
                        ("calls", Json::Num(t.calls as f64)),
                        ("total_s", Json::Num(t.total_s)),
                        ("self_s", Json::Num(t.self_s)),
                        ("median_us", Json::Num(t.median_us)),
                    ]);
                    (name.to_owned(), row)
                })
                .collect();
            members.insert("span_table".to_owned(), Json::Obj(table));
        }
        out
    }
}

/// A stats fingerprint as the daemon prints it.
pub fn hex(x: u64) -> String {
    format!("{x:#018x}")
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The value after `flag` in `args`.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|p| p[0] == flag)
        .map(|p| p[1].as_str())
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    required(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))
}

fn parse_workloads(args: &[String]) -> Result<Vec<BenchWorkload>, String> {
    match flag(args, "--workload") {
        None => Ok(BenchWorkload::ALL.to_vec()),
        Some(name) => BenchWorkload::from_name(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload `{name}`")),
    }
}

const USAGE: &str = "usage:
  aurora_benchmark run   --seed S --out FILE [--workload NAME]
  aurora_benchmark trace --seed S --out FILE [--workload NAME]
  aurora_benchmark compare A.json B.json
  aurora_benchmark --workload NAME --seed S --seconds T --trace 0|1";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aurora_benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => report::run_command(
            &parse_workloads(rest)?,
            parse_seed(rest)?,
            required(rest, "--out")?,
        ),
        Some("trace") => report::trace_command(
            &parse_workloads(rest)?,
            parse_seed(rest)?,
            required(rest, "--out")?,
        ),
        Some("compare") => match rest {
            [a, b] => report::compare_command(a, b),
            _ => Err(USAGE.to_owned()),
        },
        Some("child") => child_command(rest),
        Some("prep") => prep_command(rest),
        Some(a) if a.starts_with("--") => {
            let workload = parse_workloads(args)?;
            let [workload] = workload[..] else {
                return Err("--workload is required".to_owned());
            };
            let seconds: f64 = required(args, "--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            let traced = match required(args, "--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
            };
            report::measure_command(workload, parse_seed(args)?, seconds, traced)
        }
        _ => Err(USAGE.to_owned()),
    }
}

/// `child --workload W --seed S --dir D [--primed P] [--queries N]
/// [--setup-only | --warm-until T] [--trace] [--spans FILE]`: one
/// measured run, reported as the last line of standard output.
fn child_command(args: &[String]) -> Result<i32, String> {
    let [workload] = parse_workloads(args)?[..] else {
        return Err("child needs one --workload".to_owned());
    };
    let seed = parse_seed(args)?;
    let dir = PathBuf::from(required(args, "--dir")?);
    let traced = args.iter().any(|a| a == "--trace");
    let out = if workload.is_sweep() {
        let extent = match flag(args, "--warm-until") {
            _ if args.iter().any(|a| a == "--setup-only") => sweep::Extent::SetupOnly,
            None => sweep::Extent::Until(0.0),
            Some(s) => sweep::Extent::Until(s.parse().map_err(|e| format!("--warm-until: {e}"))?),
        };
        sweep::child(workload, seed, traced, extent)?
    } else {
        let queries = flag(args, "--queries")
            .map(|n| n.parse::<usize>().map_err(|e| format!("--queries: {e}")))
            .transpose()?;
        let primed = PathBuf::from(required(args, "--primed")?);
        serve::child(workload, seed, traced, queries, &primed, &dir)?
    };
    if let Some(path) = flag(args, "--spans") {
        std::fs::write(path, spans::to_ndjson(&out.spans)).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", out.to_json());
    Ok(0)
}

/// `prep --workload W --seed S --dir D`: the once-per-invocation set-up
/// outside any measured run — the references for the run's output
/// checks, and for serve workloads the primed store in `D/primed`.
fn prep_command(args: &[String]) -> Result<i32, String> {
    let [workload] = parse_workloads(args)?[..] else {
        return Err("prep needs one --workload".to_owned());
    };
    let seed = parse_seed(args)?;
    let dir = PathBuf::from(required(args, "--dir")?);
    let out = if workload.is_sweep() {
        let refs = sweep::references(workload, seed)?;
        let pairs = refs
            .iter()
            .map(|r| Json::Arr(r.iter().map(|&fp| Json::Str(hex(fp))).collect()))
            .collect();
        obj([("spot", Json::Arr(pairs))])
    } else {
        serve::prime(workload, seed, &dir.join("primed"))?
    };
    println!("{out}");
    Ok(0)
}
