//! The parent side of a measurement: prepare a workload once, run its
//! children one at a time, and check every child's outputs against the
//! references the preparation computed.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use aurora_isa::Fnv1a;
use aurora_serve::json::Json;

use crate::stats::median;
use crate::sweep::Extent;
use crate::BenchWorkload;

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Children to run.
    pub runs: usize,
    /// How the sweep children share their time; serve children ignore it.
    pub sweep: SweepBudget,
    /// Queries each serve child sends; `None` sends the whole list.
    pub queries: Option<usize>,
}

/// How a measurement's sweep children share their time. Every child
/// sweeps at least one warm pass over the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepBudget {
    /// Every child sweeps the grid cold, then warm passes until this many
    /// seconds after it began.
    Each(f64),
    /// The children before the last only set up; the last sweeps the
    /// grid cold, then warm passes until this many seconds after the first
    /// child began.
    Shared(f64),
}

/// One child's parsed report.
pub struct ChildResult {
    /// Each end-to-end metric's value in this run: the median of its
    /// samples.
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<f64>>,
    pub layers: BTreeMap<String, f64>,
    pub raw: Json,
}

impl ChildResult {
    fn parse(raw: Json) -> ChildResult {
        let samples: BTreeMap<String, Vec<f64>> = match raw.get("samples") {
            Some(Json::Obj(m)) => m
                .iter()
                .map(|(k, v)| {
                    let list = v.as_array().unwrap_or_default();
                    (k.clone(), list.iter().filter_map(Json::as_f64).collect())
                })
                .collect(),
            _ => BTreeMap::new(),
        };
        let layers = match raw.get("layers") {
            Some(Json::Obj(m)) => m
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        };
        ChildResult {
            metrics: samples
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), median(v)?)))
                .collect(),
            samples,
            layers,
            raw,
        }
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        self.raw.get(key).and_then(Json::as_f64)
    }
}

/// Everything measured for one workload.
pub struct Measured {
    pub workload: BenchWorkload,
    /// Untraced runs: the end-to-end numbers.
    pub runs: Vec<ChildResult>,
    /// The traced run: the per-layer numbers.
    pub traced: Option<ChildResult>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the checked stats fingerprints; identical across runs
    /// of one seed and across commits that keep the model's outputs.
    pub digest: String,
    /// Sweeps: the digest of the grid's first row, which every run
    /// sweeps cold, set-up-only runs included.
    row_digest: String,
    pub pool_threads: usize,
    /// Mean sampled-CPI error over the serve accuracy set.
    pub sampled_cpi_err_pct: Option<f64>,
}

impl Measured {
    /// One end-to-end metric across the untraced runs.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }

    /// Every sample of one end-to-end metric the untraced runs took.
    pub fn pooled(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.samples.get(metric))
            .flatten()
            .copied()
            .collect()
    }

    /// A numeric field of every untraced run's report.
    pub fn field(&self, key: &str) -> Vec<f64> {
        self.runs.iter().filter_map(|r| r.num(key)).collect()
    }
}

/// Runs this binary with `args` and parses the last line it prints.
fn child_json(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child `{}` failed: {}", args.join(" "), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child output: {e}"))
}

/// Measures `workload` under `seed`: one preparation child, then
/// untraced children per `budget`, then (if `traced`) one traced child
/// writing its spans to `spans`. All files live under `scratch`.
pub fn measure(
    workload: BenchWorkload,
    seed: u64,
    budget: Budget,
    traced: bool,
    scratch: &Path,
    spans: Option<&Path>,
) -> Result<Measured, String> {
    fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let base: Vec<String> = [
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--dir",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let dir_arg = |d: &Path| d.to_string_lossy().into_owned();
    let mut prep_args = vec!["prep".to_owned()];
    prep_args.extend(base.iter().cloned());
    prep_args.push(dir_arg(scratch));
    let prep = child_json(&prep_args)?;

    let mut m = Measured {
        workload,
        runs: Vec::new(),
        traced: None,
        attempted: 0,
        failed: 0,
        digest: String::new(),
        row_digest: String::new(),
        pool_threads: 0,
        sampled_cpi_err_pct: prep.get("sampled_cpi_err_pct").and_then(Json::as_f64),
    };
    if !workload.is_sweep() {
        m.digest = serve_digest(&prep);
    }
    let run_child = |k: usize, traced: bool, extent: Extent| -> Result<Json, String> {
        let dir = scratch.join(format!("run-{k}"));
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut args = vec!["child".to_owned()];
        args.extend(base.iter().cloned());
        args.push(dir_arg(&dir));
        if !workload.is_sweep() {
            args.extend(["--primed".to_owned(), dir_arg(&scratch.join("primed"))]);
        }
        if let Some(n) = budget.queries {
            args.extend(["--queries".to_owned(), n.to_string()]);
        }
        match extent {
            Extent::SetupOnly => args.push("--setup-only".to_owned()),
            Extent::Until(s) => args.extend(["--warm-until".to_owned(), s.to_string()]),
        }
        if traced {
            args.push("--trace".to_owned());
            if let Some(path) = spans {
                args.extend(["--spans".to_owned(), dir_arg(path)]);
            }
        }
        let out = child_json(&args);
        let _ = fs::remove_dir_all(&dir);
        out
    };

    let started = Instant::now();
    for k in 0..budget.runs {
        let extent = match budget.sweep {
            SweepBudget::Shared(_) if k + 1 < budget.runs => Extent::SetupOnly,
            SweepBudget::Shared(s) => Extent::Until(s - started.elapsed().as_secs_f64()),
            SweepBudget::Each(s) => Extent::Until(s),
        };
        let out = run_child(k, false, extent)?;
        m.check(&prep, &out, extent != Extent::SetupOnly);
        m.runs.push(ChildResult::parse(out));
    }
    if traced {
        // One warm pass, so that per-layer sums cover the grid once.
        let out = run_child(m.runs.len(), true, Extent::Until(0.0))?;
        m.check(&prep, &out, true);
        m.traced = Some(ChildResult::parse(out));
    }
    Ok(m)
}

/// Records `got` as the value every run must report under `what`, or
/// checks it against the one recorded; false on a mismatch.
fn agree(name: &str, what: &str, recorded: &mut String, got: Option<&str>) -> bool {
    match got {
        Some(d) if recorded.is_empty() => *recorded = d.to_owned(),
        Some(d) if d == recorded => {}
        other => {
            eprintln!("{name}: {what} {other:?} differs from {recorded}");
            return false;
        }
    }
    true
}

impl Measured {
    /// Folds one child's counts in and checks its outputs against the
    /// preparation's references. A sweep run that only set up
    /// (`whole_grid` false) swept the grid's first row, which must equal
    /// every other run's.
    fn check(&mut self, prep: &Json, out: &Json, whole_grid: bool) {
        let count = |k: &str| out.get(k).and_then(Json::as_u64).unwrap_or(0);
        self.attempted += count("attempted");
        self.failed += count("failed");
        self.pool_threads = self.pool_threads.max(count("pool_threads") as usize);
        let name = self.workload.name();
        if self.workload.is_sweep() {
            let text = |k: &str| out.get(k).and_then(Json::as_str);
            let row = agree(
                name,
                "first-row digest",
                &mut self.row_digest,
                text("row_digest"),
            );
            self.failed += u64::from(!row);
            if !whole_grid {
                return;
            }
            let grid = agree(name, "stats digest", &mut self.digest, text("digest"));
            self.failed += u64::from(!grid);
            // Each spot cell must match both references, which must
            // agree with each other.
            self.compare_lists(prep, out, "spot", |r, got| {
                let pair = r.as_array().unwrap_or_default();
                pair.len() == 2 && pair.iter().all(|x| x == got)
            });
        } else {
            self.compare_lists(prep, out, "exact", |r, got| r == got);
            self.compare_lists(prep, out, "sampled", |r, got| {
                // Bit-equal CPI estimate and CI half-width.
                let bits = |v: &Json| -> Vec<Option<u64>> {
                    v.as_array()
                        .unwrap_or_default()
                        .iter()
                        .map(|x| x.as_f64().map(f64::to_bits))
                        .collect()
                };
                bits(r) == bits(got) && !bits(r).is_empty()
            });
        }
    }

    /// Compares a child's `key` list with the preparation's, element by
    /// element; a missing or extra element is a failure too.
    fn compare_lists(
        &mut self,
        prep: &Json,
        out: &Json,
        key: &str,
        same: impl Fn(&Json, &Json) -> bool,
    ) {
        let refs = prep.get(key).and_then(Json::as_array).unwrap_or_default();
        let got = out.get(key).and_then(Json::as_array).unwrap_or_default();
        let bad = refs.len().abs_diff(got.len())
            + refs.iter().zip(got).filter(|(r, g)| !same(r, g)).count();
        if bad > 0 {
            eprintln!(
                "{}: {bad} of {} `{key}` cells differ from the reference",
                self.workload.name(),
                refs.len()
            );
        }
        self.attempted += refs.len().max(got.len()) as u64;
        self.failed += bad as u64;
    }
}

/// A serve workload's digest: FNV-1a over the reference answers of its
/// check cells, which every run's answers must equal.
fn serve_digest(prep: &Json) -> String {
    let mut h = Fnv1a::new();
    for key in ["exact", "sampled"] {
        for v in prep.get(key).and_then(Json::as_array).unwrap_or_default() {
            h.write_str(&v.to_string());
        }
    }
    crate::hex(h.finish())
}
