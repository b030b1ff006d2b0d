//! The sweep workloads: a cold process sweeps a grid through
//! `run_matrix_timed`, then replays the same grid again warm, one cell
//! at a time on one thread, timing every cell.
//!
//! The warm numbers are each cell's fastest replay of the run. On a
//! shared 2-vCPU virtual machine, two replay threads slow each other
//! about twofold, so the warm sweep runs one. Even alone, a replay runs
//! up to twice as slow for stretches of a few tenths of a second, in a
//! share of the time that moves from one 20-second stretch to the next:
//! a median follows that share, a cell's fastest replay does not.

use std::collections::BTreeMap;
use std::time::Instant;

use aurora_bench::harness::{drain_cells_timed, run, run_matrix_timed};
use aurora_core::{replay, replay_blocks, MachineConfig, SimStats};
use aurora_isa::Fnv1a;
use aurora_serve::json::Json;
use aurora_workloads::{Scale, TraceStore, Workload};

use crate::gen;
use crate::spans::{layer_times, Spans};
use crate::{hex, peak_rss_mb, BenchWorkload, ChildOutput};

/// The grid of `workload` under `seed` (sweep-paper ignores the seed).
fn grid(workload: BenchWorkload, seed: u64) -> Result<Vec<MachineConfig>, String> {
    match workload {
        BenchWorkload::SweepPaper => Ok(gen::paper_grid()),
        _ => gen::wide_grid(seed).map_err(|e| e.to_string()),
    }
}

/// Assembles the kernels of `workload` — the first step of set-up.
/// Both sweeps run at `Scale::Test`, so that a 20-second run replays
/// every cell of its grid warm about 20 to 30 times (see the module
/// comment for why that many).
fn kernels(workload: BenchWorkload) -> Vec<Workload> {
    match workload {
        BenchWorkload::SweepPaper => gen::all_kernels(Scale::Test),
        _ => gen::wide_kernels(Scale::Test),
    }
}

/// FNV-1a over every cell's stats fingerprint, config-major.
fn digest(grid: &[Vec<SimStats>]) -> u64 {
    let mut h = Fnv1a::new();
    for stats in grid.iter().flatten() {
        h.write_u64(stats.fingerprint());
    }
    h.finish()
}

/// What one sweep run covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Extent {
    /// Set-up only: the cold sweep covers the first configuration row,
    /// which captures and lowers every kernel as the whole grid does,
    /// and no warm pass follows.
    SetupOnly,
    /// The whole grid cold, then warm passes over the grid, round and
    /// round, until this many seconds after the run began, and one pass
    /// at least (`Until(0.0)` is exactly one pass).
    Until(f64),
}

/// The warm sweep: the grid again with traces memoised, one cell at a
/// time.
struct Warm {
    /// Cells that differ from the cold sweep's.
    mismatched: usize,
    /// Warm replays made.
    cells: usize,
    /// Each grid cell's fastest warm replay in seconds, config-major;
    /// infinite for a cell not replayed warm.
    best_s: Vec<f64>,
    /// Σ seconds of every warm replay.
    busy_s: f64,
    /// The memoised block-trace lookups: set-up left in the warm sweep.
    setup_s: f64,
}

impl Warm {
    /// Σ instructions of the cells replayed warm / Σ their fastest
    /// replays, in millions per second.
    fn best_mips(&self, cold: &[Vec<SimStats>]) -> f64 {
        let (instructions, seconds) = cold
            .iter()
            .flatten()
            .zip(&self.best_s)
            .filter(|(_, s)| s.is_finite())
            .fold((0u64, 0.0), |(i, t), (c, s)| {
                (i.saturating_add(c.instructions), t + s)
            });
        instructions as f64 / seconds.max(1e-9) / 1e6
    }
}

/// Replays the warm passes `extent` asks for, in a run that began at
/// `began`. Cells go kernel-major, as `run_matrix_timed` claims them, so
/// that consecutive replays share a trace.
fn warm_sweep(
    configs: &[MachineConfig],
    kernels: &[Workload],
    cold: &[Vec<SimStats>],
    extent: Extent,
    began: Instant,
    spans: &Spans,
) -> Result<Warm, String> {
    let t = Instant::now();
    let traces = spans.time("isa.get_blocks", 0, || {
        kernels
            .iter()
            .map(|k| {
                TraceStore::global()
                    .get_blocks(k)
                    .map_err(|e| format!("{}: {e}", k.name()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let cells = configs.len() * kernels.len();
    let mut warm = Warm {
        mismatched: 0,
        cells: 0,
        best_s: vec![f64::INFINITY; cells],
        busy_s: 0.0,
        setup_s: t.elapsed().as_secs_f64(),
    };
    let more = |done: usize| match extent {
        Extent::SetupOnly => false,
        Extent::Until(s) => cells > 0 && (done < cells || began.elapsed().as_secs_f64() < s),
    };
    while more(warm.cells) {
        let cell = warm.cells % cells;
        let (ci, wi) = (cell % configs.len(), cell / configs.len());
        let (Some(cfg), Some(trace)) = (configs.get(ci), traces.get(wi)) else {
            break;
        };
        let t = Instant::now();
        let stats = spans.time("core.replay_blocks", cell as u64, || {
            replay_blocks(cfg, trace)
        });
        let secs = t.elapsed().as_secs_f64();
        warm.cells += 1;
        warm.busy_s += secs;
        let want = cold.get(ci).and_then(|row| row.get(wi));
        warm.mismatched += usize::from(want != Some(&stats));
        if let Some(best) = warm.best_s.get_mut(ci * kernels.len() + wi) {
            *best = best.min(secs);
        }
    }
    Ok(warm)
}

/// One run in a fresh process: the grid (or its first row) cold, then
/// the warm passes `extent` asks for.
/// Untraced, it reports the end-to-end metrics; traced, it first
/// captures every kernel under its own span, so that lowering is what
/// remains of set-up inside `run_matrix_timed`, and it adds the
/// per-layer metrics.
pub fn child(
    workload: BenchWorkload,
    seed: u64,
    traced: bool,
    extent: Extent,
) -> Result<ChildOutput, String> {
    let mut configs = grid(workload, seed)?;
    let whole = extent != Extent::SetupOnly;
    if !whole {
        configs.truncate(1);
    }
    let spans = Spans::new(traced);
    let t0 = Instant::now();
    let kernels = spans.time("workloads.assemble", 0, || kernels(workload));
    let assemble_s = t0.elapsed().as_secs_f64();
    let mut captured_ops = 0usize;
    if traced {
        for (i, k) in kernels.iter().enumerate() {
            let trace = spans.time("isa.capture", i as u64, || TraceStore::global().get(k));
            captured_ops += trace.map_err(|e| format!("{}: {e}", k.name()))?.len();
        }
    }
    let t1 = Instant::now();
    let (cold, cold_m) = spans.time("bench.run_matrix_timed", 0, || {
        run_matrix_timed(&configs, &kernels)
    });
    let cold_outer_s = t1.elapsed().as_secs_f64();
    let cold_wall_s = t0.elapsed().as_secs_f64();
    let warm = warm_sweep(&configs, &kernels, &cold, extent, t0, &spans)?;

    let cells = configs.len() * kernels.len();
    let instructions: u64 = cold.iter().flatten().map(|s| s.instructions).sum();
    let cycles: u64 = cold.iter().flatten().map(|s| s.cycles).sum();
    let mismatched = warm.mismatched;
    if mismatched > 0 {
        eprintln!(
            "{}: {mismatched} warm cells differ from the cold sweep",
            workload.name()
        );
    }
    let setup_s = cold_wall_s - cold_m.wall_seconds;
    // Every run's first row must agree; a run of the whole grid is also
    // checked whole, by its digest and its spot cells.
    let first_row = cold.get(..1).unwrap_or_default();
    let mut extra = vec![("row_digest", Json::Str(hex(digest(first_row))))];
    let mut samples = BTreeMap::from([("setup_s", vec![setup_s])]);
    if whole {
        let flat: Vec<&SimStats> = cold.iter().flatten().collect();
        let spot = gen::spot_cells(seed, configs.len(), kernels.len())
            .into_iter()
            .map(|c| {
                flat.get(c)
                    .map_or(Json::Null, |s| Json::Str(hex(s.fingerprint())))
            })
            .collect();
        extra.push(("digest", Json::Str(hex(digest(&cold)))));
        extra.push(("spot", Json::Arr(spot)));
        let best_ms = warm.best_s.iter().map(|s| s * 1e3).collect();
        samples.extend([
            ("answer_mips", vec![warm.best_mips(&cold)]),
            ("answer_p50_ms", best_ms),
            ("peak_rss_mb", vec![peak_rss_mb()]),
            (
                "sweep_cold_mips",
                vec![instructions as f64 / cold_wall_s / 1e6],
            ),
        ]);
    }

    let spans = spans.into_spans();
    let mut layers = BTreeMap::new();
    if traced {
        let times = layer_times(&spans);
        let capture_s = times.get("isa.capture").map_or(0.0, |t| t.total_s);
        let busy = warm.busy_s;
        let pool_busy: f64 = cold_m.per_thread_seconds.iter().sum();
        layers.insert("workloads.assemble_s", assemble_s);
        layers.insert("isa.capture_s", capture_s);
        layers.insert(
            "isa.capture_minstr_per_s",
            captured_ops as f64 / capture_s.max(1e-9) / 1e6,
        );
        layers.insert("isa.lower_s", cold_outer_s - cold_m.wall_seconds);
        layers.insert("isa.lowerings", TraceStore::global().lowerings() as f64);
        layers.insert("core.sim_instructions", instructions as f64);
        layers.insert("core.sim_cycles", cycles as f64);
        layers.insert("core.replay_busy_s", busy);
        layers.insert("core.ns_per_sim_cycle", busy / cycles.max(1) as f64 * 1e9);
        layers.insert("bench.pool_wall_s", cold_m.wall_seconds);
        layers.insert(
            "bench.pool_parallelism",
            pool_busy / cold_m.wall_seconds.max(1e-9),
        );
        layers.insert(
            "bench.pool_idle_s",
            cold_m.threads as f64 * cold_m.wall_seconds - pool_busy,
        );
        layers.insert("bench.warm_setup_s", warm.setup_s);
    }
    Ok(ChildOutput {
        samples,
        layers,
        attempted: (cells + warm.cells) as u64,
        failed: mismatched as u64,
        pool_threads: cold_m.threads,
        extra,
        spans,
    })
}

/// The references for a run's spot-checked cells, computed once per
/// invocation in a process of their own: per-op `replay` of the packed
/// trace and the streamed `harness::run`, both independent of block
/// lowering. Returns `[replay, run]` fingerprint pairs in spot order.
pub fn references(workload: BenchWorkload, seed: u64) -> Result<Vec<[u64; 2]>, String> {
    let configs = grid(workload, seed)?;
    let kernels = kernels(workload);
    let spot = gen::spot_cells(seed, configs.len(), kernels.len());
    let reference = |cell: usize| -> Result<[u64; 2], String> {
        let (cfg, k) = (
            &configs[cell / kernels.len()],
            &kernels[cell % kernels.len()],
        );
        let trace = TraceStore::global()
            .get(k)
            .map_err(|e| format!("{}: {e}", k.name()))?;
        Ok([replay(cfg, &trace).fingerprint(), run(cfg, k).fingerprint()])
    };
    let (refs, _) = drain_cells_timed(spot.len(), |i| reference(spot[i]), |_, _| {});
    refs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_mips_counts_only_cells_replayed_warm() {
        let cell = |instructions| SimStats {
            instructions,
            ..SimStats::default()
        };
        let cold = [
            vec![cell(2_000_000), cell(1_000_000)],
            vec![cell(4_000_000), cell(8_000_000)],
        ];
        let warm = Warm {
            mismatched: 0,
            cells: 3,
            best_s: vec![0.5, 0.5, 1.0, f64::INFINITY],
            busy_s: 2.0,
            setup_s: 0.0,
        };
        // 7 million instructions over 2 seconds; the last cell never ran.
        assert_eq!(warm.best_mips(&cold), 3.5);
    }
}
