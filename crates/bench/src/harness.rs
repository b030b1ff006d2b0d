//! Shared experiment-harness utilities: capture-once / replay-many sweep
//! runners and plain-text table/series formatting used by every
//! `src/bin/` experiment.
//!
//! The heart of the module is [`run_matrix`]: every experiment binary is
//! ultimately a (configurations × workloads) sweep, and the trace of a
//! (workload, scale) pair is configuration-independent. The matrix runner
//! therefore captures each workload's trace once — through the
//! process-wide [`TraceStore`], straight into basic-block
//! superinstructions ([`aurora_isa::BlockTrace`]), with no packed trace
//! in between — and replays the shared, pre-resolved blocks across a
//! work-stealing thread pool, one cell at a time. Compared with
//! re-emulating the kernel per cell, replay skips the functional
//! emulator entirely; compared with per-op replay, block replay
//! amortises fetch, footprint and scoreboard checks over whole blocks.
//! Statistics stay bit-identical throughout.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use aurora_core::{replay_blocks, MachineConfig, SimStats, Simulator};
use aurora_isa::BlockTrace;
use aurora_workloads::{Scale, TraceStore, Workload};

/// Runs `workload` through a simulator for `cfg`, streaming the trace
/// (no trace materialisation, so `Scale::Full` runs fit in memory).
///
/// # Panics
///
/// Panics if the kernel fails to run — kernels are compiled-in and a
/// failure is a bug, not an operational error.
pub fn run(cfg: &MachineConfig, workload: &Workload) -> SimStats {
    let mut sim = Simulator::new(cfg);
    workload
        .run_traced(|op| sim.feed(op))
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    sim.finish()
}

/// Captures `workload`'s trace straight into basic blocks through the
/// process-wide [`TraceStore`] (at most once per (name, scale), across
/// all threads) and replays the blocks against `cfg`. Statistics are
/// bit-identical to [`run`].
///
/// # Panics
///
/// Panics if the kernel fails to run — kernels are compiled-in and a
/// failure is a bug, not an operational error.
pub fn run_cached(cfg: &MachineConfig, workload: &Workload) -> SimStats {
    replay_blocks(cfg, &capture_blocks(workload))
}

fn capture_blocks(workload: &Workload) -> Arc<BlockTrace> {
    TraceStore::global()
        .get_blocks(workload)
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

/// Sizes the sweep thread pool: one thread per hardware thread, but
/// never more threads than grid cells. This is the pool *size*; the
/// parallelism a drain actually achieves is measured per run and
/// reported by [`MatrixMetrics::achieved_parallelism`].
pub fn sweep_threads(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, usize::from)
        .min(cells.max(1))
}

/// Observed execution profile of one [`run_matrix_timed`] grid drain.
///
/// Parallelism is reported as the *achieved* figure from these
/// measurements, not the pool size: a pool of N threads on a
/// saturated or single-core host overlaps far less than N-fold, and
/// reporting the thread count as parallelism would overstate the
/// engine. Busy time is summed per worker around each cell's replay, so
/// scheduling gaps, queue exhaustion at the tail of the grid and time
/// stolen by the host all show up as the difference between
/// `wall_seconds` and the per-thread busy totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixMetrics {
    /// Threads the pool spawned ([`sweep_threads`]).
    pub threads: usize,
    /// Wall-clock seconds of the replay drain (phase 2 only — capture
    /// and lowering are amortised capture-side work).
    pub wall_seconds: f64,
    /// Grid cells replayed.
    pub cells: usize,
    /// Cells completed by each pool thread, in spawn order.
    pub per_thread_cells: Vec<usize>,
    /// Busy seconds (summed cell-replay time) of each pool thread.
    pub per_thread_seconds: Vec<f64>,
}

impl MatrixMetrics {
    /// Achieved parallelism: total busy time across workers divided by
    /// wall time. At most [`threads`](Self::threads); ~1.0 on a single
    /// core regardless of pool size.
    pub fn achieved_parallelism(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.per_thread_seconds.iter().sum::<f64>() / self.wall_seconds
    }
}

/// Runs `cells` independent jobs through the work-stealing sweep pool,
/// invoking `on_cell` on the worker thread as each job completes. This
/// is the library form of the grid drain behind [`run_matrix`]: callers
/// with a sparse or heterogeneous cell list (the `aurora-serve` query
/// engine batching cold design-space cells, a sampled-mode sweep) reuse
/// the same pool sizing, work stealing and [`MatrixMetrics`] profiling
/// as the full-matrix path.
///
/// `run_cell(i)` computes cell `i`; results come back as `Vec<R>` in
/// cell order. `on_cell(i, &result)` fires in *completion* order, on the
/// pool thread that finished the cell — keep it cheap and non-blocking
/// (forward into a channel for anything heavier: the drain loop is the
/// `[[pool]]` lint root, so blocking calls reachable from it fail L013).
///
/// # Panics
///
/// Propagates panics from `run_cell`/`on_cell` (a panicking cell is a
/// bug in the cell function, not an operational error).
pub fn drain_cells_timed<R, F, C>(cells: usize, run_cell: F, on_cell: C) -> (Vec<R>, MatrixMetrics)
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
    C: Fn(usize, &R) + Sync,
{
    if cells == 0 {
        return (Vec::new(), MatrixMetrics::default());
    }
    let results: Vec<OnceLock<R>> = (0..cells).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let threads = sweep_threads(cells);
    let drain_start = Instant::now();
    let profile: Vec<(usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| drain_worker(&next, cells, &run_cell, &on_cell, &results)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .collect()
    });
    let metrics = MatrixMetrics {
        threads,
        wall_seconds: drain_start.elapsed().as_secs_f64(),
        cells,
        per_thread_cells: profile.iter().map(|&(done, _)| done).collect(),
        per_thread_seconds: profile.iter().map(|&(_, busy)| busy).collect(),
    };
    let out: Vec<R> = results
        .into_iter()
        .map(|c| match c.into_inner() {
            Some(r) => r,
            None => unreachable!("cell not simulated"),
        })
        .collect();
    (out, metrics)
}

/// Replays every workload against every configuration: the universal
/// sweep shape behind the paper's figures and tables.
///
/// Traces are captured into basic blocks once per workload (in
/// parallel, memoised in the process-wide [`TraceStore`]), then the
/// `configs.len() × workloads.len()` grid of independent block replays
/// drains through a work-stealing pool sized to the machine. Returns one
/// row per configuration, one column per workload: `result[c][w]` is
/// `configs[c]` × `workloads[w]`.
///
/// # Panics
///
/// Panics if any kernel fails to run — kernels are compiled-in and a
/// failure is a bug, not an operational error.
pub fn run_matrix(configs: &[MachineConfig], workloads: &[Workload]) -> Vec<Vec<SimStats>> {
    run_matrix_timed(configs, workloads).0
}

/// [`run_matrix`] with an execution profile: the same grid drain, plus
/// per-thread cell counts and busy times so callers can report the
/// parallelism the pool *achieved* (see [`MatrixMetrics`]).
///
/// # Panics
///
/// Panics if any kernel fails to run — kernels are compiled-in and a
/// failure is a bug, not an operational error.
pub fn run_matrix_timed(
    configs: &[MachineConfig],
    workloads: &[Workload],
) -> (Vec<Vec<SimStats>>, MatrixMetrics) {
    if configs.is_empty() || workloads.is_empty() {
        let rows = configs.iter().map(|_| Vec::new()).collect();
        return (rows, MatrixMetrics::default());
    }
    // Phase 1: capture each workload's trace into blocks, one thread
    // per workload (memoised in the TraceStore).
    let traces: Vec<Arc<BlockTrace>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| scope.spawn(move || capture_blocks(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capture thread"))
            .collect()
    });
    // Phase 2: drain the replay grid with work stealing — replay times
    // vary wildly across (config, workload) cells, so static chunking
    // would leave threads idle. Cells are claimed in workload-major
    // order: consecutive cells replay the same trace against different
    // configs, so the block pool and templates stay cache-hot instead
    // of being streamed from memory once per configuration row.
    let n_configs = configs.len();
    let cells = n_configs * workloads.len();
    let (flat, metrics) = drain_cells_timed(
        cells,
        |cell| {
            let (wi, ci) = (cell / n_configs, cell % n_configs);
            replay_blocks(&configs[ci], &traces[wi])
        },
        |_, _| {},
    );
    // Reshape the workload-major flat order into config-major rows.
    let mut rows: Vec<Vec<SimStats>> = (0..n_configs)
        .map(|_| Vec::with_capacity(workloads.len()))
        .collect();
    for (cell, stats) in flat.into_iter().enumerate() {
        rows[cell % n_configs].push(stats);
    }
    (rows, metrics)
}

/// One work-stealing pool thread's share of a cell drain: claim cells
/// off the shared counter until the list is exhausted, returning the
/// cell count and busy seconds this worker accumulated. Declared as the
/// `[[pool]]` root in lint.toml — nothing reachable from here may block
/// (L013), or the sweep serializes on whichever thread holds the lock.
fn drain_worker<R, F, C>(
    next: &AtomicUsize,
    cells: usize,
    run_cell: &F,
    on_cell: &C,
    results: &[OnceLock<R>],
) -> (usize, f64)
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
    C: Fn(usize, &R) + Sync,
{
    let mut done = 0usize;
    let mut busy = 0.0f64;
    loop {
        let cell = next.fetch_add(1, Ordering::Relaxed);
        if cell >= cells {
            return (done, busy);
        }
        let t = Instant::now();
        let r = run_cell(cell);
        busy += t.elapsed().as_secs_f64();
        done += 1;
        on_cell(cell, &r);
        if results[cell].set(r).is_err() {
            unreachable!("cell simulated twice");
        }
    }
}

/// Runs a benchmark list against one config via [`run_matrix`] (captured
/// traces are shared with any other sweep in the process), returning
/// `(name, stats)` in workload order.
pub fn run_suite<'w>(cfg: &MachineConfig, workloads: &'w [Workload]) -> Vec<(&'w str, SimStats)> {
    let row = run_matrix(std::slice::from_ref(cfg), workloads)
        .pop()
        .expect("one row");
    workloads.iter().map(Workload::name).zip(row).collect()
}

/// Builds the full integer suite at `scale`.
pub fn integer_suite(scale: Scale) -> Vec<Workload> {
    aurora_workloads::IntBenchmark::ALL
        .into_iter()
        .map(|b| b.workload(scale))
        .collect()
}

/// Builds the full floating-point suite at `scale`.
pub fn fp_suite(scale: Scale) -> Vec<Workload> {
    aurora_workloads::FpBenchmark::ALL
        .into_iter()
        .map(|b| b.workload(scale))
        .collect()
}

/// Reads the scale from argv (`--scale test|small|full`), default small.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--scale" {
            return match pair[1].as_str() {
                "test" => Scale::Test,
                "small" => Scale::Small,
                "full" => Scale::Full,
                other => panic!("unknown scale `{other}` (use test|small|full)"),
            };
        }
    }
    Scale::Small
}

/// Whether a flag like `--ablation` is present on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// A minimal fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line.push('\n');
            line
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Formats a CPI value with three decimals.
pub fn cpi(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::{IssueWidth, MachineModel};
    use aurora_mem::LatencyModel;
    use aurora_workloads::IntBenchmark;

    #[test]
    fn run_produces_stats() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Single, LatencyModel::Fixed(17));
        let w = IntBenchmark::Eqntott.workload(Scale::Test);
        let stats = run(&cfg, &w);
        assert!(stats.instructions > 10_000);
        assert!(stats.cpi() > 0.5);
    }

    #[test]
    fn drain_cells_returns_in_cell_order_and_fires_callback_per_cell() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let (out, metrics) =
            drain_cells_timed(25, |i| i * i, |i, &r| seen.lock().unwrap().push((i, r)));
        assert_eq!(out, (0..25).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(metrics.cells, 25);
        assert_eq!(metrics.per_thread_cells.iter().sum::<usize>(), 25);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..25).map(|i| (i, i * i)).collect::<Vec<_>>());
        let (empty, m0) = drain_cells_timed(0, |_| 0u32, |_, _| {});
        assert!(empty.is_empty());
        assert_eq!(m0.threads, 0);
    }

    #[test]
    fn cached_replay_matches_streamed_run() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let w = IntBenchmark::Compress.workload(Scale::Test);
        assert_eq!(run_cached(&cfg, &w), run(&cfg, &w));
    }

    #[test]
    fn matrix_matches_individual_runs() {
        let configs = [
            MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17)),
            MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17)),
            MachineModel::Large.config(IssueWidth::Dual, LatencyModel::Fixed(17)),
        ];
        let workloads = [
            IntBenchmark::Espresso.workload(Scale::Test),
            IntBenchmark::Li.workload(Scale::Test),
        ];
        let grid = run_matrix(&configs, &workloads);
        assert_eq!(grid.len(), configs.len());
        for (cfg, row) in configs.iter().zip(&grid) {
            assert_eq!(row.len(), workloads.len());
            for (w, stats) in workloads.iter().zip(row) {
                assert_eq!(*stats, run(cfg, w), "{} mismatch", w.name());
            }
        }
    }

    #[test]
    fn timed_matrix_profiles_the_real_pool() {
        let configs = [
            MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17)),
            MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17)),
        ];
        let workloads = [
            IntBenchmark::Espresso.workload(Scale::Test),
            IntBenchmark::Li.workload(Scale::Test),
        ];
        let (grid, m) = run_matrix_timed(&configs, &workloads);
        assert_eq!(grid, run_matrix(&configs, &workloads));
        assert_eq!(m.cells, configs.len() * workloads.len());
        assert_eq!(m.threads, sweep_threads(m.cells));
        assert_eq!(m.per_thread_cells.len(), m.threads);
        assert_eq!(m.per_thread_seconds.len(), m.threads);
        // Every cell is accounted to exactly one worker.
        assert_eq!(m.per_thread_cells.iter().sum::<usize>(), m.cells);
        // Busy time is real work: positive, and it cannot overlap more
        // than the pool allows.
        let busy: f64 = m.per_thread_seconds.iter().sum();
        assert!(busy > 0.0 && m.wall_seconds > 0.0);
        // Small slack for timer skew between the per-cell and wall clocks.
        let achieved = m.achieved_parallelism();
        assert!(achieved > 0.0 && achieved <= m.threads as f64 * 1.05);
    }

    #[test]
    fn empty_matrix_shapes() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        assert!(run_matrix(&[], &integer_suite(Scale::Test)).is_empty());
        let rows = run_matrix(std::slice::from_ref(&cfg), &[]);
        assert_eq!(rows, vec![Vec::new()]);
    }

    #[test]
    fn suite_results_keep_workload_order() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let suite = [
            IntBenchmark::Sc.workload(Scale::Test),
            IntBenchmark::Compress.workload(Scale::Test),
        ];
        let results = run_suite(&cfg, &suite);
        assert_eq!(results[0].0, "sc");
        assert_eq!(results[1].0, "compress");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["model", "espresso", "li"]);
        t.row(["small", "1.23", "4.5"]);
        t.row(["baseline", "0.9", "10.01"]);
        let s = t.render();
        assert!(s.contains("model"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34");
        assert_eq!(cpi(1.23456), "1.235");
    }
}

/// Minimum, average and maximum CPI over a suite run (the Figure 4/5/7
/// vertical bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiRange {
    /// Lowest CPI in the suite.
    pub min: f64,
    /// Arithmetic mean CPI.
    pub avg: f64,
    /// Highest CPI in the suite.
    pub max: f64,
}

/// Summarises per-benchmark stats into a [`CpiRange`].
///
/// # Panics
///
/// Panics on an empty result set.
pub fn cpi_range(results: &[(&str, aurora_core::SimStats)]) -> CpiRange {
    assert!(!results.is_empty());
    let cpis: Vec<f64> = results.iter().map(|(_, s)| s.cpi()).collect();
    CpiRange {
        min: cpis.iter().copied().fold(f64::INFINITY, f64::min),
        avg: cpis.iter().sum::<f64>() / cpis.len() as f64,
        max: cpis.iter().copied().fold(0.0, f64::max),
    }
}
