//! The query engine: decomposes a request grid into cells, answers warm
//! cells from the [`ResultStore`], batches cold cells onto the shared
//! work-stealing sweep pool, and streams results back in completion
//! order.
//!
//! # Dataflow
//!
//! ```text
//! request ──▶ resolve configs + workloads
//!          ──▶ per-cell memo probe ──▶ warm: emit immediately
//!                                  └─▶ cold: batch
//! cold batch ──▶ drain_cells_timed (work-stealing pool)
//!                  workers: simulate, send over channel   (no blocking)
//!                  caller:  receive ──▶ append to store ──▶ emit
//! finally    ──▶ summary line
//! ```
//!
//! Pool workers never touch a lock, a file or a socket (the drain loop
//! is the `[[pool]]` lint root — L013): each finished cell crosses an
//! mpsc channel to the *calling* thread, which owns all I/O — the store
//! append and the response stream.

use std::sync::{mpsc, Arc};

use aurora_bench::harness::drain_cells_timed;
use aurora_core::{replay_blocks, run_sampled, MachineConfig, SampledStats, SamplingConfig};
use aurora_isa::{BlockTrace, Fnv1a};
use aurora_workloads::{workload_by_name, TraceStore, Workload};

use crate::proto::{CellResult, CellSource, ProtoError, QueryRequest, QuerySummary, ResponseLine};
use crate::store::{CellKey, CellValue, Mode, ResultStore, SampledCell};

/// A query engine bound to one persistent [`ResultStore`].
///
/// The engine is shared by reference across server connection threads;
/// every method takes `&self` (the store is internally sharded and
/// locked).
pub struct Engine {
    store: ResultStore,
}

impl Engine {
    /// Wraps an open store.
    pub fn new(store: ResultStore) -> Engine {
        Engine { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Executes one query, invoking `emit` once per response line —
    /// warm cells first (request order), then cold cells in completion
    /// order, then the summary. On a bad request, `emit` receives a
    /// single [`ResponseLine::Error`] and the call returns `Err`.
    ///
    /// Returns the summary for in-process callers (benchmarks, tests);
    /// wire servers forward the emitted lines instead.
    ///
    /// # Errors
    ///
    /// Returns the [`ProtoError`] (already emitted as an error line)
    /// for unresolvable configs or unknown workloads.
    pub fn execute(
        &self,
        req: &QueryRequest,
        emit: &mut dyn FnMut(&ResponseLine),
    ) -> Result<QuerySummary, ProtoError> {
        match self.execute_inner(req, emit) {
            Ok(summary) => Ok(summary),
            Err(e) => {
                emit(&ResponseLine::Error {
                    message: e.to_string(),
                });
                Err(e)
            }
        }
    }

    fn execute_inner(
        &self,
        req: &QueryRequest,
        emit: &mut dyn FnMut(&ResponseLine),
    ) -> Result<QuerySummary, ProtoError> {
        let configs = req.machine_configs()?;
        let workloads = req
            .workloads
            .iter()
            .map(|name| {
                workload_by_name(name, req.scale)
                    .ok_or_else(|| ProtoError(format!("unknown workload `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let config_fps: Vec<u64> = configs
            .iter()
            .map(|cfg| cell_config_fp(cfg, req.mode, &req.sampling))
            .collect();
        let trace_hashes: Vec<u64> = workloads.iter().map(Workload::trace_hash).collect();

        // Memo probe, workload-major (same order the pool claims cells
        // in, so the stream reads grid-contiguously either way).
        let mut summary = QuerySummary {
            cells: configs.len() * workloads.len(),
            ..QuerySummary::default()
        };
        let mut cold: Vec<(usize, usize)> = Vec::new(); // (workload, config)
        for (wi, workload) in workloads.iter().enumerate() {
            for (ci, cfg) in configs.iter().enumerate() {
                let key = CellKey {
                    config_fp: config_fps[ci],
                    trace_hash: trace_hashes[wi],
                    mode: req.mode,
                };
                match self.store.get(&key) {
                    Some(value) => {
                        summary.memo_hits += 1;
                        emit(&cell_line(ci, cfg, workload, CellSource::Memo, &value));
                    }
                    None => cold.push((wi, ci)),
                }
            }
        }

        if !cold.is_empty() {
            self.drain_cold(
                req,
                &configs,
                &workloads,
                &config_fps,
                &trace_hashes,
                &cold,
                &mut summary,
                emit,
            )?;
        }
        emit(&ResponseLine::Summary(summary.clone()));
        Ok(summary)
    }

    /// Simulates the cold cells on the sweep pool, streaming each result
    /// through the store and out to `emit` as it completes.
    #[allow(clippy::too_many_arguments)]
    fn drain_cold(
        &self,
        req: &QueryRequest,
        configs: &[MachineConfig],
        workloads: &[Workload],
        config_fps: &[u64],
        trace_hashes: &[u64],
        cold: &[(usize, usize)],
        summary: &mut QuerySummary,
        emit: &mut dyn FnMut(&ResponseLine),
    ) -> Result<(), ProtoError> {
        // Capture-once: materialise each needed workload's block trace
        // before the pool starts, via the process-wide memoising
        // TraceStore. Every mode replays that one form.
        let mut needed: Vec<usize> = cold.iter().map(|&(wi, _)| wi).collect();
        needed.sort_unstable();
        needed.dedup();
        let mut traces: Vec<Option<Arc<BlockTrace>>> = vec![None; workloads.len()];
        for wi in needed {
            let w = &workloads[wi];
            let blocks = TraceStore::global()
                .get_blocks(w)
                .map_err(|e| ProtoError(format!("capturing `{}`: {e}", w.name())))?;
            traces[wi] = Some(blocks);
        }

        let (tx, rx) = mpsc::channel::<(usize, CellValue)>();
        let run_cell = |i: usize| {
            let (wi, ci) = cold[i];
            let blocks = traces[wi].as_ref().expect("trace captured above");
            compute_cell(&configs[ci], blocks, req.mode, &req.sampling)
        };
        // The drain blocks until every cold cell is done, so it runs on
        // a scoped helper thread while this thread consumes completions:
        // store appends and response writes stay off the pool. The
        // sender drops with the helper's closure, ending the receive
        // loop exactly when the drain finishes.
        let metrics = std::thread::scope(|scope| {
            let drain = scope.spawn(move || {
                let on_cell = |i: usize, value: &CellValue| {
                    // Worker side: hand the finished cell to the caller
                    // thread. A send failure means the receiver is gone
                    // (caller panicked); the result still lands in the
                    // drain's Vec.
                    let _ = tx.send((i, value.clone()));
                };
                let (_, metrics) = drain_cells_timed(cold.len(), run_cell, on_cell);
                metrics
            });
            for (i, value) in rx {
                let (wi, ci) = cold[i];
                let key = CellKey {
                    config_fp: config_fps[ci],
                    trace_hash: trace_hashes[wi],
                    mode: req.mode,
                };
                // A failed append only costs a re-simulation on some
                // later query (put leaves the index unchanged on error);
                // the in-flight response is still correct and complete.
                let _ = self.store.put(&key, &value);
                summary.simulated += 1;
                emit(&cell_line(
                    ci,
                    &configs[ci],
                    &workloads[wi],
                    CellSource::Simulated,
                    &value,
                ));
            }
            drain.join().expect("cold drain panicked")
        });
        summary.cold_wall_seconds = metrics.wall_seconds;
        summary.achieved_parallelism = metrics.achieved_parallelism();
        Ok(())
    }
}

/// Simulates one cold cell. This is the pool-worker entry point (a
/// `[[pool]]` root in lint.toml): everything reachable from here must be
/// non-blocking — pure replay against pre-captured, shared traces.
/// Detailed cells replay the block form like Block cells: the block
/// engine's `SimStats` are bit-identical to per-op replay's, so the two
/// exact modes differ only in name and memo key. Sampled cells walk the
/// same block form.
fn compute_cell(
    cfg: &MachineConfig,
    blocks: &BlockTrace,
    mode: Mode,
    sampling: &SamplingConfig,
) -> CellValue {
    match mode {
        Mode::Block | Mode::Detailed => CellValue::Exact(replay_blocks(cfg, blocks)),
        Mode::Sampled => {
            let stats = run_sampled(cfg, sampling, blocks);
            CellValue::Sampled(SampledCell {
                instructions: stats.instructions,
                detailed_instructions: stats.detailed_instructions,
                windows: stats.windows as u64,
                cpi_bits: stats.cpi.to_bits(),
                ci_bits: stats.ci_half_width.to_bits(),
            })
        }
    }
}

/// The memo-key fingerprint of a configuration under `mode`: the config
/// fingerprint itself for exact modes; with the sampling parameters
/// folded in for sampled mode, since the estimate depends on them.
pub fn cell_config_fp(cfg: &MachineConfig, mode: Mode, sampling: &SamplingConfig) -> u64 {
    let base = cfg.fingerprint();
    match mode {
        Mode::Detailed | Mode::Block => base,
        Mode::Sampled => {
            let mut h = Fnv1a::new();
            h.write_u64(base);
            h.write_usize(sampling.window_ops);
            h.write_usize(sampling.warmup_ops);
            h.write_usize(sampling.interval_ops);
            h.finish()
        }
    }
}

fn cell_line(
    ci: usize,
    cfg: &MachineConfig,
    workload: &Workload,
    source: CellSource,
    value: &CellValue,
) -> ResponseLine {
    let result = match value {
        CellValue::Exact(stats) => CellResult::Exact(stats.clone()),
        CellValue::Sampled(s) => CellResult::Sampled(SampledStats {
            instructions: s.instructions,
            detailed_instructions: s.detailed_instructions,
            windows: s.windows as usize,
            cpi: f64::from_bits(s.cpi_bits),
            ci_half_width: f64::from_bits(s.ci_bits),
        }),
    };
    ResponseLine::Cell {
        config_index: ci,
        config_name: cfg.name.clone(),
        workload: workload.name().to_owned(),
        source,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::{IssueWidth, MachineModel};
    use aurora_mem::LatencyModel;

    #[test]
    fn sampled_fingerprint_depends_on_sampling_params() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let a = SamplingConfig::recommended();
        let mut b = a;
        b.window_ops += 64;
        assert_eq!(
            cell_config_fp(&cfg, Mode::Block, &a),
            cell_config_fp(&cfg, Mode::Block, &b),
            "exact modes ignore sampling params"
        );
        assert_ne!(
            cell_config_fp(&cfg, Mode::Sampled, &a),
            cell_config_fp(&cfg, Mode::Sampled, &b)
        );
        assert_ne!(
            cell_config_fp(&cfg, Mode::Sampled, &a),
            cell_config_fp(&cfg, Mode::Block, &a)
        );
    }
}
