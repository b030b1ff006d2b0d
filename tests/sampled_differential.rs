//! Sampled mode's product against its oracle, bit for bit.
//!
//! The product sampler (`run_sampled`) walks the block form that
//! `Workload::capture_blocks` builds: it feeds warm-ups and windows op
//! by op and warms the stretches between them off the block templates
//! and the operand stream. The oracle (`run_sampled_digest`) walks an
//! independent `Workload::capture` of the same kernel and warms through
//! a `WarmDigest` built from its packed records. Both must agree on
//! every output of every cell: the estimate and its interval to the
//! bit, the window count and the op counts.
//!
//! Layouts: the recommended one on all six model × width configs, then
//! on baseline/dual three that stress the walk's edges — windows that
//! start mid-block (100/37/1,001), no warm-up with one free slot, so
//! about half the warm stretches are empty (512/0/513), and a unit
//! longer than the trace, which runs it fully detailed.

use aurora3::core::{
    run_sampled, run_sampled_digest, IssueWidth, MachineConfig, MachineModel, SampledStats,
    SamplingConfig, WarmDigest,
};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

fn kernels() -> Vec<Workload> {
    let mut kernels: Vec<Workload> = IntBenchmark::ALL
        .into_iter()
        .map(|b| b.workload(Scale::Test))
        .collect();
    kernels.extend(
        FpBenchmark::ALL
            .into_iter()
            .map(|b| b.workload(Scale::Test)),
    );
    assert_eq!(kernels.len(), 15);
    kernels
}

/// Every (config, layout) cell the test runs on each kernel.
fn cells() -> Vec<(MachineConfig, SamplingConfig)> {
    let mut cells = Vec::new();
    for model in MachineModel::ALL {
        for width in [IssueWidth::Single, IssueWidth::Dual] {
            let cfg = model.config(width, LatencyModel::Fixed(17));
            cells.push((cfg, SamplingConfig::recommended()));
        }
    }
    let baseline = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    for (window_ops, warmup_ops, interval_ops) in
        [(100, 37, 1_001), (512, 0, 513), (512, 384, usize::MAX)]
    {
        let sampling = SamplingConfig {
            window_ops,
            warmup_ops,
            interval_ops,
        };
        cells.push((baseline.clone(), sampling));
    }
    cells
}

/// The outputs compared, floats as their bits.
fn outputs(s: &SampledStats) -> (u64, u64, usize, u64, u64) {
    (
        s.cpi.to_bits(),
        s.ci_half_width.to_bits(),
        s.windows,
        s.detailed_instructions,
        s.instructions,
    )
}

/// Runs every cell on one kernel through both samplers, returning a
/// description of each mismatch.
fn mismatches(w: &Workload, cells: &[(MachineConfig, SamplingConfig)]) -> Vec<String> {
    let blocks = w.capture_blocks().expect("kernel captures");
    let trace = w.capture().expect("kernel captures");
    let digest = WarmDigest::build(trace.records(), 32);
    let mut bad = Vec::new();
    for (cfg, sampling) in cells {
        assert_eq!(cfg.line_bytes, digest.line_bytes());
        let product = run_sampled(cfg, sampling, &blocks);
        let oracle = run_sampled_digest(cfg, sampling, trace.records(), &digest);
        if outputs(&product) != outputs(&oracle) {
            bad.push(format!(
                "{} {} {sampling}: product {product:?} != oracle {oracle:?}",
                w.name(),
                cfg.name
            ));
        }
    }
    bad
}

#[test]
fn product_sampler_matches_the_oracle_on_every_kernel() {
    let cells = cells();
    let kernels = kernels();
    // Two threads, each taking every other kernel.
    let bad: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (cells, kernels) = (&cells, &kernels);
                scope.spawn(move || {
                    kernels
                        .iter()
                        .skip(t)
                        .step_by(2)
                        .flat_map(|w| mismatches(w, cells))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("kernel thread panicked"))
            .collect()
    });
    assert!(
        bad.is_empty(),
        "{} cells differ:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
