//! Sampled-mode accuracy gate: SMARTS-style sampling with the
//! recommended window layout must estimate CPI close to exact replay.
//!
//! The gate is the suite-mean CPI error over the 15 kernels on all three
//! machine models, the aggregate SMARTS reports. A single cell can miss
//! by more from honest sampling variance; the mean is what the estimator
//! promises (docs/MODEL.md, "Sampled simulation").

use aurora3::core::{
    replay, run_sampled_digest, IssueWidth, MachineModel, SamplingConfig, WarmDigest,
};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

/// The largest accepted suite-mean |sampled - exact| / exact CPI error.
const MAX_MEAN_CPI_ERROR: f64 = 0.02;

#[test]
fn suite_mean_cpi_error_within_two_percent() {
    let mut workloads: Vec<Workload> = IntBenchmark::ALL
        .into_iter()
        .map(|b| b.workload(Scale::Test))
        .collect();
    workloads.extend(
        FpBenchmark::ALL
            .into_iter()
            .map(|b| b.workload(Scale::Test)),
    );
    assert_eq!(workloads.len(), 15);
    let sampling = SamplingConfig::recommended();
    let mut errors = Vec::new();
    for w in &workloads {
        let trace = w.capture().expect("kernel captures");
        for model in MachineModel::ALL {
            let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
            let digest = WarmDigest::build(trace.records(), cfg.line_bytes);
            let exact = replay(&cfg, &trace).cpi();
            let est = run_sampled_digest(&cfg, &sampling, trace.records(), &digest);
            errors.push((w.name().to_owned(), model, (est.cpi - exact).abs() / exact));
        }
    }
    assert_eq!(errors.len(), 45);
    let mean = errors.iter().map(|(_, _, e)| e).sum::<f64>() / errors.len() as f64;
    assert!(
        mean <= MAX_MEAN_CPI_ERROR,
        "suite-mean sampled CPI error {:.3}% exceeds {:.0}%; per cell: {errors:?}",
        100.0 * mean,
        100.0 * MAX_MEAN_CPI_ERROR
    );
}
