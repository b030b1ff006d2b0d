//! Sampled-mode accuracy gate: SMARTS-style sampling with the
//! recommended window layout must estimate CPI close to exact replay.
//!
//! The gate is the suite-mean CPI error over the 15 kernels on all three
//! machine models, the aggregate SMARTS reports. A single cell can miss
//! by more from honest sampling variance; the mean is what the estimator
//! promises (docs/MODEL.md, "Sampled simulation").
//!
//! Beside it sits a coverage gate: how many of the 45 cells' 95%
//! confidence intervals cover the exact CPI. It holds the measured 91%,
//! a known divergence from the nominal 95% that docs/MODEL.md lists.

use aurora3::core::{
    replay, run_sampled_digest, IssueWidth, MachineModel, SamplingConfig, WarmDigest,
};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

/// The largest accepted suite-mean |sampled - exact| / exact CPI error.
const MAX_MEAN_CPI_ERROR: f64 = 0.02;

/// The fewest of the 45 cells whose 95% CI must cover the exact CPI: the
/// 41 measured, not the nominal 95%. The known misses, in CI half-widths
/// of error, are nasa7 on all three models (about 2.6-3.2) and
/// mdljdp2/baseline (about 1.1), a pattern that points to warming bias.
const MIN_COVERED_CELLS: usize = 41;

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
    let mut misses = Vec::new();
    for w in &workloads {
        let trace = w.capture().expect("kernel captures");
        for model in MachineModel::ALL {
            let cfg = model.config(IssueWidth::Dual, LatencyModel::Fixed(17));
            let digest = WarmDigest::build(trace.records(), cfg.line_bytes);
            let exact = replay(&cfg, &trace).cpi();
            let est = run_sampled_digest(&cfg, &sampling, trace.records(), &digest);
            let error = (est.cpi - exact).abs();
            if error > est.ci_half_width {
                let half_widths = error / est.ci_half_width;
                misses.push(format!("{}/{model:?} {half_widths:.2}", w.name()));
            }
            errors.push((w.name().to_owned(), model, error / exact));
        }
    }
    assert_eq!(errors.len(), 45);
    let covered = errors.len() - misses.len();
    assert!(
        covered >= MIN_COVERED_CELLS,
        "only {covered} of 45 sampled CIs cover the exact CPI (gate: {MIN_COVERED_CELLS}); \
         misses, error in CI half-widths: {misses:?} (known: nasa7 on every model, \
         mdljdp2/Baseline)"
    );
    let mean = errors.iter().map(|(_, _, e)| e).sum::<f64>() / errors.len() as f64;
    assert!(
        mean <= MAX_MEAN_CPI_ERROR,
        "suite-mean sampled CPI error {:.3}% exceeds {:.0}%; per cell: {errors:?}",
        100.0 * mean,
        100.0 * MAX_MEAN_CPI_ERROR
    );
}
