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
//! The misses come from where the windows land, not from warming: each
//! window reads the exact CPI of its own ops (bit for bit in 29 of 30
//! cells measured), but a kernel whose costly start-up falls between
//! windows is estimated low, with a narrow interval.

use aurora3::core::{
    replay, run_sampled, run_sampled_digest, IssueWidth, MachineModel, SamplingConfig, WarmDigest,
};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

/// The largest accepted suite-mean |sampled - exact| / exact CPI error.
const MAX_MEAN_CPI_ERROR: f64 = 0.02;

/// The fewest of the 45 cells whose 95% CI must cover the exact CPI: the
/// 41 measured, not the nominal 95%. The known misses, in CI half-widths
/// of error, are nasa7 on all three models (about 2.6-3.2) and
/// mdljdp2/baseline (about 1.1). nasa7's start-up chunks read 2.29-3.21
/// CPI against a 1.661 median, but unit 0's window always covers ops
/// 384-896 (1.664), so the unit holding the start-up is measured at an
/// ordinary CPI and the estimate comes out 1.3% low with a 0.4%
/// half-width.
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

/// Pins sampled mode's output bit for bit on two kernels: the estimate,
/// its interval, the window count and the detailed-op count. The
/// accuracy gate above tolerates small drift; this test does not, so a
/// change to how the sampler feeds its warm-ups and windows to the
/// simulator cannot move an estimate unseen.
#[test]
fn sampled_estimates_are_pinned() {
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let pinned = [
        (
            IntBenchmark::Compress.workload(Scale::Test),
            0x3ffd_c83d_74c6_389e_u64,
            0x3fb1_622f_7263_c59c_u64,
            28usize,
            25_088u64,
        ),
        (
            FpBenchmark::Nasa7.workload(Scale::Test),
            0x3ff9_2541_738c_9920,
            0x3f81_35e6_fcce_7ade,
            17,
            15_232,
        ),
    ];
    for (w, cpi_bits, ci_bits, windows, detailed) in pinned {
        let trace = w.capture().expect("kernel captures");
        let est = run_sampled(&cfg, &SamplingConfig::recommended(), &trace);
        assert_eq!(
            (
                est.cpi.to_bits(),
                est.ci_half_width.to_bits(),
                est.windows,
                est.detailed_instructions
            ),
            (cpi_bits, ci_bits, windows, detailed),
            "{}: sampled estimate moved ({est:?})",
            w.name()
        );
    }
}
