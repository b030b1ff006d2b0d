//! Pins the timing model's version to what the model computes.
//!
//! The result store binds [`MODEL_VERSION`] in every shard header, so a
//! store written by an older simulator is rebuilt rather than served. That
//! only works if the version moves whenever the results do. This test
//! hashes the results of a fixed canary grid and asserts the pair
//! (version, hash): a change that moves any canary result fails here
//! until both halves are updated together.
//!
//! The canary grid is block replay of the 15 test-scale kernels on the
//! three Table 1 models at both issue widths (`Fixed(17)` latency),
//! hashed by each run's `SimStats::fingerprint`, plus the two sampled
//! estimates `tests/sampled_accuracy.rs` pins bit for bit.

use aurora3::core::{
    replay_blocks, run_sampled, IssueWidth, MachineModel, SamplingConfig, MODEL_VERSION,
};
use aurora3::isa::Fnv1a;
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

/// `(MODEL_VERSION, canary())`. Bump the version, then re-pin the hash,
/// in any change that moves a result on purpose.
const PINNED: (u32, u64) = (1, 0x09e7_c600_422d_799e);

fn canary() -> u64 {
    let mut h = Fnv1a::new();
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
    for w in &kernels {
        let blocks = w.capture_blocks().expect("kernel captures");
        for model in MachineModel::ALL {
            for width in [IssueWidth::Single, IssueWidth::Dual] {
                let cfg = model.config(width, LatencyModel::Fixed(17));
                h.write_u64(replay_blocks(&cfg, &blocks).fingerprint());
            }
        }
    }
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    for w in [
        IntBenchmark::Compress.workload(Scale::Test),
        FpBenchmark::Nasa7.workload(Scale::Test),
    ] {
        let blocks = w.capture_blocks().expect("kernel captures");
        let est = run_sampled(&cfg, &SamplingConfig::recommended(), &blocks);
        h.write_u64(est.cpi.to_bits());
        h.write_u64(est.ci_half_width.to_bits());
        h.write_usize(est.windows);
        h.write_u64(est.detailed_instructions);
    }
    h.finish()
}

#[test]
fn model_version_matches_canary_results() {
    let got = (MODEL_VERSION, canary());
    assert_eq!(
        got, PINNED,
        "the canary grid's results moved (hash {:#018x}): bump \
         aurora_core::MODEL_VERSION and re-pin both halves together",
        got.1
    );
}
