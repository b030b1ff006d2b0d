//! Differential validation of event-horizon scheduling: jumping the
//! clock to each group's binding constraint must be *observationally
//! identical* to the naive reference engine
//! (`Simulator::naive_reference`) that walks every intervening cycle
//! performing unit maintenance.
//!
//! Three layers of evidence:
//!
//! 1. a property test over random short traces — every op kind, register
//!    shape and address pattern — crossed with all three machine models
//!    and both issue widths,
//! 2. the full 15-kernel suite replayed under both modes, and
//! 3. the same suite's block form, batched fast path included, on the
//!    two configurations that lean hardest on deferred maintenance: a
//!    starved machine (one entry in every queue, 100-cycle misses),
//!    whose long stall regions are jumped in one step, and a jittered
//!    memory latency, whose fills return out of issue order.
//!
//! Equality is `SimStats: Eq` — bit-identical counters, not tolerances.

use aurora3::core::{
    replay, replay_blocks, simulate, IssueWidth, MachineConfig, MachineModel, SimStats, Simulator,
};
use aurora3::isa::{ArchReg, MemWidth, OpKind, TraceOp};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, TraceStore, Workload};
use proptest::prelude::*;

fn reg_from(sel: u8) -> Option<ArchReg> {
    match sel % 67 {
        0 => None,
        v @ 1..=32 => Some(ArchReg::Int(v - 1)),
        v @ 33..=64 => Some(ArchReg::Fp(v - 33)),
        65 => Some(ArchReg::HiLo),
        _ => Some(ArchReg::FpCond),
    }
}

fn width_from(sel: u8) -> MemWidth {
    match sel % 4 {
        0 => MemWidth::Byte,
        1 => MemWidth::Half,
        2 => MemWidth::Word,
        _ => MemWidth::Double,
    }
}

fn kind_from(sel: u8, payload: u32, aux: u8) -> OpKind {
    let width = width_from(aux);
    match sel % 19 {
        0 => OpKind::IntAlu,
        1 => OpKind::IntMul,
        2 => OpKind::IntDiv,
        3 => OpKind::Load { ea: payload, width },
        4 => OpKind::Store { ea: payload, width },
        5 => OpKind::FpLoad { ea: payload, width },
        6 => OpKind::FpStore { ea: payload, width },
        7 => OpKind::Branch {
            taken: aux & 1 != 0,
            target: payload,
        },
        8 => OpKind::Jump {
            target: payload,
            register: aux & 1 != 0,
        },
        9 => OpKind::FpAdd,
        10 => OpKind::FpMul,
        11 => OpKind::FpDiv,
        12 => OpKind::FpSqrt,
        13 => OpKind::FpCvt,
        14 => OpKind::FpMove,
        15 => OpKind::FpCmp,
        _ => OpKind::Nop,
    }
}

/// Expands one seed into a trace op. Addresses are folded into a window a
/// few lines wide around several bases so the trace exercises cache hits,
/// misses, secondary-miss merges and write-cache coalescing rather than
/// touching every address once.
fn op_from(seed: u64, i: usize) -> TraceOp {
    let pc = 0x0040_0000 + 4 * ((seed >> 32) as u32 % 64);
    let region = [0x2000u32, 0x0010_0000, 0x0070_0000][i % 3];
    let payload = region + 8 * ((seed >> 12) as u32 % 256);
    TraceOp {
        pc,
        kind: kind_from((seed >> 8) as u8, payload, (seed >> 16) as u8),
        dst: reg_from((seed >> 24) as u8),
        src1: reg_from((seed >> 40) as u8),
        src2: reg_from((seed >> 48) as u8),
    }
}

fn config(model: MachineModel, issue: IssueWidth) -> MachineConfig {
    model.config(issue, LatencyModel::Fixed(17))
}

fn both_modes(model: MachineModel, issue: IssueWidth, ops: &[TraceOp]) -> (SimStats, SimStats) {
    let cfg = config(model, issue);
    let skip = simulate(&cfg, ops.iter().copied());
    let mut naive = Simulator::naive_reference(&cfg);
    for op in ops {
        naive.feed(*op);
    }
    (skip, naive.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random short traces: skip and naive modes agree bit-for-bit on
    /// every machine model at both issue widths.
    #[test]
    fn random_traces_agree_across_models_and_widths(
        seeds in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let ops: Vec<TraceOp> =
            seeds.iter().enumerate().map(|(i, &s)| op_from(s, i)).collect();
        for model in MachineModel::ALL {
            for issue in [IssueWidth::Single, IssueWidth::Dual] {
                let (skip, naive) = both_modes(model, issue, &ops);
                prop_assert_eq!(
                    skip, naive,
                    "skip != naive for {:?}/{:?}", model, issue
                );
            }
        }
    }
}

fn suite() -> Vec<Workload> {
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
    workloads
}

/// Replays every kernel's block form under `cfg` with the clock jumping
/// (the product engine) and walking every cycle (the naive oracle),
/// asserts the two agree bit for bit, and returns each kernel's stats.
fn kernels_agree_skip_vs_naive(cfg: &MachineConfig) -> Vec<(&'static str, SimStats)> {
    suite()
        .iter()
        .map(|w| {
            let blocks = TraceStore::global().get_blocks(w).expect("kernel captures");
            let skip = replay_blocks(cfg, &blocks);
            let mut naive = Simulator::naive_reference(cfg);
            naive.feed_blocks(&blocks);
            assert_eq!(skip, naive.finish(), "{} diverged ({})", w.name(), cfg.name);
            (w.name(), skip)
        })
        .collect()
}

/// Every kernel in both suites produces bit-identical `SimStats` whether
/// the clock jumps over quiescent regions or walks them cycle by cycle.
#[test]
fn all_kernels_agree_skip_vs_naive() {
    for w in &suite() {
        let trace = w.capture().expect("kernel captures");
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let cfg = config(MachineModel::Baseline, issue);
            let skip = replay(&cfg, &trace);
            let mut naive = Simulator::naive_reference(&cfg);
            for op in &trace {
                naive.feed(op);
            }
            assert_eq!(skip, naive.finish(), "{} diverged ({issue:?})", w.name());
        }
    }
}

/// Resource starvation (one MSHR, write-cache line, ROB entry and stream
/// buffer, every FPU queue, the FPU ROB and the result busses at one,
/// 100-cycle memory) makes nearly every group wait on a single entry's
/// release, so the jump skips the longest stall regions.
#[test]
fn starved_machine_agrees_skip_vs_naive() {
    let mut cfg: MachineConfig =
        MachineModel::Small.config(IssueWidth::Dual, LatencyModel::Fixed(100));
    cfg.mshr_entries = 1;
    cfg.write_cache_lines = 1;
    cfg.rob_entries = 1;
    cfg.prefetch_buffers = 1;
    cfg.prefetch_depth = 1;
    cfg.fpu.instr_queue = 1;
    cfg.fpu.load_queue = 1;
    cfg.fpu.store_queue = 1;
    cfg.fpu.rob_entries = 1;
    cfg.fpu.result_busses = 1;
    cfg.validate().expect("starved config is still valid");
    for (name, stats) in kernels_agree_skip_vs_naive(&cfg) {
        assert!(stats.cycles >= stats.instructions, "{name} impossible CPI");
    }
}

/// A seeded-uniform memory latency returns fills out of issue order, so
/// deferred fills must still land in arrival order.
#[test]
fn jittered_latency_agrees_skip_vs_naive() {
    for seed in [1u64, 42] {
        let mut cfg = MachineModel::Baseline
            .config(IssueWidth::Dual, LatencyModel::Uniform { lo: 9, hi: 25 });
        cfg.seed = seed;
        for (name, stats) in kernels_agree_skip_vs_naive(&cfg) {
            assert!(stats.cycles > 0, "{name} produced no cycles (seed {seed})");
        }
    }
}
