//! Differential validation of basic-block superinstruction replay: the
//! block-granular engine (`replay_blocks`, with its scoreboard-only
//! fast path) must be *observationally identical* to the per-op oracle,
//! incremental streaming through `Simulator::feed` (`simulate`, and
//! `replay` of a packed capture).
//!
//! Layers of evidence:
//!
//! 1. a property test over random short traces — every op kind,
//!    register shape and address pattern — crossed with all three
//!    machine models and both issue widths, comparing four engines
//!    (per-op streaming, block fast path, block with the fast path
//!    disabled by an attached observer, and block replay under the
//!    naive cycle-walking reference engine), with the streamed
//!    lowering (`lower_ops`) checked equal to the sliced one (`lower`),
//! 2. the full 15-kernel suite replayed block-wise vs per-op, and
//!    captured straight into blocks vs lowered from the packed oracle,
//! 3. edge cases: every trace length up to several pairs (odd and even
//!    tails), all-branch traces (every block is one op), a strided loop
//!    whose one template replays many addresses, and mixed
//!    incremental-feed + block-feed delivery.
//!
//! Equality is `SimStats: Eq` — bit-identical counters, not tolerances.

use aurora3::core::{
    replay, replay_blocks, simulate, IssueWidth, MachineConfig, MachineModel, SimStats, Simulator,
};
use std::collections::HashSet;

use aurora3::isa::{ArchReg, BlockTrace, Fnv1a, MemWidth, OpKind, PackedTrace, TraceOp};
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

/// Expands one seed into a trace op (same generator as the
/// event-horizon differential suite, so both suites walk the same
/// corner space).
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

/// Feeds `blocks` to `sim` and returns its statistics.
fn run_blocks(mut sim: Simulator<'_>, blocks: &BlockTrace) -> SimStats {
    sim.feed_blocks(blocks);
    sim.finish()
}

/// Block replay with the fast path disabled: `feed_blocks` walks op by
/// op whenever an observer is attached.
fn block_per_op(cfg: &MachineConfig, blocks: &BlockTrace) -> SimStats {
    let mut sim = Simulator::new(cfg);
    sim.enable_observer(1);
    run_blocks(sim, blocks)
}

/// Runs all four engines over `ops` and asserts pairwise bit-equality.
/// Returns the agreed stats for any further checks.
fn assert_engines_agree(model: MachineModel, issue: IssueWidth, ops: &[TraceOp]) -> SimStats {
    let trace = PackedTrace::from_ops(ops.iter().copied());
    let blocks = BlockTrace::lower(&trace);
    assert_eq!(blocks.len(), ops.len() as u64, "lowering dropped ops");
    assert_eq!(
        BlockTrace::lower_ops(ops.iter().copied()),
        blocks,
        "streamed lowering != sliced lowering"
    );

    let cfg = config(model, issue);
    let streamed = simulate(&cfg, ops.iter().copied());
    let block_fast = replay_blocks(&cfg, &blocks);
    let block_per_op = block_per_op(&cfg, &blocks);
    let block_naive = run_blocks(Simulator::naive_reference(&cfg), &blocks);
    let mut streamed_naive = Simulator::naive_reference(&cfg);
    for op in ops {
        streamed_naive.feed(*op);
    }
    let streamed_naive = streamed_naive.finish();

    assert_eq!(block_fast, streamed, "block fast path != streamed");
    assert_eq!(block_per_op, streamed, "block per-op walk != streamed");
    assert_eq!(block_naive, streamed_naive, "block naive != streamed naive");
    block_fast
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random short traces: every replay engine agrees bit-for-bit on
    /// every machine model at both issue widths, in skip and naive modes.
    #[test]
    fn random_traces_agree_across_engines(
        seeds in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let ops: Vec<TraceOp> =
            seeds.iter().enumerate().map(|(i, &s)| op_from(s, i)).collect();
        for model in MachineModel::ALL {
            for issue in [IssueWidth::Single, IssueWidth::Dual] {
                assert_engines_agree(model, issue, &ops);
            }
        }
    }

    /// ALU-dense traces maximise fast-path coverage (long scoreboard-only
    /// runs, dense dual-issue pairing) — the adversarial case for the
    /// superinstruction engine rather than for the fallback.
    #[test]
    fn alu_dense_traces_agree(
        seeds in proptest::collection::vec(any::<u64>(), 1..200),
        pc_stride in 1u32..4,
    ) {
        let ops: Vec<TraceOp> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let kind = match s % 16 {
                    0 => OpKind::IntMul,
                    1 => OpKind::IntDiv,
                    2 => OpKind::Branch { taken: s & 2 != 0, target: 0x0040_0000 },
                    _ => OpKind::IntAlu,
                };
                TraceOp {
                    pc: 0x0040_0000 + 4 * ((pc_stride * i as u32) % 64),
                    kind,
                    dst: reg_from((s >> 24) as u8),
                    src1: reg_from((s >> 40) as u8),
                    src2: reg_from((s >> 48) as u8),
                }
            })
            .collect();
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            assert_engines_agree(MachineModel::Baseline, issue, &ops);
        }
    }
}

/// The 15 kernels of both suites at test scale.
fn test_suite() -> Vec<Workload> {
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

/// Every kernel in both suites produces bit-identical `SimStats` whether
/// replayed block-wise (fast path on, or off under an attached observer)
/// or op-by-op.
#[test]
fn all_kernels_agree_block_vs_per_op() {
    for w in &test_suite() {
        let trace = w.capture().expect("kernel captures");
        let blocks = BlockTrace::lower(&trace);
        assert_eq!(blocks.len(), trace.len() as u64);
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let cfg = config(MachineModel::Baseline, issue);
            let per_op = replay(&cfg, &trace);
            let block = replay_blocks(&cfg, &blocks);
            assert_eq!(block, per_op, "{} diverged ({issue:?})", w.name());
            let mut observed = Simulator::new(&cfg);
            observed.enable_observer(64);
            assert_eq!(
                run_blocks(observed, &blocks),
                per_op,
                "{} diverged with the fast path disabled ({issue:?})",
                w.name()
            );
        }
    }
}

/// Capturing straight into blocks gives exactly the lowering of the
/// packed oracle capture — templates, instances, addresses and stats —
/// and holds at most a quarter of the packed records' 16 bytes per op.
#[test]
fn all_kernels_capture_straight_into_blocks() {
    for w in &test_suite() {
        let trace = w.capture().expect("kernel captures");
        let blocks = w.capture_blocks().expect("kernel captures");
        assert_eq!(blocks, BlockTrace::lower(&trace), "{}", w.name());
        assert!(
            4 * blocks.mem_bytes() <= 16 * trace.len(),
            "{}: {} block bytes for {} ops",
            w.name(),
            blocks.mem_bytes(),
            trace.len()
        );
    }
}

/// Templates are keyed on static code: across the 15 kernels, no two
/// templates of one lowering hold the same ops once memory addresses
/// are zeroed (the addresses live in the operand stream instead).
#[test]
fn all_kernels_lower_to_static_templates() {
    for w in test_suite() {
        let trace = w.capture().expect("kernel captures");
        let blocks = BlockTrace::lower(&trace);
        let distinct: HashSet<Vec<TraceOp>> = blocks
            .templates()
            .iter()
            .map(|t| {
                blocks
                    .ops_of(t)
                    .iter()
                    .map(|op| TraceOp {
                        kind: op.kind.with_address(0),
                        ..*op
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            distinct.len(),
            blocks.templates().len(),
            "{}: templates duplicate static code",
            w.name()
        );
    }
}

/// Pins the lowering's per-template masks over the 15 kernels. The
/// engine comparisons above cannot see a `need_src` or `pair_ok` that
/// became more conservative, because the stats stay equal and only
/// replay speed drops; this hash can.
#[test]
fn all_kernels_lower_to_pinned_masks() {
    let store = TraceStore::global();
    let mut h = Fnv1a::new();
    let mut templates = 0usize;
    for w in test_suite() {
        let blocks = store.get_blocks(&w).expect("kernel captures");
        for t in blocks.templates() {
            h.write_u64(t.pair_ok);
            h.write_u64(t.need_src);
            h.write_u64(t.batch_mask);
            h.write_u64(t.mem_mask);
            h.write_usize(t.len());
        }
        templates += blocks.templates().len();
    }
    assert_eq!(templates, 907);
    assert_eq!(
        h.finish(),
        0x8b2b_90a3_d681_4c35,
        "mask hash {:#018x}",
        h.finish()
    );
}

/// The tail regression: every trace length from empty through several
/// pair cycles must deliver every op exactly once through every engine,
/// whichever exit the pair/non-pair paths take.
#[test]
fn odd_and_even_length_tails_deliver_every_op() {
    // Aligned independent ALU pairs, so the pair path is taken and the
    // trace can end on either half of a pair; a dependent variant
    // forces the non-pair path too.
    for len in 0..=17usize {
        let pairable: Vec<TraceOp> = (0..len)
            .map(|i| TraceOp {
                pc: 0x0040_0000 + 4 * (i as u32 % 16),
                kind: OpKind::IntAlu,
                dst: Some(ArchReg::Int(8 + (i % 2) as u8)),
                src1: Some(ArchReg::Int(10 + (i % 2) as u8)),
                src2: None,
            })
            .collect();
        let dependent: Vec<TraceOp> = (0..len)
            .map(|i| TraceOp {
                pc: 0x0040_0000 + 4 * (i as u32 % 16),
                kind: OpKind::IntAlu,
                dst: Some(ArchReg::Int(8)),
                src1: Some(ArchReg::Int(8)),
                src2: None,
            })
            .collect();
        for ops in [pairable, dependent] {
            for issue in [IssueWidth::Single, IssueWidth::Dual] {
                let stats = assert_engines_agree(MachineModel::Baseline, issue, &ops);
                assert_eq!(
                    stats.instructions, len as u64,
                    "an op was dropped or duplicated at len {len} ({issue:?})"
                );
            }
        }
    }
}

/// All-branch traces lower to single-op blocks — the degenerate case for
/// segmentation and for block-boundary pairing.
#[test]
fn all_branch_traces_agree() {
    for taken_mask in [0u32, u32::MAX, 0xAAAA_AAAA] {
        let ops: Vec<TraceOp> = (0..64u32)
            .map(|i| {
                TraceOp::bare(
                    0x0040_0000 + 4 * (i % 32),
                    OpKind::Branch {
                        taken: taken_mask & (1 << (i % 32)) != 0,
                        target: 0x0040_0000 + 4 * ((i + 7) % 32),
                    },
                )
            })
            .collect();
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let stats = assert_engines_agree(MachineModel::Baseline, issue, &ops);
            assert_eq!(stats.instructions, 64);
        }
    }
}

/// A loop striding through two arrays lowers to one template per static
/// block, so every address comes from the operand stream. Its loads
/// and stores cross D-cache lines — the second load of each iteration
/// hits the line the first one is still filling — so hits, misses and
/// MSHR merges all depend on the address each instance replays.
#[test]
fn strided_loop_agrees() {
    let mem = |pc, kind, dst, src2| TraceOp {
        pc,
        kind,
        dst,
        src1: Some(ArchReg::Int(4)),
        src2,
    };
    let word = MemWidth::Word;
    let ops: Vec<TraceOp> = (0..96u32)
        .flat_map(|k| {
            let (a, b) = (0x0010_0000 + 8 * k, 0x0070_0000 + 12 * k);
            [
                mem(
                    0x0040_0000,
                    OpKind::Load { ea: a, width: word },
                    Some(ArchReg::Int(8)),
                    None,
                ),
                mem(
                    0x0040_0004,
                    OpKind::Load {
                        ea: a + 4,
                        width: word,
                    },
                    Some(ArchReg::Int(9)),
                    None,
                ),
                TraceOp {
                    pc: 0x0040_0008,
                    kind: OpKind::IntAlu,
                    dst: Some(ArchReg::Int(10)),
                    src1: Some(ArchReg::Int(8)),
                    src2: Some(ArchReg::Int(9)),
                },
                mem(
                    0x0040_000c,
                    OpKind::Store { ea: b, width: word },
                    None,
                    Some(ArchReg::Int(10)),
                ),
                TraceOp::bare(
                    0x0040_0010,
                    OpKind::Branch {
                        taken: k < 95,
                        target: 0x0040_0000,
                    },
                ),
                TraceOp::bare(0x0040_0014, OpKind::Nop),
            ]
        })
        .collect();
    let blocks = BlockTrace::lower_ops(ops.iter().copied());
    // Blocks end at the branch, so the delay slot heads the next one:
    // the first iteration, the steady-state body, the not-taken exit
    // and the trailing delay slot — four templates for 96 iterations.
    assert_eq!(blocks.templates().len(), 4);
    assert_eq!(blocks.addrs().len(), 96 * 3);
    for model in MachineModel::ALL {
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let stats = assert_engines_agree(model, issue, &ops);
            assert_eq!(stats.instructions, ops.len() as u64);
        }
    }
}

/// Incremental `feed` followed by `feed_blocks` must interleave exactly
/// like one continuous stream: the pending look-ahead op pairs with the
/// first block's head.
#[test]
fn mixed_feed_and_block_delivery_agree() {
    let ops: Vec<TraceOp> = (0..40usize)
        .map(|i| op_from(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1), i))
        .collect();
    for split in [1usize, 3, 7, 39] {
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let cfg = config(MachineModel::Baseline, issue);
            let whole = simulate(&cfg, ops.iter().copied());

            let mut sim = Simulator::new(&cfg);
            for op in &ops[..split] {
                sim.feed(*op);
            }
            let tail = BlockTrace::lower_ops(ops[split..].iter().copied());
            sim.feed_blocks(&tail);
            assert_eq!(sim.finish(), whole, "split {split} diverged ({issue:?})");
        }
    }
}

/// A trace that defeats the lowering cap (a straight ALU run far longer
/// than one block) still agrees — block splits are semantically
/// invisible.
#[test]
fn capped_straight_line_blocks_agree() {
    let ops: Vec<TraceOp> = (0..500usize)
        .map(|i| TraceOp {
            pc: 0x0040_0000 + 4 * (i as u32 % 64),
            kind: OpKind::IntAlu,
            dst: Some(ArchReg::Int((i % 24) as u8)),
            src1: Some(ArchReg::Int(((i + 7) % 24) as u8)),
            src2: Some(ArchReg::Int(((i + 13) % 24) as u8)),
        })
        .collect();
    for model in MachineModel::ALL {
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let stats = assert_engines_agree(model, issue, &ops);
            assert_eq!(stats.instructions, 500);
        }
    }
}
