//! The knob suite: one row per `MachineConfig`/`FpuConfig` field.
//!
//! Every Table 1 resource the paper trades is a knob, and `aurora-serve`
//! memoises cells on `MachineConfig::fingerprint()`. Each row changes its
//! one knob on baseline/dual/`Fixed(17)` (one change against one
//! baseline), checks that the memo key moved, replays a directed
//! microbenchmark that isolates the knob's mechanism through the product
//! engine (lowered once into blocks, replayed with `replay_blocks`) and
//! asserts, strictly, the direction §2–§3 predict on a named `SimStats`
//! value. A knob that moves nothing is an *inert* row: it asserts
//! bit-identical `SimStats` and states the measured reason.
//!
//! The table destructures both structs without `..`, so a new field does
//! not compile until it has a row, and every row takes its knob's
//! baseline value. `docs/MODEL.md` ("Knobs") lists the rows.

use aurora3::core::{
    replay_blocks, FpIssuePolicy, FpuConfig, IssueWidth, MachineConfig, MachineModel, SimStats,
    StallKind,
};
use aurora3::isa::{ArchReg, BlockTrace, Fnv1a, MemWidth, OpKind, TraceOp};
use aurora3::mem::LatencyModel;

const BASE: u32 = 0x0040_0000;

fn baseline() -> MachineConfig {
    MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17))
}

/// `baseline` with `change` applied. The fingerprint must move exactly
/// when a knob does, and a knob change never touches the label.
fn with(change: impl FnOnce(&mut MachineConfig)) -> MachineConfig {
    let base = baseline();
    let mut cfg = base.clone();
    change(&mut cfg);
    assert_eq!(cfg.name, base.name, "a knob row must not relabel");
    assert_eq!(
        cfg == base,
        cfg.fingerprint() == base.fingerprint(),
        "fingerprint() must move exactly when a knob does: {cfg:?}"
    );
    cfg
}

fn run(cfg: &MachineConfig, trace: &BlockTrace) -> SimStats {
    replay_blocks(cfg, trace)
}

/// Runs `trace` once per value of one knob.
fn sweep<T: Copy>(
    values: &[T],
    set: impl Fn(&mut MachineConfig, T),
    trace: &BlockTrace,
) -> Vec<SimStats> {
    values
        .iter()
        .map(|&v| run(&with(|c| set(c, v)), trace))
        .collect()
}

fn rising(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

fn falling(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] > w[1])
}

fn cpis(runs: &[SimStats]) -> Vec<f64> {
    runs.iter().map(SimStats::cpi).collect()
}

fn op(kind: OpKind, dst: Option<ArchReg>, src1: Option<ArchReg>, src2: Option<ArchReg>) -> TraceOp {
    TraceOp {
        pc: 0,
        kind,
        dst,
        src1,
        src2,
    }
}

fn alu(dst: u8, src: u8) -> TraceOp {
    op(
        OpKind::IntAlu,
        Some(ArchReg::Int(dst)),
        Some(ArchReg::Int(src)),
        None,
    )
}

fn load(dst: u8, ea: u32) -> TraceOp {
    let kind = OpKind::Load {
        ea,
        width: MemWidth::Word,
    };
    op(kind, Some(ArchReg::Int(dst)), Some(ArchReg::Int(29)), None)
}

fn store(ea: u32) -> TraceOp {
    let kind = OpKind::Store {
        ea,
        width: MemWidth::Word,
    };
    op(kind, None, Some(ArchReg::Int(29)), Some(ArchReg::Int(8)))
}

fn branch(target: u32) -> TraceOp {
    let kind = OpKind::Branch {
        taken: true,
        target,
    };
    op(kind, None, Some(ArchReg::Int(8)), None)
}

fn fp(kind: OpKind, dst: u8, a: u8, b: u8) -> TraceOp {
    op(
        kind,
        Some(ArchReg::Fp(dst)),
        Some(ArchReg::Fp(a)),
        Some(ArchReg::Fp(b)),
    )
}

fn fp_load(dst: u8, ea: u32) -> TraceOp {
    let kind = OpKind::FpLoad {
        ea,
        width: MemWidth::Double,
    };
    op(kind, Some(ArchReg::Fp(dst)), Some(ArchReg::Int(29)), None)
}

fn fp_store(src: u8, ea: u32) -> TraceOp {
    let kind = OpKind::FpStore {
        ea,
        width: MemWidth::Double,
    };
    op(kind, None, Some(ArchReg::Int(29)), Some(ArchReg::Fp(src)))
}

fn at(pc: u32, mut op: TraceOp) -> TraceOp {
    op.pc = pc;
    op
}

/// `iters` passes over a loop body laid out from `BASE`; `body(i)` gives
/// pass `i`'s ops, so addresses can walk while the code stays put.
fn looped(iters: u32, body: impl Fn(u32) -> Vec<TraceOp>) -> BlockTrace {
    BlockTrace::lower_ops((0..iters).flat_map(|i| {
        body(i)
            .into_iter()
            .enumerate()
            .map(|(j, op)| at(BASE + 4 * j as u32, op))
    }))
}

/// Independent ALU ops in aligned pairs: nothing but issue width binds.
fn independent_alu() -> BlockTrace {
    looped(250, |_| {
        (0..16u8).map(|j| alu(8 + j % 2, 10 + j % 2)).collect()
    })
}

/// One word load per 8 bytes of a fresh array: every line is a
/// compulsory miss that a stream buffer can cover.
fn sequential_loads() -> BlockTrace {
    BlockTrace::lower_ops((0..6000u32).map(|i| {
        at(
            BASE + 4 * (i % 16),
            load((8 + i % 8) as u8, 0x0010_0000 + 8 * i),
        )
    }))
}

/// The knob table. Each row takes its knob's baseline value.
#[test]
fn every_knob_moves_what_the_paper_predicts() {
    let MachineConfig {
        name,
        issue_width,
        icache_bytes,
        dcache_bytes,
        line_bytes,
        write_cache_lines,
        rob_entries,
        prefetch_buffers,
        prefetch_depth,
        prefetch_enabled,
        mshr_entries,
        memory_latency,
        dcache_latency,
        branch_folding,
        write_validation,
        fpu:
            FpuConfig {
                issue_policy,
                instr_queue,
                load_queue,
                store_queue,
                rob_entries: fpu_rob_entries,
                add_latency,
                mul_latency,
                div_latency,
                cvt_latency,
                add_pipelined,
                mul_pipelined,
                result_busses,
            },
        seed,
    } = baseline();
    name_row(name);
    issue_width_row(issue_width);
    icache_bytes_row(icache_bytes);
    dcache_bytes_row(dcache_bytes);
    line_bytes_row(line_bytes);
    write_cache_lines_row(write_cache_lines);
    rob_entries_row(rob_entries);
    prefetch_buffers_row(prefetch_buffers);
    prefetch_depth_row(prefetch_depth);
    prefetch_enabled_row(prefetch_enabled);
    mshr_entries_row(mshr_entries);
    memory_latency_row(memory_latency);
    dcache_latency_row(dcache_latency);
    branch_folding_row(branch_folding);
    write_validation_row(write_validation);
    fp_issue_policy_row(issue_policy);
    fp_instr_queue_row(instr_queue);
    fp_load_queue_row(load_queue);
    fp_store_queue_row(store_queue);
    fp_rob_entries_row(fpu_rob_entries);
    fp_add_latency_row(add_latency);
    fp_mul_latency_row(mul_latency);
    fp_div_latency_row(div_latency);
    fp_cvt_latency_row(cvt_latency);
    fp_add_pipelined_row(add_pipelined);
    fp_mul_pipelined_row(mul_pipelined);
    fp_result_busses_row(result_busses);
    seed_row(seed);
}

/// Inert by design: `name` labels reports and is left out of the memo key.
fn name_row(base: String) {
    let mut renamed = baseline();
    renamed.name = format!("{base} (renamed)");
    assert_eq!(renamed.fingerprint(), baseline().fingerprint());
    let trace = independent_alu();
    assert_eq!(run(&renamed, &trace), run(&baseline(), &trace));
}

/// §2: two pipes issue an aligned independent pair per cycle.
fn issue_width_row(base: IssueWidth) {
    assert_eq!(base, IssueWidth::Dual);
    let trace = independent_alu();
    let dual = run(&baseline(), &trace);
    let single = run(&with(|c| c.issue_width = IssueWidth::Single), &trace);
    assert!(single.cpi() > 0.95, "single CPI {}", single.cpi());
    assert!(
        dual.cpi() < 0.75 * single.cpi(),
        "dual {} vs single {}",
        dual.cpi(),
        single.cpi()
    );
    assert!(dual.dual_issue_rate() > 0.4, "{}", dual.dual_issue_rate());
}

/// §5.6: a 4 KB I-cache holds a loop between 2 and 4 KB, so twenty
/// passes take no more misses than one; the 2 KB cache misses every pass.
fn icache_bytes_row(base: u32) {
    let code = |passes| {
        looped(passes, |_| {
            (0..768u32).map(|j| alu(8 + (j % 4) as u8, 12)).collect()
        })
    };
    let sizes = [base, 2 * base];
    let set = |c: &mut MachineConfig, v| c.icache_bytes = v;
    let (one, twenty) = (sweep(&sizes, set, &code(1)), sweep(&sizes, set, &code(20)));
    assert_eq!(twenty[1].icache.misses, one[1].icache.misses);
    assert!(twenty[0].icache.misses > 10 * one[0].icache.misses);
    assert!(twenty[1].stalls[StallKind::ICache] < twenty[0].stalls[StallKind::ICache]);
    assert!(falling(&cpis(&twenty)), "CPI {:?}", cpis(&twenty));
}

/// Table 1: a 48 KB working set misses in the 32 KB D-cache on every
/// pass and fits in 64 KB.
fn dcache_bytes_row(base: u32) {
    assert_eq!(base, 32 * 1024);
    let lines = 48 * 1024 / 32;
    let trace = looped(6 * lines, |i| {
        vec![
            load(8, 0x0080_0000 + 32 * (i % lines)),
            alu(9, 10),
            alu(10, 11),
            alu(11, 12),
        ]
    });
    let runs = sweep(
        &[base / 2, base, base * 2],
        |c, v| c.dcache_bytes = v,
        &trace,
    );
    let hit: Vec<f64> = runs.iter().map(|s| s.dcache.hit_rate()).collect();
    assert!(rising(&hit), "D-cache hit rate {hit:?}");
    let cpi = cpis(&runs);
    assert!(falling(&cpi), "CPI {cpi:?}");
}

/// Longer lines take fewer primary D-cache misses (each probes the
/// stream buffers) on a sequential stream.
fn line_bytes_row(base: u32) {
    let runs = sweep(
        &[base / 2, base, base * 2],
        |c, v| c.line_bytes = v,
        &sequential_loads(),
    );
    let misses: Vec<u64> = runs.iter().map(|s| s.dstream.probes).collect();
    assert!(
        misses[0] > misses[1] && misses[1] > misses[2],
        "primary misses {misses:?}"
    );
}

/// §5.6: the write-cache hit rate rises with lines up to the stream's
/// line count. The stream stores to line `ctz(i) mod 8`, so line k recurs
/// after k + 1 others: an LRU cache of c lines hits on lines up to c - 2.
/// A store stream moves the hit rate and the BIU write-backs, not CPI.
fn write_cache_lines_row(base: usize) {
    assert_eq!(base, 4);
    let trace = looped(4096, |i| {
        vec![store(0x3000 + 32 * ((i + 1).trailing_zeros() % 8))]
    });
    let runs = sweep(&[1, 2, base, 8, 16], |c, v| c.write_cache_lines = v, &trace);
    let hit: Vec<f64> = runs.iter().map(|s| s.write_cache.hit_rate()).collect();
    assert!(rising(&hit[..4]), "write-cache hit rate {hit:?}");
    assert_eq!(
        runs[3], runs[4],
        "beyond the stream's 8 lines nothing moves"
    );
    let write_backs: Vec<u64> = runs.iter().map(|s| s.biu.write_backs).collect();
    assert!(
        write_backs[..4].windows(2).all(|w| w[0] > w[1]) && write_backs[3] == 0,
        "BIU write-backs {write_backs:?}"
    );
}

/// §2.3: a miss at the ROB head stalls the fast ALU ops behind it once
/// the ROB fills.
fn rob_entries_row(base: usize) {
    let trace = looped(300, |i| {
        let mut body = vec![load(8, 0x0020_0000 + 4096 * i)];
        body.extend((0..6).map(|_| alu(9, 10)));
        body
    });
    let runs = sweep(&[2, base, 16], |c, v| c.rob_entries = v, &trace);
    let full: Vec<u64> = runs.iter().map(|s| s.stalls[StallKind::RobFull]).collect();
    assert!(full[0] > full[1] && full[1] > full[2], "ROB-full {full:?}");
    let cpi = cpis(&runs);
    assert!(falling(&cpi), "CPI {cpi:?}");
}

/// §2.2: four interleaved sequential streams each need a buffer of their
/// own; fewer buffers thrash. The streams sit 8 KB apart, so they share
/// no D-cache set, and the code is one I-cache line.
fn prefetch_buffers_row(base: usize) {
    assert_eq!(base, 4);
    let trace = looped(1000, |i| {
        (0..4u32)
            .map(|s| load((8 + s) as u8, 0x0100_0000 + 0x2000 * s + 8 * i))
            .collect()
    });
    let runs = sweep(&[1, 2, base], |c, v| c.prefetch_buffers = v, &trace);
    let hit: Vec<f64> = runs.iter().map(|s| s.dstream.hit_rate()).collect();
    let cpi = cpis(&runs);
    for thrash in 0..2 {
        assert!(hit[thrash] < hit[2], "D-stream hit rate {hit:?}");
        assert!(cpi[thrash] > cpi[2], "CPI {cpi:?}");
    }
}

/// §2.2: depth sets how far ahead a stream runs. At depth 1 each line is
/// fetched only when the previous one is used, so memory latency shows.
/// Buffers are probed at the head only, so on a sequential stream every
/// line after the first hits at any depth: the D-stream hit rate does
/// not move with depth.
fn prefetch_depth_row(base: usize) {
    let runs = sweep(
        &[1, base, 8],
        |c, v| c.prefetch_depth = v,
        &sequential_loads(),
    );
    let cpi = cpis(&runs);
    assert!(cpi[0] > cpi[1], "CPI {cpi:?}");
    let hit: Vec<f64> = runs.iter().map(|s| s.dstream.hit_rate()).collect();
    assert!(hit.iter().all(|&h| h == hit[0] && h > 0.99), "{hit:?}");
}

/// Figure 5: stream buffers hide a sequential walk's misses; without the
/// prefetch unit no prefetch traffic exists at all.
fn prefetch_enabled_row(base: bool) {
    assert!(base);
    let trace = sequential_loads();
    let on = run(&baseline(), &trace);
    let off = run(&with(|c| c.prefetch_enabled = false), &trace);
    assert!(on.dstream.hit_rate() > 0.5, "{}", on.dstream.hit_rate());
    assert!(
        on.cpi() < off.cpi(),
        "prefetch {} vs none {}",
        on.cpi(),
        off.cpi()
    );
    assert_eq!(off.biu.prefetches, 0);
    assert_eq!(off.dstream.probes, 0);
}

/// §2.3, Figure 7: every memory op in the LSU holds an MSHR, so one MSHR
/// serialises independent loads that more MSHRs pipeline.
fn mshr_entries_row(base: usize) {
    let trace = looped(3000, |i| {
        vec![load((8 + i % 16) as u8, 0x2000 + 32 * (i % 16))]
    });
    let runs = sweep(&[1, base, 4], |c, v| c.mshr_entries = v, &trace);
    let (one, two, four) = (&runs[0], &runs[1], &runs[2]);
    assert!(
        one.cpi() > 1.2 * four.cpi(),
        "1-MSHR {} vs 4-MSHR {}",
        one.cpi(),
        four.cpi()
    );
    assert!(one.cpi() > two.cpi(), "{} vs {}", one.cpi(), two.cpi());
    assert!(one.stalls[StallKind::LsuBusy] > four.stalls[StallKind::LsuBusy]);
}

/// §1, §6: CPI rises with memory latency from 9 to 100 cycles, and the
/// dual-issue gain shrinks. The three latency forms key apart.
fn memory_latency_row(base: LatencyModel) {
    assert_eq!(base, LatencyModel::Fixed(17));
    let forms = [
        base,
        LatencyModel::average_17(),
        LatencyModel::Bimodal {
            hit: 9,
            miss: 25,
            hit_permille: 500,
        },
    ];
    let keys: Vec<u64> = forms
        .iter()
        .map(|&l| with(|c| c.memory_latency = l).fingerprint())
        .collect();
    assert!(
        keys[0] != keys[1] && keys[0] != keys[2] && keys[1] != keys[2],
        "latency forms share a key: {keys:x?}"
    );
    let trace = looped(500, |i| {
        let mut body = vec![load(8, 0x0040_0000 + 4096 * i)];
        body.extend((0..15u8).map(|k| alu(10 + k % 2, 12 + k % 2)));
        body
    });
    let latencies = [9, 17, 35, 60, 100];
    let dual = sweep(
        &latencies,
        |c, l| c.memory_latency = LatencyModel::Fixed(l),
        &trace,
    );
    let single = sweep(
        &latencies,
        |c, l| {
            c.issue_width = IssueWidth::Single;
            c.memory_latency = LatencyModel::Fixed(l);
        },
        &trace,
    );
    let (cd, cs) = (cpis(&dual), cpis(&single));
    assert!(rising(&cd) && rising(&cs), "dual {cd:?} single {cs:?}");
    let gain: Vec<f64> = cs.iter().zip(&cd).map(|(s, d)| (s - d) / s).collect();
    assert!(falling(&gain), "dual-issue gain must shrink: {gain:?}");
}

/// §5.3: CPI rises with the pipelined D-cache latency on a load-use
/// chain, and the extra cycles are Load stalls.
fn dcache_latency_row(base: u32) {
    let trace = looped(500, |_| vec![load(8, 0x2000), alu(9, 8)]);
    let runs = sweep(&[1, 2, base, 4, 5], |c, v| c.dcache_latency = v, &trace);
    assert!(rising(&cpis(&runs)), "CPI {:?}", cpis(&runs));
    let load: Vec<f64> = runs
        .iter()
        .map(|s| s.stalls[StallKind::Load] as f64)
        .collect();
    assert!(rising(&load), "Load stalls {load:?}");
}

/// Figure 3: the NEXT field folds taken branches; without it each taken
/// transfer costs a fetch bubble.
fn branch_folding_row(base: bool) {
    assert!(base);
    let trace = BlockTrace::lower_ops((0..400).flat_map(|_| {
        [
            at(BASE, branch(BASE + 32)),
            at(BASE + 4, alu(8, 9)), // delay slot
            at(BASE + 32, alu(8, 9)),
            at(BASE + 36, branch(BASE)),
            at(BASE + 40, alu(9, 9)), // delay slot
        ]
    }));
    let on = run(&baseline(), &trace);
    let off = run(&with(|c| c.branch_folding = false), &trace);
    assert!(on.folded_branches > 700, "{}", on.folded_branches);
    assert_eq!(off.folded_branches, 0);
    assert!(off.cycles > on.cycles, "{} vs {}", off.cycles, on.cycles);
}

/// §2.3: the write cache's page field validates stores on chip; without
/// it every store queries the MMU.
fn write_validation_row(base: bool) {
    assert!(base);
    let trace = looped(500, |i| vec![store(0x3000 + 4 * (i % 8))]);
    let on = run(&baseline(), &trace);
    let off = run(&with(|c| c.write_validation = false), &trace);
    // Same page throughout: the micro-TLB validates all but the first.
    assert!(on.biu.validations <= 2, "{}", on.biu.validations);
    assert_eq!(off.biu.validations, 500);
}

/// §5.8, Table 6: on independent add/convert pairs, in-order completion
/// is slowest and out-of-order dual issue fastest.
fn fp_issue_policy_row(base: FpIssuePolicy) {
    assert_eq!(base, FpIssuePolicy::OutOfOrderDual);
    let trace = looped(2000, |i| {
        let r = 2 * (i % 8) as u8;
        vec![
            fp(OpKind::FpAdd, r, 20, 22),
            fp(OpKind::FpCvt, r + 16, 20, 22),
        ]
    });
    let runs = sweep(
        &[
            FpIssuePolicy::InOrderComplete,
            FpIssuePolicy::OutOfOrderSingle,
            base,
        ],
        |c, v| c.fpu.issue_policy = v,
        &trace,
    );
    let cpi = cpis(&runs);
    assert!(falling(&cpi), "CPI {cpi:?}");
    assert_eq!(runs[1].fp_dual_issues, 0);
    assert!(runs[2].fp_dual_issues > 0);
}

/// A divide followed by two dependent adds, then integer work: §3's
/// instruction queue lets the IPU run ahead while the adds wait, so a
/// 1-entry queue stalls the IPU on FP-queue-full.
fn fp_instr_queue_row(base: usize) {
    let trace = looped(300, |_| {
        let mut body = vec![
            fp(OpKind::FpDiv, 2, 4, 6),
            fp(OpKind::FpAdd, 8, 2, 10),
            fp(OpKind::FpAdd, 12, 8, 10),
        ];
        body.extend((0..40).map(|_| alu(8, 9)));
        body
    });
    let runs = sweep(&[1, base], |c, v| c.fpu.instr_queue = v, &trace);
    assert!(falling(&cpis(&runs)), "CPI {:?}", cpis(&runs));
    assert!(runs[0].stalls[StallKind::FpQueue] > runs[1].stalls[StallKind::FpQueue]);
}

/// Inert: §3's load queue holds arrived FP load data until a result bus
/// writes it, so it should bind when a burst of FP results (four ops
/// released by a divide) takes the busses as loads arrive. It never
/// does: `execute` blocks the LSU port until each FP load's data is
/// admitted, which is never before it arrives, so FP loads issue about
/// one per `dcache_latency + 1` cycles where integer loads issue about
/// one per cycle (asserted below), and an entry leaves at its register-file
/// write, one or two cycles after arrival, before the next load's data
/// comes. Queue sizes 1, 2 and 8 replay bit for bit. This is why
/// Figure 9b is flat (see docs/MODEL.md).
fn fp_load_queue_row(base: usize) {
    let burst = |pad: usize| {
        looped(300, move |i| {
            let mut body = vec![
                fp(OpKind::FpDiv, 2, 4, 6),
                fp(OpKind::FpAdd, 8, 2, 10),
                fp(OpKind::FpCvt, 12, 2, 2),
                fp(OpKind::FpAdd, 14, 2, 10),
                fp(OpKind::FpCvt, 16, 2, 2),
            ];
            body.extend((0..pad).map(|_| alu(8, 9)));
            body.extend(
                (0..8u32)
                    .map(|k| fp_load(20 + 2 * (k % 4) as u8, 0x2000 + 8 * ((8 * i + k) % 512))),
            );
            body
        })
    };
    for pad in [0, 10, 20, 30] {
        let trace = burst(pad);
        let runs = sweep(&[1, base, 8], |c, v| c.fpu.load_queue = v, &trace);
        assert!(runs[0] == runs[1] && runs[1] == runs[2], "pad {pad}");
    }
    let fp_loads = run(
        &baseline(),
        &looped(2000, |i| vec![fp_load(20, 0x2000 + 8 * (i % 512))]),
    );
    let int_loads = run(
        &baseline(),
        &looped(2000, |i| vec![load(8, 0x2000 + 8 * (i % 512))]),
    );
    assert!(
        fp_loads.cpi() > 2.5 * int_loads.cpi(),
        "FP loads {} vs integer loads {}",
        fp_loads.cpi(),
        int_loads.cpi()
    );
}

/// §3: an FP store holds a store-queue entry until its data leaves the
/// FPU. Behind a divide, a 1-entry queue stalls the next FP store.
fn fp_store_queue_row(base: usize) {
    let trace = looped(300, |i| {
        let mut body = vec![
            fp(OpKind::FpDiv, 2, 4, 6),
            fp_store(2, 0x4000 + 8 * (i % 64)),
            fp_store(4, 0x4800 + 8 * (i % 64)),
        ];
        body.extend((0..40).map(|_| alu(8, 9)));
        body
    });
    let runs = sweep(&[1, base], |c, v| c.fpu.store_queue = v, &trace);
    assert!(falling(&cpis(&runs)), "CPI {:?}", cpis(&runs));
    assert!(runs[0].stalls[StallKind::FpQueue] > runs[1].stalls[StallKind::FpQueue]);
}

/// Independent FP adds: each in flight holds an FPU ROB entry for the
/// add latency, so a small ROB caps the pipelined add unit's rate.
fn independent_adds() -> BlockTrace {
    looped(2000, |i| vec![fp(OpKind::FpAdd, 2 * (i % 8) as u8, 20, 22)])
}

fn fp_rob_entries_row(base: usize) {
    let runs = sweep(
        &[1, 2, base],
        |c, v| c.fpu.rob_entries = v,
        &independent_adds(),
    );
    let cpi = cpis(&runs);
    assert!(falling(&cpi), "CPI {cpi:?}");
}

/// A dependent chain of one FP op `kind` costs its unit's latency per op.
fn chain_cpis(kind: OpKind, values: &[u32], set: impl Fn(&mut MachineConfig, u32)) -> Vec<f64> {
    let trace = looped(500, |_| vec![fp(kind, 2, 2, 4)]);
    cpis(&sweep(values, set, &trace))
}

/// §5.9: CPI rises with the add latency on a dependent add chain.
fn fp_add_latency_row(base: u32) {
    let cpi = chain_cpis(OpKind::FpAdd, &[1, base, 5], |c, v| c.fpu.add_latency = v);
    assert!(rising(&cpi), "{cpi:?}");
}

/// §5.10: CPI rises with the multiply latency on a dependent chain.
fn fp_mul_latency_row(base: u32) {
    let cpi = chain_cpis(OpKind::FpMul, &[1, 3, base], |c, v| c.fpu.mul_latency = v);
    assert!(rising(&cpi), "{cpi:?}");
}

/// §5.10: CPI rises with the divide latency (10–30 studied).
fn fp_div_latency_row(base: u32) {
    let cpi = chain_cpis(OpKind::FpDiv, &[10, base, 30], |c, v| c.fpu.div_latency = v);
    assert!(rising(&cpi), "{cpi:?}");
}

/// CPI rises with the conversion latency on a dependent chain.
fn fp_cvt_latency_row(base: u32) {
    let cpi = chain_cpis(OpKind::FpCvt, &[1, base, 5], |c, v| c.fpu.cvt_latency = v);
    assert!(rising(&cpi), "{cpi:?}");
}

/// §5.9: an unpipelined add unit takes one independent add per latency.
fn fp_add_pipelined_row(base: bool) {
    let runs = sweep(
        &[false, base],
        |c, v| c.fpu.add_pipelined = v,
        &independent_adds(),
    );
    assert!(falling(&cpis(&runs)), "CPI {:?}", cpis(&runs));
}

/// §5.10: the recommended iterative multiplier is not pipelined;
/// pipelining it speeds independent multiplies.
fn fp_mul_pipelined_row(base: bool) {
    let trace = looped(2000, |i| vec![fp(OpKind::FpMul, 2 * (i % 8) as u8, 20, 22)]);
    let runs = sweep(&[base, true], |c, v| c.fpu.mul_pipelined = v, &trace);
    assert!(falling(&cpis(&runs)), "CPI {:?}", cpis(&runs));
}

/// §3.1: results reach the register file over the result busses. When a
/// divide releases its dependents together their results collide, and a
/// single bus delays the chain behind them.
fn fp_result_busses_row(base: usize) {
    let trace = looped(500, |_| {
        vec![
            fp(OpKind::FpDiv, 2, 4, 6),
            fp(OpKind::FpAdd, 6, 2, 10),
            fp(OpKind::FpCvt, 4, 2, 2),
            fp(OpKind::FpMove, 12, 2, 2),
            fp(OpKind::FpAdd, 14, 12, 12),
        ]
    });
    let runs = sweep(&[1, base], |c, v| c.fpu.result_busses = v, &trace);
    assert!(falling(&cpis(&runs)), "CPI {:?}", cpis(&runs));
}

/// The latency seed draws `Uniform` latencies. Under the baseline's
/// `Fixed` latency it is inert (bit-identical stats) yet still moves the
/// fingerprint: over-keyed, kept so store keys do not move. Under
/// `Uniform` it changes the run, and one seed reproduces it.
fn seed_row(base: u64) {
    let trace = BlockTrace::lower_ops(
        (0..3000u32).map(|i| at(BASE + 4 * (i % 16), load(8, 0x0030_0000 + 512 * i))),
    );
    let reseeded = with(|c| c.seed = base ^ 1);
    assert_eq!(run(&reseeded, &trace), run(&baseline(), &trace));
    let uniform = |seed: u64| {
        with(|c| {
            c.memory_latency = LatencyModel::average_35();
            c.seed = seed;
        })
    };
    let (a, b) = (uniform(base), uniform(base ^ 1));
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_ne!(run(&a, &trace).cycles, run(&b, &trace).cycles);
    assert_eq!(run(&a, &trace), run(&a, &trace));
}

/// The memo keys the result store was written under. baseline/dual/
/// `Fixed(17)`, then every preset: `MachineModel::ALL` × {single, dual}
/// × {`Fixed(17)`, `Fixed(35)`}, nested in that order.
#[test]
fn memo_keys_are_pinned() {
    assert_eq!(baseline().fingerprint(), 0x82c5_42e6_914a_682f);
    let mut h = Fnv1a::new();
    for model in MachineModel::ALL {
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            for latency in [17, 35] {
                h.write_u64(
                    model
                        .config(issue, LatencyModel::Fixed(latency))
                        .fingerprint(),
                );
            }
        }
    }
    assert_eq!(h.finish(), 0x77c5_0c81_df5d_33c7);
}
