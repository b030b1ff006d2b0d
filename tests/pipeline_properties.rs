//! Property-based integration tests across the crates: assembler ↔
//! emulator semantics, trace well-formedness, and simulator invariants on
//! arbitrary synthetic traces.

use aurora3::core::{simulate, IssueWidth, MachineModel};
use aurora3::isa::{Assembler, Emulator, Instruction, OpKind, Reg, RunOutcome};
use aurora3::mem::LatencyModel;
use aurora3::workloads::synthetic::SyntheticConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A counting loop computes the same closed-form sum for any bound,
    /// and the trace length matches the retired-instruction count.
    #[test]
    fn loop_sums_match_closed_form(n in 1u32..200) {
        let src = format!(
            ".text\n li $t0, {n}\n li $t1, 0\nl: addu $t1, $t1, $t0\n \
             addiu $t0, $t0, -1\n bgtz $t0, l\n nop\n break\n"
        );
        let program = Assembler::new().assemble(&src).unwrap();
        let mut emu = Emulator::new(&program);
        let mut count = 0u64;
        let outcome = emu.run_traced(1_000_000, |_| count += 1).unwrap();
        prop_assert_eq!(outcome, RunOutcome::Halted);
        prop_assert_eq!(emu.reg(Reg::T1), n * (n + 1) / 2);
        prop_assert_eq!(count, emu.retired());
    }

    /// Every instruction in an assembled program survives an
    /// encode/decode round trip.
    #[test]
    fn assembled_programs_round_trip(words in proptest::collection::vec(1u32..64, 1..20)) {
        let mut body = String::from(".text\n");
        for (i, w) in words.iter().enumerate() {
            body.push_str(&format!(" addiu $t{}, $zero, {w}\n", i % 8));
        }
        body.push_str(" break\n");
        let program = Assembler::new().assemble(&body).unwrap();
        for instr in program.instructions() {
            prop_assert_eq!(&Instruction::decode(instr.encode()).unwrap(), instr);
        }
    }

    /// Simulated cycles are at least instructions/issue-width and the
    /// stall accounting never exceeds total cycles.
    #[test]
    fn simulator_invariants_on_synthetic_traces(
        seed in any::<u64>(),
        loads in 0.0f64..0.35,
        branches in 0.0f64..0.25,
        seq in 0.0f64..1.0,
    ) {
        let trace = SyntheticConfig {
            instructions: 5_000,
            load_fraction: loads,
            store_fraction: 0.1,
            branch_fraction: branches,
            sequential_data_prob: seq,
            seed,
            ..Default::default()
        };
        for issue in [IssueWidth::Single, IssueWidth::Dual] {
            let cfg = MachineModel::Baseline.config(issue, LatencyModel::Fixed(17));
            let stats = simulate(&cfg, trace.generate());
            prop_assert_eq!(stats.instructions, 5_000);
            let floor = 5_000 / issue.width() as u64;
            prop_assert!(stats.cycles >= floor, "cycles {} < floor {floor}", stats.cycles);
            prop_assert!(stats.stalls.total() <= stats.cycles);
            let s = stats.icache;
            prop_assert_eq!(s.hits + s.misses, s.accesses);
            let d = stats.dcache;
            prop_assert_eq!(d.hits + d.misses, d.accesses);
        }
    }

    /// Dual issue never runs more cycles than single issue on the same
    /// trace and configuration.
    #[test]
    fn dual_issue_never_slower(seed in any::<u64>()) {
        let trace = SyntheticConfig {
            instructions: 4_000,
            seed,
            ..Default::default()
        };
        let single = simulate(
            &MachineModel::Baseline.config(IssueWidth::Single, LatencyModel::Fixed(17)),
            trace.generate(),
        );
        let dual = simulate(
            &MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17)),
            trace.generate(),
        );
        prop_assert!(dual.cycles <= single.cycles + 8,
            "dual {} vs single {}", dual.cycles, single.cycles);
    }

    /// A larger machine (more of everything) never loses badly to a
    /// smaller one on the same trace.
    #[test]
    fn bigger_machine_is_not_much_worse(seed in any::<u64>()) {
        let trace = SyntheticConfig {
            instructions: 4_000,
            load_fraction: 0.3,
            seed,
            ..Default::default()
        };
        let small = simulate(
            &MachineModel::Small.config(IssueWidth::Dual, LatencyModel::Fixed(17)),
            trace.generate(),
        );
        let large = simulate(
            &MachineModel::Large.config(IssueWidth::Dual, LatencyModel::Fixed(17)),
            trace.generate(),
        );
        prop_assert!(
            (large.cycles as f64) <= small.cycles as f64 * 1.05,
            "large {} vs small {}", large.cycles, small.cycles
        );
    }
}

/// The emulator's branch-delay-slot semantics feed the simulator a trace
/// where the delay-slot instruction follows every taken branch.
#[test]
fn delay_slots_visible_in_trace() {
    let program = Assembler::new()
        .assemble(
            r#"
            .text
                li $t0, 50
            loop:
                addiu $t0, $t0, -1
                bgtz $t0, loop
                addiu $t1, $t1, 1    # delay slot, always executes
                break
            "#,
        )
        .unwrap();
    let mut emu = Emulator::new(&program);
    let mut prev_branch_pc = None;
    let mut delay_checks = 0;
    emu.run_traced(10_000, |op| {
        if let Some(bpc) = prev_branch_pc.take() {
            assert_eq!(op.pc, bpc + 4, "delay slot must follow its branch");
            delay_checks += 1;
        }
        if matches!(op.kind, OpKind::Branch { .. }) {
            prev_branch_pc = Some(op.pc);
        }
    })
    .unwrap();
    assert_eq!(delay_checks, 50);
    assert_eq!(
        emu.reg(Reg::T1),
        50,
        "delay slot executed on every iteration"
    );
}

/// Trace statistics from a kernel agree with a recount of the trace.
#[test]
fn workload_stats_agree_with_trace() {
    use aurora3::isa::TraceStats;
    let w = aurora3::workloads::IntBenchmark::Sc.workload(aurora3::workloads::Scale::Test);
    let trace = w.capture().unwrap();
    let mut recount = TraceStats::default();
    for op in &trace {
        recount.record(&op);
    }
    assert_eq!(&recount, trace.stats());
}
