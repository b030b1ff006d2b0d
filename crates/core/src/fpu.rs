//! Cycle-level model of the decoupled floating-point unit (paper §3).
//!
//! The FPU sits behind an instruction queue: the IPU transfers FP
//! instructions and keeps running, stalling only when the queue fills or
//! when it needs an FPU result. Inside, the FPU has a 32×64 register
//! file, a scoreboard, a reorder buffer, four functional units
//! (add/multiply/divide/convert — square root shares the divide hardware)
//! and two result busses. Up to two instructions issue per cycle from the
//! queue head under the dual-issue policy (§5.8).

use std::collections::VecDeque;

use aurora_isa::{ArchReg, OpKind, TraceOp};

use crate::config::{FpIssuePolicy, FpuConfig};
use crate::rob::ReorderBuffer;

/// Functional units inside the FPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Add,
    Mul,
    Div,
    Cvt,
    /// Register moves: no major unit, one cycle through the bypass.
    Move,
}

/// Outcome of handing FP load data to the load queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FpLoadNote {
    /// Cycle the value lands in the register file.
    pub rf_write: u64,
    /// Cycle the data could enter the queue; later than its arrival when
    /// the queue was full, in which case the LSU pipe is blocked until
    /// then.
    pub admitted: u64,
}

/// What the IPU learns from dispatching an FP instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FpuDispatch {
    /// Cycle the instruction issues inside the FPU (leaves the queue).
    pub issue_at: u64,
    /// Cycle its result is visible (register, condition code, or — for
    /// `mfc1` — the integer register on the IPU side).
    pub result_at: u64,
}

/// FPU-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FpuStats {
    /// Instructions dispatched into the queue.
    pub dispatched: u64,
    /// Instructions that issued in the same cycle as their predecessor
    /// (dual-issue pairs; counts the second member).
    pub dual_issues: u64,
}

/// The decoupled FPU timing engine.
#[derive(Debug, Clone)]
pub(crate) struct Fpu {
    cfg: FpuConfig,
    /// Queue entries: the cycle each queued instruction issues (leaves).
    iq: VecDeque<u64>,
    /// Load-data queue entries: the cycle each outstanding FP load's data
    /// is written into the register file.
    ldq: VecDeque<u64>,
    /// Store queue entries: the cycle each pending FP store's data leaves.
    stq: VecDeque<u64>,
    /// Ready cycle per even register pair.
    score: [u64; 16],
    fpcc_ready: u64,
    rob: ReorderBuffer,
    unit_free: [u64; 4],
    /// Completions scheduled per cycle (bounded by `result_busses`): a
    /// dense window of counts where slot `i` covers absolute cycle
    /// `bus_base + i`. The window spans only the live scheduling range
    /// (issue cycle to the latest booked completion), so it stays a few
    /// dozen entries and replaces the allocation-heavy per-cycle map the
    /// hot path used to rebuild.
    bus_load: VecDeque<u32>,
    bus_base: u64,
    last_issue_cycle: u64,
    issued_in_cycle: usize,
    /// Completion of the most recently issued instruction (for the
    /// in-order-completion policy) and the latest completion overall.
    prev_completion: u64,
    latest_event: u64,
    stats: FpuStats,
}

impl Fpu {
    pub(crate) fn new(cfg: FpuConfig) -> Fpu {
        let rob = ReorderBuffer::new(cfg.rob_entries);
        Fpu {
            cfg,
            iq: VecDeque::new(),
            ldq: VecDeque::new(),
            stq: VecDeque::new(),
            score: [0; 16],
            fpcc_ready: 0,
            rob,
            unit_free: [0; 4],
            bus_load: VecDeque::new(),
            bus_base: 0,
            last_issue_cycle: 0,
            issued_in_cycle: 0,
            prev_completion: 0,
            latest_event: 0,
            stats: FpuStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> FpuStats {
        self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = FpuStats::default();
    }

    /// Cycle the FP condition code is valid (for `bc1t`/`bc1f`).
    pub(crate) fn fpcc_ready(&self) -> u64 {
        self.fpcc_ready
    }

    /// Ready cycle of an FP register (for FP store data).
    pub(crate) fn reg_ready(&self, reg: ArchReg) -> u64 {
        match reg {
            ArchReg::Fp(n) => self.score.get((n / 2) as usize).copied().unwrap_or(0),
            ArchReg::FpCond => self.fpcc_ready,
            _ => 0,
        }
    }

    /// Earliest cycle `>= now` with a free instruction-queue slot.
    pub(crate) fn iq_space_at(&mut self, now: u64) -> u64 {
        while matches!(self.iq.front(), Some(&leave) if leave <= now) {
            self.iq.pop_front();
        }
        if self.iq.len() < self.cfg.instr_queue {
            now
        } else {
            // The queue is non-empty here (its length is at capacity), so
            // the front is always present; `now` is a safe identity.
            self.iq.front().copied().unwrap_or(now)
        }
    }

    /// Instruction-queue occupancy at cycle `now`: entries whose issue
    /// (queue-departure) cycle lies after `now`. Side-effect free; used
    /// by the observability layer to sample queue depth at dispatch.
    pub(crate) fn iq_occupancy(&self, now: u64) -> u64 {
        self.iq.iter().filter(|&&leaves| leaves > now).count() as u64
    }

    /// Earliest cycle `>= now` with a free store-queue slot.
    pub(crate) fn stq_space_at(&mut self, now: u64) -> u64 {
        while matches!(self.stq.front(), Some(&t) if t <= now) {
            self.stq.pop_front();
        }
        if self.stq.len() < self.cfg.store_queue {
            now
        } else {
            self.stq.front().copied().unwrap_or(now)
        }
    }

    /// Records an FP load whose data arrives from the LSU at `data_at`;
    /// returns the cycle the value is usable in the register file.
    ///
    /// The load queue buffers *arrived* data until a register-file write
    /// slot is free — RF writes share the result busses with the
    /// functional units (§3.1), so heavy computation backs load data up.
    /// When every queue entry still holds unwritten data, the new line
    /// must wait in the LSU for the oldest entry to drain.
    pub(crate) fn note_fp_load(&mut self, dst: Option<ArchReg>, data_at: u64) -> FpLoadNote {
        while matches!(self.ldq.front(), Some(&t) if t <= data_at) {
            self.ldq.pop_front();
        }
        let mut admitted = if self.ldq.len() < self.cfg.load_queue {
            data_at
        } else {
            // At capacity the queue is non-empty, so the pop yields the
            // oldest entry; an empty queue simply imposes no wait.
            match self.ldq.pop_front() {
                Some(oldest) => oldest.max(data_at),
                None => data_at,
            }
        };
        // Strict in-order completion has a single in-order register-file
        // write stream: load data cannot be written ahead of an older FP
        // instruction's result.
        if self.cfg.issue_policy == FpIssuePolicy::InOrderComplete {
            admitted = admitted.max(self.prev_completion);
        }
        let rf_write = self.schedule_result_bus(admitted + 1);
        if self.cfg.issue_policy == FpIssuePolicy::InOrderComplete {
            self.prev_completion = self.prev_completion.max(rf_write);
        }
        self.ldq.push_back(rf_write);
        if let Some(ArchReg::Fp(n)) = dst {
            if let Some(slot) = self.score.get_mut((n / 2) as usize) {
                *slot = rf_write;
            }
        }
        self.latest_event = self.latest_event.max(rf_write);
        FpLoadNote { rf_write, admitted }
    }

    /// Records an FP store dispatched at `now` whose data is produced at
    /// `data_at`; returns when the data is handed to the write cache.
    ///
    /// Call only after waiting for [`Fpu::stq_space_at`].
    pub(crate) fn note_fp_store(&mut self, now: u64, data_at: u64) -> u64 {
        let leaves = now.max(data_at) + 1;
        self.stq.push_back(leaves);
        self.latest_event = self.latest_event.max(leaves);
        leaves
    }

    /// Dispatches an FPU arithmetic/move/compare instruction that the IPU
    /// transfers at cycle `now`.
    ///
    /// Call only after waiting for [`Fpu::iq_space_at`]. Returns the issue
    /// and result cycles.
    pub(crate) fn dispatch(&mut self, op: &TraceOp, now: u64) -> FpuDispatch {
        self.stats.dispatched += 1;
        let unit = unit_of(op.kind);
        let latency = self.latency_of(op.kind) as u64;

        // Transfer into the queue takes one cycle.
        let arrive = now + 1;
        let src_ready = op.sources().map(|r| self.reg_ready(r)).max().unwrap_or(0);
        let max_per_cycle = match self.cfg.issue_policy {
            FpIssuePolicy::OutOfOrderDual => 2,
            _ => 1,
        };

        // The issue constraints are all monotone max() bounds that do not
        // depend on the issue cycle itself, so their fixpoint is the
        // plain maximum, applied once. The one conditional bump — a full
        // issue slot in the in-order stream — can only fire at
        // `last_issue_cycle`, and every later constraint keeps `t` at or
        // above it, so applying the bump first is exact.
        // In-order issue: never before the previous instruction.
        let mut t = arrive.max(src_ready).max(self.last_issue_cycle);
        if t == self.last_issue_cycle && self.issued_in_cycle >= max_per_cycle {
            t += 1;
        }
        // In-order completion policy: previous op must have finished.
        if self.cfg.issue_policy == FpIssuePolicy::InOrderComplete {
            t = t.max(self.prev_completion);
        }
        // Functional unit availability.
        if let Some(u) = unit_index(unit) {
            t = t.max(self.unit_free.get(u).copied().unwrap_or(0));
        }
        // Reorder-buffer space (a full ROB always has a next-free time).
        self.rob.drain(t);
        if !self.rob.has_space() {
            if let Some(free) = self.rob.next_free_at() {
                t = t.max(free);
            }
            self.rob.drain(t);
        }

        // Completion plus a result-bus slot.
        let completion = self.schedule_result_bus(t + latency);

        // Commit state updates.
        if t == self.last_issue_cycle {
            self.issued_in_cycle = self.issued_in_cycle.saturating_add(1);
            if self.issued_in_cycle > 1 {
                self.stats.dual_issues += 1;
            }
        } else {
            self.last_issue_cycle = t;
            self.issued_in_cycle = 1;
        }
        if let Some(u) = unit_index(unit) {
            let pipelined = match unit {
                Unit::Add => self.cfg.add_pipelined,
                Unit::Mul => self.cfg.mul_pipelined,
                // Divide is iterative (never pipelined, §3.1); conversion
                // is short enough to treat as pipelined.
                Unit::Div => false,
                _ => true,
            };
            if let Some(slot) = self.unit_free.get_mut(u) {
                *slot = if pipelined { t + 1 } else { completion };
            }
        }
        let pushed = self.rob.try_push(completion);
        debug_assert!(pushed, "rob space was ensured above");
        match op.dst {
            Some(ArchReg::Fp(n)) => {
                if let Some(slot) = self.score.get_mut((n / 2) as usize) {
                    *slot = completion;
                }
            }
            Some(ArchReg::FpCond) => self.fpcc_ready = completion,
            _ => {}
        }
        self.prev_completion = completion;
        self.latest_event = self.latest_event.max(completion);
        self.iq.push_back(t);
        // Prune stale bus slots: nothing can be scheduled before `t` again.
        // (Pruned cycles that do get re-requested — e.g. old load data —
        // start back at zero, exactly as a map rebuild would behave.)
        if t > self.bus_base {
            let drop = ((t - self.bus_base) as usize).min(self.bus_load.len());
            self.bus_load.drain(..drop);
            self.bus_base = t;
        }

        FpuDispatch {
            issue_at: t,
            result_at: completion + 1,
        }
    }

    /// Cycle by which everything in flight has completed.
    pub(crate) fn drained_at(&self) -> u64 {
        self.latest_event.max(self.rob.drained_at())
    }

    fn latency_of(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::FpAdd | OpKind::FpCmp => self.cfg.add_latency,
            OpKind::FpMul => self.cfg.mul_latency,
            OpKind::FpDiv | OpKind::FpSqrt => self.cfg.div_latency,
            OpKind::FpCvt => self.cfg.cvt_latency,
            OpKind::FpMove => 1,
            // lint:allow(L002): dispatch is only reached for kinds where
            // `is_fpu()` holds; a non-FPU kind here is a decoder bug that
            // must not be silently timed
            other => unreachable!("{other:?} is not an FPU op"),
        }
    }

    /// Books a result-bus slot at or after `completion`.
    fn schedule_result_bus(&mut self, completion: u64) -> u64 {
        if self.bus_load.is_empty() {
            self.bus_base = completion;
        } else if completion < self.bus_base {
            // A request below the window (stale load data after a prune):
            // grow the window downward so the counts stay addressable.
            for _ in completion..self.bus_base {
                self.bus_load.push_front(0);
            }
            self.bus_base = completion;
        }
        let mut idx = (completion - self.bus_base) as usize;
        loop {
            if idx >= self.bus_load.len() {
                self.bus_load.resize(idx + 1, 0);
            }
            // The resize above makes the slot addressable, so the `None`
            // arm is unreachable and simply advances like a full slot.
            match self.bus_load.get_mut(idx) {
                Some(slot) if (*slot as usize) < self.cfg.result_busses => {
                    *slot += 1;
                    return self.bus_base + idx as u64;
                }
                _ => idx += 1,
            }
        }
    }
}

fn unit_of(kind: OpKind) -> Unit {
    match kind {
        OpKind::FpAdd | OpKind::FpCmp => Unit::Add,
        OpKind::FpMul => Unit::Mul,
        OpKind::FpDiv | OpKind::FpSqrt => Unit::Div,
        OpKind::FpCvt => Unit::Cvt,
        _ => Unit::Move,
    }
}

fn unit_index(unit: Unit) -> Option<usize> {
    match unit {
        Unit::Add => Some(0),
        Unit::Mul => Some(1),
        Unit::Div => Some(2),
        Unit::Cvt => Some(3),
        Unit::Move => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_op(kind: OpKind, dst: u8, src1: u8, src2: u8) -> TraceOp {
        TraceOp {
            pc: 0,
            kind,
            dst: Some(ArchReg::Fp(dst)),
            src1: Some(ArchReg::Fp(src1)),
            src2: Some(ArchReg::Fp(src2)),
        }
    }

    fn cfg(policy: FpIssuePolicy) -> FpuConfig {
        FpuConfig {
            issue_policy: policy,
            ..FpuConfig::recommended()
        }
    }

    #[test]
    fn independent_adds_pipeline_under_ooo() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderSingle));
        let a = fpu.dispatch(&fp_op(OpKind::FpAdd, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpAdd, 8, 10, 12), 0);
        // In-order single issue: one per cycle, but overlapped execution.
        assert_eq!(b.issue_at, a.issue_at + 1);
        assert_eq!(b.result_at, a.result_at + 1);
    }

    #[test]
    fn in_order_completion_serialises() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::InOrderComplete));
        let a = fpu.dispatch(&fp_op(OpKind::FpAdd, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpAdd, 8, 10, 12), 0);
        // The second op cannot even issue until the first completes.
        assert!(b.issue_at >= a.result_at - 1);
    }

    #[test]
    fn dual_issue_pairs_independent_ops() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderDual));
        let a = fpu.dispatch(&fp_op(OpKind::FpAdd, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpMul, 8, 10, 12), 0);
        assert_eq!(
            a.issue_at, b.issue_at,
            "different units, no deps: same cycle"
        );
        assert_eq!(fpu.stats().dual_issues, 1);
        let c = fpu.dispatch(&fp_op(OpKind::FpCvt, 14, 16, 16), 0);
        assert_eq!(c.issue_at, a.issue_at + 1, "third op of the cycle waits");
    }

    #[test]
    fn true_dependency_waits_for_producer() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderDual));
        let a = fpu.dispatch(&fp_op(OpKind::FpMul, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpAdd, 8, 2, 6), 0);
        assert!(
            b.issue_at >= a.result_at - 1,
            "consumer waits for mul result"
        );
    }

    #[test]
    fn iterative_divider_blocks_back_to_back_divides() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderDual));
        let a = fpu.dispatch(&fp_op(OpKind::FpDiv, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpDiv, 8, 10, 12), 0);
        assert!(b.issue_at >= a.result_at - 1, "divider is not pipelined");
    }

    #[test]
    fn non_pipelined_multiplier_blocks() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderDual)); // mul_pipelined = false
        let a = fpu.dispatch(&fp_op(OpKind::FpMul, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpMul, 8, 10, 12), 0);
        assert!(b.issue_at >= a.issue_at + 5);

        let mut pipelined = cfg(FpIssuePolicy::OutOfOrderDual);
        pipelined.mul_pipelined = true;
        let mut fpu = Fpu::new(pipelined);
        let a = fpu.dispatch(&fp_op(OpKind::FpMul, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpMul, 8, 10, 12), 0);
        assert_eq!(b.issue_at, a.issue_at + 1);
    }

    #[test]
    fn sqrt_shares_divide_hardware() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderDual));
        let a = fpu.dispatch(&fp_op(OpKind::FpSqrt, 2, 4, 4), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpDiv, 8, 10, 12), 0);
        assert!(b.issue_at >= a.result_at - 1);
    }

    #[test]
    fn queue_fills_and_frees() {
        let mut small = cfg(FpIssuePolicy::InOrderComplete);
        small.instr_queue = 2;
        small.div_latency = 19;
        let mut fpu = Fpu::new(small);
        // Two slow divides fill the 2-entry queue (second waits to issue).
        fpu.dispatch(&fp_op(OpKind::FpDiv, 2, 4, 6), 0);
        fpu.dispatch(&fp_op(OpKind::FpDiv, 8, 10, 12), 0);
        // Space only opens once the second entry issues.
        let space = fpu.iq_space_at(0);
        assert!(space > 0, "queue full at dispatch time");
    }

    #[test]
    fn result_bus_limits_simultaneous_completions() {
        let mut one_bus = cfg(FpIssuePolicy::OutOfOrderDual);
        one_bus.result_busses = 1;
        one_bus.add_latency = 3;
        one_bus.cvt_latency = 3; // same latency: both would complete together
        let mut fpu = Fpu::new(one_bus);
        let a = fpu.dispatch(&fp_op(OpKind::FpAdd, 2, 4, 6), 0);
        let b = fpu.dispatch(&fp_op(OpKind::FpCvt, 8, 10, 10), 0);
        assert_eq!(a.issue_at, b.issue_at, "dual issue to different units");
        assert!(b.result_at > a.result_at, "single bus staggers completions");
    }

    #[test]
    fn store_queue_bounds_outstanding_stores() {
        let mut c = cfg(FpIssuePolicy::OutOfOrderDual);
        c.store_queue = 1;
        let mut fpu = Fpu::new(c);
        assert_eq!(fpu.stq_space_at(0), 0);
        let left = fpu.note_fp_store(0, 50);
        assert_eq!(left, 51);
        assert_eq!(fpu.stq_space_at(10), 51);
    }

    #[test]
    fn full_load_queue_delays_rf_writes() {
        let mut c = cfg(FpIssuePolicy::OutOfOrderDual);
        c.load_queue = 1;
        c.result_busses = 1;
        let mut fpu = Fpu::new(c);
        // Data arriving back to back: with a single-entry queue the second
        // write waits for the first entry to drain.
        let w1 = fpu.note_fp_load(Some(ArchReg::Fp(2)), 10);
        let w2 = fpu.note_fp_load(Some(ArchReg::Fp(4)), 10);
        assert_eq!(w1.rf_write, 11);
        assert!(
            w2.rf_write > w1.rf_write,
            "second write delayed: {w2:?} vs {w1:?}"
        );
        assert!(
            w2.admitted >= w1.rf_write,
            "LSU blocked until the queue drains"
        );

        // With two entries and two busses, simultaneous arrivals coexist.
        let mut roomy = cfg(FpIssuePolicy::OutOfOrderDual);
        roomy.load_queue = 2;
        let mut fpu = Fpu::new(roomy);
        let w1 = fpu.note_fp_load(Some(ArchReg::Fp(2)), 10);
        let w2 = fpu.note_fp_load(Some(ArchReg::Fp(4)), 10);
        assert_eq!(w1.rf_write, 11);
        assert_eq!(w2.rf_write, 11, "two busses write both arrivals");
    }

    #[test]
    fn fp_load_feeds_scoreboard() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderSingle));
        fpu.note_fp_load(Some(ArchReg::Fp(2)), 20);
        let add = fpu.dispatch(&fp_op(OpKind::FpAdd, 4, 2, 2), 0);
        assert!(add.issue_at >= 21, "add waits for the load's RF write");
    }

    #[test]
    fn compare_sets_condition_code() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderSingle));
        let op = TraceOp {
            pc: 0,
            kind: OpKind::FpCmp,
            dst: Some(ArchReg::FpCond),
            src1: Some(ArchReg::Fp(2)),
            src2: Some(ArchReg::Fp(4)),
        };
        let d = fpu.dispatch(&op, 0);
        assert_eq!(fpu.fpcc_ready(), d.result_at - 1);
    }

    #[test]
    fn drained_at_covers_all_events() {
        let mut fpu = Fpu::new(cfg(FpIssuePolicy::OutOfOrderSingle));
        let d = fpu.dispatch(&fp_op(OpKind::FpDiv, 2, 4, 6), 0);
        assert!(fpu.drained_at() >= d.result_at - 1);
        fpu.note_fp_load(Some(ArchReg::Fp(8)), 1000);
        assert!(fpu.drained_at() >= 1001);
    }
}
