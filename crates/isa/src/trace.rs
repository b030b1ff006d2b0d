//! The dynamic trace format that drives the cycle-level simulator.
//!
//! The paper's evaluation is *trace-driven* (§4.1): the functional
//! [`Emulator`](crate::Emulator) executes a workload and emits one
//! [`TraceOp`] per retired instruction; the `aurora-core` pipeline model
//! then replays the trace against a machine configuration.

use std::fmt;

/// An architectural register name as seen by the dependence tracker.
///
/// Floating-point registers are normalised to the even register of their
/// pair, so double-precision producers and single-precision consumers of
/// either half always collide in the scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchReg {
    /// Integer register `$0`–`$31` (never `$zero`; writes to it are dropped).
    Int(u8),
    /// Floating-point register pair, identified by its even member.
    Fp(u8),
    /// The HI/LO multiply-divide register pair, treated as one resource.
    HiLo,
    /// The floating-point condition code set by `c.cond.fmt`.
    FpCond,
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchReg::Int(n) => write!(f, "r{n}"),
            ArchReg::Fp(n) => write!(f, "f{n}"),
            ArchReg::HiLo => f.write_str("hilo"),
            ArchReg::FpCond => f.write_str("fcc"),
        }
    }
}

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// One byte.
    Byte,
    /// Two bytes.
    Half,
    /// Four bytes.
    Word,
    /// Eight bytes (`ldc1`/`sdc1`).
    Double,
}

impl MemWidth {
    /// The access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// What a dynamic instruction did, with the operands the timing model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Single-cycle integer ALU operation (including `lui` and moves).
    IntAlu,
    /// Integer multiply feeding HI/LO.
    IntMul,
    /// Integer divide feeding HI/LO.
    IntDiv,
    /// Integer load from `ea`.
    Load {
        /// Effective byte address.
        ea: u32,
        /// Access width.
        width: MemWidth,
    },
    /// Integer store to `ea`.
    Store {
        /// Effective byte address.
        ea: u32,
        /// Access width.
        width: MemWidth,
    },
    /// Floating-point load (data flows to the FPU load queue).
    FpLoad {
        /// Effective byte address.
        ea: u32,
        /// Access width.
        width: MemWidth,
    },
    /// Floating-point store (data comes from the FPU store queue).
    FpStore {
        /// Effective byte address.
        ea: u32,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional branch.
    Branch {
        /// Whether the branch was taken in this execution.
        taken: bool,
        /// Target instruction address (meaningful when taken).
        target: u32,
    },
    /// Unconditional jump (`j`, `jal`, `jr`, `jalr`).
    Jump {
        /// Target instruction address.
        target: u32,
        /// Whether the target came from a register (`jr`/`jalr`); such
        /// jumps cannot be branch-folded, since the pre-decoded NEXT field
        /// only holds static targets.
        register: bool,
    },
    /// FPU add/subtract (add unit).
    FpAdd,
    /// FPU multiply (multiply unit).
    FpMul,
    /// FPU divide (divide unit).
    FpDiv,
    /// FPU square root (maps onto the divide hardware, §5.10).
    FpSqrt,
    /// Format conversion (conversion unit).
    FpCvt,
    /// Register move touching the FPU (`mfc1`/`mtc1`/`mov.fmt`/`abs`/`neg`).
    FpMove,
    /// FP compare setting the condition code (add unit).
    FpCmp,
    /// No-operation.
    Nop,
}

impl OpKind {
    /// Whether this op accesses data memory.
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            OpKind::Load { .. }
                | OpKind::Store { .. }
                | OpKind::FpLoad { .. }
                | OpKind::FpStore { .. }
        )
    }

    /// Whether this op executes in the decoupled FPU.
    #[inline]
    pub fn is_fpu(self) -> bool {
        matches!(
            self,
            OpKind::FpAdd
                | OpKind::FpMul
                | OpKind::FpDiv
                | OpKind::FpSqrt
                | OpKind::FpCvt
                | OpKind::FpMove
                | OpKind::FpCmp
        )
    }

    /// Whether this op is control flow (sets the CONT pre-decode bit).
    pub fn is_control_flow(self) -> bool {
        matches!(self, OpKind::Branch { .. } | OpKind::Jump { .. })
    }

    /// The effective address for memory ops.
    pub fn effective_address(self) -> Option<u32> {
        match self {
            OpKind::Load { ea, .. }
            | OpKind::Store { ea, .. }
            | OpKind::FpLoad { ea, .. }
            | OpKind::FpStore { ea, .. } => Some(ea),
            _ => None,
        }
    }

    /// This kind with its effective address replaced by `ea`; kinds
    /// that do not access memory are returned unchanged.
    #[inline]
    pub fn with_address(self, ea: u32) -> OpKind {
        match self {
            OpKind::Load { width, .. } => OpKind::Load { ea, width },
            OpKind::Store { width, .. } => OpKind::Store { ea, width },
            OpKind::FpLoad { width, .. } => OpKind::FpLoad { ea, width },
            OpKind::FpStore { width, .. } => OpKind::FpStore { ea, width },
            other => other,
        }
    }
}

/// One retired instruction in a dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOp {
    /// The instruction's address.
    pub pc: u32,
    /// What the instruction did.
    pub kind: OpKind,
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
    /// First source register, if any.
    pub src1: Option<ArchReg>,
    /// Second source register, if any.
    pub src2: Option<ArchReg>,
}

impl TraceOp {
    /// A trace op with no register operands.
    pub fn bare(pc: u32, kind: OpKind) -> TraceOp {
        TraceOp {
            pc,
            kind,
            dst: None,
            src1: None,
            src2: None,
        }
    }

    /// Iterates over the (up to two) source registers.
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }
}

/// Aggregate statistics over a trace, used to characterise workloads and in
/// tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub total: u64,
    /// Integer ALU ops (including nops).
    pub int_alu: u64,
    /// Integer multiplies and divides.
    pub int_muldiv: u64,
    /// Integer loads.
    pub loads: u64,
    /// Integer stores.
    pub stores: u64,
    /// FP loads.
    pub fp_loads: u64,
    /// FP stores.
    pub fp_stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
    /// Unconditional jumps.
    pub jumps: u64,
    /// FPU arithmetic ops (add/mul/div/sqrt/cvt/cmp/move).
    pub fp_ops: u64,
}

impl TraceStats {
    /// Folds one op into the statistics.
    pub fn record(&mut self, op: &TraceOp) {
        self.total += 1;
        match op.kind {
            OpKind::IntAlu | OpKind::Nop => self.int_alu += 1,
            OpKind::IntMul | OpKind::IntDiv => self.int_muldiv += 1,
            OpKind::Load { .. } => self.loads += 1,
            OpKind::Store { .. } => self.stores += 1,
            OpKind::FpLoad { .. } => self.fp_loads += 1,
            OpKind::FpStore { .. } => self.fp_stores += 1,
            OpKind::Branch { taken, .. } => {
                self.branches += 1;
                if taken {
                    self.taken_branches += 1;
                }
            }
            OpKind::Jump { .. } => self.jumps += 1,
            _ => self.fp_ops += 1,
        }
    }

    /// Fraction of instructions that access data memory.
    pub fn memory_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.loads + self.stores + self.fp_loads + self.fp_stores) as f64 / self.total as f64
    }

    /// Fraction of instructions that are FPU operations.
    pub fn fp_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.fp_ops as f64 / self.total as f64
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs: {} alu, {} mul/div, {}+{} loads, {}+{} stores, {} branches ({} taken), {} jumps, {} fp",
            self.total,
            self.int_alu,
            self.int_muldiv,
            self.loads,
            self.fp_loads,
            self.stores,
            self.fp_stores,
            self.branches,
            self.taken_branches,
            self.jumps,
            self.fp_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_predicates() {
        let ld = OpKind::Load {
            ea: 0x100,
            width: MemWidth::Word,
        };
        assert!(ld.is_memory());
        assert!(!ld.is_fpu());
        assert_eq!(ld.effective_address(), Some(0x100));
        assert!(OpKind::FpDiv.is_fpu());
        assert!(OpKind::Branch {
            taken: true,
            target: 0
        }
        .is_control_flow());
        assert_eq!(OpKind::IntAlu.effective_address(), None);
        assert_eq!(ld.with_address(0x200).effective_address(), Some(0x200));
        assert_eq!(OpKind::IntAlu.with_address(0x200), OpKind::IntAlu);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = TraceStats::default();
        s.record(&TraceOp::bare(0, OpKind::IntAlu));
        s.record(&TraceOp::bare(
            4,
            OpKind::Load {
                ea: 0,
                width: MemWidth::Word,
            },
        ));
        s.record(&TraceOp::bare(
            8,
            OpKind::Branch {
                taken: true,
                target: 0,
            },
        ));
        s.record(&TraceOp::bare(12, OpKind::FpMul));
        assert_eq!(s.total, 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.fp_ops, 1);
        assert!((s.memory_fraction() - 0.25).abs() < 1e-9);
        assert!((s.fp_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
        assert_eq!(MemWidth::Double.bytes(), 8);
    }
}
