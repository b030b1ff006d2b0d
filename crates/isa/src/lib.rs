//! Mini-MIPS instruction set substrate for the Aurora III study.
//!
//! The Aurora III processor described in *Resource Allocation in a High
//! Clock Rate Microprocessor* (ASPLOS 1994) implements the MIPS R3000 ISA.
//! This crate provides everything needed to produce the dynamic
//! instruction traces that drive the cycle-level simulator:
//!
//! * [`Reg`] / [`FReg`] — integer and floating-point architectural registers,
//! * [`Opcode`] / [`Instruction`] — a MIPS-I subset (plus the double-word
//!   FP loads/stores mentioned in §5.9 of the paper) with binary
//!   [`Instruction::encode`] / [`Instruction::decode`] using the standard
//!   MIPS field layout,
//! * [`Assembler`] — a two-pass text assembler with labels and data
//!   directives, and [`ProgramBuilder`] for programmatic code generation,
//! * [`Emulator`] — a functional emulator with MIPS branch-delay-slot
//!   semantics that executes a [`Program`] and emits [`TraceOp`] records,
//! * [`TraceOp`] / [`OpKind`] — the dynamic trace format consumed by the
//!   `aurora-core` cycle simulator,
//! * [`PackedTrace`] — a compact fixed-width in-memory trace: the
//!   oracle the differential checks replay op by op,
//! * [`WarmDigest`] — the events of a packed trace that functional
//!   warming reacts to (line transitions, memory references, control
//!   transfers), extracted once per trace and line size: sampled mode's
//!   oracle,
//! * [`BlockTrace`] — a trace lowered to basic blocks deduplicated by
//!   static code, each template carrying its pre-resolved per-op masks,
//!   plus a stream of effective addresses: the one form capture-once /
//!   replay-many sweeps and sampled runs walk.
//!   [`BlockTraceBuilder`] builds it one op at a time, straight from the
//!   emulator, and [`BlockTrace::lower`] from a held packed trace,
//! * [`Snapshot`] / [`SnapshotWriter`] / [`SnapshotReader`] — the
//!   versioned binary codec statistics serialize through: what the
//!   `aurora-serve` result store persists and stats fingerprints hash,
//! * [`Fnv1a`] — the stable cross-process fingerprint hasher that keys
//!   every content-addressed memo in the workspace (trace store, config
//!   fingerprints, the `aurora-serve` result store).
//!
//! # Example
//!
//! ```
//! use aurora_isa::{Assembler, Emulator, RunOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new().assemble(
//!     r#"
//!     .text
//!         addiu  $t0, $zero, 10    # counter
//!         addu   $t1, $zero, $zero # sum
//!     loop:
//!         addu   $t1, $t1, $t0
//!         addiu  $t0, $t0, -1
//!         bne    $t0, $zero, loop
//!         nop                      # branch delay slot
//!         break
//!     "#,
//! )?;
//! let mut emu = Emulator::new(&program);
//! let outcome = emu.run(1_000)?;
//! assert_eq!(outcome, RunOutcome::Halted);
//! assert_eq!(emu.reg(aurora_isa::Reg::T1), 55);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod asm;
mod block;
mod builder;
mod codec;
mod digest;
mod emu;
mod fingerprint;
mod instr;
mod opcode;
mod packed;
mod program;
mod reg;
mod snapshot;
mod trace;

pub use asm::{AsmError, Assembler};
pub use block::{BlockTemplate, BlockTrace, BlockTraceBuilder, MAX_BLOCK_OPS};
pub use builder::ProgramBuilder;
pub use digest::{WarmDigest, WarmEvent, WarmKind};
pub use emu::{EmuError, Emulator, RunOutcome};
pub use fingerprint::{fnv1a, Fnv1a};
pub use instr::{DecodeError, Instruction};
pub use opcode::{Opcode, OpcodeClass};
pub use packed::{PackedOp, PackedTrace};
pub use program::{DelaySlotError, Program, Segment};
pub use reg::{FReg, Reg};
pub use snapshot::{
    Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_FORMAT_VERSION,
};
pub use trace::{ArchReg, MemWidth, OpKind, TraceOp, TraceStats};
