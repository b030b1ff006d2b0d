//! Programmatic program construction with label back-patching.
//!
//! The workload crate mostly writes kernels as assembly text, but
//! data-driven code generation (e.g. unrolled loops whose shape depends on
//! a parameter) is easier with a builder.

use std::collections::BTreeMap;

use crate::instr::Instruction;
use crate::opcode::Opcode;
use crate::program::{Program, Segment, DATA_BASE, TEXT_BASE};
use crate::reg::Reg;

/// A forward-referenceable code label created by
/// [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incrementally builds a [`Program`] from [`Instruction`]s and raw data.
///
/// ```
/// use aurora_isa::{Emulator, Instruction, Opcode, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let loop_top = b.new_label();
/// b.push(Instruction::alu_i(Opcode::Addiu, Reg::T0, Reg::ZERO, 5));
/// b.bind(loop_top);
/// b.push(Instruction::alu_i(Opcode::Addiu, Reg::T0, Reg::T0, -1));
/// b.branch(Opcode::Bne, Reg::T0, Reg::ZERO, loop_top);
/// b.push(Instruction::nop()); // delay slot
/// b.push(Instruction::system(Opcode::Break));
/// let program = b.build();
///
/// let mut emu = Emulator::new(&program);
/// emu.run(1_000).unwrap();
/// assert_eq!(emu.reg(Reg::T0), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    instructions: Vec<Instruction>,
    data: Vec<u8>,
    labels: Vec<Option<u32>>,
    branch_fixups: Vec<(usize, Label)>,
    jump_fixups: Vec<(usize, Label)>,
    symbols: BTreeMap<String, u32>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current code position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let addr = TEXT_BASE + 4 * self.instructions.len() as u32;
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(addr);
    }

    /// The address of the next instruction to be pushed.
    pub fn here(&self) -> u32 {
        TEXT_BASE + 4 * self.instructions.len() as u32
    }

    /// Appends an instruction.
    pub fn push(&mut self, instr: Instruction) -> &mut ProgramBuilder {
        self.instructions.push(instr);
        self
    }

    /// Appends a compare branch to `label` (offset patched at build time).
    pub fn branch(&mut self, op: Opcode, rs: Reg, rt: Reg, label: Label) -> &mut ProgramBuilder {
        self.branch_fixups.push((self.instructions.len(), label));
        self.instructions
            .push(Instruction::branch_cmp(op, rs, rt, 0));
        self
    }

    /// Appends a compare-with-zero branch to `label`.
    pub fn branch_z(&mut self, op: Opcode, rs: Reg, label: Label) -> &mut ProgramBuilder {
        self.branch_fixups.push((self.instructions.len(), label));
        self.instructions.push(Instruction::branch_z(op, rs, 0));
        self
    }

    /// Appends an absolute jump to `label`.
    pub fn jump(&mut self, op: Opcode, label: Label) -> &mut ProgramBuilder {
        self.jump_fixups.push((self.instructions.len(), label));
        self.instructions.push(Instruction::jump(op, 0));
        self
    }

    /// Appends `li rt, value` (one or two instructions).
    pub fn load_imm(&mut self, rt: Reg, value: i32) -> &mut ProgramBuilder {
        if (-32768..=32767).contains(&value) {
            self.push(Instruction::alu_i(
                Opcode::Addiu,
                rt,
                Reg::ZERO,
                value as i16,
            ));
        } else {
            self.push(Instruction::lui(rt, (value >> 16) as i16));
            if value as u32 & 0xFFFF != 0 {
                self.push(Instruction::alu_i(Opcode::Ori, rt, rt, value as u16 as i16));
            }
        }
        self
    }

    /// Appends the two-instruction address materialisation `la rt, <data>`
    /// for a data offset previously returned by [`ProgramBuilder::data`].
    pub fn load_data_addr(&mut self, rt: Reg, data_addr: u32) -> &mut ProgramBuilder {
        self.push(Instruction::lui(Reg::AT, (data_addr >> 16) as i16));
        self.push(Instruction::alu_i(
            Opcode::Ori,
            rt,
            Reg::AT,
            data_addr as u16 as i16,
        ))
    }

    /// Appends raw bytes to the data segment, returning their address.
    pub fn data(&mut self, bytes: &[u8]) -> u32 {
        let addr = DATA_BASE + self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Appends 32-bit words to the data segment, returning their address.
    pub fn data_words(&mut self, words: &[u32]) -> u32 {
        self.align(4);
        let addr = DATA_BASE + self.data.len() as u32;
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Appends doubles to the data segment, returning their address.
    pub fn data_doubles(&mut self, values: &[f64]) -> u32 {
        self.align(8);
        let addr = DATA_BASE + self.data.len() as u32;
        for v in values {
            self.data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    /// Reserves `n` zeroed bytes in the data segment, returning the address.
    pub fn data_space(&mut self, n: usize) -> u32 {
        let addr = DATA_BASE + self.data.len() as u32;
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    /// Pads the data segment to `align` bytes (power of two).
    pub fn align(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        while !self.data.len().is_multiple_of(align) {
            self.data.push(0);
        }
    }

    /// Finalises the program, patching all label references.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound, or if a branch
    /// offset does not fit in 16 bits.
    pub fn build(mut self) -> Program {
        for (idx, label) in &self.branch_fixups {
            let target = self.labels[label.0].expect("branch to unbound label");
            let at = TEXT_BASE + 4 * *idx as u32;
            let delta = (target as i64 - (at as i64 + 4)) / 4;
            assert!(
                (-32768..=32767).contains(&delta),
                "branch offset {delta} out of range"
            );
            self.instructions[*idx].imm = delta as i16;
        }
        for (idx, label) in &self.jump_fixups {
            let target = self.labels[label.0].expect("jump to unbound label");
            self.instructions[*idx].target = target >> 2;
        }
        Program::new(
            TEXT_BASE,
            self.instructions,
            Segment {
                base: DATA_BASE,
                bytes: self.data,
            },
            TEXT_BASE,
            self.symbols,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::Emulator;

    #[test]
    fn builds_a_working_loop() {
        let mut b = ProgramBuilder::new();
        let arr = b.data_words(&[1, 2, 3, 4, 5]);
        let top = b.new_label();
        b.load_data_addr(Reg::S0, arr);
        b.load_imm(Reg::S1, 5);
        b.load_imm(Reg::T1, 0);
        b.bind(top);
        b.push(Instruction::mem(Opcode::Lw, Reg::T0, Reg::S0, 0));
        b.push(Instruction::alu_r(Opcode::Addu, Reg::T1, Reg::T1, Reg::T0));
        b.push(Instruction::alu_i(Opcode::Addiu, Reg::S0, Reg::S0, 4));
        b.push(Instruction::alu_i(Opcode::Addiu, Reg::S1, Reg::S1, -1));
        b.branch(Opcode::Bne, Reg::S1, Reg::ZERO, top);
        b.push(Instruction::nop());
        b.push(Instruction::system(Opcode::Break));
        let p = b.build();

        let mut emu = Emulator::new(&p);
        emu.run(1_000).unwrap();
        assert_eq!(emu.reg(Reg::T1), 15);
    }

    #[test]
    fn forward_jumps_resolve() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.load_imm(Reg::T0, 1);
        b.jump(Opcode::J, end);
        b.push(Instruction::nop());
        b.load_imm(Reg::T0, 2); // skipped
        b.bind(end);
        b.push(Instruction::system(Opcode::Break));
        let p = b.build();
        let mut emu = Emulator::new(&p);
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::T0), 1);
    }

    #[test]
    fn data_helpers_align() {
        let mut b = ProgramBuilder::new();
        let a = b.data(&[1]);
        let w = b.data_words(&[7]);
        let d = b.data_doubles(&[1.5]);
        assert_eq!(w % 4, 0);
        assert_eq!(d % 8, 0);
        assert!(w > a && d > w);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.branch(Opcode::Beq, Reg::ZERO, Reg::ZERO, l);
        b.push(Instruction::nop());
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }
}
