//! Functional emulator with MIPS branch-delay-slot semantics.

use std::fmt;

use crate::instr::Instruction;
use crate::opcode::Opcode;
use crate::program::{Program, STACK_TOP};
use crate::reg::{FReg, Reg};
use crate::trace::{ArchReg, MemWidth, OpKind, TraceOp};

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Page-number bits resolved by a second-level table; the top
/// `32 - PAGE_BITS - LEAF_BITS` address bits index the root.
const LEAF_BITS: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_BITS;
const ROOT_LEAVES: usize = 1 << (32 - PAGE_BITS - LEAF_BITS);

type Page = Box<[u8; PAGE_SIZE]>;
type Leaf = Box<[Option<Page>; LEAF_PAGES]>;

/// Sparse paged byte-addressable memory over the whole 32-bit space: a
/// two-level table indexed directly by address bits, so a load or store
/// costs two indexed reads and no hashing. Pages are allocated on first
/// write; unmapped bytes read as zero.
#[derive(Debug, Clone)]
struct Memory {
    root: Box<[Option<Leaf>; ROOT_LEAVES]>,
}

impl Memory {
    fn new() -> Memory {
        Memory {
            root: Box::new([const { None }; ROOT_LEAVES]),
        }
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let leaf = self.root[(addr >> (PAGE_BITS + LEAF_BITS)) as usize].as_ref()?;
        leaf[(addr >> PAGE_BITS) as usize & (LEAF_PAGES - 1)].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let leaf = self.root[(addr >> (PAGE_BITS + LEAF_BITS)) as usize]
            .get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        leaf[(addr >> PAGE_BITS) as usize & (LEAF_PAGES - 1)]
            .get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Fills `buf` from `addr` on, a page at a time; addresses wrap at
    /// the top of the address space.
    fn read(&self, mut addr: u32, mut buf: &mut [u8]) {
        while !buf.is_empty() {
            let off = addr as usize & (PAGE_SIZE - 1);
            let n = buf.len().min(PAGE_SIZE - off);
            let (chunk, rest) = buf.split_at_mut(n);
            match self.page(addr) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            addr = addr.wrapping_add(n as u32);
            buf = rest;
        }
    }

    /// Copies `bytes` to `addr` on, a page at a time; addresses wrap at
    /// the top of the address space.
    fn write(&mut self, mut addr: u32, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = addr as usize & (PAGE_SIZE - 1);
            let n = bytes.len().min(PAGE_SIZE - off);
            let (chunk, rest) = bytes.split_at(n);
            self.page_mut(addr)[off..off + n].copy_from_slice(chunk);
            addr = addr.wrapping_add(n as u32);
            bytes = rest;
        }
    }

    fn read_u32(&self, addr: u32) -> u32 {
        let mut b = [0; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    fn write_u32(&mut self, addr: u32, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }
}

/// Why [`Emulator::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `break` or `syscall`.
    Halted,
    /// The instruction budget was exhausted first.
    LimitReached,
}

/// Runtime error raised by the emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the text segment.
    BadPc {
        /// The offending program counter.
        pc: u32,
    },
    /// A load or store address was not aligned to the access width.
    Unaligned {
        /// The instruction's address.
        pc: u32,
        /// The misaligned effective address.
        ea: u32,
        /// The required alignment in bytes.
        width: u32,
    },
    /// A control-flow instruction sat in a branch delay slot, which MIPS
    /// prohibits (§2.4 of the paper discusses why).
    BranchInDelaySlot {
        /// Address of the offending delay-slot instruction.
        pc: u32,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadPc { pc } => write!(f, "program counter {pc:#010x} outside text"),
            EmuError::Unaligned { pc, ea, width } => {
                write!(
                    f,
                    "unaligned {width}-byte access to {ea:#010x} at pc {pc:#010x}"
                )
            }
            EmuError::BranchInDelaySlot { pc } => {
                write!(f, "control-flow instruction in delay slot at {pc:#010x}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Functional executor for an assembled [`Program`].
///
/// Implements MIPS-I semantics including the architectural branch delay
/// slot: the instruction after a taken branch or jump always executes
/// before control transfers. Loads have no architectural delay slot (the
/// Aurora III interlocks in hardware via its scoreboard).
///
/// See the [crate documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Emulator<'p> {
    program: &'p Program,
    /// Per-static-instruction [`TraceOp`] skeletons, indexed like the text
    /// segment. Everything but the effective address, branch outcome and
    /// dynamic jump target is a pure function of the instruction word, so
    /// it is derived once here instead of on every retirement.
    templates: Vec<TraceOp>,
    regs: [u32; 32],
    fregs: [u32; 32],
    hi: u32,
    lo: u32,
    fp_cond: bool,
    pc: u32,
    next_pc: u32,
    mem: Memory,
    halted: bool,
    in_delay_slot: bool,
    retired: u64,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with the program's data segment loaded and the
    /// stack pointer initialised.
    pub fn new(program: &'p Program) -> Emulator<'p> {
        let mut mem = Memory::new();
        mem.write(program.data().base, &program.data().bytes);
        let mut regs = [0; 32];
        regs[Reg::SP.number() as usize] = STACK_TOP;
        regs[Reg::GP.number() as usize] = program.data().base;
        let base = program.text_base();
        let templates = program
            .instructions()
            .iter()
            .enumerate()
            .map(|(i, ins)| make_trace_op(base + 4 * i as u32, ins))
            .collect();
        Emulator {
            program,
            templates,
            regs,
            fregs: [0; 32],
            hi: 0,
            lo: 0,
            fp_cond: false,
            pc: program.entry(),
            next_pc: program.entry().wrapping_add(4),
            mem,
            halted: false,
            in_delay_slot: false,
            retired: 0,
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the program has executed `break`/`syscall`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes an integer register (writes to `$zero` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = v;
        }
    }

    /// Reads a single-precision FP register as raw bits.
    pub fn freg(&self, r: FReg) -> u32 {
        self.fregs[r.number() as usize]
    }

    /// Reads the double-precision value in the even/odd pair at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is odd-numbered.
    pub fn freg_double(&self, r: FReg) -> f64 {
        let lo = self.fregs[r.number() as usize] as u64;
        let hi = self.fregs[r.pair().number() as usize] as u64;
        f64::from_bits((hi << 32) | lo)
    }

    /// Writes the double-precision pair at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is odd-numbered.
    pub fn set_freg_double(&mut self, r: FReg, v: f64) {
        let bits = v.to_bits();
        self.fregs[r.number() as usize] = bits as u32;
        self.fregs[r.pair().number() as usize] = (bits >> 32) as u32;
    }

    /// Runs until halt or until `limit` instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] raised by [`Emulator::step`].
    pub fn run(&mut self, limit: u64) -> Result<RunOutcome, EmuError> {
        self.run_traced(limit, |_| {})
    }

    /// Runs like [`Emulator::run`], invoking `sink` with a [`TraceOp`] for
    /// every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] raised by [`Emulator::step`].
    pub fn run_traced(
        &mut self,
        limit: u64,
        mut sink: impl FnMut(TraceOp),
    ) -> Result<RunOutcome, EmuError> {
        for _ in 0..limit {
            if self.halted {
                return Ok(RunOutcome::Halted);
            }
            let op = self.step()?;
            sink(op);
        }
        Ok(if self.halted {
            RunOutcome::Halted
        } else {
            RunOutcome::LimitReached
        })
    }

    /// Executes one instruction and returns its trace record.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] for PCs outside the text segment, unaligned
    /// memory accesses, or a control-flow instruction in a delay slot.
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self) -> Result<TraceOp, EmuError> {
        let pc = self.pc;
        let instr = *self
            .program
            .instruction_at(pc)
            .ok_or(EmuError::BadPc { pc })?;
        // instruction_at validated the address, so the template index is
        // in range. The template's kind mirrors the opcode class, so the
        // control-flow test reads it instead of re-deriving the class.
        let mut op = self.templates[((pc - self.program.text_base()) / 4) as usize];
        let is_ctl = op.kind.is_control_flow();
        if self.in_delay_slot && is_ctl {
            return Err(EmuError::BranchInDelaySlot { pc });
        }
        self.in_delay_slot = is_ctl;

        let mut target_after_delay: Option<u32> = None;
        let r = |e: &Emulator<'_>, reg: Reg| e.regs[reg.number() as usize];

        use Opcode::*;
        match instr.op {
            Add | Addu => {
                let v = r(self, instr.rs).wrapping_add(r(self, instr.rt));
                self.set_reg(instr.rd, v);
            }
            Sub | Subu => {
                let v = r(self, instr.rs).wrapping_sub(r(self, instr.rt));
                self.set_reg(instr.rd, v);
            }
            And => self.set_reg(instr.rd, r(self, instr.rs) & r(self, instr.rt)),
            Or => self.set_reg(instr.rd, r(self, instr.rs) | r(self, instr.rt)),
            Xor => self.set_reg(instr.rd, r(self, instr.rs) ^ r(self, instr.rt)),
            Nor => self.set_reg(instr.rd, !(r(self, instr.rs) | r(self, instr.rt))),
            Slt => {
                let v = ((r(self, instr.rs) as i32) < (r(self, instr.rt) as i32)) as u32;
                self.set_reg(instr.rd, v);
            }
            Sltu => {
                let v = (r(self, instr.rs) < r(self, instr.rt)) as u32;
                self.set_reg(instr.rd, v);
            }
            Sll => self.set_reg(instr.rd, r(self, instr.rt) << instr.shamt),
            Srl => self.set_reg(instr.rd, r(self, instr.rt) >> instr.shamt),
            Sra => self.set_reg(instr.rd, ((r(self, instr.rt) as i32) >> instr.shamt) as u32),
            Sllv => self.set_reg(instr.rd, r(self, instr.rt) << (r(self, instr.rs) & 31)),
            Srlv => self.set_reg(instr.rd, r(self, instr.rt) >> (r(self, instr.rs) & 31)),
            Srav => {
                let v = (r(self, instr.rt) as i32) >> (r(self, instr.rs) & 31);
                self.set_reg(instr.rd, v as u32);
            }
            Mult => {
                let p = (r(self, instr.rs) as i32 as i64) * (r(self, instr.rt) as i32 as i64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Multu => {
                let p = (r(self, instr.rs) as u64) * (r(self, instr.rt) as u64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Div => {
                let (n, d) = (r(self, instr.rs) as i32, r(self, instr.rt) as i32);
                if d != 0 {
                    self.lo = n.wrapping_div(d) as u32;
                    self.hi = n.wrapping_rem(d) as u32;
                }
            }
            Divu => {
                let (n, d) = (r(self, instr.rs), r(self, instr.rt));
                if let (Some(q), Some(rem)) = (n.checked_div(d), n.checked_rem(d)) {
                    self.lo = q;
                    self.hi = rem;
                }
            }
            Mfhi => self.set_reg(instr.rd, self.hi),
            Mflo => self.set_reg(instr.rd, self.lo),
            Mthi => self.hi = r(self, instr.rs),
            Mtlo => self.lo = r(self, instr.rs),
            Addi | Addiu => {
                let v = r(self, instr.rs).wrapping_add(instr.imm as i32 as u32);
                self.set_reg(instr.rt, v);
            }
            Slti => {
                let v = ((r(self, instr.rs) as i32) < instr.imm as i32) as u32;
                self.set_reg(instr.rt, v);
            }
            Sltiu => {
                let v = (r(self, instr.rs) < instr.imm as i32 as u32) as u32;
                self.set_reg(instr.rt, v);
            }
            Andi => self.set_reg(instr.rt, r(self, instr.rs) & instr.imm as u16 as u32),
            Ori => self.set_reg(instr.rt, r(self, instr.rs) | instr.imm as u16 as u32),
            Xori => self.set_reg(instr.rt, r(self, instr.rs) ^ instr.imm as u16 as u32),
            Lui => self.set_reg(instr.rt, (instr.imm as u16 as u32) << 16),
            Lb | Lbu | Lh | Lhu | Lw => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                let v = match instr.op {
                    Lb => {
                        let mut b = [0];
                        self.mem.read(ea, &mut b);
                        b[0] as i8 as i32 as u32
                    }
                    Lbu => {
                        let mut b = [0];
                        self.mem.read(ea, &mut b);
                        b[0] as u32
                    }
                    Lh => {
                        let mut b = [0; 2];
                        self.mem.read(ea, &mut b);
                        i16::from_le_bytes(b) as i32 as u32
                    }
                    Lhu => {
                        let mut b = [0; 2];
                        self.mem.read(ea, &mut b);
                        u16::from_le_bytes(b) as u32
                    }
                    _ => self.mem.read_u32(ea),
                };
                self.set_reg(instr.rt, v);
            }
            Sb => {
                let ea = self.effective_address(&instr);
                self.mem.write(ea, &[r(self, instr.rt) as u8]);
            }
            Sh => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                self.mem
                    .write(ea, &(r(self, instr.rt) as u16).to_le_bytes());
            }
            Sw => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                self.mem.write_u32(ea, r(self, instr.rt));
            }
            Lwc1 => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                self.fregs[instr.ft.number() as usize] = self.mem.read_u32(ea);
            }
            Swc1 => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                self.mem
                    .write_u32(ea, self.fregs[instr.ft.number() as usize]);
            }
            Ldc1 => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                let even = instr.ft.number() & !1;
                self.fregs[even as usize] = self.mem.read_u32(ea);
                self.fregs[even as usize + 1] = self.mem.read_u32(ea + 4);
            }
            Sdc1 => {
                let ea = self.effective_address(&instr);
                self.check_aligned(pc, ea, &instr)?;
                let even = instr.ft.number() & !1;
                self.mem.write_u32(ea, self.fregs[even as usize]);
                self.mem.write_u32(ea + 4, self.fregs[even as usize + 1]);
            }
            J => target_after_delay = Some(instr.target << 2),
            Jal => {
                self.set_reg(Reg::RA, pc.wrapping_add(8));
                target_after_delay = Some(instr.target << 2);
            }
            Jr => {
                let t = r(self, instr.rs);
                op.kind = OpKind::Jump {
                    target: t,
                    register: true,
                };
                target_after_delay = Some(t);
            }
            Jalr => {
                let t = r(self, instr.rs);
                self.set_reg(instr.rd, pc.wrapping_add(8));
                op.kind = OpKind::Jump {
                    target: t,
                    register: true,
                };
                target_after_delay = Some(t);
            }
            Beq | Bne | Blez | Bgtz | Bltz | Bgez | Bc1t | Bc1f => {
                let taken = match instr.op {
                    Beq => r(self, instr.rs) == r(self, instr.rt),
                    Bne => r(self, instr.rs) != r(self, instr.rt),
                    Blez => (r(self, instr.rs) as i32) <= 0,
                    Bgtz => (r(self, instr.rs) as i32) > 0,
                    Bltz => (r(self, instr.rs) as i32) < 0,
                    Bgez => (r(self, instr.rs) as i32) >= 0,
                    Bc1t => self.fp_cond,
                    _ => !self.fp_cond,
                };
                let target = pc
                    .wrapping_add(4)
                    .wrapping_add((instr.imm as i32 as u32) << 2);
                if taken {
                    target_after_delay = Some(target);
                }
                op.kind = OpKind::Branch { taken, target };
            }
            AddS | SubS | MulS | DivS | SqrtS | AbsS | NegS | MovS => self.fp_single(&instr),
            AddD | SubD | MulD | DivD | SqrtD | AbsD | NegD | MovD => self.fp_double(&instr),
            CvtSD => {
                let v = self.freg_double(even(instr.fs)) as f32;
                self.fregs[instr.fd.number() as usize] = v.to_bits();
            }
            CvtSW => {
                let v = self.fregs[instr.fs.number() as usize] as i32 as f32;
                self.fregs[instr.fd.number() as usize] = v.to_bits();
            }
            CvtDS => {
                let v = f32::from_bits(self.fregs[instr.fs.number() as usize]) as f64;
                self.set_freg_double(even(instr.fd), v);
            }
            CvtDW => {
                let v = self.fregs[instr.fs.number() as usize] as i32 as f64;
                self.set_freg_double(even(instr.fd), v);
            }
            CvtWS => {
                let v = f32::from_bits(self.fregs[instr.fs.number() as usize]) as i32;
                self.fregs[instr.fd.number() as usize] = v as u32;
            }
            CvtWD => {
                let v = self.freg_double(even(instr.fs)) as i32;
                self.fregs[instr.fd.number() as usize] = v as u32;
            }
            CEqS | CLtS | CLeS => {
                let a = f32::from_bits(self.fregs[instr.fs.number() as usize]);
                let b = f32::from_bits(self.fregs[instr.ft.number() as usize]);
                self.fp_cond = match instr.op {
                    CEqS => a == b,
                    CLtS => a < b,
                    _ => a <= b,
                };
            }
            CEqD | CLtD | CLeD => {
                let a = self.freg_double(even(instr.fs));
                let b = self.freg_double(even(instr.ft));
                self.fp_cond = match instr.op {
                    CEqD => a == b,
                    CLtD => a < b,
                    _ => a <= b,
                };
            }
            Mfc1 => self.set_reg(instr.rt, self.fregs[instr.fs.number() as usize]),
            Mtc1 => self.fregs[instr.fs.number() as usize] = r(self, instr.rt),
            Syscall | Break => self.halted = true,
            Nop => {}
        }

        // Fill in the actual effective address for memory ops.
        match &mut op.kind {
            OpKind::Load { ea, .. }
            | OpKind::Store { ea, .. }
            | OpKind::FpLoad { ea, .. }
            | OpKind::FpStore { ea, .. } => *ea = self.effective_address(&instr),
            _ => {}
        }

        self.pc = self.next_pc;
        self.next_pc = target_after_delay.unwrap_or_else(|| self.next_pc.wrapping_add(4));
        self.retired += 1;
        Ok(op)
    }

    fn effective_address(&self, instr: &Instruction) -> u32 {
        self.regs[instr.rs.number() as usize].wrapping_add(instr.imm as i32 as u32)
    }

    fn check_aligned(&self, pc: u32, ea: u32, instr: &Instruction) -> Result<(), EmuError> {
        let width = mem_width(instr.op).bytes();
        if !ea.is_multiple_of(width) {
            return Err(EmuError::Unaligned { pc, ea, width });
        }
        Ok(())
    }

    fn fp_single(&mut self, instr: &Instruction) {
        use Opcode::*;
        let a = f32::from_bits(self.fregs[instr.fs.number() as usize]);
        let b = f32::from_bits(self.fregs[instr.ft.number() as usize]);
        let v = match instr.op {
            AddS => a + b,
            SubS => a - b,
            MulS => a * b,
            DivS => a / b,
            SqrtS => a.sqrt(),
            AbsS => a.abs(),
            NegS => -a,
            MovS => a,
            _ => unreachable!(),
        };
        self.fregs[instr.fd.number() as usize] = v.to_bits();
    }

    fn fp_double(&mut self, instr: &Instruction) {
        use Opcode::*;
        let a = self.freg_double(even(instr.fs));
        let b = self.freg_double(even(instr.ft));
        let v = match instr.op {
            AddD => a + b,
            SubD => a - b,
            MulD => a * b,
            DivD => a / b,
            SqrtD => a.sqrt(),
            AbsD => a.abs(),
            NegD => -a,
            MovD => a,
            _ => unreachable!(),
        };
        self.set_freg_double(even(instr.fd), v);
    }
}

fn even(r: FReg) -> FReg {
    FReg::new(r.number() & !1).unwrap()
}

fn mem_width(op: Opcode) -> MemWidth {
    use Opcode::*;
    match op {
        Lb | Lbu | Sb => MemWidth::Byte,
        Lh | Lhu | Sh => MemWidth::Half,
        Lw | Sw | Lwc1 | Swc1 => MemWidth::Word,
        Ldc1 | Sdc1 => MemWidth::Double,
        _ => unreachable!("{op} is not a memory op"),
    }
}

/// Builds the dependence-carrying trace record for an instruction.
///
/// FP registers are normalised to the even member of their pair (see
/// [`ArchReg`]); writes to `$zero` yield no destination.
fn make_trace_op(pc: u32, instr: &Instruction) -> TraceOp {
    use crate::opcode::OpcodeClass::*;
    let int = |r: Reg| (r != Reg::ZERO).then(|| ArchReg::Int(r.number()));
    let fp = |r: FReg| Some(ArchReg::Fp(r.number() & !1));
    let w = || mem_width(instr.op);

    let (kind, dst, src1, src2) = match instr.op.class() {
        AluR => (OpKind::IntAlu, int(instr.rd), int(instr.rs), int(instr.rt)),
        Shift => (OpKind::IntAlu, int(instr.rd), int(instr.rt), None),
        ShiftV => (OpKind::IntAlu, int(instr.rd), int(instr.rt), int(instr.rs)),
        MulDiv => {
            let kind = match instr.op {
                Opcode::Div | Opcode::Divu => OpKind::IntDiv,
                _ => OpKind::IntMul,
            };
            (kind, Some(ArchReg::HiLo), int(instr.rs), int(instr.rt))
        }
        HiLo => match instr.op {
            Opcode::Mfhi | Opcode::Mflo => {
                (OpKind::IntAlu, int(instr.rd), Some(ArchReg::HiLo), None)
            }
            _ => (OpKind::IntAlu, Some(ArchReg::HiLo), int(instr.rs), None),
        },
        AluI => (OpKind::IntAlu, int(instr.rt), int(instr.rs), None),
        Lui => (OpKind::IntAlu, int(instr.rt), None, None),
        Load => (
            OpKind::Load { ea: 0, width: w() },
            int(instr.rt),
            int(instr.rs),
            None,
        ),
        Store => (
            OpKind::Store { ea: 0, width: w() },
            None,
            int(instr.rs),
            int(instr.rt),
        ),
        FpLoad => (
            OpKind::FpLoad { ea: 0, width: w() },
            fp(instr.ft),
            int(instr.rs),
            None,
        ),
        FpStore => (
            OpKind::FpStore { ea: 0, width: w() },
            None,
            int(instr.rs),
            fp(instr.ft),
        ),
        Jump => {
            let dst = (instr.op == Opcode::Jal).then_some(ArchReg::Int(Reg::RA.number()));
            (
                OpKind::Jump {
                    target: instr.target << 2,
                    register: false,
                },
                dst,
                None,
                None,
            )
        }
        JumpReg => {
            // The dynamic target is patched by the emulator only for the
            // next-PC computation; the trace target is filled by `step`
            // indirectly via Branch/Jump kinds. For jr/jalr the register
            // value *is* the target, which the timing model treats as an
            // unpredictable jump; record target 0 here (folding still
            // applies once the pair is cached).
            let dst = (instr.op == Opcode::Jalr).then(|| ArchReg::Int(instr.rd.number()));
            (
                OpKind::Jump {
                    target: 0,
                    register: true,
                },
                dst,
                int(instr.rs),
                None,
            )
        }
        BranchCmp => (
            OpKind::Branch {
                taken: false,
                target: 0,
            },
            None,
            int(instr.rs),
            int(instr.rt),
        ),
        BranchZ => (
            OpKind::Branch {
                taken: false,
                target: 0,
            },
            None,
            int(instr.rs),
            None,
        ),
        BranchFp => (
            OpKind::Branch {
                taken: false,
                target: 0,
            },
            None,
            Some(ArchReg::FpCond),
            None,
        ),
        FpArith3 => {
            let kind = match instr.op {
                Opcode::AddS | Opcode::AddD | Opcode::SubS | Opcode::SubD => OpKind::FpAdd,
                Opcode::MulS | Opcode::MulD => OpKind::FpMul,
                Opcode::DivS | Opcode::DivD => OpKind::FpDiv,
                _ => OpKind::FpSqrt,
            };
            let src2 = match kind {
                OpKind::FpSqrt => None,
                _ => fp(instr.ft),
            };
            (kind, fp(instr.fd), fp(instr.fs), src2)
        }
        FpArith2 => {
            let kind = match instr.op {
                Opcode::AbsS
                | Opcode::AbsD
                | Opcode::NegS
                | Opcode::NegD
                | Opcode::MovS
                | Opcode::MovD => OpKind::FpMove,
                _ => OpKind::FpCvt,
            };
            (kind, fp(instr.fd), fp(instr.fs), None)
        }
        FpCompare => (
            OpKind::FpCmp,
            Some(ArchReg::FpCond),
            fp(instr.fs),
            fp(instr.ft),
        ),
        FpMove => match instr.op {
            Opcode::Mfc1 => (OpKind::FpMove, int(instr.rt), fp(instr.fs), None),
            _ => (OpKind::FpMove, fp(instr.fs), int(instr.rt), None),
        },
        System => (OpKind::Nop, None, None, None),
    };
    TraceOp {
        pc,
        kind,
        dst,
        src1,
        src2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A start address for a random access: within 8 KB of 0, within
    /// 8 KB of `0xFFFF_FFFF`, within a page either side of the data
    /// segment's base, or anywhere (mostly on pages never written).
    fn pick_addr(region: u8, off: u32, anywhere: u32) -> u32 {
        match region {
            0 => off,
            1 => u32::MAX - off,
            2 => crate::program::DATA_BASE - PAGE_SIZE as u32 + off,
            _ => anywhere,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The page table reads back what a byte map holds for the same
        /// random mix of 1-, 2- and 4-byte and multi-page accesses,
        /// unmapped bytes read zero, and accesses wrap at the top of the
        /// address space.
        #[test]
        fn memory_matches_a_byte_map(
            ops in proptest::collection::vec(
                (0u8..16, 0u8..4, 0u32..8192, any::<u32>(), any::<u32>(), 1usize..9000),
                1..100,
            ),
        ) {
            let mut mem = Memory::new();
            let mut reference: BTreeMap<u32, u8> = BTreeMap::new();
            let expect = |reference: &BTreeMap<u32, u8>, addr: u32, len: usize| -> Vec<u8> {
                (0..len)
                    .map(|i| {
                        let a = addr.wrapping_add(i as u32);
                        reference.get(&a).copied().unwrap_or(0)
                    })
                    .collect()
            };
            for (kind, region, off, anywhere, value, long) in ops {
                let addr = pick_addr(region, off, anywhere);
                // Kinds 0-5: 1-, 2- and 4-byte reads then writes; 6-7:
                // multi-page writes and reads; the rest: 4-byte reads,
                // which on the "anywhere" region mostly hit pages never
                // written.
                let len = match kind {
                    0 | 3 => 1,
                    1 | 4 => 2,
                    6 | 7 => long,
                    _ => 4,
                };
                if (3..=6).contains(&kind) {
                    let bytes: Vec<u8> = (0..len)
                        .map(|i| value.wrapping_mul(2_654_435_761).wrapping_add(i as u32) as u8)
                        .collect();
                    mem.write(addr, &bytes);
                    for (i, &b) in bytes.iter().enumerate() {
                        reference.insert(addr.wrapping_add(i as u32), b);
                    }
                } else {
                    let mut buf = vec![0xA5; len];
                    mem.read(addr, &mut buf);
                    prop_assert_eq!(buf, expect(&reference, addr, len));
                }
            }
            for (&a, &b) in &reference {
                let mut one = [0];
                mem.read(a, &mut one);
                prop_assert_eq!(one[0], b);
            }
        }
    }

    #[test]
    fn multi_page_data_segment_reads_back_byte_for_byte() {
        let words: Vec<String> = (0..5000u32)
            .map(|i| i.wrapping_mul(2_654_435_761).to_string())
            .collect();
        let src = format!(
            ".data\n .byte 7\n .word {}\n.text\n break\n",
            words.join(", ")
        );
        let program = Assembler::new().assemble(&src).unwrap();
        let data = program.data();
        assert!(data.bytes.len() > 4 * PAGE_SIZE);
        let emu = Emulator::new(&program);
        let mut back = vec![0; data.bytes.len()];
        emu.mem.read(data.base, &mut back);
        assert_eq!(back, data.bytes);
        assert_eq!(emu.mem.read_u32(data.end().next_multiple_of(4)), 0);
    }

    #[test]
    fn a_cloned_emulator_writes_its_own_memory() {
        let program = Assembler::new()
            .assemble(
                ".data\narr: .word 1\n.text\n la $t0, arr\n li $t1, 99\n sw $t1, 0($t0)\n sw $t1, -4($sp)\n break\n",
            )
            .unwrap();
        let emu = Emulator::new(&program);
        let mut copy = emu.clone();
        copy.run(100).unwrap();
        assert!(copy.is_halted());
        let base = program.data().base;
        assert_eq!(copy.mem.read_u32(base), 99);
        assert_eq!(copy.mem.read_u32(STACK_TOP - 4), 99);
        assert_eq!(emu.mem.read_u32(base), 1, "the original's data page");
        assert_eq!(
            emu.mem.read_u32(STACK_TOP - 4),
            0,
            "a page only the copy mapped"
        );
    }

    fn run_program(src: &str) -> (Emulator<'_>, Vec<TraceOp>) {
        // Leak the program so the emulator can borrow it in a return value;
        // fine for tests.
        let program = Box::leak(Box::new(Assembler::new().assemble(src).unwrap()));
        let mut emu = Emulator::new(program);
        let mut trace = Vec::new();
        emu.run_traced(1_000_000, |op| trace.push(op)).unwrap();
        assert!(emu.is_halted(), "program did not halt");
        (emu, trace)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let (emu, trace) = run_program(
            r#"
            .text
                li  $t0, 10
                li  $t1, 0
            loop:
                addu $t1, $t1, $t0
                addiu $t0, $t0, -1
                bne $t0, $zero, loop
                nop
                break
            "#,
        );
        assert_eq!(emu.reg(Reg::T1), 55);
        // 2 setup + 10 * 4 loop + 1 break
        assert_eq!(trace.len(), 2 + 40 + 1);
    }

    #[test]
    fn delay_slot_executes_on_taken_branch() {
        let (emu, _) = run_program(
            r#"
            .text
                li  $t0, 1
                beq $zero, $zero, skip
                addiu $t0, $t0, 10   # delay slot: always runs
                addiu $t0, $t0, 100  # skipped
            skip:
                break
            "#,
        );
        assert_eq!(emu.reg(Reg::T0), 11);
    }

    #[test]
    fn delay_slot_executes_on_jump_and_link() {
        let (emu, _) = run_program(
            r#"
            .text
                jal func
                addiu $a0, $zero, 5   # delay slot
                break
            func:
                addu $v0, $a0, $a0
                jr $ra
                nop
            "#,
        );
        assert_eq!(emu.reg(Reg::V0), 10);
    }

    #[test]
    fn memory_and_data_segment() {
        let (emu, trace) = run_program(
            r#"
            .data
            arr: .word 3, 4, 5
            .text
                la $t0, arr
                lw $t1, 0($t0)
                lw $t2, 4($t0)
                addu $t3, $t1, $t2
                sw $t3, 8($t0)
                lb $t4, 0($t0)
                break
            "#,
        );
        assert_eq!(emu.reg(Reg::T3), 7);
        assert_eq!(emu.reg(Reg::T4), 3);
        let loads: Vec<_> = trace
            .iter()
            .filter_map(|t| match t.kind {
                OpKind::Load { ea, .. } => Some(ea),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[1], loads[0] + 4);
    }

    #[test]
    fn mult_div_hi_lo() {
        let (emu, _) = run_program(
            r#"
            .text
                li $t0, -6
                li $t1, 7
                mult $t0, $t1
                mflo $t2
                li $t3, 43
                li $t4, 5
                div $t3, $t4
                mflo $t5
                mfhi $t6
                break
            "#,
        );
        assert_eq!(emu.reg(Reg::T2) as i32, -42);
        assert_eq!(emu.reg(Reg::T5), 8);
        assert_eq!(emu.reg(Reg::T6), 3);
    }

    #[test]
    fn fp_double_pipeline() {
        let (emu, trace) = run_program(
            r#"
            .data
            a: .double 2.0
            b: .double 8.0
            .text
                la   $t0, a
                ldc1 $f2, 0($t0)
                ldc1 $f4, 8($t0)
                add.d $f6, $f2, $f4    # 10.0
                mul.d $f8, $f6, $f2    # 20.0
                div.d $f10, $f8, $f4   # 2.5
                sqrt.d $f12, $f4       # ~2.828
                cvt.w.d $f14, $f8      # 20
                mfc1  $t1, $f14
                c.lt.d $f2, $f4
                bc1t  yes
                nop
                li $t2, 999
            yes:
                break
            "#,
        );
        assert_eq!(emu.freg_double(FReg::new(6).unwrap()), 10.0);
        assert_eq!(emu.freg_double(FReg::new(8).unwrap()), 20.0);
        assert_eq!(emu.freg_double(FReg::new(10).unwrap()), 2.5);
        assert_eq!(emu.reg(Reg::T1), 20);
        assert_eq!(emu.reg(Reg::T2), 0, "bc1t should have skipped the li");
        let fp_ops = trace.iter().filter(|t| t.kind.is_fpu()).count();
        assert_eq!(fp_ops, 7); // add, mul, div, sqrt, cvt, cmp, mfc1
        let fp_loads = trace
            .iter()
            .filter(|t| matches!(t.kind, OpKind::FpLoad { .. }))
            .count();
        assert_eq!(fp_loads, 2);
    }

    #[test]
    fn trace_dependencies_are_recorded() {
        let (_, trace) = run_program(
            r#"
            .text
                li   $t0, 1
                addu $t1, $t0, $t0
                break
            "#,
        );
        let add = trace[1];
        assert_eq!(add.dst, Some(ArchReg::Int(9)));
        assert_eq!(add.src1, Some(ArchReg::Int(8)));
        assert_eq!(add.src2, Some(ArchReg::Int(8)));
    }

    #[test]
    fn unaligned_access_errors() {
        let program = Assembler::new()
            .assemble(".text\n li $t0, 0x1001\n lw $t1, 0($t0)\n break\n")
            .unwrap();
        let mut emu = Emulator::new(&program);
        let err = emu.run(10).unwrap_err();
        assert!(matches!(err, EmuError::Unaligned { width: 4, .. }));
        assert!(err.to_string().contains("unaligned"));
    }

    #[test]
    fn runaway_pc_errors() {
        let program = Assembler::new()
            .assemble(".text\n jr $t0\n nop\n break\n")
            .unwrap();
        let mut emu = Emulator::new(&program);
        emu.set_reg(Reg::T0, 0xDEAD_0000);
        assert!(matches!(emu.run(10), Err(EmuError::BadPc { .. })));
    }

    #[test]
    fn limit_reached_reports() {
        let program = Assembler::new()
            .assemble(".text\nx: b x\n nop\n break\n")
            .unwrap();
        let mut emu = Emulator::new(&program);
        assert_eq!(emu.run(100).unwrap(), RunOutcome::LimitReached);
        assert_eq!(emu.retired(), 100);
    }

    #[test]
    fn branch_in_delay_slot_rejected() {
        let program = Assembler::new()
            .assemble(".text\n beq $zero, $zero, t\n beq $zero, $zero, t\nt: break\n")
            .unwrap();
        let mut emu = Emulator::new(&program);
        assert!(matches!(
            emu.run(10),
            Err(EmuError::BranchInDelaySlot { .. })
        ));
    }

    #[test]
    fn zero_register_stays_zero() {
        let (emu, _) = run_program(".text\n li $t0, 5\n addu $zero, $t0, $t0\n break\n");
        assert_eq!(emu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn branch_trace_records_taken_and_target() {
        let (_, trace) = run_program(
            r#"
            .text
                li $t0, 2
            loop:
                addiu $t0, $t0, -1
                bne $t0, $zero, loop
                nop
                break
            "#,
        );
        let branches: Vec<_> = trace
            .iter()
            .filter_map(|t| match t.kind {
                OpKind::Branch { taken, target } => Some((taken, target)),
                _ => None,
            })
            .collect();
        assert_eq!(branches.len(), 2);
        assert!(branches[0].0);
        assert!(!branches[1].0);
        assert_eq!(branches[0].1, branches[1].1);
    }
}
