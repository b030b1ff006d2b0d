//! A two-pass text assembler for the mini-MIPS subset.
//!
//! Supported syntax:
//!
//! * comments from `#` to end of line,
//! * labels `name:`, optionally followed by an instruction on the same line,
//! * segment directives `.text` / `.data`,
//! * data directives `.word`, `.half`, `.byte`, `.float`, `.double`,
//!   `.space N`, `.align N` (power of two),
//! * every [`Opcode`](crate::Opcode) mnemonic with conventional operand
//!   order, plus the pseudo-instructions `li`, `la`, `move`, `b`, `blt`,
//!   `bgt`, `ble`, `bge`, `bnez`, `beqz`.
//!
//! Branch and jump targets are labels; load/store offsets are numeric.

use std::collections::BTreeMap;
use std::fmt;

use crate::instr::Instruction;
use crate::opcode::{Opcode, OpcodeClass};
use crate::program::{Program, Segment, DATA_BASE, TEXT_BASE};
use crate::reg::{FReg, Reg};

/// Error produced while assembling, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// The two-pass assembler.
///
/// See the module documentation for the accepted syntax and the
/// crate-level docs for a complete example.
#[derive(Debug, Clone)]
pub struct Assembler {
    text_base: u32,
    data_base: u32,
}

impl Default for Assembler {
    fn default() -> Self {
        Assembler::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Text,
    Data,
}

/// A parsed source statement awaiting encoding.
#[derive(Debug, Clone)]
enum Stmt {
    Instr {
        line: usize,
        addr: u32,
        mnemonic: String,
        operands: Vec<String>,
    },
}

impl Assembler {
    /// Creates an assembler with the default segment bases.
    pub fn new() -> Assembler {
        Assembler {
            text_base: TEXT_BASE,
            data_base: DATA_BASE,
        }
    }

    /// Overrides the text segment base address (must be word-aligned).
    pub fn text_base(&mut self, base: u32) -> &mut Assembler {
        assert_eq!(base % 4, 0);
        self.text_base = base;
        self
    }

    /// Overrides the data segment base address (must be word-aligned).
    pub fn data_base(&mut self, base: u32) -> &mut Assembler {
        assert_eq!(base % 4, 0);
        self.data_base = base;
        self
    }

    /// Assembles `source` into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] naming the offending line for syntax errors,
    /// unknown mnemonics or registers, duplicate or undefined labels, and
    /// out-of-range immediates.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        // Pass 1: compute addresses, collect labels, lay out data.
        let mut seg = Seg::Text;
        let mut text_addr = self.text_base;
        let mut data = Vec::new();
        let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
        let mut stmts = Vec::new();

        for (lineno, raw) in source.lines().enumerate() {
            let line = lineno + 1;
            let mut rest = raw.split('#').next().unwrap_or("").trim();
            // Labels (possibly several) at the start of the line.
            while let Some(colon) = rest.find(':') {
                let (head, tail) = rest.split_at(colon);
                let label = head.trim();
                if label.is_empty() || !is_ident(label) {
                    break;
                }
                let addr = match seg {
                    Seg::Text => text_addr,
                    Seg::Data => self.data_base + data.len() as u32,
                };
                if symbols.insert(label.to_owned(), addr).is_some() {
                    return Err(err(line, format!("duplicate label `{label}`")));
                }
                rest = tail[1..].trim();
            }
            if rest.is_empty() {
                continue;
            }
            if let Some(directive) = rest.strip_prefix('.') {
                self.directive(line, directive, &mut seg, &mut data)?;
                continue;
            }
            if seg != Seg::Text {
                return Err(err(line, "instruction outside .text".into()));
            }
            let (mnemonic, ops) = split_instr(rest);
            let words = pseudo_len(&mnemonic, &ops);
            stmts.push(Stmt::Instr {
                line,
                addr: text_addr,
                mnemonic,
                operands: ops,
            });
            text_addr += 4 * words;
        }

        // Pass 2: encode.
        let mut instructions = Vec::new();
        for stmt in &stmts {
            let Stmt::Instr {
                line,
                addr,
                mnemonic,
                operands,
            } = stmt;
            self.encode(
                *line,
                *addr,
                mnemonic,
                operands,
                &symbols,
                &mut instructions,
            )?;
        }

        if instructions.is_empty() {
            return Err(err(0, "program has no instructions".into()));
        }
        Ok(Program::new(
            self.text_base,
            instructions,
            Segment {
                base: self.data_base,
                bytes: data,
            },
            self.text_base,
            symbols,
        ))
    }

    fn directive(
        &self,
        line: usize,
        directive: &str,
        seg: &mut Seg,
        data: &mut Vec<u8>,
    ) -> Result<(), AsmError> {
        let (name, args) = match directive.find(char::is_whitespace) {
            Some(i) => (&directive[..i], directive[i..].trim()),
            None => (directive, ""),
        };
        match name {
            "text" => *seg = Seg::Text,
            "data" => *seg = Seg::Data,
            "globl" | "global" | "ent" | "end" => {}
            "word" | "half" | "byte" | "float" | "double" | "space" | "align" => {
                if *seg != Seg::Data {
                    return Err(err(line, format!(".{name} outside .data")));
                }
                match name {
                    "word" => {
                        for v in csv(args) {
                            let v = parse_imm::<i64>(v)
                                .ok_or_else(|| err(line, format!("bad word `{v}`")))?;
                            data.extend_from_slice(&(v as u32).to_le_bytes());
                        }
                    }
                    "half" => {
                        for v in csv(args) {
                            let v = parse_imm::<i64>(v)
                                .ok_or_else(|| err(line, format!("bad half `{v}`")))?;
                            data.extend_from_slice(&(v as u16).to_le_bytes());
                        }
                    }
                    "byte" => {
                        for v in csv(args) {
                            let v = parse_imm::<i64>(v)
                                .ok_or_else(|| err(line, format!("bad byte `{v}`")))?;
                            data.push(v as u8);
                        }
                    }
                    "float" => {
                        for v in csv(args) {
                            let v: f32 = v
                                .parse()
                                .map_err(|_| err(line, format!("bad float `{v}`")))?;
                            data.extend_from_slice(&v.to_bits().to_le_bytes());
                        }
                    }
                    "double" => {
                        for v in csv(args) {
                            let v: f64 = v
                                .parse()
                                .map_err(|_| err(line, format!("bad double `{v}`")))?;
                            data.extend_from_slice(&v.to_bits().to_le_bytes());
                        }
                    }
                    "space" => {
                        let n = parse_imm::<u32>(args)
                            .ok_or_else(|| err(line, format!("bad .space `{args}`")))?;
                        data.resize(data.len() + n as usize, 0);
                    }
                    "align" => {
                        let n = parse_imm::<u32>(args)
                            .ok_or_else(|| err(line, format!("bad .align `{args}`")))?;
                        let align = 1usize << n;
                        while !data.len().is_multiple_of(align) {
                            data.push(0);
                        }
                    }
                    _ => unreachable!(),
                }
            }
            other => return Err(err(line, format!("unknown directive `.{other}`"))),
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn encode(
        &self,
        line: usize,
        addr: u32,
        mnemonic: &str,
        ops: &[String],
        symbols: &BTreeMap<String, u32>,
        out: &mut Vec<Instruction>,
    ) -> Result<(), AsmError> {
        let reg = |s: &str| s.parse::<Reg>().map_err(|e| err(line, e.to_string()));
        let freg = |s: &str| s.parse::<FReg>().map_err(|e| err(line, e.to_string()));
        let imm16 = |s: &str| {
            parse_imm::<i64>(s)
                .filter(|v| (-32768..=65535).contains(v))
                .map(|v| v as u16 as i16)
                .ok_or_else(|| err(line, format!("bad 16-bit immediate `{s}`")))
        };
        let need = |n: usize| {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    line,
                    format!("`{mnemonic}` expects {n} operands, got {}", ops.len()),
                ))
            }
        };
        let label = |s: &str| {
            symbols
                .get(s)
                .copied()
                .ok_or_else(|| err(line, format!("undefined label `{s}`")))
        };
        let branch_off = |target: u32, at: u32| -> Result<i16, AsmError> {
            let delta = (target as i64 - (at as i64 + 4)) / 4;
            if !(-32768..=32767).contains(&delta) {
                return Err(err(
                    line,
                    format!("branch target out of range ({delta} words)"),
                ));
            }
            Ok(delta as i16)
        };

        // Pseudo-instructions first.
        match mnemonic {
            "li" => {
                need(2)?;
                let rt = reg(&ops[0])?;
                let v = parse_imm::<i64>(&ops[1])
                    .ok_or_else(|| err(line, format!("bad immediate `{}`", ops[1])))?
                    as i32;
                emit_li(rt, v, out);
                return Ok(());
            }
            "la" => {
                need(2)?;
                let rt = reg(&ops[0])?;
                let a = label(&ops[1])?;
                out.push(Instruction::lui(Reg::AT, (a >> 16) as i16));
                out.push(Instruction::alu_i(
                    Opcode::Ori,
                    rt,
                    Reg::AT,
                    a as u16 as i16,
                ));
                return Ok(());
            }
            "move" => {
                need(2)?;
                out.push(Instruction::alu_r(
                    Opcode::Addu,
                    reg(&ops[0])?,
                    reg(&ops[1])?,
                    Reg::ZERO,
                ));
                return Ok(());
            }
            "b" => {
                need(1)?;
                let off = branch_off(label(&ops[0])?, addr)?;
                out.push(Instruction::branch_cmp(
                    Opcode::Beq,
                    Reg::ZERO,
                    Reg::ZERO,
                    off,
                ));
                return Ok(());
            }
            "beqz" | "bnez" => {
                need(2)?;
                let rs = reg(&ops[0])?;
                let off = branch_off(label(&ops[1])?, addr)?;
                let op = if mnemonic == "beqz" {
                    Opcode::Beq
                } else {
                    Opcode::Bne
                };
                out.push(Instruction::branch_cmp(op, rs, Reg::ZERO, off));
                return Ok(());
            }
            "blt" | "bgt" | "ble" | "bge" => {
                need(3)?;
                let rs = reg(&ops[0])?;
                let rt = reg(&ops[1])?;
                // slt $at, a, b  (for blt/bge) or slt $at, b, a (bgt/ble),
                // then branch on $at.
                let (a, b, branch_if_set) = match mnemonic {
                    "blt" => (rs, rt, true),
                    "bge" => (rs, rt, false),
                    "bgt" => (rt, rs, true),
                    _ => (rt, rs, false), // ble
                };
                out.push(Instruction::alu_r(Opcode::Slt, Reg::AT, a, b));
                let off = branch_off(label(&ops[2])?, addr + 4)?;
                let op = if branch_if_set {
                    Opcode::Bne
                } else {
                    Opcode::Beq
                };
                out.push(Instruction::branch_cmp(op, Reg::AT, Reg::ZERO, off));
                return Ok(());
            }
            _ => {}
        }

        let op: Opcode = mnemonic
            .parse()
            .map_err(|_| err(line, format!("unknown mnemonic `{mnemonic}`")))?;
        use OpcodeClass::*;
        let instr = match op.class() {
            AluR => {
                need(3)?;
                Instruction::alu_r(op, reg(&ops[0])?, reg(&ops[1])?, reg(&ops[2])?)
            }
            Shift => {
                need(3)?;
                let sh = parse_imm::<u32>(&ops[2])
                    .filter(|&v| v < 32)
                    .ok_or_else(|| err(line, format!("bad shift amount `{}`", ops[2])))?;
                Instruction::shift(op, reg(&ops[0])?, reg(&ops[1])?, sh as u8)
            }
            ShiftV => {
                need(3)?;
                Instruction::shift_v(op, reg(&ops[0])?, reg(&ops[1])?, reg(&ops[2])?)
            }
            MulDiv => {
                need(2)?;
                Instruction::mul_div(op, reg(&ops[0])?, reg(&ops[1])?)
            }
            HiLo => {
                need(1)?;
                Instruction::hi_lo(op, reg(&ops[0])?)
            }
            AluI => {
                need(3)?;
                Instruction::alu_i(op, reg(&ops[0])?, reg(&ops[1])?, imm16(&ops[2])?)
            }
            Lui => {
                need(2)?;
                Instruction::lui(reg(&ops[0])?, imm16(&ops[1])?)
            }
            Load | Store => {
                need(2)?;
                let (off, base) = parse_mem(&ops[1])
                    .ok_or_else(|| err(line, format!("bad memory operand `{}`", ops[1])))?;
                Instruction::mem(op, reg(&ops[0])?, reg(&base)?, off)
            }
            FpLoad | FpStore => {
                need(2)?;
                let (off, base) = parse_mem(&ops[1])
                    .ok_or_else(|| err(line, format!("bad memory operand `{}`", ops[1])))?;
                Instruction::fp_mem(op, freg(&ops[0])?, reg(&base)?, off)
            }
            Jump => {
                need(1)?;
                Instruction::jump(op, label(&ops[0])? >> 2)
            }
            JumpReg => match op {
                Opcode::Jr => {
                    need(1)?;
                    Instruction::jump_reg(op, Reg::ZERO, reg(&ops[0])?)
                }
                _ => {
                    need(2)?;
                    Instruction::jump_reg(op, reg(&ops[0])?, reg(&ops[1])?)
                }
            },
            BranchCmp => {
                need(3)?;
                let off = branch_off(label(&ops[2])?, addr)?;
                Instruction::branch_cmp(op, reg(&ops[0])?, reg(&ops[1])?, off)
            }
            BranchZ => {
                need(2)?;
                let off = branch_off(label(&ops[1])?, addr)?;
                Instruction::branch_z(op, reg(&ops[0])?, off)
            }
            BranchFp => {
                need(1)?;
                Instruction::branch_fp(op, branch_off(label(&ops[0])?, addr)?)
            }
            FpArith3 => match op {
                Opcode::SqrtS | Opcode::SqrtD => {
                    need(2)?;
                    Instruction::fp_arith3(
                        op,
                        freg(&ops[0])?,
                        freg(&ops[1])?,
                        FReg::new(0).unwrap(),
                    )
                }
                _ => {
                    need(3)?;
                    Instruction::fp_arith3(op, freg(&ops[0])?, freg(&ops[1])?, freg(&ops[2])?)
                }
            },
            FpArith2 => {
                need(2)?;
                Instruction::fp_arith2(op, freg(&ops[0])?, freg(&ops[1])?)
            }
            FpCompare => {
                need(2)?;
                Instruction::fp_compare(op, freg(&ops[0])?, freg(&ops[1])?)
            }
            FpMove => {
                need(2)?;
                Instruction::fp_move(op, reg(&ops[0])?, freg(&ops[1])?)
            }
            System => {
                need(0)?;
                Instruction::system(op)
            }
        };
        out.push(instr);
        Ok(())
    }
}

/// Emits the canonical `li` expansion (1 or 2 instructions).
fn emit_li(rt: Reg, v: i32, out: &mut Vec<Instruction>) {
    if (-32768..=32767).contains(&v) {
        out.push(Instruction::alu_i(Opcode::Addiu, rt, Reg::ZERO, v as i16));
    } else if v as u32 & 0xFFFF == 0 {
        out.push(Instruction::lui(rt, (v >> 16) as i16));
    } else {
        out.push(Instruction::lui(rt, (v >> 16) as i16));
        out.push(Instruction::alu_i(Opcode::Ori, rt, rt, v as u16 as i16));
    }
}

/// How many machine instructions a (possibly pseudo-) mnemonic occupies.
fn pseudo_len(mnemonic: &str, ops: &[String]) -> u32 {
    match mnemonic {
        "la" => 2,
        "blt" | "bgt" | "ble" | "bge" => 2,
        "li" => {
            let v = ops.get(1).and_then(|s| parse_imm::<i64>(s)).unwrap_or(0) as i32;
            let mut tmp = Vec::new();
            emit_li(Reg::AT, v, &mut tmp);
            tmp.len() as u32
        }
        _ => 1,
    }
}

fn err(line: usize, message: String) -> AsmError {
    AsmError { line, message }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn split_instr(s: &str) -> (String, Vec<String>) {
    match s.find(char::is_whitespace) {
        Some(i) => {
            let (m, rest) = s.split_at(i);
            (m.to_owned(), csv(rest).map(str::to_owned).collect())
        }
        None => (s.to_owned(), Vec::new()),
    }
}

fn csv(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|p| !p.is_empty())
}

/// Parses `off(base)` or `(base)` into `(offset, base_register_name)`.
fn parse_mem(s: &str) -> Option<(i16, String)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close != s.len() - 1 {
        return None;
    }
    let off_str = s[..open].trim();
    let off = if off_str.is_empty() {
        0
    } else {
        parse_imm::<i64>(off_str).filter(|v| (-32768..=32767).contains(v))? as i16
    };
    Some((off, s[open + 1..close].trim().to_owned()))
}

/// Parses a decimal or `0x` hexadecimal integer with optional sign.
fn parse_imm<T>(s: &str) -> Option<T>
where
    T: TryFrom<i64>,
{
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    T::try_from(if neg { -v } else { v }).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(src: &str) -> Program {
        Assembler::new().assemble(src).unwrap()
    }

    #[test]
    fn basic_loop_assembles() {
        let p = asm(r#"
        .text
        entry:
            addiu $t0, $zero, 4
        loop:
            addiu $t0, $t0, -1
            bne   $t0, $zero, loop
            nop
            break
        "#);
        assert_eq!(p.instructions().len(), 5);
        // bne offset: target loop is 2 instructions back from the delay slot.
        let bne = p.instructions()[2];
        assert_eq!(bne.op, Opcode::Bne);
        assert_eq!(bne.imm, -2);
    }

    #[test]
    fn data_directives_lay_out_bytes() {
        let p = asm(r#"
        .data
        tbl: .word 1, 2, 0x10
        b:   .byte 1, 2
             .align 2
        h:   .half 0x1234
             .space 4
        f:   .float 1.5
        d:   .double 2.0
        .text
            la $t0, tbl
            lw $t1, 0($t0)
            break
        "#);
        let d = p.data();
        assert_eq!(&d.bytes[..12], &[1, 0, 0, 0, 2, 0, 0, 0, 0x10, 0, 0, 0]);
        assert_eq!(p.symbol("b").unwrap(), d.base + 12);
        assert_eq!(p.symbol("h").unwrap(), d.base + 16);
        assert_eq!(p.symbol("f").unwrap(), d.base + 22);
        assert_eq!(p.symbol("d").unwrap(), d.base + 26);
        assert_eq!(d.bytes.len(), 34);
    }

    #[test]
    fn pseudo_li_sizes() {
        let p = asm(".text\n li $t0, 7\n li $t1, 0x10000\n li $t2, 0x12345678\n break\n");
        // 1 + 1 + 2 + 1 instructions
        assert_eq!(p.instructions().len(), 5);
        assert_eq!(p.instructions()[0].op, Opcode::Addiu);
        assert_eq!(p.instructions()[1].op, Opcode::Lui);
        assert_eq!(p.instructions()[2].op, Opcode::Lui);
        assert_eq!(p.instructions()[3].op, Opcode::Ori);
    }

    #[test]
    fn pseudo_branches_expand() {
        let p = asm(r#"
        .text
        top:
            blt $t0, $t1, top
            nop
            break
        "#);
        assert_eq!(p.instructions()[0].op, Opcode::Slt);
        assert_eq!(p.instructions()[1].op, Opcode::Bne);
        assert_eq!(p.instructions()[1].imm, -2);
    }

    #[test]
    fn fp_instructions() {
        let p = asm(r#"
        .data
        v: .double 3.25
        .text
            la    $t0, v
            ldc1  $f2, 0($t0)
            add.d $f4, $f2, $f2
            sqrt.d $f6, $f4
            c.lt.d $f2, $f4
            bc1t  done
            nop
        done:
            break
        "#);
        assert_eq!(p.instructions().len(), 9);
        assert_eq!(p.instructions()[2].op, Opcode::Ldc1);
        assert_eq!(p.instructions()[3].op, Opcode::AddD);
    }

    #[test]
    fn errors_name_the_line() {
        let e = Assembler::new()
            .assemble(".text\n bogus $t0\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = Assembler::new()
            .assemble(".text\n lw $t0, 4($nope)\n")
            .unwrap_err();
        assert!(e.message.contains("nope"));

        let e = Assembler::new()
            .assemble(".text\n j nowhere\n")
            .unwrap_err();
        assert!(e.message.contains("undefined label"));

        let e = Assembler::new()
            .assemble(".text\nx: nop\nx: nop\n")
            .unwrap_err();
        assert!(e.message.contains("duplicate"));

        let e = Assembler::new().assemble(".text\n .word 1\n").unwrap_err();
        assert!(e.message.contains("outside .data"));

        assert!(Assembler::new().assemble("").is_err());
    }

    #[test]
    fn hex_immediates_and_negative_offsets() {
        let p = asm(".data
buf: .space 64
.text
 la $s0, buf
 addiu $s0, $s0, 32
              lw $t0, -4($s0)
 ori $t1, $zero, 0xFF
 andi $t2, $t1, 0x0F
              sw $t0, -32($s0)
 break
");
        let lw = p.instructions()[3];
        assert_eq!(lw.op, Opcode::Lw);
        assert_eq!(lw.imm, -4);
        assert_eq!(p.instructions()[4].imm as u16, 0xFF);
    }

    #[test]
    fn multiple_labels_and_inline_statements() {
        let p = asm(".text
a: b: c: nop
d: break
");
        let base = p.symbol("a").unwrap();
        assert_eq!(p.symbol("b"), Some(base));
        assert_eq!(p.symbol("c"), Some(base));
        assert_eq!(p.symbol("d"), Some(base + 4));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = asm("# leading comment

.text
 nop # trailing
  # indented
 break
");
        assert_eq!(p.instructions().len(), 2);
    }

    #[test]
    fn branch_out_of_range_rejected() {
        // A forward branch beyond +-32767 words must error, not wrap.
        let mut src = String::from(
            ".text
 beq $zero, $zero, far
 nop
",
        );
        for _ in 0..40_000 {
            src.push_str(
                " nop
",
            );
        }
        src.push_str(
            "far: break
",
        );
        let err = Assembler::new().assemble(&src).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn zero_offset_memory_operand() {
        let p = asm(".text
 li $t0, 0x2000
 lw $t1, ($t0)
 break
");
        let lw = p
            .instructions()
            .iter()
            .find(|i| i.op == Opcode::Lw)
            .unwrap();
        assert_eq!(lw.imm, 0);
    }

    #[test]
    fn custom_bases_are_respected() {
        let p = Assembler::new()
            .text_base(0x0010_0000)
            .data_base(0x2000_0000)
            .assemble(
                ".data
x: .word 1
.text
 nop
 break
",
            )
            .unwrap();
        assert_eq!(p.text_base(), 0x0010_0000);
        assert_eq!(p.data().base, 0x2000_0000);
        assert_eq!(p.symbol("x"), Some(0x2000_0000));
    }

    #[test]
    fn jump_targets_resolve() {
        let p = asm(r#"
        .text
            j end
            nop
        end:
            break
        "#);
        assert_eq!(p.instructions()[0].target << 2, p.symbol("end").unwrap());
    }

    #[test]
    fn everything_round_trips_through_encode_decode() {
        let p = asm(r#"
        .data
        arr: .space 64
        .text
            la    $s0, arr
            li    $s1, 16
            move  $t3, $s1
        loop:
            lw    $t0, 0($s0)
            addu  $t1, $t1, $t0
            sw    $t1, 4($s0)
            addiu $s0, $s0, 4
            addiu $s1, $s1, -1
            bgtz  $s1, loop
            nop
            mult  $t1, $s1
            mflo  $t4
            srav  $t5, $t4, $t3
            jr    $ra
            nop
            break
        "#);
        for i in p.instructions() {
            assert_eq!(&Instruction::decode(i.encode()).unwrap(), i, "{i}");
        }
    }
}
