//! The trace record codec.
//!
//! The in-memory packed format ([`packed`](crate::packed)) represents a
//! [`TraceOp`](crate::TraceOp) as a fixed-width field tuple:
//!
//! * `pc` — the instruction address,
//! * `kind` — a one-byte tag for the [`OpKind`] variant,
//! * `aux` — the memory-access width for loads/stores, zero otherwise,
//! * `payload` — the effective address or control-flow target,
//! * `dst` / `src1` / `src2` — one-byte register codes.
//!
//! Keeping the enum↔field mapping in one place means the packed oracle
//! and the block builder, which keys its templates on packed records,
//! can never disagree about what a byte means. No trace outlives the
//! process that captured it, so the encoding may change freely.

// Ops are bit-packed here, so a silent truncation would corrupt every
// replay of a captured trace: clippy (`-D warnings` in ci.sh) rejects
// any lossy `as` cast in this file.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::trace::{ArchReg, MemWidth, OpKind};

/// Version stamp of the trace encoding. Its only reader is the
/// `aurora-serve` result store, whose 20-byte shard header still carries
/// it: the value stays 1 so existing stores open without a rebuild.
/// Bumping it discards every stored result.
pub const TRACE_FORMAT_VERSION: u32 = 1;

// Kind tags.
pub(crate) const K_INT_ALU: u8 = 0;
pub(crate) const K_INT_MUL: u8 = 1;
pub(crate) const K_INT_DIV: u8 = 2;
pub(crate) const K_LOAD: u8 = 3;
pub(crate) const K_STORE: u8 = 4;
pub(crate) const K_FP_LOAD: u8 = 5;
pub(crate) const K_FP_STORE: u8 = 6;
pub(crate) const K_BRANCH: u8 = 7;
pub(crate) const K_BRANCH_TAKEN: u8 = 8;
pub(crate) const K_JUMP: u8 = 9;
pub(crate) const K_JUMP_REG: u8 = 10;
pub(crate) const K_FP_ADD: u8 = 11;
pub(crate) const K_FP_MUL: u8 = 12;
pub(crate) const K_FP_DIV: u8 = 13;
pub(crate) const K_FP_SQRT: u8 = 14;
pub(crate) const K_FP_CVT: u8 = 15;
pub(crate) const K_FP_MOVE: u8 = 16;
pub(crate) const K_FP_CMP: u8 = 17;
pub(crate) const K_NOP: u8 = 18;

/// Splits an [`OpKind`] into its `(tag, aux, payload)` encoding.
pub(crate) fn pack_kind(kind: OpKind) -> (u8, u8, u32) {
    match kind {
        OpKind::IntAlu => (K_INT_ALU, 0, 0),
        OpKind::IntMul => (K_INT_MUL, 0, 0),
        OpKind::IntDiv => (K_INT_DIV, 0, 0),
        OpKind::Load { ea, width } => (K_LOAD, encode_width(width), ea),
        OpKind::Store { ea, width } => (K_STORE, encode_width(width), ea),
        OpKind::FpLoad { ea, width } => (K_FP_LOAD, encode_width(width), ea),
        OpKind::FpStore { ea, width } => (K_FP_STORE, encode_width(width), ea),
        OpKind::Branch { taken, target } => {
            (if taken { K_BRANCH_TAKEN } else { K_BRANCH }, 0, target)
        }
        OpKind::Jump { target, register } => {
            (if register { K_JUMP_REG } else { K_JUMP }, 0, target)
        }
        OpKind::FpAdd => (K_FP_ADD, 0, 0),
        OpKind::FpMul => (K_FP_MUL, 0, 0),
        OpKind::FpDiv => (K_FP_DIV, 0, 0),
        OpKind::FpSqrt => (K_FP_SQRT, 0, 0),
        OpKind::FpCvt => (K_FP_CVT, 0, 0),
        OpKind::FpMove => (K_FP_MOVE, 0, 0),
        OpKind::FpCmp => (K_FP_CMP, 0, 0),
        OpKind::Nop => (K_NOP, 0, 0),
    }
}

/// Rebuilds an [`OpKind`] from its `(tag, aux, payload)` encoding.
///
/// Only [`pack_kind`] writes the fields, so no other tag can occur: the
/// last arm decodes `K_NOP` and would decay any other byte to `Nop`.
#[inline]
pub(crate) fn unpack_kind(tag: u8, aux: u8, payload: u32) -> OpKind {
    match tag {
        K_INT_ALU => OpKind::IntAlu,
        K_INT_MUL => OpKind::IntMul,
        K_INT_DIV => OpKind::IntDiv,
        K_LOAD => OpKind::Load {
            ea: payload,
            width: decode_width(aux),
        },
        K_STORE => OpKind::Store {
            ea: payload,
            width: decode_width(aux),
        },
        K_FP_LOAD => OpKind::FpLoad {
            ea: payload,
            width: decode_width(aux),
        },
        K_FP_STORE => OpKind::FpStore {
            ea: payload,
            width: decode_width(aux),
        },
        K_BRANCH => OpKind::Branch {
            taken: false,
            target: payload,
        },
        K_BRANCH_TAKEN => OpKind::Branch {
            taken: true,
            target: payload,
        },
        K_JUMP => OpKind::Jump {
            target: payload,
            register: false,
        },
        K_JUMP_REG => OpKind::Jump {
            target: payload,
            register: true,
        },
        K_FP_ADD => OpKind::FpAdd,
        K_FP_MUL => OpKind::FpMul,
        K_FP_DIV => OpKind::FpDiv,
        K_FP_SQRT => OpKind::FpSqrt,
        K_FP_CVT => OpKind::FpCvt,
        K_FP_MOVE => OpKind::FpMove,
        K_FP_CMP => OpKind::FpCmp,
        _ => OpKind::Nop,
    }
}

// Register encoding: 0 = none; 1..=32 int r0..r31; 33..=64 fp; 65 hilo; 66 fcc.
pub(crate) fn encode_reg(r: Option<ArchReg>) -> u8 {
    match r {
        None => 0,
        Some(ArchReg::Int(n)) => 1 + n,
        Some(ArchReg::Fp(n)) => 33 + n,
        Some(ArchReg::HiLo) => 65,
        Some(ArchReg::FpCond) => 66,
    }
}

/// The inverse of [`encode_reg`], the only writer of register codes: the
/// last arm decodes 0 and would decay any other byte to `None`.
#[inline]
pub(crate) fn decode_reg(b: u8) -> Option<ArchReg> {
    match b {
        1..=32 => Some(ArchReg::Int(b - 1)),
        33..=64 => Some(ArchReg::Fp(b - 33)),
        65 => Some(ArchReg::HiLo),
        66 => Some(ArchReg::FpCond),
        _ => None,
    }
}

pub(crate) fn encode_width(w: MemWidth) -> u8 {
    match w {
        MemWidth::Byte => 1,
        MemWidth::Half => 2,
        MemWidth::Word => 4,
        MemWidth::Double => 8,
    }
}

/// The inverse of [`encode_width`], the only writer of width codes: the
/// last arm decodes 8 and would decay any other byte to `Double`.
#[inline]
pub(crate) fn decode_width(b: u8) -> MemWidth {
    match b {
        1 => MemWidth::Byte,
        2 => MemWidth::Half,
        4 => MemWidth::Word,
        _ => MemWidth::Double,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: &[OpKind] = &[
        OpKind::IntAlu,
        OpKind::IntMul,
        OpKind::IntDiv,
        OpKind::Load {
            ea: 0x1000,
            width: MemWidth::Word,
        },
        OpKind::Store {
            ea: 0x1004,
            width: MemWidth::Byte,
        },
        OpKind::FpLoad {
            ea: 0x1008,
            width: MemWidth::Double,
        },
        OpKind::FpStore {
            ea: 0x1010,
            width: MemWidth::Half,
        },
        OpKind::Branch {
            taken: false,
            target: 0x400,
        },
        OpKind::Branch {
            taken: true,
            target: 0x404,
        },
        OpKind::Jump {
            target: 0x408,
            register: false,
        },
        OpKind::Jump {
            target: 0x40c,
            register: true,
        },
        OpKind::FpAdd,
        OpKind::FpMul,
        OpKind::FpDiv,
        OpKind::FpSqrt,
        OpKind::FpCvt,
        OpKind::FpMove,
        OpKind::FpCmp,
        OpKind::Nop,
    ];

    #[test]
    fn every_kind_round_trips() {
        for &kind in ALL_KINDS {
            let (tag, aux, payload) = pack_kind(kind);
            assert_eq!(unpack_kind(tag, aux, payload), kind);
        }
    }

    #[test]
    fn every_register_round_trips() {
        let mut regs = vec![None, Some(ArchReg::HiLo), Some(ArchReg::FpCond)];
        for n in 0..32 {
            regs.push(Some(ArchReg::Int(n)));
            regs.push(Some(ArchReg::Fp(n)));
        }
        for r in regs {
            assert_eq!(decode_reg(encode_reg(r)), r);
        }
    }
}
