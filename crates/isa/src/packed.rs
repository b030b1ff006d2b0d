//! Compact in-memory traces for capture-once / replay-many simulation.
//!
//! The trace-driven methodology of §4.1 separates *trace collection* from
//! *simulation*. A configuration sweep replays the same workload against
//! dozens of machine configurations, so re-emulating the kernel for every
//! cell of the sweep wastes almost all of its time producing bytes that
//! never change. [`PackedTrace`] stores each retired instruction as a
//! fixed 16-byte record (less than half the in-memory footprint of a
//! `Vec<TraceOp>`, which is 28 bytes plus padding per op) and decodes on
//! the fly during replay, so one captured trace can be shared — typically
//! behind an `Arc` — by every simulator thread. It is the oracle only:
//! sweeps and every serve cell, sampled ones included, replay the block
//! form ([`BlockTrace`](crate::BlockTrace)) instead.
//!
//! The field encoding is the shared [`codec`](crate::codec); the block
//! builder keys its templates on the same packed records.
//!
//! ```
//! use aurora_isa::{OpKind, PackedTrace, TraceOp};
//!
//! let trace: PackedTrace = [
//!     TraceOp::bare(0x400000, OpKind::IntAlu),
//!     TraceOp::bare(0x400004, OpKind::Branch { taken: true, target: 0x400000 }),
//! ]
//! .into_iter()
//! .collect();
//! assert_eq!(trace.len(), 2);
//! let back: Vec<TraceOp> = trace.iter().collect();
//! assert_eq!(back[1].pc, 0x400004);
//! ```

// Ops are bit-packed here, so a silent truncation would corrupt every
// replay of a captured trace: clippy (`-D warnings` in ci.sh) rejects
// any lossy `as` cast in this file.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::codec;
use crate::trace::{OpKind, TraceOp, TraceStats};

/// One trace record packed into 16 bytes.
///
/// Only ever constructed from a valid [`TraceOp`], so unpacking is
/// infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct PackedOp {
    pc: u32,
    payload: u32,
    kind: u8,
    aux: u8,
    dst: u8,
    src1: u8,
    src2: u8,
    _pad: [u8; 3],
}

impl PackedOp {
    /// Packs a trace op into its fixed-width form.
    pub fn pack(op: &TraceOp) -> PackedOp {
        let (kind, aux, payload) = codec::pack_kind(op.kind);
        PackedOp {
            pc: op.pc,
            payload,
            kind,
            aux,
            dst: codec::encode_reg(op.dst),
            src1: codec::encode_reg(op.src1),
            src2: codec::encode_reg(op.src2),
            _pad: [0; 3],
        }
    }

    /// Expands back into the simulator's working representation.
    #[inline]
    pub fn unpack(&self) -> TraceOp {
        TraceOp {
            pc: self.pc,
            kind: codec::unpack_kind(self.kind, self.aux, self.payload),
            dst: codec::decode_reg(self.dst),
            src1: codec::decode_reg(self.src1),
            src2: codec::decode_reg(self.src2),
        }
    }

    /// The instruction address, without decoding the rest of the record.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Decodes only the [`OpKind`], skipping the three register fields.
    ///
    /// Functional warming retires millions of ops per second and never
    /// reads the register operands, so paying the register decode of
    /// [`unpack`](Self::unpack) there would be pure overhead.
    #[inline]
    pub fn kind_only(&self) -> OpKind {
        codec::unpack_kind(self.kind, self.aux, self.payload)
    }

    /// Whether the record is a load or store, whose payload is its
    /// effective address.
    #[inline]
    pub(crate) fn is_memory(&self) -> bool {
        matches!(
            self.kind,
            codec::K_LOAD | codec::K_STORE | codec::K_FP_LOAD | codec::K_FP_STORE
        )
    }

    /// Whether the record is a branch or jump.
    #[inline]
    pub(crate) fn is_control_flow(&self) -> bool {
        matches!(
            self.kind,
            codec::K_BRANCH | codec::K_BRANCH_TAKEN | codec::K_JUMP | codec::K_JUMP_REG
        )
    }

    /// The raw payload: a memory op's effective address, a control op's
    /// target, zero otherwise.
    #[inline]
    pub(crate) fn payload(&self) -> u32 {
        self.payload
    }

    /// The record's static part: a memory op's effective address is
    /// cleared, everything else (pc, kind, width, registers, a control
    /// op's outcome and target) is kept.
    #[inline]
    pub(crate) fn without_address(&self) -> PackedOp {
        PackedOp {
            payload: if self.is_memory() { 0 } else { self.payload },
            ..*self
        }
    }
}

/// A whole dynamic trace in packed form: the oracle.
///
/// Per-op replay of this form is what the differential suites and the
/// benchmark's reference cells compare the block engine against, and
/// the digest sampler over it (with a [`WarmDigest`](crate::WarmDigest))
/// is what they compare sampled mode against. No product path builds
/// it: sweeps and serve cells capture straight into a
/// [`BlockTrace`](crate::BlockTrace) at about a tenth of the bytes. Built once per (workload, scale) — see
/// `aurora-workloads`' trace store — and replayed read-only by any
/// number of simulator threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedTrace {
    ops: Vec<PackedOp>,
    stats: TraceStats,
}

impl PackedTrace {
    /// An empty trace.
    pub fn new() -> PackedTrace {
        PackedTrace::default()
    }

    /// An empty trace with room for `n` records.
    pub fn with_capacity(n: usize) -> PackedTrace {
        PackedTrace {
            ops: Vec::with_capacity(n),
            stats: TraceStats::default(),
        }
    }

    /// Packs an already-collected op sequence.
    pub fn from_ops(ops: impl IntoIterator<Item = TraceOp>) -> PackedTrace {
        ops.into_iter().collect()
    }

    /// Appends one record.
    pub fn push(&mut self, op: TraceOp) {
        self.stats.record(&op);
        self.ops.push(PackedOp::pack(&op));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The record at `index`, decoded.
    pub fn get(&self, index: usize) -> Option<TraceOp> {
        self.ops.get(index).map(PackedOp::unpack)
    }

    /// Summary statistics, accumulated at build time (free to read).
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Heap bytes held by the packed records.
    pub fn mem_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<PackedOp>()
    }

    /// Iterates the trace, decoding records on the fly.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceOp> + '_ {
        self.ops.iter().map(PackedOp::unpack)
    }

    /// The raw packed records: sampled mode and its functional-warming
    /// digest address the trace by op position through this slice.
    pub fn records(&self) -> &[PackedOp] {
        &self.ops
    }
}

impl FromIterator<TraceOp> for PackedTrace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> PackedTrace {
        let iter = iter.into_iter();
        let mut trace = PackedTrace::with_capacity(iter.size_hint().0);
        trace.extend(iter);
        trace
    }
}

impl Extend<TraceOp> for PackedTrace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = TraceOp;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, PackedOp>, fn(&PackedOp) -> TraceOp>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter().map(PackedOp::unpack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArchReg, MemWidth, OpKind};

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp {
                pc: 0x0040_0000,
                kind: OpKind::Load {
                    ea: 0x1001_0040,
                    width: MemWidth::Word,
                },
                dst: Some(ArchReg::Int(8)),
                src1: Some(ArchReg::Int(29)),
                src2: None,
            },
            TraceOp::bare(0x0040_0004, OpKind::FpDiv),
            TraceOp {
                pc: 0x0040_0008,
                kind: OpKind::Branch {
                    taken: true,
                    target: 0x0040_0000,
                },
                dst: None,
                src1: Some(ArchReg::FpCond),
                src2: Some(ArchReg::HiLo),
            },
            TraceOp::bare(
                0x0040_0010,
                OpKind::Jump {
                    target: 0x0040_0100,
                    register: true,
                },
            ),
            TraceOp::bare(0x0040_0014, OpKind::Nop),
        ]
    }

    #[test]
    fn packed_op_is_16_bytes() {
        assert_eq!(std::mem::size_of::<PackedOp>(), 16);
    }

    #[test]
    fn pack_unpack_round_trips() {
        for op in sample_ops() {
            assert_eq!(PackedOp::pack(&op).unpack(), op);
        }
    }

    #[test]
    fn collect_and_iter_round_trip() {
        let ops = sample_ops();
        let trace: PackedTrace = ops.iter().copied().collect();
        assert_eq!(trace.len(), ops.len());
        assert!(!trace.is_empty());
        assert_eq!(trace.iter().collect::<Vec<_>>(), ops);
        assert_eq!((&trace).into_iter().collect::<Vec<_>>(), ops);
        assert_eq!(trace.get(1), Some(ops[1]));
        assert_eq!(trace.get(99), None);
    }

    #[test]
    fn stats_match_streamed_accumulation() {
        let ops = sample_ops();
        let mut want = TraceStats::default();
        for op in &ops {
            want.record(op);
        }
        let trace = PackedTrace::from_ops(ops);
        assert_eq!(*trace.stats(), want);
    }

    #[test]
    fn packed_is_smaller_than_trace_op() {
        assert!(std::mem::size_of::<PackedOp>() < std::mem::size_of::<TraceOp>());
        let trace = PackedTrace::from_ops(sample_ops());
        assert!(trace.mem_bytes() >= trace.len() * 16);
    }
}
