//! The functional-warming digest of a packed trace: sampled mode's
//! warming oracle.
//!
//! Sampled simulation fast-forwards most of a trace through *functional
//! warming*, which keeps only long-history machine state current: cache
//! tags, write-cache lines, stream buffers and pre-decoded control
//! pairs. Most ops touch none of it, and each op that does raises
//! [`WarmKind`] events. The product sampler finds those ops in the block
//! form as it walks it; a [`WarmDigest`] instead pre-extracts them from
//! a [`PackedTrace`](crate::PackedTrace) into one event list per trace
//! and line size. That second, independent derivation is what the
//! differential tests and the benchmark's reference cells compare the
//! product against.
//!
//! ```
//! use aurora_isa::{OpKind, PackedTrace, TraceOp, WarmDigest, WarmKind};
//!
//! let trace: PackedTrace = [
//!     TraceOp::bare(0x400000, OpKind::IntAlu),
//!     TraceOp::bare(0x400004, OpKind::IntAlu),
//!     TraceOp::bare(0x400020, OpKind::Jump { target: 0x400000, register: false }),
//! ]
//! .into_iter()
//! .collect();
//! let digest = WarmDigest::build(trace.records(), 32);
//! // Two fetch-line transitions and one control transfer; the second
//! // ALU op shares its line with the first and adds nothing.
//! let kinds: Vec<WarmKind> = digest.events_in(0..3).iter().map(|e| e.kind()).collect();
//! assert_eq!(
//!     kinds,
//!     [
//!         WarmKind::Fetch { pc: 0x400000 },
//!         WarmKind::Fetch { pc: 0x400020 },
//!         WarmKind::Control { pc: 0x400020, target: 0x400000 },
//!     ]
//! );
//! assert_eq!(digest.events_in(1..2).len(), 0);
//! ```

use std::ops::Range;

use crate::packed::PackedOp;
use crate::trace::OpKind;

/// What one warming event asks of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmKind {
    /// The fetch stream entered a new cache line at `pc`.
    Fetch {
        /// The first fetched address in the line.
        pc: u32,
    },
    /// A load of `bytes` bytes at `ea`.
    Load {
        /// Effective address.
        ea: u32,
        /// Access width in bytes.
        bytes: u8,
    },
    /// A store of `bytes` bytes at `ea`.
    Store {
        /// Effective address.
        ea: u32,
        /// Access width in bytes.
        bytes: u8,
    },
    /// A branch or direct jump at `pc` whose target is known.
    Control {
        /// The control op's address.
        pc: u32,
        /// Its (taken) target.
        target: u32,
    },
    /// A register-indirect jump at `pc`.
    IndirectJump {
        /// The jump's address.
        pc: u32,
    },
}

impl WarmKind {
    /// The event an op of `kind` at `pc` raises besides a fetch-line
    /// transition: its memory reference or its control transfer. `None`
    /// for ops that touch no warm state (ALU, FP arithmetic, nops).
    #[inline]
    #[must_use]
    pub fn of(pc: u32, kind: OpKind) -> Option<WarmKind> {
        Some(match kind {
            OpKind::Load { ea, width } | OpKind::FpLoad { ea, width } => WarmKind::Load {
                ea,
                bytes: width.bytes() as u8,
            },
            OpKind::Store { ea, width } | OpKind::FpStore { ea, width } => WarmKind::Store {
                ea,
                bytes: width.bytes() as u8,
            },
            OpKind::Branch { target, .. }
            | OpKind::Jump {
                target,
                register: false,
            } => WarmKind::Control { pc, target },
            OpKind::Jump { register: true, .. } => WarmKind::IndirectJump { pc },
            _ => return None,
        })
    }
}

/// One pre-extracted warming event, stamped with the index of the op it
/// came from. Sixteen bytes, the size of the [`PackedOp`] it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmEvent {
    op_idx: u32,
    kind: WarmKind,
}

const _: () = assert!(std::mem::size_of::<WarmEvent>() == 16);

impl WarmEvent {
    /// What the event asks of the machine.
    #[inline]
    pub fn kind(&self) -> WarmKind {
        self.kind
    }
}

/// The subsequence of a packed trace that functional warming reacts
/// to, pre-extracted once so every warm pass skips the ops that cannot
/// change warm state. It is the oracle of sampled mode's warming: the
/// product sampler (`aurora_core::run_sampled`) finds the same events
/// in the block form it walks and never builds a digest.
///
/// Warming op by op would decode every op only to ignore most of them:
/// ALU and FP arithmetic touch no warm state, and instruction-side
/// probes collapse to one per cache-line transition. A digest walks the
/// trace once and keeps only line transitions, memory references and
/// control transfers, each stamped with its op index. The simulator's
/// warming pass (`aurora_core::Simulator::warm_digest`) then replays an
/// arbitrary index range through [`WarmDigest::events_in`], which
/// binary-searches the event list. The digest depends on the trace and
/// the line granule alone, never on a machine model, so one digest
/// serves every configuration sharing a line size (every
/// `aurora_core::MachineModel` preset uses 32-byte lines) across any
/// number of sampling passes.
#[derive(Debug, PartialEq, Eq)]
pub struct WarmDigest {
    line_bytes: u32,
    events: Vec<WarmEvent>,
}

impl WarmDigest {
    /// Extracts the warming events of `ops` at a `line_bytes` fetch
    /// granule (power of two, at least one 8-byte pair per line).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two at least 8, or if
    /// the trace holds `u32::MAX` ops or more (digest indices are
    /// 32-bit; captured traces are orders of magnitude smaller).
    #[must_use]
    pub fn build(ops: &[PackedOp], line_bytes: u32) -> WarmDigest {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 8,
            "line_bytes {line_bytes} invalid"
        );
        assert!(
            u32::try_from(ops.len()).is_ok(),
            "trace too large to digest"
        );
        let shift = line_bytes.trailing_zeros();
        // Three events per four ops: the 15 test-scale kernels raise
        // 0.34-0.70 per op at 32-byte lines, so none regrows the list.
        let mut events = Vec::with_capacity(ops.len() - ops.len() / 4);
        let mut last_line = u64::MAX;
        for (idx, rec) in ops.iter().enumerate() {
            let op_idx = idx as u32;
            let pc = rec.pc();
            let line = u64::from(pc >> shift);
            if line != last_line {
                last_line = line;
                events.push(WarmEvent {
                    op_idx,
                    kind: WarmKind::Fetch { pc },
                });
            }
            if let Some(kind) = WarmKind::of(pc, rec.kind_only()) {
                events.push(WarmEvent { op_idx, kind });
            }
        }
        WarmDigest { line_bytes, events }
    }

    /// The fetch-line granule the digest was extracted at.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of warming events extracted (the density `len() /
    /// trace_ops` is the fraction of the trace warming actually
    /// touches).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the digest holds no events (an empty trace).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events whose source op index falls in `range`, in trace
    /// order. Allocation- and panic-free: functional warming calls it
    /// once per fast-forwarded stretch.
    #[must_use]
    pub fn events_in(&self, range: Range<usize>) -> &[WarmEvent] {
        let lo = self
            .events
            .partition_point(|e| (e.op_idx as usize) < range.start);
        // `partition_point` bounds `lo` and `hi` by the slice length, but
        // the panic-free forms keep the fetch hot path index-free.
        let tail = self.events.get(lo..).unwrap_or_default();
        let hi = tail.partition_point(|e| (e.op_idx as usize) < range.end);
        tail.get(..hi).unwrap_or_default()
    }
}
