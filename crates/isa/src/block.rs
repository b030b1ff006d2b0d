//! Basic-block lowering for the replay fast path.
//!
//! A configuration sweep replays the same [`PackedTrace`] hundreds of
//! times (§4.1 capture-once / replay-many). Walking it one record at a
//! time pays per-op unpack, pairing look-ahead and full constraint
//! gathering for every dynamic instruction. [`BlockTrace`] amortises
//! that work at lowering time: the dynamic trace is segmented into
//! *basic blocks* — maximal runs of ops ending at each control-flow
//! change — and blocks of identical static code are deduplicated into
//! *templates* holding pre-decoded [`TraceOp`]s plus four per-op
//! bitmasks: which ops are batchable, which adjacent pairs pass the
//! static dual-issue rules, which ops must re-check their sources
//! dynamically, and which access data memory. A template is a
//! property of the code, not of one execution: its memory ops carry no
//! effective address. The addresses live in one `u32` operand stream,
//! one entry per dynamic memory op in trace order, so a loop striding
//! through an array still lowers to one template per static block.
//! Replay then streams one `u32` template id per dynamic block plus
//! one address per memory op instead of sixteen bytes per op, and the
//! timing core executes whole runs through a specialised issue loop
//! whose source and pairing checks were resolved at lowering time.
//!
//! The lowering is purely a re-encoding: [`BlockTrace::iter`] yields
//! exactly the ops of the source trace, in order, and the simulator
//! asserts bit-identical `SimStats` between block-mode and per-op
//! replay (see `tests/block_replay_differential.rs` in the workspace
//! root).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::packed::{PackedOp, PackedTrace};
use crate::trace::{ArchReg, OpKind, TraceOp, TraceStats};

/// Lowering-time template index: candidate template ids by the pc a
/// block starts at. One FxHash-style multiply-fold per dynamic block:
/// lowering is a trusted offline step with no adversarial keys.
type TemplateIndex = HashMap<u32, Vec<u32>, BuildHasherDefault<PcHasher>>;

/// Multiply-fold hasher for the `u32` pcs keying [`TemplateIndex`].
#[derive(Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Hard cap on ops per block. Blocks longer than this (straight-line
/// stretches with no control flow) are split; the split is invisible to
/// replay semantics and keeps every per-op bitmask in a single `u64`.
pub const MAX_BLOCK_OPS: usize = 64;

/// Bit index of the HI/LO pair in the register masks `analyze` tracks,
/// alongside bits 0–31 for the integer registers.
const HILO_BIT: u32 = 32;

/// One deduplicated static block: an op range into the shared pool plus
/// the per-op masks replay reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTemplate {
    /// First op index in the [`BlockTrace`] pool.
    pub(crate) start: u32,
    /// Number of ops (1 ..= [`MAX_BLOCK_OPS`]).
    pub(crate) len: u16,
    /// Bit `j` set: ops `j` and `j + 1` pass [`static_pair_ok`], every
    /// *static* dual-issue rule (alignment, adjacency, not both memory,
    /// no intra-pair dependence, no FP-compare/branch hazard). Dynamic
    /// rules — partner readiness, ROB space — remain replay's job.
    pub pair_ok: u64,
    /// Bit `j` set: op `j`'s sources must be re-checked dynamically
    /// inside a batched run, because one of them is either *live into
    /// the run* (produced before the run, readiness unknowable
    /// statically) or produced in-run by a *slow* writer — a load
    /// result or a multiply/divide into HI/LO, whose latency exceeds
    /// the one-cycle ALU forward. Ops with a clear bit provably never
    /// bind on a source: every source was written by an earlier in-run
    /// ALU group and forwards one cycle later, no later than the next
    /// group's fetch-bound issue time.
    pub need_src: u64,
    /// Bit `j` set: op `j` is batchable — anything but control flow,
    /// which only ever ends a block. Batchable ops form maximal
    /// contiguous runs, so the end of the run containing op `i` is
    /// `i + (batch_mask >> i).trailing_ones()`. A run may be entered at
    /// any interior index: the [`need_src`](Self::need_src) analysis
    /// holds for every suffix of the run (a clear bit means the op's
    /// sources come from earlier in-run ALU groups, which forward in
    /// one cycle whether they issued inside or before the batch).
    pub batch_mask: u64,
    /// Bit `j` set: op `j` accesses data memory. Its pooled op carries
    /// no effective address; the address is entry
    /// [`addr_index(j)`](Self::addr_index) of the block instance's
    /// slice of [`BlockTrace::addrs`].
    pub mem_mask: u64,
}

impl BlockTemplate {
    /// Number of ops in the block.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the block is empty (never true for stored templates).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of data-memory ops in the block: how many entries of
    /// [`BlockTrace::addrs`] one instance of it consumes.
    #[inline]
    pub fn mem_ops(&self) -> usize {
        self.mem_mask.count_ones() as usize
    }

    /// Where memory op `j`'s effective address sits in its block
    /// instance's slice of [`BlockTrace::addrs`]: the number of memory
    /// ops before it (the popcount of [`mem_mask`](Self::mem_mask)
    /// below bit `j`).
    #[inline]
    pub fn addr_index(&self, j: usize) -> usize {
        (self.mem_mask & ((1u64 << (j as u32 & 63)) - 1)).count_ones() as usize
    }
}

/// A dynamic trace lowered to deduplicated basic blocks.
///
/// Layout: `pool` concatenates the pre-decoded ops of every distinct
/// template, with memory ops' effective addresses cleared; `seq` holds
/// one template id per *dynamic* block instance; `addrs` holds one
/// effective address per dynamic memory op, in trace order. Loops
/// collapse to repeated ids, so replay streams ~4 bytes per executed
/// block plus 4 per memory op instead of 16 bytes per executed op, and
/// the decoded templates stay hot in cache.
///
/// ```
/// use aurora_isa::{BlockTrace, MemWidth, OpKind, PackedTrace, TraceOp};
///
/// let load = |ea| TraceOp::bare(0, OpKind::Load { ea, width: MemWidth::Word });
/// let branch = TraceOp::bare(4, OpKind::Branch { taken: true, target: 0 });
/// // Two iterations of the same loop body, loading different words...
/// let trace: PackedTrace = [load(0x100), branch, load(0x104), branch].into_iter().collect();
/// let blocks = BlockTrace::lower(&trace);
/// // ...lower to ONE static template replayed twice, plus two addresses.
/// assert_eq!(blocks.templates().len(), 1);
/// assert_eq!(blocks.instances(), &[0, 0]);
/// assert_eq!(blocks.addrs(), &[0x100, 0x104]);
/// assert!(blocks.iter().eq(trace.iter()));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTrace {
    pool: Vec<TraceOp>,
    templates: Vec<BlockTemplate>,
    seq: Vec<u32>,
    addrs: Vec<u32>,
    total_ops: u64,
    stats: TraceStats,
}

impl BlockTrace {
    /// Lowers a packed trace: segments it at control-flow ops (and at
    /// the [`MAX_BLOCK_OPS`] cap), deduplicates blocks of identical
    /// static code into templates, pre-resolves each template's
    /// footprint, and moves every memory op's effective address into
    /// the operand stream. Blocks are sliced straight out of the record
    /// array and unpacked into the builder's open block, so the oracle
    /// and a capture share one interning routine.
    pub fn lower(trace: &PackedTrace) -> BlockTrace {
        let s = trace.stats();
        let mut builder = BlockTraceBuilder {
            out: BlockTrace {
                addrs: Vec::with_capacity(
                    usize::try_from(s.loads + s.stores + s.fp_loads + s.fp_stores).unwrap_or(0),
                ),
                stats: *s,
                ..BlockTrace::default()
            },
            ..BlockTraceBuilder::default()
        };
        let mut rest = trace.records();
        while !rest.is_empty() {
            let len = rest
                .iter()
                .take(MAX_BLOCK_OPS)
                .position(PackedOp::is_control_flow)
                .map_or(rest.len().min(MAX_BLOCK_OPS), |p| p + 1);
            let (block, tail) = rest.split_at(len);
            builder.open.extend(block.iter().map(PackedOp::unpack));
            builder.close_block();
            rest = tail;
        }
        builder.finish()
    }

    /// Lowers an arbitrary op stream through a [`BlockTraceBuilder`]
    /// (trace statistics are recomputed).
    pub fn lower_ops(ops: impl IntoIterator<Item = TraceOp>) -> BlockTrace {
        let mut builder = BlockTraceBuilder::new();
        for op in ops {
            builder.push(op);
        }
        builder.finish()
    }

    /// Heap bytes held by the lowering: the op pool, the templates, the
    /// instance stream and the operand stream (compare
    /// [`PackedTrace::mem_bytes`]).
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.capacity() * size_of::<TraceOp>()
            + self.templates.capacity() * size_of::<BlockTemplate>()
            + (self.seq.capacity() + self.addrs.capacity()) * size_of::<u32>()
    }

    /// The deduplicated static templates.
    pub fn templates(&self) -> &[BlockTemplate] {
        &self.templates
    }

    /// One template id per dynamic block instance, in trace order.
    pub fn instances(&self) -> &[u32] {
        &self.seq
    }

    /// The operand stream: one effective address per dynamic memory op,
    /// in trace order. A block instance's addresses are the next
    /// [`mem_ops`](BlockTemplate::mem_ops) entries, in op order.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// The pre-decoded ops of `tmpl` (a slice into the shared pool),
    /// with memory ops' effective addresses cleared.
    pub fn ops_of(&self, tmpl: &BlockTemplate) -> &[TraceOp] {
        let start = tmpl.start as usize;
        self.pool
            .get(start..start.saturating_add(usize::from(tmpl.len)))
            .unwrap_or(&[])
    }

    /// Total dynamic instruction count (equals the source trace length).
    pub fn len(&self) -> u64 {
        self.total_ops
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.total_ops == 0
    }

    /// Aggregate statistics of the source trace.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Iterates over the dynamic op stream the lowering encodes —
    /// exactly the ops of the source trace, in order, each memory op
    /// carrying its effective address again.
    ///
    /// This is the round-trip oracle: the tests compare it against the
    /// packed trace to show the lowering is a pure re-encoding. No
    /// product path reads it; replay walks the templates and the address
    /// stream directly.
    pub fn iter(&self) -> impl Iterator<Item = TraceOp> + '_ {
        let mut addrs = self.addrs.iter().copied();
        self.seq
            .iter()
            .filter_map(|&id| self.templates.get(id as usize))
            .flat_map(|t| self.ops_of(t).iter().copied())
            .map(move |op| {
                if !op.kind.is_memory() {
                    return op;
                }
                TraceOp {
                    kind: op.kind.with_address(addrs.next().unwrap_or(0)),
                    ..op
                }
            })
    }
}

/// Builds a [`BlockTrace`] from a dynamic trace delivered one op at a
/// time, so a capture never materialises the 16-byte-per-op
/// [`PackedTrace`]. At most one open block (≤ [`MAX_BLOCK_OPS`] ops) is
/// buffered; each block is closed and interned as soon as its
/// control-flow op or the cap arrives. [`BlockTrace::lower`] unpacks
/// whole blocks sliced out of a held record array into the same
/// routine, so both paths produce identical lowerings.
///
/// ```
/// use aurora_isa::{BlockTrace, BlockTraceBuilder, OpKind, PackedTrace, TraceOp};
///
/// let ops = [
///     TraceOp::bare(0, OpKind::IntAlu),
///     TraceOp::bare(4, OpKind::Branch { taken: true, target: 0 }),
/// ];
/// let mut builder = BlockTraceBuilder::new();
/// for op in ops.iter().chain(&ops) {
///     builder.push(*op);
/// }
/// let blocks = builder.finish();
/// assert_eq!(blocks.instances(), &[0, 0]);
/// let packed: PackedTrace = ops.iter().chain(&ops).copied().collect();
/// assert_eq!(blocks, BlockTrace::lower(&packed));
/// ```
#[derive(Debug, Default)]
pub struct BlockTraceBuilder {
    out: BlockTrace,
    index: TemplateIndex,
    /// The open block: ops since the last block boundary.
    open: Vec<TraceOp>,
}

impl BlockTraceBuilder {
    /// An empty builder.
    pub fn new() -> BlockTraceBuilder {
        BlockTraceBuilder::default()
    }

    /// Appends one op of the dynamic trace, in program order.
    pub fn push(&mut self, op: TraceOp) {
        self.out.stats.record(&op);
        self.open.push(op);
        // The cut `BlockTrace::lower` makes by slicing: after a
        // control-flow op, or at the cap.
        if op.kind.is_control_flow() || self.open.len() == MAX_BLOCK_OPS {
            self.close_block();
        }
    }

    /// Closes the trailing partial block and returns the lowering, with
    /// its buffers trimmed to what they hold.
    pub fn finish(mut self) -> BlockTrace {
        self.close_block();
        let mut out = self.out;
        out.pool.shrink_to_fit();
        out.templates.shrink_to_fit();
        out.seq.shrink_to_fit();
        out.addrs.shrink_to_fit();
        out
    }

    /// Interns the open block and empties the buffer, keeping its
    /// allocation for the next: the block's addresses go to the operand
    /// stream, and its static code is compared against the pooled ops
    /// (addresses cleared) of the templates already interned from the
    /// same head pc, or becomes a new one.
    fn close_block(&mut self) {
        let block = self.open.as_slice();
        let Some(head) = block.first() else { return };
        let out = &mut self.out;
        out.total_ops += block.len() as u64;
        out.addrs
            .extend(block.iter().filter_map(|op| op.kind.effective_address()));
        let candidates = self.index.entry(head.pc).or_default();
        // Compared last op first: blocks from one head pc mostly differ
        // only in their control op's outcome or target.
        let found = candidates.iter().copied().find(|&id| {
            out.templates.get(id as usize).is_some_and(|t| {
                let pooled = out.ops_of(t);
                pooled.len() == block.len()
                    && pooled
                        .iter()
                        .rev()
                        .zip(block.iter().rev())
                        .all(|(p, op)| *p == without_address(op))
            })
        });
        let id = found.unwrap_or_else(|| {
            let id = u32::try_from(out.templates.len()).unwrap_or(u32::MAX);
            let start = out.pool.len();
            out.pool.extend(block.iter().map(without_address));
            let ops = out.pool.get(start..).unwrap_or(&[]);
            let tmpl = analyze(u32::try_from(start).unwrap_or(u32::MAX), ops);
            out.templates.push(tmpl);
            candidates.push(id);
            id
        });
        out.seq.push(id);
        self.open.clear();
    }
}

/// `op`'s static part, as the pool holds it: a memory op's effective
/// address is cleared; everything else (pc, kind, width, registers, a
/// control op's outcome and target) is kept.
#[inline]
fn without_address(op: &TraceOp) -> TraceOp {
    TraceOp {
        kind: op.kind.with_address(0),
        ..*op
    }
}

/// Whether the timing core's batched issue loop can execute `kind`:
/// everything except control flow, which both ends the block and arms
/// the fetch-redirect state that hands the *next* group its target.
/// Memory ops keep their port/MSHR/store-queue checks and FPU ops
/// their issue-queue admission check inside the loop, so neither needs
/// to break a run.
fn batchable(kind: OpKind) -> bool {
    !kind.is_control_flow()
}

/// Whether a write by `kind` forwards slower than the one-cycle ALU
/// bypass: loads deliver at cache latency, multiplies and divides at
/// the HI/LO unit latency. Readers of such a value inside the same run
/// must keep their dynamic source check ([`BlockTemplate::need_src`]).
fn slow_writer(kind: OpKind) -> bool {
    matches!(kind, OpKind::Load { .. } | OpKind::IntMul | OpKind::IntDiv)
}

/// Static dual-issue admissibility of adjacent ops `a`, `b`: the
/// data-independent prefix of the timing core's dual-issue rules. The
/// core checks it before the partner's dynamic checks, and lowering
/// resolves it into [`BlockTemplate::pair_ok`]. `true` means "the
/// dynamic checks decide"; `false` means the pair can never issue
/// together.
#[inline]
pub fn static_pair_ok(a: &TraceOp, b: &TraceOp) -> bool {
    // Fetch-pair alignment: both halves of one aligned doubleword.
    if !a.pc.is_multiple_of(8) || b.pc != a.pc.wrapping_add(4) {
        return false;
    }
    // One data-cache port.
    if a.kind.is_memory() && b.kind.is_memory() {
        return false;
    }
    // Intra-pair RAW dependence.
    if let Some(d) = a.dst {
        if b.sources().any(|s| s == d) {
            return false;
        }
    }
    // An FP compare's condition code is not forwardable to a branch in
    // the same group.
    if matches!(a.kind, OpKind::FpCmp)
        && matches!(b.kind, OpKind::Branch { .. })
        && b.src1 == Some(ArchReg::FpCond)
    {
        return false;
    }
    true
}

/// Folds `op`'s integer-scoreboard writes into a bitmask, mirroring
/// the timing core's `execute`: ALU ops, nops, loads and jumps write
/// their (integer) destination; multiplies and divides write HI/LO
/// regardless of `dst`. FP destinations live in the decoupled FPU and
/// never appear on the integer scoreboard.
fn write_mask(op: &TraceOp) -> u64 {
    match op.kind {
        OpKind::IntAlu | OpKind::Nop | OpKind::Load { .. } | OpKind::Jump { .. } => match op.dst {
            Some(ArchReg::Int(n)) if u32::from(n) < HILO_BIT => 1u64 << n,
            Some(ArchReg::HiLo) => 1u64 << HILO_BIT,
            _ => 0,
        },
        OpKind::IntMul | OpKind::IntDiv => 1u64 << HILO_BIT,
        _ => 0,
    }
}

/// Pre-resolves a block's masks from its decoded ops.
fn analyze(start: u32, ops: &[TraceOp]) -> BlockTemplate {
    let mut tmpl = BlockTemplate {
        start,
        len: ops.len() as u16,
        pair_ok: 0,
        need_src: 0,
        batch_mask: 0,
        mem_mask: 0,
    };
    // Registers written so far in the current batchable run, and those
    // whose most recent in-run writer is slow (load result or mul/div
    // into HI/LO).
    let mut run_written = 0u64;
    let mut run_slow = 0u64;
    for (j, op) in ops.iter().enumerate() {
        let bit = 1u64 << (j as u32 & 63);
        if let Some(next) = ops.get(j + 1) {
            if static_pair_ok(op, next) {
                tmpl.pair_ok |= bit;
            }
        }
        if op.kind.is_memory() {
            tmpl.mem_mask |= bit;
        }
        if !batchable(op.kind) {
            // The run ends here; the next one starts with nothing
            // written.
            run_written = 0;
            run_slow = 0;
            continue;
        }
        tmpl.batch_mask |= bit;
        for src in op.sources() {
            let src_bit = match src {
                ArchReg::Int(n) if u32::from(n) < HILO_BIT => 1u64 << n,
                ArchReg::HiLo => 1u64 << HILO_BIT,
                ArchReg::FpCond => {
                    // The FP condition code lives in the decoupled FPU;
                    // its readiness is always re-queried dynamically,
                    // wherever the producing compare sits.
                    tmpl.need_src |= bit;
                    continue;
                }
                _ => continue,
            };
            // A live-in value (produced before the run, so its
            // readiness is unknowable statically) or a slow in-run
            // result keeps the dynamic check.
            if run_written & src_bit == 0 || run_slow & src_bit != 0 {
                tmpl.need_src |= bit;
            }
        }
        let w = write_mask(op);
        run_written |= w;
        if slow_writer(op.kind) {
            run_slow |= w;
        } else {
            run_slow &= !w;
        }
    }
    tmpl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemWidth;

    fn alu(pc: u32, dst: u8, src: u8) -> TraceOp {
        TraceOp {
            pc,
            kind: OpKind::IntAlu,
            dst: Some(ArchReg::Int(dst)),
            src1: Some(ArchReg::Int(src)),
            src2: None,
        }
    }

    fn branch(pc: u32, taken: bool) -> TraceOp {
        TraceOp::bare(pc, OpKind::Branch { taken, target: 0 })
    }

    #[test]
    fn segments_at_control_flow_and_dedups() {
        let body = [alu(0, 1, 2), alu(4, 3, 1), branch(8, true)];
        let ops: Vec<TraceOp> = body
            .iter()
            .chain(body.iter())
            .chain(body.iter())
            .copied()
            .collect();
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.templates().len(), 1);
        assert_eq!(b.instances(), &[0, 0, 0]);
        assert_eq!(b.len(), 9);
        // Nine executed ops share one three-op template.
        assert_eq!(b.templates()[0].len(), 3);
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn long_straight_line_splits_at_cap() {
        let ops: Vec<TraceOp> = (0..150u32).map(|i| alu(4 * i, 1, 2)).collect();
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.instances().len(), 3); // 64 + 64 + 22
        assert!(b.templates().iter().all(|t| t.len() <= MAX_BLOCK_OPS));
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn trailing_partial_block_is_kept() {
        let ops = [alu(0, 1, 2), branch(4, false), alu(8, 3, 4), alu(12, 5, 3)];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.instances().len(), 2);
        assert_eq!(b.len(), 4);
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops.to_vec());
    }

    #[test]
    fn muldiv_writes_hilo_not_dst() {
        let mul = TraceOp {
            pc: 0,
            kind: OpKind::IntMul,
            dst: Some(ArchReg::Int(9)), // ignored by the timing core
            src1: Some(ArchReg::Int(1)),
            src2: Some(ArchReg::Int(2)),
        };
        let mflo = TraceOp {
            pc: 4,
            kind: OpKind::IntAlu,
            dst: Some(ArchReg::Int(5)),
            src1: Some(ArchReg::HiLo),
            src2: None,
        };
        let b = BlockTrace::lower_ops([mul, mflo]);
        let t = &b.templates()[0];
        assert_eq!(t.batch_mask, 0b11);
        // The multiply reads live-in r1/r2 and the mflo reads HI/LO
        // behind the slow multiply: both keep dynamic source checks.
        assert_eq!(t.need_src, 0b11);
    }

    #[test]
    fn loads_stay_in_runs_with_consumers_flagged() {
        let load = TraceOp {
            pc: 8,
            kind: OpKind::Load {
                ea: 0x100,
                width: MemWidth::Word,
            },
            dst: Some(ArchReg::Int(7)),
            src1: Some(ArchReg::Int(1)),
            src2: None,
        };
        let ops = [alu(0, 1, 2), alu(4, 2, 1), load, alu(12, 3, 7)];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        let t = &b.templates()[0];
        // Memory ops are batchable: one run covers the whole block.
        assert_eq!(t.batch_mask, 0b1111);
        // The live-in reader (op 0) and the load consumer (op 3) keep
        // dynamic source checks; ops 1 and 2 read only the one-cycle
        // ALU forward from op 0 and need none.
        assert_eq!(t.need_src, (1 << 0) | (1 << 3));
        assert_eq!(t.mem_mask, 0b100);
        assert_eq!(t.mem_ops(), 1);
    }

    #[test]
    fn runs_break_at_control_ops_only() {
        let fp = TraceOp::bare(8, OpKind::FpAdd);
        let ops = [
            alu(0, 1, 2),
            alu(4, 2, 1),
            fp,
            alu(12, 3, 4),
            branch(16, false),
        ];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        let t = &b.templates()[0];
        // FPU arithmetic stays in the run (its issue-queue admission is
        // a dynamic per-group check); only the branch breaks it.
        assert_eq!(t.batch_mask, 0b1111);
        // Ops 0 and 3 read live-in values (r2, r4); op 1 reads only
        // op 0's ALU forward; the bare FpAdd has no scoreboard sources.
        assert_eq!(t.need_src, (1 << 0) | (1 << 3));
    }

    #[test]
    fn alu_overwrite_clears_slow_producer() {
        let load = TraceOp {
            pc: 0,
            kind: OpKind::Load {
                ea: 0x40,
                width: MemWidth::Word,
            },
            dst: Some(ArchReg::Int(5)),
            src1: Some(ArchReg::Int(29)),
            src2: None,
        };
        // r5 <- load; r5 <- alu; alu reads r5: the ALU rewrite of r5
        // restores the fast forward, so the final reader needs no
        // check. Ops 0 and 1 read live-in values (r29, r1).
        let ops = [load, alu(4, 5, 1), alu(8, 6, 5)];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        let t = &b.templates()[0];
        assert_eq!(t.batch_mask, 0b111);
        assert_eq!(t.need_src, 0b011);
    }

    #[test]
    fn static_pairing_rules() {
        // Aligned, independent: pairable.
        assert!(static_pair_ok(&alu(0, 1, 2), &alu(4, 3, 4)));
        // Misaligned first op.
        assert!(!static_pair_ok(&alu(4, 1, 2), &alu(8, 3, 4)));
        // Non-adjacent pcs.
        assert!(!static_pair_ok(&alu(0, 1, 2), &alu(12, 3, 4)));
        // Intra-pair RAW dependence.
        assert!(!static_pair_ok(&alu(0, 3, 1), &alu(4, 4, 3)));
        // FP compare feeding a branch on FpCond.
        let cmp = TraceOp::bare(0, OpKind::FpCmp);
        let br = TraceOp {
            pc: 4,
            kind: OpKind::Branch {
                taken: true,
                target: 0,
            },
            dst: None,
            src1: Some(ArchReg::FpCond),
            src2: None,
        };
        assert!(!static_pair_ok(&cmp, &br));
        // Two memory ops.
        let ld = TraceOp::bare(
            0,
            OpKind::Load {
                ea: 0,
                width: MemWidth::Word,
            },
        );
        let st = TraceOp::bare(
            4,
            OpKind::Store {
                ea: 8,
                width: MemWidth::Word,
            },
        );
        assert!(!static_pair_ok(&ld, &st));
    }

    #[test]
    fn empty_trace_lowers_to_nothing() {
        let b = BlockTrace::lower_ops(std::iter::empty());
        assert!(b.is_empty());
        assert_eq!(b.templates().len(), 0);
        assert_eq!(b.instances().len(), 0);
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn strided_loop_lowers_to_one_template_per_static_block() {
        // for k in 0..16 { r8 = a[k]; b[k] = r8; r4 += 4 } — every
        // iteration touches new addresses but runs the same code.
        let load = |ea| TraceOp {
            pc: 0,
            kind: OpKind::Load {
                ea,
                width: MemWidth::Word,
            },
            dst: Some(ArchReg::Int(8)),
            src1: Some(ArchReg::Int(4)),
            src2: None,
        };
        let store = |ea| TraceOp {
            pc: 4,
            kind: OpKind::Store {
                ea,
                width: MemWidth::Word,
            },
            dst: None,
            src1: Some(ArchReg::Int(4)),
            src2: Some(ArchReg::Int(8)),
        };
        let ops: Vec<TraceOp> = (0..16u32)
            .flat_map(|k| {
                [
                    load(0x1000 + 4 * k),
                    store(0x2000 + 4 * k),
                    alu(8, 4, 4),
                    branch(12, true),
                ]
            })
            .collect();
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.templates().len(), 1);
        assert_eq!(b.instances(), &[0; 16]);
        let t = &b.templates()[0];
        assert_eq!(t.mem_mask, 0b11);
        assert_eq!((t.addr_index(0), t.addr_index(1)), (0, 1));
        // The template holds static code; the addresses are the operand
        // stream, in trace order.
        assert!(b
            .ops_of(t)
            .iter()
            .all(|op| op.kind.effective_address().unwrap_or(0) == 0));
        let want: Vec<u32> = (0..16u32)
            .flat_map(|k| [0x1000 + 4 * k, 0x2000 + 4 * k])
            .collect();
        assert_eq!(b.addrs(), want.as_slice());
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn lower_matches_packed_trace() {
        let ops = [
            alu(0, 1, 2),
            branch(4, true),
            alu(8, 2, 1),
            branch(12, false),
        ];
        let packed: PackedTrace = ops.iter().copied().collect();
        let b = BlockTrace::lower(&packed);
        assert_eq!(b.len(), packed.len() as u64);
        assert_eq!(b.stats(), packed.stats());
        let replayed: Vec<TraceOp> = b.iter().collect();
        let direct: Vec<TraceOp> = packed.iter().collect();
        assert_eq!(replayed, direct);
    }
}
