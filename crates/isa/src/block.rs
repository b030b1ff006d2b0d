//! Basic-block superinstruction lowering for the replay fast path.
//!
//! A configuration sweep replays the same [`PackedTrace`] hundreds of
//! times (§4.1 capture-once / replay-many). Walking it one record at a
//! time pays per-op unpack, pairing look-ahead and full constraint
//! gathering for every dynamic instruction. [`BlockTrace`] amortises
//! that work at lowering time: the dynamic trace is segmented into
//! *basic blocks* — maximal runs of ops ending at each control-flow
//! change — and blocks of identical static code are deduplicated into
//! *templates* holding pre-decoded [`TraceOp`]s plus a pre-resolved
//! footprint (register read/write sets, batchable runs, static
//! dual-issue pairing, dynamic-source-check masks, touched fetch
//! pairs, unit demand and a worst-case latency class). A template is a
//! property of the code, not of one execution: its memory ops carry no
//! effective address. The addresses live in one `u32` operand stream,
//! one entry per dynamic memory op in trace order, so a loop striding
//! through an array still lowers to one template per static block.
//! Replay then streams one `u32` template id per dynamic block plus
//! one address per memory op instead of sixteen bytes per op, and the
//! timing core executes whole runs through a specialised issue loop
//! whose fetch, source and pairing checks were resolved at lowering
//! time.
//!
//! The lowering is purely a re-encoding: [`BlockTrace::iter`] yields
//! exactly the ops of the source trace, in order, and the simulator
//! asserts bit-identical `SimStats` between block-mode and per-op
//! replay (see `tests/block_replay_differential.rs` in the workspace
//! root).

use std::collections::HashMap;
use std::fmt;
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

/// Bit index used for the HI/LO pair in `live_in` / `writes` masks,
/// alongside bits 0–31 for the integer registers.
pub const HILO_BIT: u32 = 32;

/// Coarse worst-case issue-latency class of a block, from its slowest
/// member op. Useful for scheduling heuristics and reported by
/// [`BlockTemplate::latency_class`]; the cycle-accurate core does not
/// consult it for timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencyClass {
    /// Only single-cycle ALU ops / nops.
    Alu,
    /// Contains control flow but nothing slower.
    Control,
    /// Contains an integer multiply or divide (HI/LO latency).
    MulDiv,
    /// Contains a floating-point op (decoupled FPU latency).
    Fpu,
    /// Contains a data-memory access (cache-miss latency possible).
    Memory,
}

/// Per-template op-class demand: how many issue slots of each unit
/// class one execution of the block consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassDemand {
    /// Integer ALU ops, nops, multiplies and divides.
    pub int_ops: u16,
    /// Data-memory accesses (integer and FP loads/stores).
    pub mem_ops: u16,
    /// Decoupled-FPU arithmetic ops.
    pub fp_ops: u16,
    /// Control-flow ops (at most one, and always last when present).
    pub ctl_ops: u16,
}

/// A maximal run of *batchable* ops inside a block: everything except
/// control flow — integer ALU ops, nops, multiplies, divides, FPU
/// arithmetic, and all four memory-op kinds. None of these ops arms
/// the fetch redirect state, so a specialised issue loop can execute
/// the whole run with precomputed fetch, source and static-pairing
/// checks, consulting the dynamic machine state (ROB, data-cache
/// port, MSHRs, FPU issue queue, flagged sources) only where the
/// [`BlockTemplate::need_src`] mask or the op kind says a constraint
/// could still bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRun {
    /// First op index of the run within the block.
    pub start: u16,
    /// One past the last op index of the run.
    pub end: u16,
    /// Registers the run reads before writing them: bits 0–31 are the
    /// integer registers, bit [`HILO_BIT`] is the HI/LO pair. Sources
    /// outside the scoreboard (FP registers, `$k`-style indices ≥ 32)
    /// never bind a stall and are excluded. Informational: the timing
    /// core does not gate run entry on this set — every live-in reader
    /// carries a [`BlockTemplate::need_src`] bit and is checked
    /// dynamically at its own issue group.
    pub live_in: u64,
    /// Whether any op in the run reads the FP condition code. Like
    /// [`live_in`](Self::live_in), informational: fpcond readers carry
    /// `need_src` bits.
    pub reads_fpcond: bool,
}

impl BlockRun {
    /// Number of ops in the run.
    pub fn len(&self) -> usize {
        usize::from(self.end) - usize::from(self.start)
    }

    /// Whether the run is empty (never true for stored runs).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Minimum ops a pre-compiled issue schedule must cover to be worth
/// storing (shorter stretches stay on the per-group loop).
pub const MIN_PLAN_OPS: usize = 4;

/// A pre-compiled issue schedule — a *superinstruction* — for a
/// stretch of plannable ops (integer ALU, nop, mul/div, load, store)
/// inside a run, entered exactly at [`SegPlan::entry`]. Once no
/// dynamic issue constraint can bind — every flagged source ready at
/// entry, ROB space for every op, an MSHR per memory op, the data-
/// cache port idle and every fetch-pair transition resident — each
/// issue group resolves at the fetch lower bound, one cycle after the
/// previous, and the grouping, dual-issue outcomes and probe points
/// are exactly the statically computed ones. The timing core verifies
/// the preconditions once, then either applies the pre-summed effects
/// directly (pure ALU stretches: O(registers + lines) instead of
/// O(ops)) or walks the groups through a stripped schedule that keeps
/// only the inherently dynamic work (LSU execution, fill-arrival
/// checks). A failed precondition falls back to the per-group loop,
/// so a plan can only ever reproduce — never alter — the per-op
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegPlan {
    /// Op index (within the block) this plan enters at.
    pub entry: u8,
    /// Ops the plan consumes. The stretch's last op is left to the
    /// per-group loop when it cannot complete a group (it may still
    /// dual-issue with the op after the stretch), and a flagged
    /// consumer of an in-stretch slow result (load, mul/div) ends the
    /// plan early — its issue time depends on dynamic latencies.
    pub consumed: u8,
    /// Issue groups formed — the cycles the stretch advances.
    pub groups: u8,
    /// Dual-issued groups among them.
    pub duals: u8,
    /// Memory ops (loads + stores) consumed: each needs a free MSHR
    /// and the shared data-cache port at apply time.
    pub mem_ops: u8,
    /// Ops with dynamic effects (anything but `IntAlu`/`Nop`). Zero
    /// selects the pre-summed bulk apply; otherwise the group walk.
    pub dynamic_ops: u8,
    /// Bit `g` set: group `g` dual-issues (consumes two ops).
    pub dual_mask: u64,
    /// Bit `g` set: group `g`'s leader crosses onto a new fetch pair
    /// and probes the I-cache. Bit 0 is never set — the entry group's
    /// transition depends on the dynamic fetch state.
    pub probe_mask: u64,
    /// Union of the scoreboard sources of `need_src`-flagged ops in
    /// the stretch (bits 0–31 integer registers, bit [`HILO_BIT`] the
    /// HI/LO pair); all must be ready at entry.
    pub src_mask: u64,
    /// Whether any flagged op reads the FP condition code.
    pub reads_fpcond: bool,
    /// Group-leader pcs at fetch-pair transitions after the entry op —
    /// one per set `probe_mask` bit, in group order; all must be
    /// resident at apply time.
    pub probe_pcs: Vec<u32>,
    /// `pc >> 3` of the last group leader — the fetch pair a full bulk
    /// apply leaves behind (the group walk tracks it incrementally).
    pub final_pair: u32,
    /// Net scoreboard effect for the bulk apply: integer register
    /// `reg` is last written by group `g`, so its ready time is
    /// `entry_cycle + g + 1`. Empty when `dynamic_ops > 0`.
    pub writes: Vec<(u8, u8)>,
    /// Group of the last HI/LO write, if any op targets the pair
    /// (bulk apply only).
    pub hilo_write: Option<u8>,
    /// Per consumed op in issue order: the op's group index (its ROB
    /// entry retires in order at `entry_cycle + g + 2`). Empty when
    /// `dynamic_ops > 0`.
    pub rob_groups: Vec<u8>,
}

/// One deduplicated static block: an op range into the shared pool plus
/// the pre-resolved footprint replay needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTemplate {
    /// First op index in the [`BlockTrace`] pool.
    pub(crate) start: u32,
    /// Number of ops (1 ..= [`MAX_BLOCK_OPS`]).
    pub(crate) len: u16,
    /// Bit `j` set: ops `j` and `j + 1` satisfy every *static*
    /// dual-issue rule (alignment, adjacency, not both memory, no
    /// intra-pair dependence, no FP-compare/branch hazard). Dynamic
    /// rules — partner readiness, ROB space — remain replay's job.
    pub pair_ok: u64,
    /// Bit `j` set: op `j` reads the HI/LO pair.
    pub reads_hilo: u64,
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
    /// Registers written by the block (same bit layout as
    /// [`BlockRun::live_in`]).
    pub writes: u64,
    /// Registers read by the block before it writes them.
    pub live_in: u64,
    /// Maximal batchable runs, in order, covering every op that is
    /// not control flow.
    pub runs: Vec<BlockRun>,
    /// Bit `j` set: a [`SegPlan`] enters at op `j`. Its position in
    /// [`plans`](Self::plans) is the rank of bit `j` — the popcount of
    /// the mask below it.
    pub plan_mask: u64,
    /// Pre-compiled issue schedules, sorted by entry index.
    pub plans: Vec<SegPlan>,
    /// Bit `j` set: op `j` is batchable (lies inside a run). Because
    /// runs are *maximal* contiguous stretches of batchable ops, the
    /// end of the run containing op `i` is
    /// `i + (batch_mask >> i).trailing_ones()` — an O(1), pointer-free
    /// replacement for scanning [`runs`](Self::runs) at every
    /// candidate entry point.
    pub batch_mask: u64,
    /// Bit `j` set: op `j` accesses data memory. Its pooled op carries
    /// no effective address; the address is entry
    /// [`addr_index(j)`](Self::addr_index) of the block instance's
    /// slice of [`BlockTrace::addrs`].
    pub mem_mask: u64,
    /// Issue-slot demand by unit class.
    pub demand: ClassDemand,
    /// Worst-case latency class over the block's ops.
    pub latency: LatencyClass,
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

    /// Worst-case latency class over the block's ops.
    pub fn latency_class(&self) -> LatencyClass {
        self.latency
    }

    /// The batchable run containing op index `i`, if any. A run may be
    /// entered at any interior index: the `need_src` analysis holds
    /// for every suffix of the run (an op's clear bit means its
    /// sources come from earlier in-run ALU groups, which forward in
    /// one cycle whether they issued inside or before the batch).
    pub fn run_at(&self, i: usize) -> Option<&BlockRun> {
        self.runs
            .iter()
            .find(|r| usize::from(r.start) <= i && i < usize::from(r.end))
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

/// A dynamic trace lowered to basic-block superinstructions.
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
    /// array and compared in packed form; only a block that starts a
    /// new template is decoded.
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
            builder.add_block(block);
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

    /// Heap bytes held by the lowering: the op pool, the templates with
    /// their runs and plans, the instance stream and the operand stream
    /// (compare [`PackedTrace::mem_bytes`]).
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let footprints: usize = self
            .templates
            .iter()
            .map(|t| {
                t.runs.capacity() * size_of::<BlockRun>()
                    + t.plans.capacity() * size_of::<SegPlan>()
                    + t.plans
                        .iter()
                        .map(|p| {
                            p.probe_pcs.capacity() * size_of::<u32>()
                                + p.writes.capacity() * size_of::<(u8, u8)>()
                                + p.rob_groups.capacity()
                        })
                        .sum::<usize>()
            })
            .sum();
        self.pool.capacity() * size_of::<TraceOp>()
            + self.templates.capacity() * size_of::<BlockTemplate>()
            + footprints
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
    /// `demand.mem_ops` entries, in op order.
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

    /// Dynamic-to-static reuse factor: executed ops per pooled op.
    /// Loop-dominated traces score high; straight-line code scores ~1.
    pub fn reuse_factor(&self) -> f64 {
        if self.pool.is_empty() {
            return 0.0;
        }
        self.total_ops as f64 / self.pool.len() as f64
    }

    /// Aggregate statistics of the source trace.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Iterates over the dynamic op stream the lowering encodes —
    /// exactly the ops of the source trace, in order, each memory op
    /// carrying its effective address again.
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

impl fmt::Display for BlockTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} blocks ({} templates, {} pooled ops, reuse {:.1}x)",
            self.total_ops,
            self.seq.len(),
            self.templates.len(),
            self.pool.len(),
            self.reuse_factor()
        )
    }
}

/// Builds a [`BlockTrace`] from a dynamic trace delivered one op at a
/// time, so a capture never materialises the 16-byte-per-op
/// [`PackedTrace`]. At most one open block (≤ [`MAX_BLOCK_OPS`]
/// records) is buffered; each block is closed and interned as soon as
/// its control-flow op or the cap arrives. [`BlockTrace::lower`] slices
/// whole blocks out of a held record array into the same routine, so
/// both paths produce identical lowerings.
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
    /// Each template's records with addresses cleared, laid out like
    /// the op pool: what a candidate block is compared against.
    keys: Vec<PackedOp>,
    /// The open block: records since the last block boundary.
    open: Vec<PackedOp>,
}

impl BlockTraceBuilder {
    /// An empty builder.
    pub fn new() -> BlockTraceBuilder {
        BlockTraceBuilder::default()
    }

    /// Appends one op of the dynamic trace, in program order.
    pub fn push(&mut self, op: TraceOp) {
        self.out.stats.record(&op);
        let rec = PackedOp::pack(&op);
        self.open.push(rec);
        // The cut `BlockTrace::lower` makes by slicing: after a
        // control-flow op, or at the cap.
        if rec.is_control_flow() || self.open.len() == MAX_BLOCK_OPS {
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
    /// allocation for the next block.
    fn close_block(&mut self) {
        let open = std::mem::take(&mut self.open);
        self.add_block(&open);
        self.open = open;
        self.open.clear();
    }

    /// Appends one complete block: its addresses go to the operand
    /// stream, and its static code is matched against the templates
    /// already interned from the same head pc, or becomes a new one.
    fn add_block(&mut self, block: &[PackedOp]) {
        let Some(head) = block.first() else { return };
        let out = &mut self.out;
        out.total_ops += block.len() as u64;
        out.addrs.extend(
            block
                .iter()
                .filter(|r| r.is_memory())
                .map(PackedOp::payload),
        );
        let keys = &mut self.keys;
        let candidates = self.index.entry(head.pc()).or_default();
        // Compared last record first: blocks from one head pc mostly
        // differ only in their control op's outcome or target.
        let found = candidates.iter().copied().find(|&id| {
            out.templates.get(id as usize).is_some_and(|t| {
                let start = t.start as usize;
                keys.get(start..start + t.len()).is_some_and(|k| {
                    k.len() == block.len()
                        && k.iter()
                            .rev()
                            .zip(block.iter().rev())
                            .all(|(k, r)| *k == r.without_address())
                })
            })
        });
        let id = found.unwrap_or_else(|| {
            let id = u32::try_from(out.templates.len()).unwrap_or(u32::MAX);
            let start = out.pool.len();
            keys.extend(block.iter().map(PackedOp::without_address));
            let decoded = keys
                .get(start..)
                .unwrap_or(&[])
                .iter()
                .map(PackedOp::unpack);
            out.pool.extend(decoded);
            let ops = out.pool.get(start..).unwrap_or(&[]);
            let tmpl = analyze(u32::try_from(start).unwrap_or(u32::MAX), ops);
            out.templates.push(tmpl);
            candidates.push(id);
            id
        });
        out.seq.push(id);
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

/// Static dual-issue admissibility of adjacent ops `a`, `b` — exactly
/// the data-independent prefix of the core's dual-issue rules. A set
/// bit means "the dynamic checks decide"; a clear bit means the pair
/// can never issue together.
fn static_pair_ok(a: &TraceOp, b: &TraceOp) -> bool {
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

fn latency_of(kind: OpKind) -> LatencyClass {
    if kind.is_memory() {
        LatencyClass::Memory
    } else if kind.is_fpu() {
        LatencyClass::Fpu
    } else if matches!(kind, OpKind::IntMul | OpKind::IntDiv) {
        LatencyClass::MulDiv
    } else if kind.is_control_flow() {
        LatencyClass::Control
    } else {
        LatencyClass::Alu
    }
}

/// Pre-resolves a block's footprint from its decoded ops.
fn analyze(start: u32, ops: &[TraceOp]) -> BlockTemplate {
    let mut tmpl = BlockTemplate {
        start,
        len: ops.len() as u16,
        pair_ok: 0,
        reads_hilo: 0,
        need_src: 0,
        writes: 0,
        live_in: 0,
        runs: Vec::new(),
        plan_mask: 0,
        plans: Vec::new(),
        batch_mask: 0,
        mem_mask: 0,
        demand: ClassDemand::default(),
        latency: LatencyClass::Alu,
    };
    let mut written = 0u64;
    let mut run: Option<BlockRun> = None;
    let mut run_written = 0u64;
    // Registers whose most recent in-run writer is slow (load result or
    // mul/div into HI/LO): readers keep their dynamic source check.
    let mut run_slow = 0u64;
    for (j, op) in ops.iter().enumerate() {
        let bit = 1u64 << (j as u32 & 63);
        if let Some(next) = ops.get(j + 1) {
            if static_pair_ok(op, next) {
                tmpl.pair_ok |= bit;
            }
        }
        for src in op.sources() {
            match src {
                ArchReg::Int(n) if u32::from(n) < HILO_BIT && written & (1u64 << n) == 0 => {
                    tmpl.live_in |= 1u64 << n;
                }
                ArchReg::HiLo => {
                    tmpl.reads_hilo |= bit;
                    if written & (1u64 << HILO_BIT) == 0 {
                        tmpl.live_in |= 1u64 << HILO_BIT;
                    }
                }
                _ => {}
            }
        }
        if op.kind.is_memory() {
            tmpl.demand.mem_ops += 1;
            tmpl.mem_mask |= bit;
        } else if op.kind.is_fpu() {
            tmpl.demand.fp_ops += 1;
        } else if op.kind.is_control_flow() {
            tmpl.demand.ctl_ops += 1;
        } else {
            tmpl.demand.int_ops += 1;
        }
        tmpl.latency = tmpl.latency.max(latency_of(op.kind));

        if batchable(op.kind) {
            tmpl.batch_mask |= bit;
            let r = run.get_or_insert_with(|| {
                run_written = 0;
                run_slow = 0;
                BlockRun {
                    start: j as u16,
                    end: j as u16,
                    live_in: 0,
                    reads_fpcond: false,
                }
            });
            r.end = (j + 1) as u16;
            for src in op.sources() {
                let src_bit = match src {
                    ArchReg::Int(n) if u32::from(n) < HILO_BIT => 1u64 << n,
                    ArchReg::HiLo => 1u64 << HILO_BIT,
                    ArchReg::FpCond => {
                        // The FP condition code lives in the decoupled
                        // FPU; its readiness is always re-queried
                        // dynamically, wherever the producing compare
                        // sits.
                        r.reads_fpcond = true;
                        tmpl.need_src |= bit;
                        continue;
                    }
                    _ => continue,
                };
                if run_written & src_bit == 0 {
                    // Live-in value: produced before the run (or before
                    // the block), so its readiness is unknowable
                    // statically — keep the dynamic check.
                    r.live_in |= src_bit;
                    tmpl.need_src |= bit;
                } else if run_slow & src_bit != 0 {
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
        } else if let Some(r) = run.take() {
            tmpl.runs.push(r);
        }
        written |= write_mask(op);
        tmpl.writes |= write_mask(op);
    }
    if let Some(r) = run.take() {
        tmpl.runs.push(r);
    }
    compile_plans(&mut tmpl, ops);
    tmpl
}

/// Whether `kind` is eligible for a pre-compiled schedule: ops whose
/// issue constraints are either covered by the plan preconditions
/// (sources, ROB space, MSHR/port availability, fetch residency) or
/// provably non-binding once they hold. FPU ops are excluded — their
/// issue-queue admission depends on decoupled FPU state that evolves
/// with every dispatch — as are FP loads/stores (load/store-queue
/// admission) and control flow (not batchable at all).
fn plannable(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::IntAlu
            | OpKind::Nop
            | OpKind::IntMul
            | OpKind::IntDiv
            | OpKind::Load { .. }
            | OpKind::Store { .. }
    )
}

/// Compiles a [`SegPlan`] for every maximal plannable stretch of
/// `ops`, at the two entry points replay reaches in practice: the
/// stretch head, and head+1 (entered when the head is consumed as the
/// dual partner of the preceding group). Requires `pair_ok` and
/// `need_src` to be final.
fn compile_plans(tmpl: &mut BlockTemplate, ops: &[TraceOp]) {
    let mut s = 0usize;
    while s < ops.len() {
        if !plannable(ops[s].kind) {
            s += 1;
            continue;
        }
        let mut e = s + 1;
        while ops.get(e).is_some_and(|op| plannable(op.kind)) {
            e += 1;
        }
        for entry in [s, s + 1] {
            if let Some(plan) = compile_plan(tmpl, ops, entry, e) {
                tmpl.plan_mask |= 1u64 << (entry as u32 & 63);
                tmpl.plans.push(plan);
            }
        }
        s = e;
    }
}

/// Simulates the batched issue loop over `ops[entry..end)` under the
/// no-stall assumption — every group resolves at the fetch lower
/// bound, one cycle apart — and folds the walk into a [`SegPlan`].
/// Returns `None` when the stretch is too short to pay for itself.
fn compile_plan(
    tmpl: &BlockTemplate,
    ops: &[TraceOp],
    entry: usize,
    end: usize,
) -> Option<SegPlan> {
    if entry >= end {
        return None;
    }
    // Cheap pre-pass: the walk below can never consume past the first
    // flagged reader of an in-stretch slow result, so locate that cut
    // op-wise before paying for the full walk. In real code most
    // stretches cut within a couple of ops (load results are consumed
    // almost immediately), and with loads plannable nearly every op
    // starts or sits in a stretch — without this check the lowering
    // pass walks (and allocates for) every doomed stretch twice.
    let mut cut = end;
    {
        let mut slow = 0u64;
        for (k, op) in ops.iter().enumerate().take(end).skip(entry) {
            let reads_slow = tmpl.need_src >> (k as u32 & 63) & 1 == 1
                && op.sources().any(|src| {
                    let bit = match src {
                        ArchReg::Int(n) if u32::from(n) < HILO_BIT => 1u64 << n,
                        ArchReg::HiLo => 1u64 << HILO_BIT,
                        _ => return false,
                    };
                    slow & bit != 0
                });
            if reads_slow {
                cut = k;
                break;
            }
            let w = write_mask(op);
            if slow_writer(op.kind) {
                slow |= w;
            } else {
                slow &= !w;
            }
        }
        if cut - entry < MIN_PLAN_OPS {
            return None;
        }
    }
    let mut j = entry;
    let mut groups = 0u8;
    let mut duals = 0u8;
    let mut mem_ops = 0u8;
    let mut dynamic_ops = 0u8;
    let mut dual_mask = 0u64;
    let mut probe_mask = 0u64;
    let mut src_mask = 0u64;
    let mut reads_fpcond = false;
    let mut probe_pcs = Vec::new();
    let mut prev_pair = ops[entry].pc >> 3;
    let mut final_pair = prev_pair;
    let mut write_group = [0u8; HILO_BIT as usize + 1];
    let mut written = 0u64;
    // Registers whose latest in-stretch writer delivers at a dynamic
    // or multi-cycle latency (load result, mul/div into HI/LO). A
    // flagged reader of one would issue at a time the lowering cannot
    // know, so the plan ends before its group.
    let mut slow_written = 0u64;
    let mut rob_groups = Vec::new();
    // A group whose partner would lie beyond the stretch is left to
    // the dynamic loop: it may still dual-issue with whatever follows.
    'walk: while j + 1 < end {
        // With sources ready, ROB space and an MSHR per memory op
        // guaranteed, the partner's dynamic checks all pass: dual
        // issue is decided by the static rules alone.
        let dual = tmpl.pair_ok >> (j as u32 & 63) & 1 == 1;
        let width = 1 + usize::from(dual);
        // Flagged readers of in-stretch slow results end the plan
        // *before* this group (scan first, commit after).
        for (k, op) in ops.iter().enumerate().take(j + width).skip(j) {
            let reads_slow = tmpl.need_src >> (k as u32 & 63) & 1 == 1
                && op.sources().any(|src| {
                    let bit = match src {
                        ArchReg::Int(n) if u32::from(n) < HILO_BIT => 1u64 << n,
                        ArchReg::HiLo => 1u64 << HILO_BIT,
                        _ => return false,
                    };
                    slow_written & bit != 0
                });
            if reads_slow {
                break 'walk;
            }
        }
        let a = &ops[j];
        let pair = a.pc >> 3;
        if pair != prev_pair {
            probe_pcs.push(a.pc);
            probe_mask |= 1u64 << (groups as u32 & 63);
            prev_pair = pair;
        }
        final_pair = pair;
        for (k, op) in ops.iter().enumerate().take(j + width).skip(j) {
            if tmpl.need_src >> (k as u32 & 63) & 1 == 1 {
                for src in op.sources() {
                    match src {
                        ArchReg::Int(n) if u32::from(n) < HILO_BIT => src_mask |= 1u64 << n,
                        ArchReg::HiLo => src_mask |= 1u64 << HILO_BIT,
                        ArchReg::FpCond => reads_fpcond = true,
                        _ => {}
                    }
                }
            }
            mem_ops += u8::from(op.kind.is_memory());
            dynamic_ops += u8::from(!matches!(op.kind, OpKind::IntAlu | OpKind::Nop));
            let mut w = write_mask(op);
            written |= w;
            if slow_writer(op.kind) {
                slow_written |= w;
            } else {
                slow_written &= !w;
            }
            while w != 0 {
                // trailing_zeros of a non-zero mask is < 33, in bounds
                // for the 33-slot table by construction of write_mask
                write_group[w.trailing_zeros() as usize] = groups;
                w &= w - 1;
            }
            rob_groups.push(groups);
        }
        if dual {
            dual_mask |= 1u64 << (groups as u32 & 63);
            duals += 1;
        }
        groups += 1;
        j += width;
    }
    let consumed = j - entry;
    if consumed < MIN_PLAN_OPS {
        return None;
    }
    let mut writes = Vec::new();
    let mut hilo_write = None;
    if dynamic_ops == 0 {
        let mut m = written;
        while m != 0 {
            let r = m.trailing_zeros();
            m &= m - 1;
            let g = write_group[r as usize];
            if r == HILO_BIT {
                hilo_write = Some(g);
            } else {
                writes.push((r as u8, g));
            }
        }
    } else {
        // The group walk reads effects off the ops themselves; the
        // pre-summed summaries only serve the bulk apply.
        rob_groups.clear();
    }
    Some(SegPlan {
        entry: entry as u8,
        consumed: consumed as u8,
        groups,
        duals,
        mem_ops,
        dynamic_ops,
        dual_mask,
        probe_mask,
        src_mask,
        reads_fpcond,
        probe_pcs,
        final_pair,
        writes,
        hilo_write,
        rob_groups,
    })
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
        assert!((b.reuse_factor() - 3.0).abs() < 1e-9);
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
    fn footprint_live_in_and_writes() {
        // r3 = f(r1); r4 = f(r3): live-in {r1}, writes {r3, r4}.
        let ops = [alu(0, 3, 1), alu(4, 4, 3)];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        let t = &b.templates()[0];
        assert_eq!(t.live_in, 1 << 1);
        assert_eq!(t.writes, (1 << 3) | (1 << 4));
        assert_eq!(t.runs.len(), 1);
        let r = &t.runs[0];
        assert_eq!((r.start, r.end), (0, 2));
        assert_eq!(r.live_in, 1 << 1);
        assert_eq!(t.latency_class(), LatencyClass::Alu);
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
        assert_eq!(t.writes, (1 << HILO_BIT) | (1 << 5));
        assert_eq!(t.live_in, (1 << 1) | (1 << 2));
        assert_eq!(t.reads_hilo, 0b10);
        // The multiply reads live-in r1/r2 and the mflo reads HI/LO
        // behind the slow multiply: both keep dynamic source checks.
        assert_eq!(t.need_src, 0b11);
        // HiLo written by op 0 before op 1 reads it: not live-in.
        assert_eq!(t.runs[0].live_in & (1 << HILO_BIT), 0);
        assert_eq!(t.latency_class(), LatencyClass::MulDiv);
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
        assert_eq!(t.runs.len(), 1);
        assert_eq!((t.runs[0].start, t.runs[0].end), (0, 4));
        // Live-in is just r2 (r1 and r7 are produced inside the run).
        assert_eq!(t.runs[0].live_in, 1 << 2);
        // The live-in reader (op 0) and the load consumer (op 3) keep
        // dynamic source checks; ops 1 and 2 read only the one-cycle
        // ALU forward from op 0 and need none.
        assert_eq!(t.need_src, (1 << 0) | (1 << 3));
        assert_eq!(t.latency_class(), LatencyClass::Memory);
        assert_eq!(t.demand.mem_ops, 1);
        assert_eq!(t.demand.int_ops, 3);
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
        assert_eq!(t.runs.len(), 1);
        assert_eq!((t.runs[0].start, t.runs[0].end), (0, 4));
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
        assert_eq!(t.runs.len(), 1);
        assert_eq!(t.need_src, 0b011);
    }

    #[test]
    fn pure_alu_stretch_compiles_bulk_plans_at_both_entries() {
        // Six independent ALU ops: plannable stretch [0, 6), entered at
        // 0 (stretch head) or 1 (head consumed as a dual partner).
        let ops: Vec<TraceOp> = (0..6u32).map(|k| alu(k * 4, 10 + k as u8, 1)).collect();
        let b = BlockTrace::lower_ops(ops);
        let t = &b.templates()[0];
        assert_eq!(t.plan_mask, 0b11);
        assert_eq!(t.plans.len(), 2);
        for (rank, entry) in [(0usize, 0u8), (1, 1)] {
            let p = &t.plans[rank];
            assert_eq!(p.entry, entry);
            assert!(usize::from(p.consumed) >= MIN_PLAN_OPS);
            assert!(usize::from(p.entry) + usize::from(p.consumed) <= 6);
            // Pure ALU: the bulk-apply form with pre-summed effects.
            assert_eq!(p.dynamic_ops, 0);
            assert_eq!(p.mem_ops, 0);
            assert_eq!(p.hilo_write, None);
            assert_eq!(p.rob_groups.len(), usize::from(p.consumed));
            // Every op writes a distinct register read by nothing
            // later: each surviving write is the op's own.
            assert_eq!(p.writes.len(), usize::from(p.consumed));
        }
    }

    #[test]
    fn plan_ends_before_in_stretch_load_consumer() {
        let load = TraceOp {
            pc: 0,
            kind: OpKind::Load {
                ea: 0x80,
                width: MemWidth::Word,
            },
            dst: Some(ArchReg::Int(7)),
            src1: Some(ArchReg::Int(1)),
            src2: None,
        };
        // load r7; three fillers; then a consumer of r7. The consumer's
        // issue time depends on the dynamic hit/miss latency, so the
        // plan must stop before its group.
        let ops = [
            load,
            alu(4, 10, 1),
            alu(8, 11, 1),
            alu(12, 12, 1),
            alu(16, 13, 7),
        ];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        let t = &b.templates()[0];
        // Entry 1 would cover only ops 1..4 (three ops): below the
        // minimum, so only the head plan is stored.
        assert_eq!(t.plan_mask, 0b1);
        let p = &t.plans[0];
        assert_eq!(p.entry, 0);
        assert_eq!(usize::from(p.consumed), 4);
        assert_eq!(p.mem_ops, 1);
        assert_eq!(p.dynamic_ops, 1);
        // Walk-mode plans read effects off the ops; no bulk summaries.
        assert!(p.writes.is_empty());
        assert!(p.rob_groups.is_empty());
    }

    #[test]
    fn short_stretches_compile_no_plans() {
        let ops = [alu(0, 1, 2), alu(4, 3, 1), alu(8, 4, 1), branch(12, true)];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        let t = &b.templates()[0];
        assert_eq!(t.plan_mask, 0);
        assert!(t.plans.is_empty());
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
        assert_eq!(b.reuse_factor(), 0.0);
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
