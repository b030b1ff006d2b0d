//! The trace-driven cycle-level simulator of the Aurora III IPU.
//!
//! The model replays a dynamic [`TraceOp`] stream against a
//! [`MachineConfig`], tracking per-resource availability cycles rather
//! than individual pipeline latches — the standard approach for
//! trace-driven studies like the paper's own. Every mechanism §2 and §3
//! describe is represented:
//!
//! * aligned EVEN/ODD pair fetch with the pre-decoded DI/CONT/NEXT fields
//!   and branch folding,
//! * dual-issue constraints (intra-pair dependency, one memory op per
//!   cycle),
//! * the register scoreboard, forwarding (1-cycle effective ALU latency)
//!   and the in-order-retirement reorder buffer,
//! * the LSU with a 3-cycle pipelined external data cache, a coalescing
//!   write cache with MMU write validation, MSHRs reserved by every
//!   memory instruction in flight, and line fills occupying the data
//!   busses,
//! * Jouppi stream buffers shared between the I and D streams,
//! * the split-transaction BIU with configurable secondary latency,
//! * the decoupled FPU behind instruction/load/store queues.
//!
//! Whole-pipeline stall cycles are attributed to their binding cause,
//! reproducing the breakdown of paper Figure 6.
//!
//! # Event-horizon scheduling
//!
//! The clock advances in one jump per issue group: the binding constraint
//! (the latest per-unit ready time) *is* the jump target, and nothing
//! issues in between. Unit maintenance inside a jump (fills in arrival
//! order, ROB retirement, MSHR release) is deferred and applied at the
//! target cycle, which is exact because all of it is monotone and
//! path-independent (see `docs/MODEL.md`). The naive reference engine
//! (`Simulator::naive_reference`, a test oracle) instead walks every
//! intervening cycle performing maintenance each time; both produce
//! bit-equal [`SimStats`] and the differential suite enforces it.

use std::collections::VecDeque;
use std::ops::Range;

use aurora_isa::{
    static_pair_ok, ArchReg, BlockTemplate, BlockTrace, EmuError, Emulator, OpKind, PackedTrace,
    Program, TraceOp, WarmDigest, WarmKind,
};
use aurora_mem::{
    Biu, DecodedICache, DirectMappedCache, Geometry, LineAddr, MshrFile, PairInfo, StreamBuffers,
    StreamProbe, StreamStats, TransferKind, WriteCache,
};

use crate::config::{IssueWidth, MachineConfig};
use crate::fpu::Fpu;
use crate::obs::{ObsEvent, ObsEventKind, Observer, StallCause};
use crate::rob::ReorderBuffer;
use crate::stats::SimStats;

/// Cycles to move a load that hits the on-chip write cache into a register.
const WRITE_CACHE_LOAD_LATENCY: u64 = 2;
/// Cycles a store spends in the LSU pipe before it parks in the write cache.
const STORE_PIPE_LATENCY: u64 = 2;
/// Extra cycles the data busses are blocked while a fill streams into the
/// data cache (the "LSU using the data busses to fill the cache" of §5.3).
const FILL_BLOCK_CYCLES: u64 = 2;
/// Cycles to move a stream-buffer line into the primary cache.
const STREAM_TRANSFER_CYCLES: u64 = 1;
/// HI/LO latencies for the integer multiply/divide.
const INT_MUL_LATENCY: u64 = 5;
const INT_DIV_LATENCY: u64 = 20;
/// How long a *hitting* access reserves its MSHR: the register frees once
/// the tag check resolves (§2.3 reserves an MSHR per memory instruction in
/// the LSU pipe; misses keep theirs until the fill returns).
const MSHR_HIT_HOLD: u64 = 2;
/// Capacity of the fixed observer staging buffer. An issue group emits at
/// most ~8 events (fetch, miss, two issues, stalls, MSHR traffic, retire
/// ×2), so one group never forces more than one mid-group flush even in
/// the worst case.
const OBS_BATCH: usize = 24;
/// Minimum remaining batchable-run length worth entering the block fast
/// path: below this the entry checks cost more than the per-group
/// savings.
const MIN_FAST_RUN: usize = 2;

/// A taken control transfer awaiting its post-delay-slot fetch.
#[derive(Debug, Clone, Copy)]
struct Redirect {
    branch_pc: u64,
    foldable: bool,
}

/// The cycle-level simulator. Feed it a trace with [`Simulator::feed`]
/// (or use [`simulate`]) and collect [`SimStats`] from
/// [`Simulator::finish`].
///
/// ```
/// use aurora_core::{IssueWidth, MachineModel, Simulator};
/// use aurora_isa::{OpKind, TraceOp};
/// use aurora_mem::LatencyModel;
///
/// let cfg = MachineModel::Baseline.config(IssueWidth::Single, LatencyModel::Fixed(17));
/// let mut sim = Simulator::new(&cfg);
/// for i in 0..100u32 {
///     sim.feed(TraceOp::bare(0x400000 + 4 * (i % 16), OpKind::IntAlu));
/// }
/// let stats = sim.finish();
/// assert_eq!(stats.instructions, 100);
/// assert!(stats.cpi() >= 1.0);
/// ```
#[derive(Debug)]
pub struct Simulator<'cfg> {
    cfg: &'cfg MachineConfig,
    now: u64,
    // Front end.
    icache: DecodedICache,
    last_fetch_pair: Option<u64>,
    after_ctl: Option<Redirect>,
    delay_pending: Option<Redirect>,
    // Integer engine.
    int_score: [(u64, StallCause); 32],
    hilo: (u64, StallCause),
    rob: ReorderBuffer,
    // Memory system.
    dcache: DirectMappedCache,
    dcache_port_free: u64,
    pending_fills: Vec<(LineAddr, u64)>,
    /// Earliest arrival among `pending_fills` (`u64::MAX` when empty):
    /// the fill unit's event horizon, letting the hot path skip
    /// [`Simulator::apply_fills`] with one compare.
    next_fill_at: u64,
    write_cache: WriteCache,
    mshrs: MshrFile,
    streams: Option<StreamBuffers>,
    biu: Biu,
    istream: StreamStats,
    dstream: StreamStats,
    // Floating point.
    fpu: Fpu,
    // Issue buffering (one pair of look-ahead for dual issue).
    pending: VecDeque<TraceOp>,
    /// Fetch bubble charged by the most recent [`Simulator::fetch`] (0 or
    /// 1): lets stall attribution split an ICache-bound stall into its
    /// branch-bubble and miss-service parts without changing the coarse
    /// counters.
    fetch_bubble: u64,
    /// The observability recorder; `None` unless
    /// [`Simulator::enable_observer`] was called. Boxed so the disabled
    /// case costs one pointer-null test on the hot path.
    obs: Option<Box<Observer>>,
    /// Fixed staging buffer for observer events: the hot loop appends
    /// here (an inlined bounds-check and store) and flushes the batch to
    /// the outlined [`Observer::record_batch`] once per issue group,
    /// instead of paying a cold call per event. Always empty between
    /// public calls, so [`Simulator::observer`] stays consistent.
    obs_buf: [ObsEvent; OBS_BATCH],
    obs_buf_len: u8,
    warm_cycle_offset: u64,
    stats: SimStats,
    /// Whether the clock jumps straight to each group's binding
    /// constraint; `false` only in the naive reference engine
    /// ([`Simulator::naive_reference`]), which walks every cycle.
    horizon_jump: bool,
}

impl<'cfg> Simulator<'cfg> {
    /// Creates a simulator borrowing `cfg` (no per-simulation clone).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: &'cfg MachineConfig) -> Simulator<'cfg> {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid config: {e}"));
        let line = cfg.line_bytes;
        Simulator {
            cfg,
            now: 0,
            icache: DecodedICache::new(Geometry::new(cfg.icache_bytes, line)),
            last_fetch_pair: None,
            after_ctl: None,
            delay_pending: None,
            int_score: [(0, StallCause::RawDep); 32],
            hilo: (0, StallCause::RawDep),
            rob: ReorderBuffer::new(cfg.rob_entries),
            dcache: DirectMappedCache::new(Geometry::new(cfg.dcache_bytes, line)),
            dcache_port_free: 0,
            pending_fills: Vec::new(),
            next_fill_at: u64::MAX,
            write_cache: WriteCache::new(cfg.write_cache_lines),
            mshrs: MshrFile::new(cfg.mshr_entries),
            streams: cfg
                .prefetch_enabled
                .then(|| StreamBuffers::new(cfg.prefetch_buffers, cfg.prefetch_depth)),
            biu: Biu::new(cfg.memory_latency, line, cfg.seed),
            istream: StreamStats::default(),
            dstream: StreamStats::default(),
            fpu: Fpu::new(cfg.fpu.clone()),
            pending: VecDeque::with_capacity(2),
            fetch_bubble: 0,
            obs: None,
            obs_buf: [ObsEvent {
                cycle: 0,
                kind: ObsEventKind::Retire,
            }; OBS_BATCH],
            obs_buf_len: 0,
            warm_cycle_offset: 0,
            stats: SimStats::default(),
            horizon_jump: true,
        }
    }

    /// The event-horizon oracle: a simulator that walks every cycle
    /// between issue groups, performing unit maintenance at each one,
    /// instead of jumping the clock to the binding constraint. It is a
    /// reference engine for the differential suites, not a product mode:
    /// its [`SimStats`] must be bit-equal to [`Simulator::new`]'s on any
    /// trace, and [`Simulator::feed_blocks`] walks op by op under it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    #[doc(hidden)]
    pub fn naive_reference(cfg: &'cfg MachineConfig) -> Simulator<'cfg> {
        Simulator {
            horizon_jump: false,
            ..Simulator::new(cfg)
        }
    }

    /// Discards all statistics gathered so far while keeping the
    /// microarchitectural state (cache contents, queues, in-flight work).
    /// Call after feeding a warm-up prefix so cold-start transients do not
    /// skew short measurements; the paper's multi-million-instruction
    /// traces amortise warm-up implicitly. The dual-issue look-ahead may
    /// carry at most one warm-up instruction across the mark.
    pub fn mark_warm(&mut self) {
        self.stats = SimStats::default();
        self.warm_cycle_offset = self.now;
        self.icache.reset_stats();
        self.dcache.reset_stats();
        self.write_cache.reset_stats();
        self.mshrs.reset_stats();
        self.biu.reset_stats();
        self.istream = StreamStats::default();
        self.dstream = StreamStats::default();
        self.fpu.reset_stats();
        self.obs_buf_len = 0;
        if let Some(o) = self.obs.as_deref_mut() {
            o.reset();
        }
    }

    /// Stages one observer event in the fixed batch buffer. Call only
    /// when an observer is attached; the buffer is flushed per issue
    /// group (and mid-group if it ever fills), preserving exact event
    /// order relative to per-event recording.
    #[inline]
    fn obs_record(&mut self, cycle: u64, kind: ObsEventKind) {
        debug_assert!(self.obs.is_some(), "staging without an observer");
        if usize::from(self.obs_buf_len) >= OBS_BATCH {
            self.flush_obs();
        }
        if let Some(slot) = self.obs_buf.get_mut(usize::from(self.obs_buf_len)) {
            *slot = ObsEvent { cycle, kind };
            self.obs_buf_len += 1;
        }
    }

    /// Flushes the staged events to the observer in insertion order.
    #[cold]
    #[inline(never)]
    fn flush_obs(&mut self) {
        let n = usize::from(self.obs_buf_len);
        self.obs_buf_len = 0;
        if let Some(o) = self.obs.as_deref_mut() {
            o.record_batch(self.obs_buf.get(..n).unwrap_or(&[]));
        }
    }

    /// Attaches (or replaces) a cycle-event [`Observer`] with a ring of
    /// `capacity` events (usually
    /// [`DEFAULT_RING_CAPACITY`](crate::obs::DEFAULT_RING_CAPACITY)).
    /// Retrieve it with [`Simulator::observer`] or
    /// [`Simulator::finish_observed`].
    pub fn enable_observer(&mut self, capacity: usize) {
        self.obs = Some(Box::new(Observer::new(capacity)));
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Observer> {
        self.obs.as_deref()
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &MachineConfig {
        self.cfg
    }

    /// The current issue-clock cycle. Monotone within a run; the sampling
    /// estimator measures windows as deltas of
    /// `(cycle, retired_instructions)` pairs.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Instructions issued so far (the dual-issue look-ahead queue may
    /// hold one further op that has been fed but not yet issued).
    pub fn retired_instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// Feeds one trace op; issues as soon as pairing look-ahead allows.
    ///
    /// This is the one per-op driver: live emulation, per-op [`replay`]
    /// of a packed capture and sampled mode's detailed warm-ups and
    /// windows all deliver their ops here. Product sweeps and exact
    /// serve cells replay the block form through
    /// [`Simulator::feed_blocks`] instead.
    pub fn feed(&mut self, op: TraceOp) {
        self.pending.push_back(op);
        while self.pending.len() >= 2 {
            self.issue_group();
        }
    }

    /// Feeds a lowered [`BlockTrace`], replaying a whole basic block at
    /// a time.
    ///
    /// Each dynamic block instance resolves to a pre-decoded template:
    /// no per-op unpack, and the template pool stays hot in cache while
    /// replay streams one `u32` id per block. Templates hold static
    /// code only: the batched loop reads a memory op's effective
    /// address off the lowering's operand stream only where the op
    /// executes or is checked for an MSHR merge, and the generic path
    /// patches it into its copy of the op. Inside a block, maximal
    /// *batchable* runs — every op except control flow, pre-analysed
    /// at lowering time with their dynamic-source-check mask — execute
    /// through a specialised issue loop whose per-group work is
    /// trimmed to exactly the constraints the lowering could not
    /// discharge (ROB space, the data-cache port, MSHRs, the FPU issue
    /// queue, flagged sources, I-cache residency on fetch-pair
    /// transition). Runs may be entered at any interior op, so the
    /// fast path re-engages right after the delay-slot/redirect groups
    /// that follow a taken branch. Anything the loop does not model —
    /// an attached observer, the naive reference engine —
    /// falls back to the full per-op [`issue_pair`](Simulator::feed) path,
    /// so [`SimStats`] stay bit-identical to per-op replay (asserted
    /// by the block differential suite).
    pub fn feed_blocks(&mut self, blocks: &BlockTrace) {
        // The fast path replicates the per-op walk only under the
        // default skip-mode semantics with no event consumers attached;
        // anything else falls back wholesale.
        let fast_ok = self.horizon_jump && self.obs.is_none();
        // The operand stream still to replay: each block instance takes
        // its memory ops' effective addresses off the front.
        let mut addrs = blocks.addrs();
        let (mut slot_a, mut slot_b) = (NO_OP, NO_OP);
        for &tid in blocks.instances() {
            let Some(tmpl) = blocks.templates().get(tid as usize) else {
                debug_assert!(false, "block instance {tid} out of range");
                continue;
            };
            let block = Instance {
                tmpl,
                ops: blocks.ops_of(tmpl),
                addrs,
            };
            addrs = addrs.get(tmpl.mem_ops()..).unwrap_or(&[]);
            let mut i = 0usize;
            // Ops buffered by earlier feed() calls pair among themselves
            // first (only possible before the first block; block replay
            // itself carries at most one tail op)...
            while self.pending.len() >= 2 {
                self.issue_group();
            }
            // ...then the carried tail pairs with the block head through
            // one direct issue_pair call — the same (first, second)
            // arguments feed()'s queue would produce, without the
            // queue's issue-until-dual drain serialising the block.
            if let Some(&carry) = self.pending.front() {
                if let Some(head) = block.op(i, &mut slot_a) {
                    if self.issue_pair(&carry, Some(head)) {
                        i += 1;
                    }
                    self.pending.pop_front();
                }
            }
            while i < block.ops.len() {
                if fast_ok {
                    if let Some(j) = self.try_fast_run(&block, i) {
                        i = j;
                        continue;
                    }
                }
                let Some(first) = block.op(i, &mut slot_a) else {
                    break;
                };
                match block.op(i + 1, &mut slot_b) {
                    Some(second) => {
                        if self.issue_pair(first, Some(second)) {
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    None => {
                        // The block's last op may pair with the next
                        // block's head: defer it through the pending
                        // queue, exactly as feed() holds its last op.
                        self.pending.push_back(*first);
                        i += 1;
                    }
                }
            }
        }
    }

    /// Executes the batchable run containing op index `i` (entered at
    /// `i`, which may lie anywhere inside the run) through the
    /// batched fast path. Returns the next op index (> `i`)
    /// when the run was taken, or `None` to fall back to the generic
    /// per-op path for this position.
    ///
    /// The loop is [`issue_pair`](Simulator::feed) with everything the
    /// lowering pre-resolved stripped out; what remains is exact, not
    /// approximate — it performs the same state updates in the same
    /// order, so [`SimStats`] stay bit-identical:
    ///
    /// * *Fetch* collapses to a residency check and probe on pair
    ///   transition. A resident line's probe is a guaranteed hit and
    ///   never binds (nothing in a run can evict an I-cache line); a
    ///   non-resident line or an armed delay-slot redirect takes the
    ///   generic path's own `fetch` call, miss service included.
    /// * *Sources* are checked only for ops whose `need_src` bit is
    ///   set: live-in readers and readers of an in-run load or mul/div
    ///   result. A not-ready source binds the group's issue time with
    ///   the same first-wins attribution `issue_pair` would record, so
    ///   entry needs no readiness pre-check at all. Every other source
    ///   is forwarded one cycle after an earlier in-run ALU group —
    ///   ready no later than the group's fetch-bound lower bound —
    ///   whether that producer issued inside this batch or on the
    ///   generic path before a mid-run entry.
    /// * *ROB, data-cache port, MSHR and store-queue* constraints are
    ///   gathered per group exactly as `issue_pair` gathers them, in
    ///   the same first-wins order with the same lazy drains, and a
    ///   binding constraint stalls the group in place — the batch
    ///   never has to abort mid-run.
    /// * *Execution* is the shared [`execute`](Simulator::feed) arms:
    ///   loads, stores and FP loads/stores run their full LSU paths
    ///   (miss service, fills, MSHR traffic included). Batchable ops
    ///   never arm the fetch redirect, so the delay-slot chain the
    ///   loop skips is provably quiescent.
    fn try_fast_run(&mut self, block: &Instance<'_>, i: usize) -> Option<usize> {
        debug_assert!(self.pending.is_empty());
        let (tmpl, ops) = (block.tmpl, block.ops);
        let end = i + (tmpl.batch_mask >> (i as u32 & 63)).trailing_ones() as usize;
        if end < i + MIN_FAST_RUN {
            return None;
        }
        let dual_width = self.cfg.issue_width == IssueWidth::Dual;
        let mut j = i;
        // A group whose partner would lie beyond the run exits to the
        // generic path, which owns every cross-boundary pairing call.
        while j + 1 < end {
            if self.next_fill_at <= self.now {
                self.apply_fills(self.now);
            }
            let Some(a) = ops.get(j) else { return Some(j) };
            // Fetch. The overwhelmingly common case — same pair, or a
            // transition onto a resident line with no redirect armed —
            // collapses to a compare (plus the per-op path's stats
            // probe on transition). A pending delay-slot redirect or a
            // non-resident line takes the full fetch call instead: the
            // redirect's folding bookkeeping and the miss service are
            // the *same calls* the generic path makes, so the batch
            // rides straight through taken branches and cold lines.
            let redirect = self.delay_pending.take();
            let pair = u64::from(a.pc) >> 3;
            let t_fetch = if redirect.is_some() {
                self.fetch(u64::from(a.pc), redirect)
            } else if self.last_fetch_pair != Some(pair) {
                if self.icache.contains(u64::from(a.pc)) {
                    self.last_fetch_pair = Some(pair);
                    self.fetch_bubble = 0;
                    let hit = self.icache.probe(u64::from(a.pc));
                    debug_assert!(hit, "residency-checked fetch line must hit");
                    self.now
                } else {
                    self.fetch(u64::from(a.pc), None)
                }
            } else {
                self.fetch_bubble = 0;
                self.now
            };
            // Constraint gathering in issue_pair's exact order — fetch,
            // sources, ROB, then memory — first-wins on ties.
            let mut binding = (t_fetch, StallCause::Icache);
            if bit(tmpl.need_src, j) {
                for src in a.sources() {
                    let cand = self.reg_ready(src);
                    if cand.0 > binding.0 {
                        binding = cand;
                    }
                }
            }
            if needs_rob(a.kind) && !self.rob.has_space() {
                self.rob.drain(self.now);
                if !self.rob.has_space() {
                    if let Some(free) = self.rob.next_free_at() {
                        if free > binding.0 {
                            binding = (free, StallCause::Structural);
                        }
                    }
                }
            }
            if a.kind.is_memory() {
                if self.dcache_port_free > binding.0 {
                    binding = (self.dcache_port_free, StallCause::DcacheStoreBufferFull);
                }
                self.mshrs.expire(self.now);
                if !self.mshrs.has_free() && !self.can_merge(a.kind.with_address(block.ea(j))) {
                    if let Some(free) = self.mshrs.earliest_completion() {
                        if free > binding.0 {
                            binding = (free, StallCause::MshrFull);
                        }
                    }
                }
                if matches!(a.kind, OpKind::FpStore { .. }) {
                    let free = self.fpu.stq_space_at(self.now);
                    if free > binding.0 {
                        binding = (free, StallCause::FpuSyncQueue);
                    }
                }
            }
            if a.kind.is_fpu() {
                let free = self.fpu.iq_space_at(self.now);
                if free > binding.0 {
                    binding = (free, StallCause::FpuSyncQueue);
                }
            }
            let (t, cause) = binding;
            if t > self.now {
                // lint:allow(L002): StallKind indexing is a total
                // enum-to-array map via Index impl, not a fallible index
                self.stats.stalls[cause.kind()] += t - self.now;
            }
            // advance_to(t), with the MSHR expiry elided for non-memory
            // groups: expiry is lazy and idempotent, and every MSHR
            // reader (the memory-constraint block above, the dual check
            // below, the LSU execute paths) re-expires before reading,
            // so deferring it cannot change any observable state.
            if a.kind.is_memory() {
                self.advance_to(t);
            } else if self.next_fill_at <= t {
                self.apply_fills(t);
            }
            // Dual partner: the static rules were pre-resolved into
            // pair_ok; the partner's dynamic checks follow can_dual_issue
            // in its side-effect order (sources, ROB drain, memory).
            let mut dual = dual_width && bit(tmpl.pair_ok, j);
            if dual {
                let Some(b) = ops.get(j + 1) else {
                    return Some(j);
                };
                if bit(tmpl.need_src, j + 1) && b.sources().any(|s| self.reg_ready(s).0 > t) {
                    dual = false;
                }
                let rob_needed = usize::from(needs_rob(a.kind)) + usize::from(needs_rob(b.kind));
                if dual && rob_needed > 0 && self.rob.capacity() - self.rob.occupancy() < rob_needed
                {
                    self.rob.drain(t);
                    if self.rob.capacity() - self.rob.occupancy() < rob_needed {
                        dual = false;
                    }
                }
                if dual && b.kind.is_memory() {
                    if self.dcache_port_free > t {
                        dual = false;
                    } else {
                        self.mshrs.expire(t);
                        if (!self.mshrs.has_free()
                            && !self.can_merge(b.kind.with_address(block.ea(j + 1))))
                            || (matches!(b.kind, OpKind::FpStore { .. })
                                && self.fpu.stq_space_at(t) > t)
                        {
                            dual = false;
                        }
                    }
                }
                if dual && b.kind.is_fpu() {
                    // can_dual_issue's two-slot admission check, call
                    // for call (iq_space_at is re-queried for the
                    // second slot's margin).
                    if self.fpu.iq_space_at(t) > t
                        || (1 + usize::from(a.kind.is_fpu()) == 2 && self.fpu.iq_space_at(t) > t)
                    {
                        dual = false;
                    }
                }
            }
            self.exec_batched(block, j, a, t);
            self.stats.instructions += 1;
            if dual {
                if let Some(b) = ops.get(j + 1) {
                    self.exec_batched(block, j + 1, b, t);
                    self.stats.instructions += 1;
                    self.stats.dual_issues += 1;
                }
            }
            self.now = t + 1;
            j += if dual { 2 } else { 1 };
        }
        // The run holds at least MIN_FAST_RUN ops, so the loop issued
        // at least one group.
        debug_assert!(j > i);
        Some(j)
    }

    /// [`execute`](Simulator::feed) for op `j` of a block instance
    /// inside a batched run: the dominant ALU/nop arm is inlined ahead
    /// of the full dispatch, and only a memory op reads its effective
    /// address off the instance's operand stream. The delay-slot chain
    /// is replicated verbatim — a batch entered right behind a taken
    /// branch moves the armed redirect into `delay_pending` on its
    /// first op, exactly as the generic path would, and the next
    /// group's fetch consumes it.
    #[inline]
    fn exec_batched(&mut self, block: &Instance<'_>, j: usize, op: &TraceOp, t: u64) {
        if let Some(r) = self.after_ctl.take() {
            self.delay_pending = Some(r);
        }
        match op.kind {
            OpKind::IntAlu | OpKind::Nop => {
                self.write_int(op.dst, t + 1, StallCause::RawDep);
                self.push_rob(t + 2);
            }
            kind => {
                // One `execute` call site: a separate memory-op call
                // measured up to 15% slower on sweep-wide.
                let ea = if kind.is_memory() { block.ea(j) } else { 0 };
                let op = TraceOp {
                    kind: kind.with_address(ea),
                    ..*op
                };
                self.execute(&op, t);
            }
        }
    }

    /// Flushes remaining ops and returns the final statistics.
    pub fn finish(self) -> SimStats {
        self.finish_observed().0
    }

    /// Like [`Simulator::finish`], but also hands back the attached
    /// [`Observer`] (if any) so callers can inspect the event ring,
    /// per-cause stall attribution and histograms after the run.
    pub fn finish_observed(mut self) -> (SimStats, Option<Observer>) {
        while !self.pending.is_empty() {
            self.issue_group();
        }
        let mut stats = self.stats;
        stats.cycles = self
            .now
            .max(self.rob.drained_at())
            .max(self.fpu.drained_at())
            .saturating_sub(self.warm_cycle_offset);
        stats.icache = self.icache.stats();
        stats.dcache = self.dcache.stats();
        stats.istream = self.istream;
        stats.dstream = self.dstream;
        stats.write_cache = self.write_cache.stats();
        stats.mshr = self.mshrs.stats();
        stats.biu = self.biu.stats();
        stats.fp_instructions = self.fpu.stats().dispatched;
        stats.fp_dual_issues = self.fpu.stats().dual_issues;
        (stats, self.obs.take().map(|b| *b))
    }

    /// Issues the next group from the pending queue (one instruction, or
    /// an aligned dual pair).
    fn issue_group(&mut self) {
        let Some(&first) = self.pending.front() else {
            return;
        };
        let second = self.pending.get(1).copied();
        let consumed_pair = self.issue_pair(&first, second.as_ref());
        self.pending.pop_front();
        if consumed_pair {
            self.pending.pop_front();
        }
    }

    /// Issues `first` — plus `second` in the same cycle when the
    /// dual-issue rules allow — and returns whether the partner was
    /// consumed. This is the whole issue stage; callers own op delivery
    /// (the pending queue for [`Simulator::feed`], the block templates
    /// for [`Simulator::feed_blocks`]).
    fn issue_pair(&mut self, first: &TraceOp, second: Option<&TraceOp>) -> bool {
        if self.next_fill_at <= self.now {
            self.apply_fills(self.now);
        }

        // --- Constraint gathering for the first instruction -------------
        let redirect = self.delay_pending.take();
        let t_fetch = self.fetch(u64::from(first.pc), redirect);
        let mut binding = (t_fetch, StallCause::Icache);
        let consider = |cand: (u64, StallCause), binding: &mut (u64, StallCause)| {
            if cand.0 > binding.0 {
                *binding = cand;
            }
        };

        for src in first.sources() {
            consider(self.reg_ready(src), &mut binding);
        }
        if needs_rob(first.kind) && !self.rob.has_space() {
            // Retirement is in-order and monotone, so draining lazily —
            // only when the buffer looks full — frees exactly the same
            // entries an eager per-cycle drain would have.
            self.rob.drain(self.now);
            if !self.rob.has_space() {
                // A full ROB always has entries, so `next_free_at` is Some;
                // were it ever None there would simply be no constraint.
                if let Some(free) = self.rob.next_free_at() {
                    consider((free, StallCause::Structural), &mut binding);
                }
            }
        }
        if first.kind.is_memory() {
            consider(
                (self.dcache_port_free, StallCause::DcacheStoreBufferFull),
                &mut binding,
            );
            self.mshrs.expire(self.now);
            if !self.mshrs.has_free() && !self.can_merge(first.kind) {
                // A full MSHR file always has an earliest completion.
                if let Some(free) = self.mshrs.earliest_completion() {
                    consider((free, StallCause::MshrFull), &mut binding);
                }
            }
            if matches!(first.kind, OpKind::FpStore { .. }) {
                consider(
                    (self.fpu.stq_space_at(self.now), StallCause::FpuSyncQueue),
                    &mut binding,
                );
            }
        }
        if first.kind.is_fpu() {
            consider(
                (self.fpu.iq_space_at(self.now), StallCause::FpuSyncQueue),
                &mut binding,
            );
        }

        let (t, cause) = binding;
        let pre_issue_now = self.now;
        let t = t.max(self.now);
        if t > self.now {
            // lint:allow(L002): StallKind indexing is a total enum-to-array
            // map via Index impl, not a fallible slice index
            self.stats.stalls[cause.kind()] += t - self.now;
            if self.obs.is_some() {
                self.note_stall(pre_issue_now, t - self.now, cause);
            }
        }
        self.advance_to(t);

        // --- Dual-issue check for the pair partner ----------------------
        let dual = second
            .map(|s| self.can_dual_issue(first, s, t))
            .unwrap_or(false);

        // --- Execute -----------------------------------------------------
        self.execute(first, t);
        self.stats.instructions += 1;
        if self.obs.is_some() {
            self.obs_record(
                t,
                ObsEventKind::Issue {
                    pc: first.pc,
                    dual: false,
                },
            );
        }
        if let (true, Some(s)) = (dual, second) {
            self.execute(s, t);
            self.stats.instructions += 1;
            self.stats.dual_issues += 1;
            if self.obs.is_some() {
                self.obs_record(
                    t,
                    ObsEventKind::Issue {
                        pc: s.pc,
                        dual: true,
                    },
                );
            }
        }
        // One cold flush per issue group; a single compare when no
        // observer is attached (the buffer is then always empty).
        if self.obs_buf_len > 0 {
            self.flush_obs();
        }
        self.now = t + 1;
        dual
    }

    /// Records a stall region in the observer, splitting an ICache-bound
    /// stall into its unfolded-branch bubble (if any) and the miss
    /// service proper. The split refines attribution only — both halves
    /// fold back onto [`StallKind::ICache`](crate::StallKind), so the
    /// coarse counters are untouched.
    #[cold]
    #[inline(never)]
    fn note_stall(&mut self, at: u64, cycles: u64, cause: StallCause) {
        let bubble = if cause == StallCause::Icache {
            self.fetch_bubble.min(cycles)
        } else {
            0
        };
        if self.obs.is_none() {
            return;
        }
        if bubble > 0 {
            self.obs_record(
                at,
                ObsEventKind::Stall {
                    cause: StallCause::Branch,
                    cycles: bubble,
                },
            );
        }
        if cycles > bubble {
            self.obs_record(
                at + bubble,
                ObsEventKind::Stall {
                    cause,
                    cycles: cycles - bubble,
                },
            );
        }
    }

    /// Advances unit state from `self.now` to the issue cycle `t`.
    ///
    /// In skip mode (the default) the clock jumps straight to `t`: the
    /// stall region is quiescent by construction — `t` is the binding
    /// constraint, the latest of the per-unit ready times — and deferred
    /// maintenance (fill application, ROB retirement, MSHR release) is
    /// monotone and path-independent, so performing it once at `t`
    /// reaches the same state as performing it each cycle. The naive
    /// reference engine walks every intervening cycle and performs
    /// maintenance at each, validating exactly that claim: both must
    /// produce bit-equal [`SimStats`].
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t >= self.now, "clock moved backward: {} -> {t}", self.now);
        if self.horizon_jump {
            if self.next_fill_at <= t {
                self.apply_fills(t);
            }
            self.mshrs.expire(t);
        } else {
            let mut c = self.now;
            loop {
                self.apply_fills(c);
                self.rob.drain(c);
                self.mshrs.expire(c);
                if c >= t {
                    break;
                }
                c += 1;
            }
        }
    }

    /// Whether `second` can issue in the same cycle `t` as `first`.
    fn can_dual_issue(&mut self, first: &TraceOp, second: &TraceOp, t: u64) -> bool {
        // The static rules are the ones lowering pre-resolves into
        // `BlockTemplate::pair_ok`: alignment, one memory op, the DI bit
        // and the FP-compare→branch hazard.
        if self.cfg.issue_width != IssueWidth::Dual || !static_pair_ok(first, second) {
            return false;
        }
        // The partner's own operands and resources must be ready at `t`.
        if second.sources().any(|s| self.reg_ready(s).0 > t) {
            return false;
        }
        let rob_needed = usize::from(needs_rob(first.kind)) + usize::from(needs_rob(second.kind));
        if rob_needed > 0 && self.rob.capacity() - self.rob.occupancy() < rob_needed {
            self.rob.drain(t);
            if self.rob.capacity() - self.rob.occupancy() < rob_needed {
                return false;
            }
        }
        if second.kind.is_memory() {
            if self.dcache_port_free > t {
                return false;
            }
            self.mshrs.expire(t);
            if !self.mshrs.has_free() && !self.can_merge(second.kind) {
                return false;
            }
            if matches!(second.kind, OpKind::FpStore { .. }) && self.fpu.stq_space_at(t) > t {
                return false;
            }
        }
        if second.kind.is_fpu() {
            let slots_needed = 1 + usize::from(first.kind.is_fpu());
            // iq_space_at only reports when one slot frees; for two slots
            // require space plus one in-queue margin.
            if self.fpu.iq_space_at(t) > t {
                return false;
            }
            if slots_needed == 2 && self.fpu.iq_space_at(t) > t {
                return false;
            }
        }
        true
    }

    /// Computes when the instruction at `pc` is available from the fetch
    /// unit, handling I-cache misses, stream buffers and branch folding.
    fn fetch(&mut self, pc: u64, redirect: Option<Redirect>) -> u64 {
        let pair = pc >> 3;
        let mut bubble = 0;
        if let Some(r) = redirect {
            if self.cfg.branch_folding && r.foldable && self.icache.can_fold(r.branch_pc, pc) {
                self.stats.folded_branches += 1;
            } else {
                self.stats.unfolded_branches += 1;
                bubble = 1;
            }
            self.last_fetch_pair = None;
        }
        if self.last_fetch_pair == Some(pair) {
            self.fetch_bubble = 0;
            return self.now;
        }
        self.last_fetch_pair = Some(pair);
        self.fetch_bubble = bubble;
        let t = self.now + bubble;
        if self.obs.is_some() {
            self.obs_record(t, ObsEventKind::Fetch { pc });
        }
        if self.icache.probe(pc) {
            return t;
        }
        // Instruction-cache miss: stream buffers, then the BIU.
        let line = self.icache.geometry().line(pc);
        let ready = self.service_miss(line, t, true);
        self.icache.fill(pc);
        if self.obs.is_some() {
            self.obs_record(
                t,
                ObsEventKind::IcacheMiss {
                    latency: ready.saturating_sub(t),
                },
            );
        }
        ready
    }

    /// Services a primary-cache miss for `line` at cycle `t`, returning
    /// when the line is on chip. `instr` selects the I or D stream for
    /// statistics and BIU priorities.
    fn service_miss(&mut self, line: LineAddr, t: u64, instr: bool) -> u64 {
        let kind = if instr {
            TransferKind::InstrFill
        } else {
            TransferKind::DataFill
        };
        let Some(streams) = self.streams.as_mut() else {
            return self.biu.request(t, kind);
        };
        let stats = if instr {
            &mut self.istream
        } else {
            &mut self.dstream
        };
        stats.probes += 1;
        match streams.probe(line, t) {
            StreamProbe::Hit { ready_at } => {
                stats.hits += 1;
                let biu = &mut self.biu;
                let mut issued = 0;
                streams.deepen(|_l| {
                    issued += 1;
                    biu.request(t, TransferKind::Prefetch)
                });
                stats.prefetches_issued += issued;
                ready_at.max(t) + STREAM_TRANSFER_CYCLES
            }
            StreamProbe::Miss => {
                let done = self.biu.request(t, kind);
                let biu = &mut self.biu;
                let mut issued = 0;
                streams.allocate(line, t, |_l| {
                    issued += 1;
                    biu.request(t, TransferKind::Prefetch)
                });
                stats.prefetches_issued += issued;
                stats.allocations += 1;
                done
            }
        }
    }

    /// Applies data-cache fills that have arrived by cycle `t`, in
    /// arrival order — the order a per-cycle walk would apply them, so
    /// skip and naive modes install lines into the cache identically.
    fn apply_fills(&mut self, t: u64) {
        if self.next_fill_at > t {
            return;
        }
        // lint:allow(L001): bounded stable sort — pending_fills is capped
        // by the MSHR file, and Rust's stable sort is allocation-free below
        // 21 elements; stability preserves skip/naive fill-order equality
        self.pending_fills.sort_by_key(|&(_, arrival)| arrival);
        let mut port = self.dcache_port_free;
        let mut due = 0;
        while let Some(&(line, arrival)) = self.pending_fills.get(due) {
            if arrival > t {
                break;
            }
            self.dcache.fill_line(line);
            // The fill occupies the data busses (§5.3 LSU-busy).
            port = port.max(arrival + FILL_BLOCK_CYCLES);
            due += 1;
        }
        self.pending_fills.drain(..due);
        self.next_fill_at = self.pending_fills.first().map_or(u64::MAX, |&(_, a)| a);
        self.dcache_port_free = port;
    }

    /// Ready time and stall attribution for a source register.
    fn reg_ready(&self, src: ArchReg) -> (u64, StallCause) {
        match src {
            ArchReg::Int(n) => self
                .int_score
                .get(n as usize)
                .copied()
                .unwrap_or((0, StallCause::RawDep)),
            ArchReg::HiLo => self.hilo,
            ArchReg::FpCond => (self.fpu.fpcc_ready(), StallCause::FpuSyncResult),
            // FP register timing lives inside the FPU; the IPU does not
            // wait on it at issue.
            ArchReg::Fp(_) => (0, StallCause::RawDep),
        }
    }

    /// Performs the effects of issuing `op` at cycle `t`.
    fn execute(&mut self, op: &TraceOp, t: u64) {
        // Delay-slot chaining: the op after a taken control transfer
        // arms the redirect for the *following* fetch.
        if let Some(r) = self.after_ctl.take() {
            self.delay_pending = Some(r);
        }

        match op.kind {
            OpKind::IntAlu | OpKind::Nop => {
                self.write_int(op.dst, t + 1, StallCause::RawDep);
                self.push_rob(t + 2);
            }
            OpKind::IntMul => {
                self.hilo = (t + INT_MUL_LATENCY, StallCause::RawDep);
                self.push_rob(t + 2);
            }
            OpKind::IntDiv => {
                self.hilo = (t + INT_DIV_LATENCY, StallCause::RawDep);
                self.push_rob(t + 2);
            }
            OpKind::Load { ea, width } => {
                let result = self.exec_load(u64::from(ea), width.bytes(), t);
                self.write_int(op.dst, result, StallCause::DcacheLoad);
                self.push_rob(result);
            }
            OpKind::Store { ea, width } => {
                self.exec_store(u64::from(ea), width.bytes(), t, t);
                self.push_rob(t + STORE_PIPE_LATENCY);
            }
            OpKind::FpLoad { ea, width } => {
                let result = self.exec_load(u64::from(ea), width.bytes(), t);
                let note = self.fpu.note_fp_load(op.dst, result);
                // A full load queue blocks the LSU pipe until it drains.
                self.dcache_port_free = self.dcache_port_free.max(note.admitted);
            }
            OpKind::FpStore { ea, width } => {
                let data_at = op.src2.map(|r| self.fpu.reg_ready(r)).unwrap_or(t);
                let commit = self.fpu.note_fp_store(t, data_at);
                self.exec_store(u64::from(ea), width.bytes(), t, commit);
            }
            OpKind::Branch { taken, target } => {
                self.record_ctl_pair(op.pc, Some(u64::from(target)));
                if taken {
                    self.after_ctl = Some(Redirect {
                        branch_pc: u64::from(op.pc),
                        foldable: true,
                    });
                }
                self.push_rob(t + 2);
            }
            OpKind::Jump { target, register } => {
                let static_target = (!register).then_some(u64::from(target));
                self.record_ctl_pair(op.pc, static_target);
                self.after_ctl = Some(Redirect {
                    branch_pc: u64::from(op.pc),
                    foldable: !register,
                });
                self.write_int(op.dst, t + 1, StallCause::RawDep);
                self.push_rob(t + 2);
            }
            kind if kind.is_fpu() => {
                let d = self.fpu.dispatch(op, t);
                if self.obs.is_some() {
                    let depth = self.fpu.iq_occupancy(t);
                    self.obs_record(t, ObsEventKind::FpQueueDepth { depth });
                }
                // `mfc1` delivers an integer result via the store queue.
                if let Some(ArchReg::Int(_)) = op.dst {
                    self.write_int(op.dst, d.result_at, StallCause::FpuSyncResult);
                }
            }
            // lint:allow(L002): the decoder emits only the kinds handled
            // above; a new OpKind must be wired in here, not silently
            // mistimed as an ALU op
            other => unreachable!("unhandled op kind {other:?}"),
        }
    }

    /// Executes a load's LSU/cache path, returning the register-write time.
    fn exec_load(&mut self, ea: u64, bytes: u32, t: u64) -> u64 {
        self.dcache_port_free = self.dcache_port_free.max(t + 1);
        let line = self.dcache.geometry().line(ea);
        if self.write_cache.load_probe(ea, bytes) {
            // On-chip hit: the MSHR frees as soon as the tags resolve.
            self.allocate_mshr_if_free(line, t, t + MSHR_HIT_HOLD);
            return t + WRITE_CACHE_LOAD_LATENCY;
        }
        if self.dcache.probe(ea) {
            self.allocate_mshr_if_free(line, t, t + MSHR_HIT_HOLD);
            return t + 1 + u64::from(self.cfg.dcache_latency);
        }
        if let Some(ready) = self.mshrs.lookup(line) {
            // Secondary miss: merge into the outstanding fill.
            return ready + 1;
        }
        let arrival = self.service_miss(line, t, false);
        self.pending_fills.push((line, arrival));
        self.next_fill_at = self.next_fill_at.min(arrival);
        let allocated = self.mshrs.allocate(line, arrival);
        debug_assert!(allocated.is_some(), "issue logic ensured a free MSHR");
        if self.obs.is_some() {
            let occupancy = self.mshrs.occupancy() as u64;
            self.obs_record(
                t,
                ObsEventKind::DcacheMiss {
                    latency: arrival - t,
                },
            );
            self.obs_record(t, ObsEventKind::MshrAlloc { occupancy });
            self.obs_record(arrival, ObsEventKind::MshrFree { held: arrival - t });
        }
        arrival + 1
    }

    /// Executes a store's LSU/write-cache path. `commit` is when the data
    /// is available (later than `t` for FP stores).
    fn exec_store(&mut self, ea: u64, bytes: u32, t: u64, commit: u64) {
        self.dcache_port_free = self.dcache_port_free.max(t + 1);
        let line = self.dcache.geometry().line(ea);
        let out = self.write_cache.store(ea, bytes, commit);
        if out.hit && self.obs.is_some() {
            self.obs_record(t, ObsEventKind::WriteCacheMerge);
        }
        if out.evicted.is_some() {
            self.biu.request(commit, TransferKind::WriteBack);
        }
        if out.needs_validation || !self.cfg.write_validation {
            self.biu.request(commit, TransferKind::Validation);
        }
        // Stores probe the data cache and allocate on miss *without*
        // fetching — Jouppi's write-validate policy (WRL 91/12, the
        // paper's reference [8]): the coalescing write cache supplies
        // whole lines with per-word valid bits, so no read traffic is
        // needed on a store miss.
        if !self.dcache.probe(ea) {
            self.dcache.fill(ea);
        }
        self.allocate_mshr_if_free(line, t, t + STORE_PIPE_LATENCY);
    }

    /// Reserves an MSHR for a memory instruction in the LSU pipe (§2.3:
    /// "an MSHR is reserved for each memory instruction active in the
    /// LSU"). The reservation starts at `t` and holds `until` the tags
    /// resolve. Hits release it when their data returns. If the file is
    /// momentarily full because the op merged instead, ride along.
    fn allocate_mshr_if_free(&mut self, line: LineAddr, t: u64, until: u64) {
        if self.mshrs.has_free() {
            let allocated = self.mshrs.allocate(line, until);
            debug_assert!(allocated.is_some(), "has_free was checked");
            if self.obs.is_some() {
                let occupancy = self.mshrs.occupancy() as u64;
                self.obs_record(t, ObsEventKind::MshrAlloc { occupancy });
                self.obs_record(
                    until,
                    ObsEventKind::MshrFree {
                        held: until.saturating_sub(t),
                    },
                );
            }
        }
    }

    /// Whether a memory op of `kind` could merge into an outstanding
    /// MSHR entry.
    fn can_merge(&self, kind: OpKind) -> bool {
        let Some(ea) = kind.effective_address() else {
            return false;
        };
        let is_load = matches!(kind, OpKind::Load { .. } | OpKind::FpLoad { .. });
        is_load && {
            let line = self.dcache.geometry().line(u64::from(ea));
            // A merge applies when the line misses but is already in
            // flight; probe is side-effect free, so no merge is counted
            // and no clone of the file is needed.
            !self.dcache.contains(u64::from(ea)) && self.mshrs.probe(line).is_some()
        }
    }

    #[inline]
    fn write_int(&mut self, dst: Option<ArchReg>, ready: u64, cause: StallCause) {
        match dst {
            Some(ArchReg::Int(n)) => {
                if let Some(slot) = self.int_score.get_mut(n as usize) {
                    *slot = (ready, cause);
                }
            }
            Some(ArchReg::HiLo) => self.hilo = (ready, cause),
            _ => {}
        }
    }

    #[inline]
    fn push_rob(&mut self, completes_at: u64) {
        if self.obs.is_some() {
            self.obs_record(completes_at, ObsEventKind::Retire);
        }
        if self.rob.try_push(completes_at) {
            return;
        }
        // Issue logic guaranteed space; a dual-issue partner may race
        // in degenerate configs, so fall back to draining.
        if let Some(free) = self.rob.next_free_at() {
            self.rob.drain(free);
        }
        let pushed = self.rob.try_push(completes_at);
        debug_assert!(pushed, "rob has space after draining to next_free_at");
    }

    /// Records the Figure 3 pre-decode fields for a control-flow pair.
    fn record_ctl_pair(&mut self, pc: u32, target: Option<u64>) {
        self.icache.record_pair(
            u64::from(pc),
            PairInfo {
                dual_issue_inhibit: false,
                has_control_flow: true,
                folded_target: target,
            },
        );
    }

    // --- Functional warming (SMARTS-style fast-forward) -----------------

    /// Stream-buffer maintenance for a warmed miss: the same probe /
    /// deepen / allocate sequence [`Simulator::service_miss`] performs,
    /// with zero-cycle issue callbacks in place of BIU requests so the
    /// allocation state (which buffer tracks which stream, LRU order,
    /// depths) evolves while the busses stay untouched.
    fn warm_stream(&mut self, line: LineAddr, instr: bool) {
        let Some(streams) = self.streams.as_mut() else {
            return;
        };
        let now = self.now;
        let stats = if instr {
            &mut self.istream
        } else {
            &mut self.dstream
        };
        stats.probes += 1;
        match streams.probe(line, now) {
            StreamProbe::Hit { .. } => {
                stats.hits += 1;
                let mut issued = 0;
                streams.deepen(|_l| {
                    issued += 1;
                    now
                });
                stats.prefetches_issued += issued;
            }
            StreamProbe::Miss => {
                let mut issued = 0;
                streams.allocate(line, now, |_l| {
                    issued += 1;
                    now
                });
                stats.prefetches_issued += issued;
                stats.allocations += 1;
            }
        }
    }

    /// Fast-forwards over the next `n` ops at `cur` with *functional
    /// warming*, sampled mode's product fast-forward ([`run_sampled`]):
    /// ops retire with no issue constraints, stall attribution or clock
    /// movement, while the long-history state a later window depends on
    /// keeps updating — I-cache tags and pre-decode, D-cache tags,
    /// write-cache lines and stream-buffer allocation — through
    /// stat-free probes, so counters keep describing detailed execution
    /// only. Short-history state (scoreboard, ROB, queues, BIU busses)
    /// is left to the detailed warm-up, as SMARTS prescribes.
    ///
    /// The walk visits only the ops that raise a [`WarmKind`] event: a
    /// fetch-line transition (the cursor's per-template masks, plus each
    /// instance head checked against the op before it, however that op
    /// ran), a memory op (its address from the operand stream) and the
    /// control op. The fetch-pair tracker advances per line transition,
    /// so the first detailed fetch after warming may re-probe a resident
    /// pair — a deterministic, warm-up-absorbed perturbation. Even an
    /// empty stretch drains the look-ahead and clears the redirect
    /// state, as its oracle [`Simulator::warm_digest`] does.
    ///
    /// [`run_sampled`]: crate::sample::run_sampled
    pub(crate) fn warm_blocks(&mut self, cur: &mut BlockCursor<'_>, n: usize) {
        debug_assert_eq!(
            cur.line_shift,
            self.icache.geometry().line_bytes().trailing_zeros(),
            "cursor line masks must match the machine's line size",
        );
        self.warm_begin();
        let mut dline = None;
        let mut left = n;
        while left > 0 {
            let Some((fetch_mask, block)) = cur.instance() else {
                break;
            };
            let (tmpl, ops) = (block.tmpl, block.ops);
            let start = cur.op;
            let end = tmpl.len().min(start.saturating_add(left));
            // Bit 0 is set in every mask: the head's transition depends
            // on the op before it, which the template cannot know.
            let mut fetch = fetch_mask;
            if start == 0 && ops.first().map(|o| cur.line(o.pc)) == cur.last_line {
                fetch &= !1;
            }
            // Control ops are the only non-batchable ones.
            let mut events = (fetch | tmpl.mem_mask | !tmpl.batch_mask) & span(start, end);
            // The events come in op order, so the memory ops take the
            // instance's addresses in turn from the first one at or
            // after `start`.
            let mut addrs = block
                .addrs
                .get(tmpl.addr_index(start)..)
                .unwrap_or(&[])
                .iter();
            while events != 0 {
                let j = events.trailing_zeros() as usize;
                events &= events - 1;
                let Some(op) = ops.get(j) else { break };
                if bit(fetch, j) {
                    self.warm_event(WarmKind::Fetch { pc: op.pc }, &mut dline);
                }
                let kind = if bit(tmpl.mem_mask, j) {
                    op.kind.with_address(addrs.next().copied().unwrap_or(0))
                } else {
                    op.kind
                };
                if let Some(ev) = WarmKind::of(op.pc, kind) {
                    self.warm_event(ev, &mut dline);
                }
            }
            left -= end - start;
            cur.advance(&block, end);
        }
    }

    /// Feeds the next `n` ops at `cur` through [`Simulator::feed`], one
    /// at a time: sampled mode's detailed warm-ups and windows.
    pub(crate) fn feed_cursor(&mut self, cur: &mut BlockCursor<'_>, n: usize) {
        let mut slot = NO_OP;
        let mut left = n;
        while left > 0 {
            let Some((_, block)) = cur.instance() else {
                break;
            };
            let start = cur.op;
            let end = block.tmpl.len().min(start.saturating_add(left));
            for j in start..end {
                if let Some(&op) = block.op(j, &mut slot) {
                    self.feed(op);
                }
            }
            left -= end - start;
            cur.advance(&block, end);
        }
    }

    /// Fast-forwards over the ops at `range` of the trace a
    /// [`WarmDigest`] was built from: the digest-driven oracle of the
    /// block warming walk [`run_sampled`] takes, with the same effect
    /// on every unit for the same ops. The digest pre-extracts the
    /// events (cache-line transitions, memory references, control
    /// transfers) by op index, so a stretch is a binary search and a
    /// walk of its events. `aurora_benchmark`'s reference cells and the
    /// differential tests run it through [`run_sampled_digest`]; no
    /// product path does.
    ///
    /// The caller must build the digest with this machine's line size
    /// ([`WarmDigest::line_bytes`]); [`run_sampled_digest`] builds a
    /// matching one when handed another.
    ///
    /// [`run_sampled`]: crate::sample::run_sampled
    /// [`run_sampled_digest`]: crate::sample::run_sampled_digest
    pub fn warm_digest(&mut self, digest: &WarmDigest, range: Range<usize>) {
        debug_assert_eq!(
            digest.line_bytes(),
            self.icache.geometry().line_bytes(),
            "digest line granule must match the machine's line size",
        );
        self.warm_begin();
        let mut dline = None;
        for ev in digest.events_in(range) {
            self.warm_event(ev.kind(), &mut dline);
        }
    }

    /// Starts a warmed stretch: the dual-issue look-ahead issues, and a
    /// pending fetch redirect is dropped, since warming moves no clock
    /// and the next detailed fetch cannot follow a warmed control op.
    fn warm_begin(&mut self) {
        while !self.pending.is_empty() {
            self.issue_group();
        }
        self.after_ctl = None;
        self.delay_pending = None;
    }

    /// Applies one warming event: the one per-event rule both warming
    /// walks share. `dline` is the data line the stretch last loaded
    /// from (reset by each stretch and by every store), so a run of
    /// loads from one line checks residency once. Forced inline: left
    /// to the compiler, the block walk's two call sites stayed calls and
    /// its warming rate measured 20-25% lower.
    #[inline(always)]
    fn warm_event(&mut self, kind: WarmKind, dline: &mut Option<LineAddr>) {
        match kind {
            WarmKind::Fetch { pc } => {
                // No same-line memo here: fetch events only exist at
                // line transitions, so consecutive ones never repeat a
                // line and a memo could never hit.
                let pc = u64::from(pc);
                self.last_fetch_pair = Some(pc >> 3);
                if !self.icache.contains(pc) {
                    let line = self.icache.geometry().line(pc);
                    self.warm_stream(line, true);
                    self.icache.fill(pc);
                }
            }
            WarmKind::Load { ea, bytes } => {
                let ea = u64::from(ea);
                let line = self.dcache.geometry().line(ea);
                if *dline != Some(line) {
                    if !self.write_cache.load_covers(ea, u32::from(bytes))
                        && !self.dcache.contains(ea)
                    {
                        self.warm_stream(line, false);
                        self.dcache.fill_line(line);
                    }
                    *dline = Some(line);
                }
            }
            WarmKind::Store { ea, bytes } => {
                let ea = u64::from(ea);
                self.write_cache.warm_store(ea, u32::from(bytes));
                if !self.dcache.contains(ea) {
                    self.dcache.fill(ea);
                }
                *dline = None;
            }
            WarmKind::Control { pc, target } => {
                self.record_ctl_pair(pc, Some(u64::from(target)));
            }
            WarmKind::IndirectJump { pc } => self.record_ctl_pair(pc, None),
        }
    }
}

/// A forward position in a [`BlockTrace`] — the block instance, the op
/// within it and the instance's offset into [`BlockTrace::addrs`] — as
/// sampled mode walks it, feeding windows op by op
/// ([`Simulator::feed_cursor`]) and warming the stretches between them
/// ([`Simulator::warm_blocks`]). It also holds each template's fetch-line
/// transitions at one line size, built once per run from the template
/// pool.
pub(crate) struct BlockCursor<'b> {
    blocks: &'b BlockTrace,
    /// Per template, bit `j` (for `j >= 1`) set where op `j`'s fetch line
    /// differs from op `j - 1`'s. Bit 0 is always set, and checked
    /// against `last_line` when an instance is entered at its head.
    fetch_masks: Vec<u64>,
    line_shift: u32,
    inst: usize,
    op: usize,
    addr: usize,
    /// The fetch line of the op before the cursor, fed or warmed;
    /// `None` at the start of the trace.
    last_line: Option<u32>,
}

impl<'b> BlockCursor<'b> {
    /// A cursor at the start of `blocks`, with line masks for
    /// `line_bytes`-byte fetch lines (a power of two).
    pub(crate) fn new(blocks: &'b BlockTrace, line_bytes: u32) -> BlockCursor<'b> {
        let line_shift = line_bytes.trailing_zeros();
        let fetch_masks = blocks
            .templates()
            .iter()
            .map(|t| {
                let ops = blocks.ops_of(t);
                ops.windows(2)
                    .enumerate()
                    .filter(|(_, w)| (w[0].pc >> line_shift) != (w[1].pc >> line_shift))
                    .fold(1u64, |mask, (j, _)| mask | (1u64 << (j + 1)))
            })
            .collect();
        BlockCursor {
            blocks,
            fetch_masks,
            line_shift,
            inst: 0,
            op: 0,
            addr: 0,
            last_line: None,
        }
    }

    /// The fetch line of `pc`.
    #[inline]
    fn line(&self, pc: u32) -> u32 {
        pc >> self.line_shift
    }

    /// The current block instance and its template's fetch mask, or
    /// `None` past the end of the trace.
    #[inline]
    fn instance(&self) -> Option<(u64, Instance<'b>)> {
        let tid = *self.blocks.instances().get(self.inst)? as usize;
        let tmpl = self.blocks.templates().get(tid)?;
        let block = Instance {
            tmpl,
            ops: self.blocks.ops_of(tmpl),
            addrs: self.blocks.addrs().get(self.addr..).unwrap_or(&[]),
        };
        Some((self.fetch_masks.get(tid).copied().unwrap_or(1), block))
    }

    /// Moves past the current instance's ops before `end`: to op `end`,
    /// or past its last op to the next instance's head.
    #[inline]
    fn advance(&mut self, block: &Instance<'_>, end: usize) {
        if let Some(last) = end.checked_sub(1).and_then(|j| block.ops.get(j)) {
            self.last_line = Some(self.line(last.pc));
        }
        if end < block.tmpl.len() {
            self.op = end;
        } else {
            self.inst += 1;
            self.op = 0;
            self.addr += block.tmpl.mem_ops();
        }
    }
}

/// Scratch value for [`Instance::op`]'s address-carrying copies.
const NO_OP: TraceOp = TraceOp {
    pc: 0,
    kind: OpKind::Nop,
    dst: None,
    src1: None,
    src2: None,
};

/// One dynamic block instance as block replay walks it: the template,
/// its pooled ops (memory addresses cleared) and the instance's slice
/// of the trace's address stream, which starts at its first memory op.
struct Instance<'b> {
    tmpl: &'b BlockTemplate,
    ops: &'b [TraceOp],
    addrs: &'b [u32],
}

impl Instance<'_> {
    /// Op `j` as the generic issue path consumes it: the pooled op
    /// itself, or for a memory op a copy in `slot` carrying this
    /// instance's effective address.
    #[inline]
    fn op<'s>(&'s self, j: usize, slot: &'s mut TraceOp) -> Option<&'s TraceOp> {
        let op = self.ops.get(j)?;
        if !bit(self.tmpl.mem_mask, j) {
            return Some(op);
        }
        *slot = TraceOp {
            kind: op.kind.with_address(self.ea(j)),
            ..*op
        };
        Some(slot)
    }

    /// This instance's effective address for memory op `j`.
    #[inline]
    fn ea(&self, j: usize) -> u32 {
        let ea = self.addrs.get(self.tmpl.addr_index(j)).copied();
        debug_assert!(ea.is_some(), "address stream shorter than its blocks");
        ea.unwrap_or(0)
    }
}

fn needs_rob(kind: OpKind) -> bool {
    !kind.is_fpu() && !matches!(kind, OpKind::FpLoad { .. } | OpKind::FpStore { .. })
}

/// Tests bit `j` of a per-op block bitmask. The shift amount is masked,
/// so the operation is total (block templates cap at 64 ops).
#[inline]
fn bit(mask: u64, j: usize) -> bool {
    (mask >> (j as u32 & 63)) & 1 != 0
}

/// Bits `start..end` of a per-op block bitmask (`end <= 64`).
#[inline]
fn span(start: usize, end: usize) -> u64 {
    let below = |n: usize| {
        u64::MAX
            .checked_shr(64u32.saturating_sub(n as u32))
            .unwrap_or(0)
    };
    below(end) & !below(start)
}

/// Runs a full trace through a fresh simulator.
pub fn simulate<I>(cfg: &MachineConfig, trace: I) -> SimStats
where
    I: IntoIterator<Item = TraceOp>,
{
    let mut sim = Simulator::new(cfg);
    for op in trace {
        sim.feed(op);
    }
    sim.finish()
}

/// Replays a captured [`PackedTrace`] op by op against `cfg` and returns
/// the run's statistics: [`simulate`] over the unpacked records, without
/// re-emulating the workload. This is the per-op oracle that block
/// replay ([`replay_blocks`]) is checked against by the differential
/// suites and `aurora_benchmark`'s reference checks; no product path
/// runs it (sweeps and exact serve cells replay the block form).
///
/// ```
/// use aurora_core::{replay, simulate, IssueWidth, MachineModel};
/// use aurora_isa::{OpKind, PackedTrace, TraceOp};
/// use aurora_mem::LatencyModel;
///
/// let ops: Vec<TraceOp> = (0..64u32)
///     .map(|i| TraceOp::bare(0x400000 + 4 * (i % 16), OpKind::IntAlu))
///     .collect();
/// let capture = PackedTrace::from_ops(ops.iter().copied());
///
/// let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
/// // One capture can drive any number of replays, and packing loses
/// // nothing: a replay equals streaming the live ops through `simulate`.
/// let replayed = replay(&cfg, &capture);
/// assert_eq!(replayed, simulate(&cfg, ops));
/// assert_eq!(replayed.instructions, 64);
/// ```
pub fn replay(cfg: &MachineConfig, trace: &PackedTrace) -> SimStats {
    simulate(cfg, trace.iter())
}

/// Replays a lowered [`BlockTrace`] against `cfg` through the
/// block-granular engine ([`Simulator::feed_blocks`]) and returns the
/// run's statistics — bit-identical to [`replay`] on the source trace
/// and to [`simulate`] on the op stream, only faster: pre-decoded
/// block templates replace per-op unpacking, and
/// scoreboard-only runs execute with per-group work reduced to a few
/// stores.
///
/// ```
/// use aurora_core::{replay, replay_blocks, IssueWidth, MachineModel};
/// use aurora_isa::{BlockTrace, OpKind, PackedTrace, TraceOp};
/// use aurora_mem::LatencyModel;
///
/// let capture: PackedTrace = (0..64u32)
///     .map(|i| TraceOp::bare(0x400000 + 4 * (i % 16), OpKind::IntAlu))
///     .collect();
/// let blocks = BlockTrace::lower(&capture);
///
/// let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
/// assert_eq!(replay_blocks(&cfg, &blocks), replay(&cfg, &capture));
/// ```
pub fn replay_blocks(cfg: &MachineConfig, blocks: &BlockTrace) -> SimStats {
    let mut sim = Simulator::new(cfg);
    sim.feed_blocks(blocks);
    sim.finish()
}

/// Executes `program` functionally for up to `limit` instructions while
/// simulating it cycle by cycle — the full trace-driven pipeline of §4.
///
/// # Errors
///
/// Propagates functional-emulation errors ([`EmuError`]) from the program.
pub fn simulate_program(
    cfg: &MachineConfig,
    program: &Program,
    limit: u64,
) -> Result<SimStats, EmuError> {
    let mut sim = Simulator::new(cfg);
    let mut emu = Emulator::new(program);
    emu.run_traced(limit, |op| sim.feed(op))?;
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineModel;
    use crate::stats::StallKind;
    use aurora_isa::MemWidth;
    use aurora_mem::LatencyModel;

    const BASE: u32 = 0x0040_0000;

    fn cfg(model: MachineModel, issue: IssueWidth) -> MachineConfig {
        model.config(issue, LatencyModel::Fixed(17))
    }

    fn alu(pc: u32, dst: u8, src: u8) -> TraceOp {
        TraceOp {
            pc,
            kind: OpKind::IntAlu,
            dst: Some(ArchReg::Int(dst)),
            src1: Some(ArchReg::Int(src)),
            src2: None,
        }
    }

    fn load(pc: u32, dst: u8, ea: u32) -> TraceOp {
        TraceOp {
            pc,
            kind: OpKind::Load {
                ea,
                width: MemWidth::Word,
            },
            dst: Some(ArchReg::Int(dst)),
            src1: Some(ArchReg::Int(29)),
            src2: None,
        }
    }

    fn store(pc: u32, ea: u32) -> TraceOp {
        TraceOp {
            pc,
            kind: OpKind::Store {
                ea,
                width: MemWidth::Word,
            },
            dst: None,
            src1: Some(ArchReg::Int(29)),
            src2: Some(ArchReg::Int(8)),
        }
    }

    /// A straight-line loop body re-executed over a tiny footprint.
    fn tight_loop_trace(n: u32) -> Vec<TraceOp> {
        (0..n)
            .map(|i| {
                alu(
                    BASE + 4 * (i % 8),
                    8 + (i % 4) as u8,
                    8 + ((i + 1) % 4) as u8,
                )
            })
            .collect()
    }

    #[test]
    fn dependent_pair_cannot_dual_issue() {
        // Each odd instruction consumes the even one's result: DI bit set.
        let trace: Vec<TraceOp> = (0..1000u32)
            .map(|i| {
                if i % 2 == 0 {
                    alu(BASE + 4 * (i % 16), 8, 9)
                } else {
                    alu(BASE + 4 * (i % 16), 10, 8) // reads r8
                }
            })
            .collect();
        let dual = simulate(&cfg(MachineModel::Baseline, IssueWidth::Dual), trace);
        assert!(dual.dual_issue_rate() < 0.05, "{}", dual.dual_issue_rate());
    }

    #[test]
    fn memory_pair_restriction() {
        // Two memory ops per pair: never dual-issued.
        let trace: Vec<TraceOp> = (0..1000u32)
            .map(|i| {
                load(
                    BASE + 4 * (i % 16),
                    (8 + i % 8) as u8,
                    0x1000 + 4 * (i % 64),
                )
            })
            .collect();
        let dual = simulate(&cfg(MachineModel::Baseline, IssueWidth::Dual), trace);
        assert_eq!(dual.dual_issues, 0);
    }

    #[test]
    fn load_use_stall_charged_to_load() {
        // load r8 ; use r8 immediately, repeatedly. Use addresses that hit
        // in the data cache after warm-up.
        let mut trace = Vec::new();
        for i in 0..500u32 {
            trace.push(load(BASE + 8 * (i % 8), 8, 0x2000));
            trace.push(alu(BASE + 8 * (i % 8) + 4, 9, 8));
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert!(
            stats.stalls[StallKind::Load] > 500,
            "load stalls {:?}",
            stats.stalls
        );
        // Roughly 3 cycles of dcache latency exposed per iteration.
        assert!(stats.cpi() > 2.0, "CPI {}", stats.cpi());
    }

    #[test]
    fn icache_miss_stalls_on_large_code_footprint() {
        // Code footprint far beyond the 1 KB small-model I-cache.
        let trace: Vec<TraceOp> = (0..20000u32)
            .map(|i| alu(BASE + 4 * (i % 4096), 8, 9))
            .collect();
        let stats = simulate(&cfg(MachineModel::Small, IssueWidth::Single), trace);
        assert!(stats.icache.hit_rate() < 0.95);
        assert!(stats.stalls[StallKind::ICache] > 0);
    }

    #[test]
    fn stores_coalesce_in_write_cache() {
        let trace: Vec<TraceOp> = (0..2000u32)
            .map(|i| store(BASE + 4 * (i % 16), 0x3000 + 4 * (i % 8)))
            .collect();
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert!(stats.write_cache.hit_rate() > 0.9);
        assert!(stats.write_cache.traffic_ratio() < 0.1);
    }

    #[test]
    fn taken_branches_fold_after_warmup() {
        // A tight loop: branch at the end of the body, taken every time.
        let body = 8u32;
        let mut trace = Vec::new();
        for _ in 0..500 {
            for i in 0..body - 2 {
                trace.push(alu(BASE + 4 * i, 8, 9));
            }
            trace.push(TraceOp {
                pc: BASE + 4 * (body - 2),
                kind: OpKind::Branch {
                    taken: true,
                    target: BASE,
                },
                dst: None,
                src1: Some(ArchReg::Int(8)),
                src2: None,
            });
            trace.push(alu(BASE + 4 * (body - 1), 9, 9)); // delay slot
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert!(
            stats.folded_branches > 400,
            "folded {} unfolded {}",
            stats.folded_branches,
            stats.unfolded_branches
        );
    }

    #[test]
    fn register_jumps_never_fold() {
        let mut trace = Vec::new();
        for _ in 0..100 {
            trace.push(TraceOp {
                pc: BASE,
                kind: OpKind::Jump {
                    target: BASE + 64,
                    register: true,
                },
                dst: None,
                src1: Some(ArchReg::Int(31)),
                src2: None,
            });
            trace.push(alu(BASE + 4, 8, 9)); // delay slot
            trace.push(alu(BASE + 64, 8, 9));
            trace.push(TraceOp {
                pc: BASE + 68,
                kind: OpKind::Jump {
                    target: BASE,
                    register: true,
                },
                dst: None,
                src1: Some(ArchReg::Int(31)),
                src2: None,
            });
            trace.push(alu(BASE + 72, 8, 9)); // delay slot
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert_eq!(stats.folded_branches, 0);
        assert!(stats.unfolded_branches >= 190);
    }

    #[test]
    fn fp_ops_flow_through_queue() {
        let mut trace = Vec::new();
        for i in 0..300u32 {
            trace.push(TraceOp {
                pc: BASE + 8 * (i % 8),
                kind: OpKind::FpMul,
                dst: Some(ArchReg::Fp(2)),
                src1: Some(ArchReg::Fp(4)),
                src2: Some(ArchReg::Fp(6)),
            });
            trace.push(alu(BASE + 8 * (i % 8) + 4, 8, 9));
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert_eq!(stats.fp_instructions, 300);
        // The non-pipelined 5-cycle multiplier backs up the queue, which
        // eventually stalls the IPU.
        assert!(stats.stalls[StallKind::FpQueue] > 0, "{:?}", stats.stalls);
    }

    #[test]
    fn fp_branch_waits_for_condition_code() {
        let mut trace = Vec::new();
        for i in 0..200u32 {
            trace.push(TraceOp {
                pc: BASE + 16 * (i % 4),
                kind: OpKind::FpCmp,
                dst: Some(ArchReg::FpCond),
                src1: Some(ArchReg::Fp(2)),
                src2: Some(ArchReg::Fp(4)),
            });
            trace.push(TraceOp {
                pc: BASE + 16 * (i % 4) + 4,
                kind: OpKind::Branch {
                    taken: false,
                    target: BASE,
                },
                dst: None,
                src1: Some(ArchReg::FpCond),
                src2: None,
            });
            trace.push(alu(BASE + 16 * (i % 4) + 8, 8, 9)); // delay slot
            trace.push(alu(BASE + 16 * (i % 4) + 12, 9, 8));
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert!(
            stats.stalls[StallKind::FpResult] > 200,
            "{:?}",
            stats.stalls
        );
    }

    #[test]
    fn cpi_is_at_least_half_for_dual_and_one_for_single() {
        let trace = tight_loop_trace(2000);
        let s = simulate(&cfg(MachineModel::Large, IssueWidth::Single), trace.clone());
        assert!(s.cpi() >= 1.0 - 1e-9);
        let d = simulate(&cfg(MachineModel::Large, IssueWidth::Dual), trace);
        assert!(d.cpi() >= 0.5 - 1e-9);
    }

    #[test]
    fn mark_warm_excludes_cold_start() {
        // Same loop measured cold vs after a warm-up pass: the warm CPI
        // must be lower (no compulsory misses) and hit rates near 1.
        let trace: Vec<TraceOp> = (0..4000u32)
            .map(|i| {
                if i % 5 == 0 {
                    load(BASE + 4 * (i % 16), 8, 0x2000 + 4 * (i % 512))
                } else {
                    alu(BASE + 4 * (i % 16), 9, 10)
                }
            })
            .collect();
        let c = cfg(MachineModel::Small, IssueWidth::Single);
        let cold = simulate(&c, trace.clone());

        let mut sim = Simulator::new(&c);
        for op in &trace {
            sim.feed(*op);
        }
        sim.mark_warm();
        for op in &trace {
            sim.feed(*op);
        }
        let warm = sim.finish();
        // The pairing look-ahead may carry one warm-up op across the mark.
        assert!(
            (4000..=4001).contains(&warm.instructions),
            "{}",
            warm.instructions
        );
        assert!(
            warm.cpi() < cold.cpi(),
            "warm {} cold {}",
            warm.cpi(),
            cold.cpi()
        );
        assert!(warm.dcache.hit_rate() > 0.99, "{}", warm.dcache.hit_rate());
        assert!(warm.icache.hit_rate() > 0.99);
    }

    #[test]
    fn observer_records_pairing_and_stalls() {
        let cfg = cfg(MachineModel::Baseline, IssueWidth::Dual);
        let mut sim = Simulator::new(&cfg);
        sim.enable_observer(64);
        // Independent pair, then a load and its immediate consumer.
        sim.feed(alu(BASE, 8, 9));
        sim.feed(alu(BASE + 4, 10, 11));
        sim.feed(load(BASE + 8, 12, 0x2000));
        sim.feed(alu(BASE + 12, 13, 12));
        sim.feed(alu(BASE + 16, 14, 14));
        let (stats, obs) = sim.finish_observed();
        let obs = obs.expect("observer attached");
        assert_eq!(stats.instructions, 5);
        assert_eq!(obs.dropped(), 0);
        let issues: Vec<(u64, bool)> = obs
            .events()
            .filter_map(|e| match e.kind {
                ObsEventKind::Issue { dual, .. } => Some((e.cycle, dual)),
                _ => None,
            })
            .collect();
        assert_eq!(issues.len(), 5);
        assert!(
            issues.iter().any(|&(_, dual)| dual),
            "pair should dual issue"
        );
        // At least one stall (icache cold miss or load use) is recorded.
        assert!(obs
            .events()
            .any(|e| matches!(e.kind, ObsEventKind::Stall { cycles, .. } if cycles > 0)));
        assert!(issues.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn stats_are_deterministic() {
        let trace = tight_loop_trace(5000);
        let a = simulate(
            &cfg(MachineModel::Baseline, IssueWidth::Dual),
            trace.clone(),
        );
        let b = simulate(&cfg(MachineModel::Baseline, IssueWidth::Dual), trace);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn folded_plus_unfolded_equals_taken_transfers() {
        let mut taken = 0u64;
        let mut trace = Vec::new();
        for i in 0..300u32 {
            let take = i % 3 != 0;
            if take {
                taken += 1;
            }
            trace.push(TraceOp {
                pc: BASE + 16,
                kind: OpKind::Branch {
                    taken: take,
                    target: BASE,
                },
                dst: None,
                src1: Some(ArchReg::Int(8)),
                src2: None,
            });
            trace.push(alu(BASE + 20, 8, 9)); // delay slot
            trace.push(alu(BASE, 9, 9));
            trace.push(alu(BASE + 4, 9, 9));
            trace.push(alu(BASE + 8, 9, 9));
            trace.push(alu(BASE + 12, 9, 9));
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        assert_eq!(stats.folded_branches + stats.unfolded_branches, taken);
    }

    #[test]
    fn secondary_misses_merge_into_one_fill() {
        // Two loads to the same cold line in quick succession: one BIU
        // data fill, one MSHR merge.
        let trace = vec![
            load(BASE, 8, 0x0070_0000),
            load(BASE + 4, 9, 0x0070_0004),
            alu(BASE + 8, 10, 8),
        ];
        let mut c = cfg(MachineModel::Baseline, IssueWidth::Single);
        c.prefetch_enabled = false;
        let stats = simulate(&c, trace);
        assert_eq!(stats.biu.data_fills, 1);
        assert_eq!(stats.mshr.merges, 1);
    }

    #[test]
    fn fp_store_waits_for_fpu_data() {
        // An FP divide produces f2; the store of f2 cannot commit before
        // the divide completes, which shows up as a late write-back.
        let mut trace = vec![
            TraceOp {
                pc: BASE,
                kind: OpKind::FpDiv,
                dst: Some(ArchReg::Fp(2)),
                src1: Some(ArchReg::Fp(4)),
                src2: Some(ArchReg::Fp(6)),
            },
            TraceOp {
                pc: BASE + 4,
                kind: OpKind::FpStore {
                    ea: 0x4000,
                    width: MemWidth::Double,
                },
                dst: None,
                src1: Some(ArchReg::Int(29)),
                src2: Some(ArchReg::Fp(2)),
            },
        ];
        for i in 0..8u32 {
            trace.push(alu(BASE + 8 + 4 * i, 8, 9));
        }
        let stats = simulate(&cfg(MachineModel::Baseline, IssueWidth::Single), trace);
        // The run cannot end before the divide (19 cycles) plus the store
        // hand-off, even though only 10 instructions issued.
        assert!(stats.cycles > 20, "cycles {}", stats.cycles);
    }

    #[test]
    fn uniform_latency_seed_reproducible() {
        let mut c = cfg(MachineModel::Baseline, IssueWidth::Single);
        c.memory_latency = LatencyModel::average_35();
        let trace: Vec<TraceOp> = (0..3000u32)
            .map(|i| load(BASE + 4 * (i % 16), 8, 0x0030_0000 + 512 * i))
            .collect();
        let a = simulate(&c, trace.clone());
        let b = simulate(&c, trace);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn functional_warming_fills_tags_without_detailed_cost() {
        let c = cfg(MachineModel::Baseline, IssueWidth::Single);
        let trace: Vec<TraceOp> = (0..256u32)
            .map(|i| load(BASE + 4 * (i % 128), 8, 0x0010_0000 + 64 * (i % 200)))
            .collect();
        let capture = PackedTrace::from_ops(trace.iter().copied());
        let cold = replay(&c, &capture);
        let mut sim = Simulator::new(&c);
        let digest = WarmDigest::build(capture.records(), c.line_bytes);
        sim.warm_digest(&digest, 0..capture.len());
        sim.mark_warm();
        for op in &capture {
            sim.feed(op);
        }
        let warm = sim.finish();
        assert_eq!(warm.instructions, cold.instructions);
        assert!(
            warm.icache.misses < cold.icache.misses,
            "warming must pre-fill instruction tags: {} vs {}",
            warm.icache.misses,
            cold.icache.misses
        );
        assert!(
            warm.dcache.misses < cold.dcache.misses,
            "warming must pre-fill data tags: {} vs {}",
            warm.dcache.misses,
            cold.dcache.misses
        );
        assert!(warm.cycles < cold.cycles);
    }
}
