//! Cycle-level observability: stall-cause attribution, a preallocated
//! event ring, latency/occupancy histograms, and a Chrome/Perfetto trace
//! exporter.
//!
//! The simulator's [`SimStats`](crate::SimStats) counters answer *how
//! many* cycles were lost per coarse [`StallKind`]; this module answers
//! *why and when*. When [`Simulator::enable_observer`](crate::Simulator)
//! is called, the simulator attaches an [`Observer`] and records one
//! [`ObsEvent`] at every interesting micro-architectural moment: fetch,
//! issue, retire, I-/D-cache miss service, MSHR allocation and release,
//! write-cache coalescing, FPU queue occupancy — and, crucially, every
//! front-end stall, attributed to exactly one [`StallCause`].
//!
//! # The stall-cause taxonomy
//!
//! Stalls are charged to the *binding constraint*: the unit whose ready
//! time is the latest is the one the front end is actually waiting on,
//! and the whole stall region is attributed to it (the precedence rule —
//! on a tie, the earlier-gathered constraint wins; see
//! `docs/OBSERVABILITY.md`). The taxonomy refines the paper's Figure 6
//! categories without changing them: [`StallCause::kind`] is a total map
//! onto [`StallKind`], and the per-cause cycle counts kept by the
//! observer sum *exactly* to the counter-based breakdown — an invariant
//! the test suite asserts across every kernel, model and issue width.
//!
//! The ring buffer is fixed-size and allocation-free after construction
//! (the record path is declared hot and checked by `aurora-lint`
//! L001/L002): when it fills, the oldest event is overwritten and
//! [`Observer::dropped`] counts the loss. The aggregate stall counters
//! and histograms are updated on every record and never drop anything,
//! so attribution totals are exact even when the ring wraps.
//!
//! # Exporting a trace
//!
//! [`Observer::chrome_trace_json`] renders the ring as Chrome
//! trace-event JSON loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>: stalls and miss services become duration
//! (`"X"`) slices on per-unit tracks, queue depths become counter
//! (`"C"`) tracks. The document is a [`Json`] value printed by the
//! workspace's one JSON writer (`aurora-json`).

use std::fmt;

use aurora_json::{obj, Json};

use crate::stats::{StallBreakdown, StallKind};

/// The usual event-ring capacity for
/// [`Simulator::enable_observer`](crate::Simulator::enable_observer).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Histogram bucket count: values 0–63 map to their own bucket, larger
/// values share the final overflow bucket.
const HIST_BUCKETS: usize = 65;

/// The fine-grained cause a stalled issue slot is attributed to.
///
/// Every non-issued front-end slot is charged to exactly one cause — the
/// binding constraint of the would-be issue cycle. The first eight
/// causes are the observability taxonomy proper; `FpuSyncQueue` /
/// `FpuSyncResult` split the paper's single "FPU synchronisation" idea
/// into its two distinct mechanisms (waiting for queue space vs. waiting
/// for a result), because they map to different Figure 6 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Waiting for the instruction fetch: I-cache miss service.
    Icache,
    /// Fetch bubble from a taken control transfer that could not be
    /// folded (no pre-decoded NEXT target, or folding disabled).
    Branch,
    /// A load's result was referenced before the LSU delivered it.
    DcacheLoad,
    /// The LSU data port was busy: a store occupying the pipe, a line
    /// fill on the data busses, or a backed-up FP load queue.
    DcacheStoreBufferFull,
    /// Every miss status holding register was in use and the access
    /// could not merge into an outstanding fill.
    MshrFull,
    /// Scoreboard interlock on a non-load integer producer (ALU
    /// forwarding, HI/LO multiply/divide results).
    RawDep,
    /// Structural hazard: the reorder buffer was full.
    Structural,
    /// FPU synchronisation: the instruction or store-data queue into the
    /// decoupled FPU was full.
    FpuSyncQueue,
    /// FPU synchronisation: waiting for an FPU result on the IPU side
    /// (`mfc1` data, FP condition code for a branch).
    FpuSyncResult,
}

impl StallCause {
    /// All causes, coarse Figure 6 grouping order first.
    pub const ALL: [StallCause; 9] = [
        StallCause::Icache,
        StallCause::Branch,
        StallCause::DcacheLoad,
        StallCause::DcacheStoreBufferFull,
        StallCause::MshrFull,
        StallCause::RawDep,
        StallCause::Structural,
        StallCause::FpuSyncQueue,
        StallCause::FpuSyncResult,
    ];

    /// Short kebab-case label used in reports and trace names.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Icache => "icache",
            StallCause::Branch => "branch",
            StallCause::DcacheLoad => "dcache-load",
            StallCause::DcacheStoreBufferFull => "dcache-store-buffer-full",
            StallCause::MshrFull => "mshr-full",
            StallCause::RawDep => "raw-dep",
            StallCause::Structural => "structural",
            StallCause::FpuSyncQueue => "fpu-sync-queue",
            StallCause::FpuSyncResult => "fpu-sync-result",
        }
    }

    /// The coarse [`StallKind`] counter this cause is accounted under.
    ///
    /// This map is total and fixed: the counter-based breakdown in
    /// [`SimStats`](crate::SimStats) is *derived from the same charge
    /// sites*, so summing observer causes through this map reproduces
    /// the counters bit for bit (asserted by the attribution tests).
    pub fn kind(self) -> StallKind {
        match self {
            StallCause::Icache | StallCause::Branch => StallKind::ICache,
            StallCause::DcacheLoad => StallKind::Load,
            StallCause::DcacheStoreBufferFull | StallCause::MshrFull => StallKind::LsuBusy,
            StallCause::RawDep => StallKind::Interlock,
            StallCause::Structural => StallKind::RobFull,
            StallCause::FpuSyncQueue => StallKind::FpQueue,
            StallCause::FpuSyncResult => StallKind::FpResult,
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            StallCause::Icache => 0,
            StallCause::Branch => 1,
            StallCause::DcacheLoad => 2,
            StallCause::DcacheStoreBufferFull => 3,
            StallCause::MshrFull => 4,
            StallCause::RawDep => 5,
            StallCause::Structural => 6,
            StallCause::FpuSyncQueue => 7,
            StallCause::FpuSyncResult => 8,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened at an [`ObsEvent`]'s cycle.
///
/// Span-like occurrences (miss service, MSHR residency, stalls) carry
/// their duration so one record captures both the start and the end;
/// such records are stamped at the span's *start* cycle except
/// [`ObsEventKind::MshrFree`], which is stamped at release (its `held`
/// field points back to the allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A new aligned pair was requested from the fetch unit.
    Fetch {
        /// Address of the first instruction fetched.
        pc: u64,
    },
    /// An instruction left the issue stage.
    Issue {
        /// The instruction's address.
        pc: u32,
        /// Whether it issued as the second member of a dual pair.
        dual: bool,
    },
    /// An integer-side instruction retired from the reorder buffer
    /// (stamped at its completion cycle, which may lie in the future of
    /// the record that produced it).
    Retire,
    /// The front end stalled for `cycles`, attributed to `cause`.
    Stall {
        /// The binding constraint.
        cause: StallCause,
        /// Length of the stall region in cycles.
        cycles: u64,
    },
    /// An instruction-cache miss began service; the fill lands
    /// `latency` cycles later.
    IcacheMiss {
        /// Service time in cycles (miss start to line on chip).
        latency: u64,
    },
    /// A data-cache primary miss began service; the fill lands
    /// `latency` cycles later.
    DcacheMiss {
        /// Service time in cycles (miss start to fill arrival).
        latency: u64,
    },
    /// A miss status holding register was allocated.
    MshrAlloc {
        /// Live entries after the allocation.
        occupancy: u64,
    },
    /// A miss status holding register is released at this cycle.
    MshrFree {
        /// How long the register was held.
        held: u64,
    },
    /// A store coalesced into an existing write-cache line.
    WriteCacheMerge,
    /// An FP instruction entered the FPU instruction queue.
    FpQueueDepth {
        /// Queue occupancy just after dispatch.
        depth: u64,
    },
}

/// One timestamped entry of the observer's event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulation cycle the event is stamped at.
    pub cycle: u64,
    /// What happened.
    pub kind: ObsEventKind,
}

/// A fixed-bucket latency/occupancy histogram.
///
/// Values 0–63 each get their own bucket; anything larger lands in a
/// shared overflow bucket (the exact maximum is still tracked). Both
/// recording and querying are allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (value as usize).min(HIST_BUCKETS - 1);
        if let Some(slot) = self.buckets.get_mut(bucket) {
            *slot += 1;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The smallest value `v` such that at least `p` (0.0–1.0) of the
    /// samples are `<= v`. Samples in the overflow bucket report the
    /// recorded maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= threshold.max(1) {
                return if i == HIST_BUCKETS - 1 {
                    self.max
                } else {
                    i as u64
                };
            }
        }
        self.max
    }

    /// Iterates over `(value, count)` for non-empty exact buckets, then
    /// a final `(max, count)` entry for the overflow bucket if occupied.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter_map(|(i, &n)| {
            (n > 0).then_some(if i == HIST_BUCKETS - 1 {
                (self.max, n)
            } else {
                (i as u64, n)
            })
        })
    }
}

/// The cycle-event recorder attached to a
/// [`Simulator`](crate::Simulator).
///
/// Holds a preallocated drop-oldest ring of [`ObsEvent`]s plus exact
/// aggregates that never drop: per-[`StallCause`] cycle counters and
/// three histograms (D-cache miss latency, MSHR residency, FPU
/// instruction-queue depth). Retrieve it with
/// [`Simulator::finish_observed`](crate::Simulator::finish_observed) or
/// inspect it mid-run via
/// [`Simulator::observer`](crate::Simulator::observer).
#[derive(Debug, Clone)]
pub struct Observer {
    ring: Vec<ObsEvent>,
    /// Index of the oldest live entry.
    head: usize,
    /// Live entries (<= ring.len()).
    len: usize,
    dropped: u64,
    stall_cycles: [u64; 9],
    dmiss_latency: Histogram,
    mshr_residency: Histogram,
    fpq_depth: Histogram,
}

impl Observer {
    /// Creates an observer with a ring of `capacity` events (at least 1),
    /// fully preallocated: recording never allocates.
    pub fn new(capacity: usize) -> Observer {
        let capacity = capacity.max(1);
        Observer {
            ring: vec![
                ObsEvent {
                    cycle: 0,
                    kind: ObsEventKind::Retire,
                };
                capacity
            ],
            head: 0,
            len: 0,
            dropped: 0,
            stall_cycles: [0; 9],
            dmiss_latency: Histogram::default(),
            mshr_residency: Histogram::default(),
            fpq_depth: Histogram::default(),
        }
    }

    /// Records a batch of events in order, updating the exact aggregates
    /// and overwriting the oldest ring entry when full: allocation- and
    /// panic-free by construction. The simulator stages events in a
    /// small fixed array inside its issue loop and flushes it here once
    /// per issue group, so the cold outlined call (and its
    /// branch-predictor miss) is paid per group, not per event.
    ///
    /// Never inlined: the simulator's issue loop tests for an attached
    /// observer before staging anything, and outlining keeps the
    /// disabled path's code footprint at a null test instead of a
    /// ring-write body per flush site (the unobserved throughput budget
    /// is ≤2%).
    #[cold]
    #[inline(never)]
    pub fn record_batch(&mut self, events: &[ObsEvent]) {
        for e in events {
            self.record_one(e.cycle, e.kind);
        }
    }

    #[inline]
    fn record_one(&mut self, cycle: u64, kind: ObsEventKind) {
        match kind {
            ObsEventKind::Stall { cause, cycles } => {
                if let Some(slot) = self.stall_cycles.get_mut(cause.index()) {
                    *slot = slot.saturating_add(cycles);
                }
            }
            ObsEventKind::DcacheMiss { latency } => self.dmiss_latency.record(latency),
            ObsEventKind::MshrFree { held } => self.mshr_residency.record(held),
            ObsEventKind::FpQueueDepth { depth } => self.fpq_depth.record(depth),
            _ => {}
        }
        let cap = self.ring.len();
        let idx = if self.len < cap {
            let i = self.head + self.len;
            self.len += 1;
            if i >= cap {
                i - cap
            } else {
                i
            }
        } else {
            let i = self.head;
            self.head += 1;
            if self.head >= cap {
                self.head = 0;
            }
            self.dropped += 1;
            i
        };
        if let Some(slot) = self.ring.get_mut(idx) {
            *slot = ObsEvent { cycle, kind };
        }
    }

    /// Live events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> + '_ {
        let cap = self.ring.len();
        (0..self.len).filter_map(move |i| self.ring.get((self.head + i) % cap))
    }

    /// Number of live events in the ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Events overwritten because the ring was full. The aggregate stall
    /// counters and histograms are unaffected by drops.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stall cycles attributed to one cause.
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.stall_cycles.get(cause.index()).copied().unwrap_or(0)
    }

    /// Total stall cycles across all causes. Equals
    /// `SimStats::stalls.total()` for the same run — the attribution-sum
    /// invariant.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// The per-cause counters folded onto the coarse [`StallKind`]
    /// categories via [`StallCause::kind`]. Bit-identical to the
    /// counter-based `SimStats::stalls` of the same run.
    pub fn stalls_by_kind(&self) -> StallBreakdown {
        let mut out = StallBreakdown::default();
        for cause in StallCause::ALL {
            out[cause.kind()] += self.stall_cycles(cause);
        }
        out
    }

    /// Iterates `(cause, cycles)` over all causes, taxonomy order.
    pub fn stall_breakdown(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL
            .into_iter()
            .map(|c| (c, self.stall_cycles(c)))
    }

    /// Data-cache primary-miss service latency distribution.
    pub fn dmiss_latency(&self) -> &Histogram {
        &self.dmiss_latency
    }

    /// MSHR residency (allocation to release) distribution.
    pub fn mshr_residency(&self) -> &Histogram {
        &self.mshr_residency
    }

    /// FPU instruction-queue occupancy sampled at each dispatch.
    pub fn fpq_depth(&self) -> &Histogram {
        &self.fpq_depth
    }

    /// Clears all events and aggregates, keeping the allocation. Used by
    /// `mark_warm` so warm measurements see only post-warm-up events.
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        self.stall_cycles = [0; 9];
        self.dmiss_latency = Histogram::default();
        self.mshr_residency = Histogram::default();
        self.fpq_depth = Histogram::default();
    }

    /// Renders the ring as Chrome trace-event JSON, loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Cycles map 1:1 onto microsecond timestamps (`ts`), so one
    /// trace-viewer microsecond is one machine cycle. Per-unit activity
    /// appears as named threads: stalls and issues on the `issue` track,
    /// miss services on the `icache`/`dcache` tracks, MSHR residency
    /// spans on `mshr`, write-cache merges on `write-cache`, and queue
    /// occupancy as counter tracks.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::with_capacity(self.len + 6);
        for (tid, name) in [
            (0, "issue"),
            (1, "icache"),
            (2, "dcache"),
            (3, "mshr"),
            (4, "write-cache"),
            (5, "fpu"),
        ] {
            events.push(obj([
                ("ph", string("M")),
                ("pid", num(1)),
                ("tid", num(tid)),
                ("name", string("thread_name")),
                ("args", obj([("name", string(name))])),
            ]));
        }
        for ev in self.events() {
            let ts = ev.cycle;
            let instant =
                |tid, name, args| trace_event("i", tid, ts, name, args, Some(("s", string("t"))));
            let slice = |tid, start, dur, name: &str| {
                trace_event("X", tid, start, name, obj([]), Some(("dur", num(dur))))
            };
            let counter = |tid, name, args| trace_event("C", tid, ts, name, args, None);
            events.push(match ev.kind {
                ObsEventKind::Fetch { pc } => instant(0, "fetch", obj([("pc", num(pc))])),
                ObsEventKind::Issue { pc, dual } => instant(
                    0,
                    "issue",
                    obj([("pc", num(u64::from(pc))), ("dual", Json::Bool(dual))]),
                ),
                ObsEventKind::Retire => instant(0, "retire", obj([])),
                ObsEventKind::Stall { cause, cycles } => {
                    slice(0, ts, cycles, &format!("stall:{}", cause.label()))
                }
                ObsEventKind::IcacheMiss { latency } => slice(1, ts, latency, "imiss"),
                ObsEventKind::DcacheMiss { latency } => slice(2, ts, latency, "dmiss"),
                ObsEventKind::MshrAlloc { occupancy } => {
                    counter(3, "mshr_occupancy", obj([("live", num(occupancy))]))
                }
                ObsEventKind::MshrFree { held } => slice(3, ts.saturating_sub(held), held, "mshr"),
                ObsEventKind::WriteCacheMerge => instant(4, "wc-merge", obj([])),
                ObsEventKind::FpQueueDepth { depth } => {
                    counter(5, "fpu_iq_depth", obj([("depth", num(depth))]))
                }
            });
        }
        obj([
            ("displayTimeUnit", string("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
        .to_string()
    }
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn string(s: &str) -> Json {
    Json::Str(s.to_owned())
}

/// One trace event of phase `ph` on track `tid` at cycle `ts`, plus the
/// phase's own member: an instant's scope `s` or a slice's `dur`.
fn trace_event(
    ph: &str,
    tid: u64,
    ts: u64,
    name: &str,
    args: Json,
    extra: Option<(&str, Json)>,
) -> Json {
    let members = [
        ("ph", string(ph)),
        ("pid", num(1)),
        ("tid", num(tid)),
        ("ts", num(ts)),
        ("name", string(name)),
        ("args", args),
    ];
    Json::Obj(
        members
            .into_iter()
            .chain(extra)
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: ObsEventKind) -> ObsEvent {
        ObsEvent { cycle, kind }
    }

    #[test]
    fn cause_kind_map_is_total_and_onto() {
        // Every coarse kind is reachable from at least one cause.
        for kind in StallKind::ALL {
            assert!(
                StallCause::ALL.iter().any(|c| c.kind() == kind),
                "{kind} unreachable from the cause taxonomy"
            );
        }
        // Indices are unique and dense.
        let mut seen = [false; 9];
        for c in StallCause::ALL {
            assert!(!seen[c.index()], "{c} index duplicated");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let mut o = Observer::new(4);
        let fetches: Vec<ObsEvent> = (0..10u64)
            .map(|i| ev(i, ObsEventKind::Fetch { pc: i }))
            .collect();
        o.record_batch(&fetches);
        assert_eq!(o.len(), 4);
        assert_eq!(o.capacity(), 4);
        assert_eq!(o.dropped(), 6);
        let cycles: Vec<u64> = o.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "newest four survive, in order");
    }

    #[test]
    fn aggregates_survive_ring_drops() {
        let mut o = Observer::new(2);
        for i in 0..100u64 {
            o.record_batch(&[ev(
                i,
                ObsEventKind::Stall {
                    cause: StallCause::DcacheLoad,
                    cycles: 3,
                },
            )]);
        }
        assert_eq!(o.len(), 2);
        assert_eq!(o.stall_cycles(StallCause::DcacheLoad), 300);
        assert_eq!(o.total_stall_cycles(), 300);
        assert_eq!(o.stalls_by_kind()[StallKind::Load], 300);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.6).abs() < 1e-9);
        assert_eq!(h.percentile(0.5), 2);
        assert_eq!(h.percentile(1.0), 100, "overflow bucket reports max");
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (2, 2), (3, 1), (100, 1)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut o = Observer::new(8);
        o.record_batch(&[
            ev(5, ObsEventKind::DcacheMiss { latency: 20 }),
            ev(
                6,
                ObsEventKind::Stall {
                    cause: StallCause::Icache,
                    cycles: 4,
                },
            ),
        ]);
        o.reset();
        assert!(o.is_empty());
        assert_eq!(o.total_stall_cycles(), 0);
        assert_eq!(o.dmiss_latency().count(), 0);
        assert_eq!(o.dropped(), 0);
    }

    #[test]
    fn json_mentions_every_track() {
        let mut o = Observer::new(16);
        o.record_batch(&[
            ev(0, ObsEventKind::Fetch { pc: 64 }),
            ev(1, ObsEventKind::IcacheMiss { latency: 17 }),
            ev(
                2,
                ObsEventKind::Stall {
                    cause: StallCause::MshrFull,
                    cycles: 5,
                },
            ),
            ev(3, ObsEventKind::MshrAlloc { occupancy: 1 }),
            ev(9, ObsEventKind::MshrFree { held: 6 }),
            ev(4, ObsEventKind::WriteCacheMerge),
            ev(5, ObsEventKind::FpQueueDepth { depth: 2 }),
        ]);
        let json = Json::parse(&o.chrome_trace_json()).expect("trace parses");
        assert_eq!(
            json.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 6 + 7, "six track names plus every event");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for needle in [
            "stall:mshr-full",
            "imiss",
            "mshr_occupancy",
            "mshr",
            "wc-merge",
            "fpu_iq_depth",
            "thread_name",
        ] {
            assert!(names.contains(&needle), "missing {needle} in {names:?}");
        }
        // The MSHR span reaches back from its release to its allocation.
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("mshr"))
            .unwrap();
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(3));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(6));
    }
}
