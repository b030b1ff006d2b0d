//! Jouppi-style sequential prefetch stream buffers (§2.2).
//!
//! On each cache miss that also misses in every stream buffer, a buffer is
//! allocated (LRU victim) and initialised to fetch the *next* sequential
//! line. The allocation fetch is a single line; once a later miss hits in
//! a buffer, the buffer deepens, fetching sequential lines until full.
//!
//! The Aurora III shares one set of buffers between the instruction and
//! data streams, which is what makes the two-buffer small model thrash
//! (§5.2).

use std::fmt;

use aurora_isa::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::addr::LineAddr;

/// Result of probing the stream buffers on a primary-cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamProbe {
    /// The line was found in a buffer; it becomes available at `ready_at`
    /// (already in the past if the prefetch completed earlier).
    Hit {
        /// Cycle at which the line's data is on chip.
        ready_at: u64,
    },
    /// No buffer holds the line.
    Miss,
}

/// Counters for the stream buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Probes made (each is a primary-cache miss).
    pub probes: u64,
    /// Probes that hit a buffer.
    pub hits: u64,
    /// Prefetch line requests issued to the BIU.
    pub prefetches_issued: u64,
    /// Buffers reallocated to a new stream.
    pub allocations: u64,
}

impl StreamStats {
    /// Prefetch hit rate over probes (the paper's Tables 3 and 4 metric:
    /// fraction of primary-cache misses that hit a stream buffer).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} probes, {} hits ({:.2}%), {} prefetches, {} allocations",
            self.probes,
            self.hits,
            100.0 * self.hit_rate(),
            self.prefetches_issued,
            self.allocations
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Request issued; data arrives at the contained cycle.
    Arriving(u64),
}

#[derive(Debug, Clone)]
struct Buffer {
    /// Queue of prefetched lines, head first. Sequential from head.
    slots: Vec<(LineAddr, SlotState)>,
    /// Next sequential line this stream would fetch.
    next_line: LineAddr,
    /// LRU timestamp.
    last_used: u64,
    /// Whether the stream has proven useful (hit at least once); useful
    /// streams deepen to full depth.
    deepened: bool,
}

/// A set of associative prefetch stream buffers.
///
/// A full miss reallocates buffers **round-robin** — with few buffers and
/// interleaved instruction/data miss streams the buffers destroy each
/// other, which is exactly the two-buffer thrashing §5.2 blames for the
/// small model's poor prefetch payoff.
///
/// Timing is co-operative: the caller (the simulator's prefetch unit)
/// supplies a callback that issues a line fetch on the BIU and returns its
/// completion cycle.
///
/// ```
/// use aurora_mem::{StreamBuffers, StreamProbe};
/// use aurora_mem::LineAddr;
///
/// let mut sb = StreamBuffers::new(2, 4);
/// // Miss on line 10: nothing buffered yet, allocate a stream at line 11.
/// assert_eq!(sb.probe(LineAddr(10), 0), StreamProbe::Miss);
/// sb.allocate(LineAddr(10), 0, |_line| 20); // fetch completes at cycle 20
/// // The next sequential miss hits the buffer.
/// match sb.probe(LineAddr(11), 25) {
///     StreamProbe::Hit { ready_at } => assert_eq!(ready_at, 20),
///     StreamProbe::Miss => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StreamBuffers {
    buffers: Vec<Buffer>,
    depth: usize,
    clock: u64,
    next_victim: usize,
    stats: StreamStats,
}

impl StreamBuffers {
    /// Creates `count` buffers of `depth` lines each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(count: usize, depth: usize) -> StreamBuffers {
        assert!(count > 0 && depth > 0);
        StreamBuffers {
            buffers: Vec::with_capacity(count),
            depth,
            clock: 0,
            next_victim: 0,
            stats: StreamStats::default(),
        }
        .with_capacity_slots(count)
    }

    fn with_capacity_slots(mut self, count: usize) -> StreamBuffers {
        for _ in 0..count {
            self.buffers.push(Buffer {
                slots: Vec::new(),
                next_line: LineAddr(0),
                last_used: 0,
                deepened: false,
            });
        }
        self
    }

    /// Number of buffers.
    pub fn count(&self) -> usize {
        self.buffers.len()
    }

    /// Lines per buffer.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Probes all buffer heads for `line` after a primary-cache miss.
    ///
    /// On a hit the line is consumed from its buffer (it is being moved
    /// into the primary cache); call [`StreamBuffers::deepen`] afterwards
    /// to issue the follow-on prefetches.
    pub fn probe(&mut self, line: LineAddr, now: u64) -> StreamProbe {
        self.stats.probes += 1;
        self.clock += 1;
        for buf in &mut self.buffers {
            if let Some(&(head, SlotState::Arriving(at))) = buf.slots.first() {
                if head == line {
                    buf.slots.remove(0);
                    buf.last_used = self.clock;
                    buf.deepened = true;
                    self.stats.hits += 1;
                    let _ = now;
                    return StreamProbe::Hit { ready_at: at };
                }
            }
        }
        StreamProbe::Miss
    }

    /// Allocates a buffer for a new stream after a full miss on `line`.
    ///
    /// The next buffer in round-robin order is reassigned to fetch
    /// `line + 1`; `issue` is called with each line to prefetch and must
    /// return the cycle at which the fetch completes. A fresh allocation
    /// fetches a single line (§2.2).
    pub fn allocate(&mut self, line: LineAddr, _now: u64, mut issue: impl FnMut(LineAddr) -> u64) {
        self.clock += 1;
        self.stats.allocations += 1;
        let clock = self.clock;
        let victim = self.next_victim;
        self.next_victim = (self.next_victim + 1) % self.buffers.len();
        // The modulo above keeps the round-robin cursor in range.
        let Some(buf) = self.buffers.get_mut(victim) else {
            return;
        };
        buf.slots.clear();
        buf.deepened = false;
        buf.last_used = clock;
        let first = line.next();
        let done = issue(first);
        self.stats.prefetches_issued += 1;
        buf.slots.push((first, SlotState::Arriving(done)));
        buf.next_line = first.next();
    }

    /// Deepens the most recently hit stream: issues sequential prefetches
    /// until the buffer holds `depth` lines. Call after a successful
    /// [`StreamBuffers::probe`].
    pub fn deepen(&mut self, mut issue: impl FnMut(LineAddr) -> u64) {
        let depth = self.depth;
        let Some(buf) = self
            .buffers
            .iter_mut()
            .filter(|b| b.deepened)
            .max_by_key(|b| b.last_used)
        else {
            return;
        };
        while buf.slots.len() < depth {
            let line = buf.next_line;
            let done = issue(line);
            self.stats.prefetches_issued += 1;
            buf.slots.push((line, SlotState::Arriving(done)));
            buf.next_line = line.next();
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Resets statistics (keeps buffer contents).
    pub fn reset_stats(&mut self) {
        self.stats = StreamStats::default();
    }
}

impl Snapshot for StreamStats {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.probes);
        w.put_u64(self.hits);
        w.put_u64(self.prefetches_issued);
        w.put_u64(self.allocations);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.probes = r.u64()?;
        self.hits = r.u64()?;
        self.prefetches_issued = r.u64()?;
        self.allocations = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue_at(cycle: u64) -> impl FnMut(LineAddr) -> u64 {
        move |_| cycle
    }

    #[test]
    fn fresh_allocation_fetches_one_line() {
        let mut sb = StreamBuffers::new(2, 4);
        sb.allocate(LineAddr(100), 0, issue_at(10));
        assert_eq!(sb.stats().prefetches_issued, 1);
        // Line 101 is buffered; 102 is not (not yet deepened).
        assert!(matches!(
            sb.probe(LineAddr(101), 20),
            StreamProbe::Hit { ready_at: 10 }
        ));
        assert_eq!(sb.probe(LineAddr(102), 20), StreamProbe::Miss);
    }

    #[test]
    fn hit_then_deepen_fills_buffer() {
        let mut sb = StreamBuffers::new(1, 4);
        sb.allocate(LineAddr(100), 0, issue_at(5));
        assert!(matches!(
            sb.probe(LineAddr(101), 6),
            StreamProbe::Hit { .. }
        ));
        sb.deepen(issue_at(30));
        // 102, 103, 104, 105 now queued (4 deep).
        assert_eq!(sb.stats().prefetches_issued, 5);
        for l in 102..=105 {
            assert!(
                matches!(sb.probe(LineAddr(l), 40), StreamProbe::Hit { .. }),
                "line {l}"
            );
            sb.deepen(issue_at(50));
        }
    }

    #[test]
    fn ready_at_accounts_for_late_arrival() {
        let mut sb = StreamBuffers::new(1, 2);
        sb.allocate(LineAddr(0), 0, issue_at(100));
        // Probe at cycle 3, data arrives at 100: ready_at is 100.
        match sb.probe(LineAddr(1), 3) {
            StreamProbe::Hit { ready_at } => assert_eq!(ready_at, 100),
            StreamProbe::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn round_robin_allocation_cycles_buffers() {
        let mut sb = StreamBuffers::new(2, 2);
        sb.allocate(LineAddr(100), 0, issue_at(1)); // buffer 0: stream A
        sb.allocate(LineAddr(200), 0, issue_at(1)); // buffer 1: stream B
                                                    // A third stream reclaims buffer 0 even though A just hit — the
                                                    // thrashing behaviour of §5.2.
        assert!(matches!(
            sb.probe(LineAddr(101), 5),
            StreamProbe::Hit { .. }
        ));
        sb.allocate(LineAddr(300), 0, issue_at(1)); // replaces A's buffer
        sb.allocate(LineAddr(400), 0, issue_at(1)); // replaces B
        assert_eq!(sb.probe(LineAddr(201), 10), StreamProbe::Miss);
        assert!(matches!(
            sb.probe(LineAddr(301), 10),
            StreamProbe::Hit { .. }
        ));
        assert!(matches!(
            sb.probe(LineAddr(401), 10),
            StreamProbe::Hit { .. }
        ));
    }

    #[test]
    fn two_buffers_thrash_under_interleaved_streams() {
        // Three interleaved streams over two buffers: the paper's small
        // model pathology. After the warm-up allocation, sustained hits are
        // impossible for at least one stream.
        let mut sb = StreamBuffers::new(2, 4);
        let mut hits = 0;
        let mut probes = 0;
        for step in 0..60u64 {
            for (s, base) in [(0u64, 1000u64), (1, 2000), (2, 3000)] {
                let line = LineAddr(base + step);
                probes += 1;
                match sb.probe(line, step) {
                    StreamProbe::Hit { .. } => {
                        hits += 1;
                        sb.deepen(issue_at(step));
                    }
                    StreamProbe::Miss => sb.allocate(line, step, issue_at(step)),
                }
                let _ = s;
            }
        }
        // With 2 buffers and 3 streams, at most two streams can ever hit.
        assert!(hits as f64 / probes as f64 <= 0.67, "{hits}/{probes}");
    }

    #[test]
    fn four_buffers_capture_three_streams() {
        let mut sb = StreamBuffers::new(4, 4);
        let mut hits = 0;
        let mut probes = 0;
        for step in 0..60u64 {
            for base in [1000u64, 2000, 3000] {
                let line = LineAddr(base + step);
                probes += 1;
                match sb.probe(line, step) {
                    StreamProbe::Hit { .. } => {
                        hits += 1;
                        sb.deepen(issue_at(step));
                    }
                    StreamProbe::Miss => sb.allocate(line, step, issue_at(step)),
                }
            }
        }
        assert!(hits as f64 / probes as f64 > 0.9, "{hits}/{probes}");
    }

    #[test]
    fn stats_hit_rate() {
        let mut sb = StreamBuffers::new(1, 2);
        sb.allocate(LineAddr(0), 0, issue_at(0));
        let _ = sb.probe(LineAddr(1), 1); // hit
        let _ = sb.probe(LineAddr(9), 1); // miss
        assert!((sb.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
