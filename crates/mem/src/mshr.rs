//! Miss Status Holding Registers — the non-blocking cache bound (§2.3).
//!
//! An MSHR is reserved for each outstanding data-cache miss. When no MSHR
//! is free the processor stalls until one is. A machine with a single
//! MSHR cannot overlap memory operations at all, which §5.4 and Figure 7
//! show to be the single largest performance lever for small machines.

use std::fmt;

use aurora_isa::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::addr::LineAddr;

/// Counters for the MSHR file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Primary misses that allocated a new entry.
    pub allocations: u64,
    /// Secondary misses merged into an existing entry for the same line.
    pub merges: u64,
    /// Requests that found the file full and had to stall.
    pub full_stalls: u64,
    /// Peak number of simultaneously live entries.
    pub peak_occupancy: u32,
}

impl fmt::Display for MshrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocations, {} merges, {} full stalls, peak {}",
            self.allocations, self.merges, self.full_stalls, self.peak_occupancy
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    ready_at: u64,
}

/// A file of Miss Status Holding Registers.
///
/// ```
/// use aurora_mem::{LineAddr, MshrFile};
///
/// let mut mshrs = MshrFile::new(2);
/// assert!(mshrs.allocate(LineAddr(7), 100).is_some());
/// // A second miss to the same line merges instead of allocating.
/// assert_eq!(mshrs.lookup(LineAddr(7)), Some(100));
/// assert!(mshrs.allocate(LineAddr(8), 120).is_some());
/// // Full: a third distinct line cannot be tracked until one completes.
/// assert!(mshrs.allocate(LineAddr(9), 130).is_none());
/// mshrs.expire(105); // line 7's fill arrived
/// assert!(mshrs.allocate(LineAddr(9), 130).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    /// Earliest `ready_at` among live entries (`u64::MAX` when empty).
    /// Lets [`MshrFile::expire`] bail out with one comparison on the
    /// simulator's hot path instead of scanning the file every call.
    next_ready: u64,
    stats: MshrStats,
}

impl MshrFile {
    /// Creates a file of `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (every machine has at least one; a
    /// single register is exactly the blocking-cache configuration).
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0);
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_ready: u64::MAX,
            stats: MshrStats::default(),
        }
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// If `line` is already being fetched, returns the cycle its fill
    /// completes (a secondary miss merges; no new register is used).
    pub fn lookup(&mut self, line: LineAddr) -> Option<u64> {
        let hit = self.probe(line);
        if hit.is_some() {
            self.stats.merges += 1;
        }
        hit
    }

    /// Like [`MshrFile::lookup`] but non-consuming and side-effect free:
    /// no merge is counted. This is the issue-stage peek — "could this op
    /// ride an outstanding fill?" — asked before the op actually issues.
    pub fn probe(&self, line: LineAddr) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.ready_at)
    }

    /// Tries to allocate a register for a primary miss on `line` whose
    /// fill completes at `ready_at`. Returns `None` (and counts a stall)
    /// when the file is full.
    pub fn allocate(&mut self, line: LineAddr, ready_at: u64) -> Option<()> {
        if self.entries.len() == self.capacity {
            self.stats.full_stalls += 1;
            return None;
        }
        self.entries.push(Entry { line, ready_at });
        self.next_ready = self.next_ready.min(ready_at);
        self.stats.allocations += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.entries.len() as u32);
        Some(())
    }

    /// Releases every entry whose fill has completed by `now`. O(1) when
    /// nothing has completed yet (the common case on the issue path).
    pub fn expire(&mut self, now: u64) {
        if now < self.next_ready {
            return;
        }
        self.entries.retain(|e| e.ready_at > now);
        self.next_ready = self
            .entries
            .iter()
            .map(|e| e.ready_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// The earliest cycle at which any entry completes, if any are live.
    /// When the file is full, this is when the stalled requester can retry.
    pub fn earliest_completion(&self) -> Option<u64> {
        (self.next_ready != u64::MAX).then_some(self.next_ready)
    }

    /// Whether a new primary miss can be accepted right now.
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Resets statistics (keeps live entries).
    pub fn reset_stats(&mut self) {
        self.stats = MshrStats::default();
    }
}

impl Snapshot for MshrStats {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.allocations);
        w.put_u64(self.merges);
        w.put_u64(self.full_stalls);
        w.put_u32(self.peak_occupancy);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.allocations = r.u64()?;
        self.merges = r.u64()?;
        self.full_stalls = r.u64()?;
        self.peak_occupancy = r.u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_mshr_blocks() {
        let mut m = MshrFile::new(1);
        assert!(m.allocate(LineAddr(1), 50).is_some());
        assert!(m.allocate(LineAddr(2), 60).is_none());
        assert_eq!(m.stats().full_stalls, 1);
        assert_eq!(m.earliest_completion(), Some(50));
        m.expire(50);
        assert!(m.allocate(LineAddr(2), 60).is_some());
    }

    #[test]
    fn merges_do_not_consume_registers() {
        let mut m = MshrFile::new(1);
        m.allocate(LineAddr(1), 50).unwrap();
        assert_eq!(m.lookup(LineAddr(1)), Some(50));
        assert_eq!(m.lookup(LineAddr(1)), Some(50));
        assert_eq!(m.stats().merges, 2);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn expire_only_releases_completed() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr(1), 10).unwrap();
        m.allocate(LineAddr(2), 20).unwrap();
        m.expire(15);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.lookup(LineAddr(2)), Some(20));
        assert_eq!(m.lookup(LineAddr(1)), None);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr(3), 40).unwrap();
        assert_eq!(m.probe(LineAddr(3)), Some(40));
        assert_eq!(m.probe(LineAddr(3)), Some(40));
        assert_eq!(m.probe(LineAddr(9)), None);
        assert_eq!(m.stats().merges, 0, "probe must not count merges");
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn expire_early_out_keeps_earliest_exact() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr(1), 30).unwrap();
        m.allocate(LineAddr(2), 10).unwrap();
        assert_eq!(m.earliest_completion(), Some(10));
        m.expire(5); // nothing completes: early-out path
        assert_eq!(m.occupancy(), 2);
        m.expire(10);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.earliest_completion(), Some(30));
        m.expire(30);
        assert_eq!(m.earliest_completion(), None);
    }

    #[test]
    fn peak_occupancy_tracks_overlap() {
        let mut m = MshrFile::new(4);
        for i in 0..4 {
            m.allocate(LineAddr(i), 100 + i).unwrap();
        }
        assert_eq!(m.stats().peak_occupancy, 4);
    }

    proptest! {
        /// Occupancy never exceeds capacity, and allocations minus expiries
        /// always equals live occupancy.
        #[test]
        fn occupancy_invariant(
            ops in proptest::collection::vec((0u64..32, 1u64..100), 1..200),
            cap in 1usize..5,
        ) {
            let mut m = MshrFile::new(cap);
            let mut now = 0u64;
            for (line, dur) in ops {
                now += 1;
                m.expire(now);
                if m.lookup(LineAddr(line)).is_none() {
                    let _ = m.allocate(LineAddr(line), now + dur);
                }
                prop_assert!(m.occupancy() <= cap);
            }
        }
    }
}
