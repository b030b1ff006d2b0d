//! A small in-order-retirement reorder buffer model used by both the IPU
//! and the FPU (paper §2.1, §3.1; Smith & Pleszkun [13]).

use std::collections::VecDeque;

/// Tracks reorder-buffer occupancy for a timing model.
///
/// Entries are pushed at issue with their *completion* cycle. Retirement
/// is in order: an entry leaves at `max(its completion, the previous
/// entry's retirement)` — a long-latency instruction therefore holds up
/// everything behind it, which is exactly how a full ROB stalls issue.
///
/// ```
/// use aurora_core::ReorderBuffer;
///
/// let mut rob = ReorderBuffer::new(2);
/// rob.drain(0);
/// assert!(rob.try_push(10)); // completes at cycle 10
/// assert!(rob.try_push(5));  // completes at 5 but retires at 10 (in order)
/// assert!(!rob.try_push(7)); // full
/// assert_eq!(rob.next_free_at(), Some(10));
/// rob.drain(10);
/// assert!(rob.try_push(12));
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    entries: VecDeque<u64>,
    capacity: usize,
    last_retire: u64,
    peak: usize,
}

impl ReorderBuffer {
    /// Creates a reorder buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReorderBuffer {
        assert!(capacity > 0);
        ReorderBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            last_retire: 0,
            peak: 0,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Highest occupancy ever observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Retires every entry whose in-order retirement time is `<= now`.
    pub fn drain(&mut self, now: u64) {
        while let Some(&front) = self.entries.front() {
            let retire_at = front.max(self.last_retire);
            if retire_at <= now {
                self.last_retire = retire_at;
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Pushes an entry completing at `completes_at`; fails when full.
    pub fn try_push(&mut self, completes_at: u64) -> bool {
        if self.entries.len() == self.capacity {
            return false;
        }
        self.entries.push_back(completes_at);
        self.peak = self.peak.max(self.entries.len());
        true
    }

    /// When the oldest entry will retire (freeing a slot), if any are live.
    pub fn next_free_at(&self) -> Option<u64> {
        self.entries
            .front()
            .map(|&front| front.max(self.last_retire))
    }

    /// Whether a push would currently succeed.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// The in-order retirement time of the most recently retired entry.
    pub fn last_retire(&self) -> u64 {
        self.last_retire
    }

    /// In-order completion time of the youngest entry (when everything
    /// currently in flight has retired).
    pub fn drained_at(&self) -> u64 {
        self.entries
            .iter()
            .fold(self.last_retire, |acc, &c| acc.max(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_order_retirement_blocks_on_slow_head() {
        let mut rob = ReorderBuffer::new(3);
        rob.try_push(100); // slow load at the head
        rob.try_push(5);
        rob.try_push(6);
        rob.drain(50);
        // Nothing retires: the head completes at 100.
        assert_eq!(rob.occupancy(), 3);
        rob.drain(100);
        assert_eq!(rob.occupancy(), 0);
        assert_eq!(rob.last_retire(), 100);
    }

    #[test]
    fn next_free_reflects_head() {
        let mut rob = ReorderBuffer::new(1);
        rob.try_push(42);
        assert_eq!(rob.next_free_at(), Some(42));
        assert!(!rob.has_space());
        rob.drain(42);
        assert!(rob.has_space());
        assert_eq!(rob.next_free_at(), None);
    }

    #[test]
    fn drained_at_accounts_for_order() {
        let mut rob = ReorderBuffer::new(4);
        rob.try_push(10);
        rob.try_push(4);
        assert_eq!(rob.drained_at(), 10);
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut rob = ReorderBuffer::new(4);
        rob.try_push(1);
        rob.try_push(2);
        rob.drain(2);
        rob.try_push(3);
        assert_eq!(rob.peak_occupancy(), 2);
    }

    proptest! {
        /// Retirement times are monotonically non-decreasing regardless of
        /// completion order, and occupancy never exceeds capacity.
        #[test]
        fn retire_monotone(completions in proptest::collection::vec(0u64..100, 1..50)) {
            let mut rob = ReorderBuffer::new(4);
            let mut now = 0;
            let mut last = 0;
            for c in completions {
                now += 1;
                rob.drain(now);
                if !rob.try_push(c.max(now)) {
                    let free = rob.next_free_at().unwrap();
                    prop_assert!(free > now);
                    rob.drain(free);
                    prop_assert!(rob.try_push(c.max(now)));
                    now = free;
                }
                prop_assert!(rob.occupancy() <= 4);
                prop_assert!(rob.last_retire() >= last);
                last = rob.last_retire();
            }
        }
    }
}
