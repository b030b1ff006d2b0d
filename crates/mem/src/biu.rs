//! The Bus Interface Unit and secondary-memory latency model.
//!
//! The Aurora III talks to its off-chip MMU over a bidirectional 32-bit
//! bus with split transactions, separate transmit and receive queues, and
//! data transferred on both clock edges (§2, *Bus Interface Unit*). The
//! study abstracts everything beyond the IPU pins as a secondary memory
//! with an *average* latency of 17 or 35 cycles (§4.2).
//!
//! This model charges:
//!
//! * one transmit-bus cycle per outgoing request (address), plus the line
//!   transfer time for write transactions,
//! * the secondary-memory latency (fixed or uniformly distributed),
//! * line-transfer occupancy on the receive bus (one 32-bit word per
//!   core cycle: dual-edge signalling on a half-core-rate bus clock),
//!
//! with queueing: each bus serialises its transfers, so a burst of misses
//! sees growing completion times even though transactions are split.

use std::fmt;

use aurora_isa::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Secondary-memory latency distribution (cycles from request receipt to
/// first response word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every access takes exactly this many cycles.
    Fixed(u32),
    /// Uniformly distributed in `[lo, hi]`; the paper quotes *average*
    /// latencies, so `Uniform { lo, hi }` with `(lo + hi) / 2` equal to 17
    /// or 35 models DRAM page-hit/page-miss spread.
    Uniform {
        /// Minimum latency.
        lo: u32,
        /// Maximum latency (inclusive).
        hi: u32,
    },
    /// DRAM page-mode mixture: `hit` cycles with probability
    /// `hit_permille/1000`, otherwise `miss` cycles. (Per-mille keeps the
    /// type `Eq`/`Hash`-able.)
    Bimodal {
        /// Page-hit latency.
        hit: u32,
        /// Page-miss latency.
        miss: u32,
        /// Probability of a page hit, in thousandths.
        hit_permille: u16,
    },
}

impl LatencyModel {
    /// The paper's "medium clock rate" memory system: 17-cycle average.
    pub fn average_17() -> LatencyModel {
        LatencyModel::Uniform { lo: 9, hi: 25 }
    }

    /// The paper's "fast clock rate" memory system: 35-cycle average.
    pub fn average_35() -> LatencyModel {
        LatencyModel::Uniform { lo: 19, hi: 51 }
    }

    /// The mean latency of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyModel::Fixed(l) => l as f64,
            LatencyModel::Uniform { lo, hi } => (lo as f64 + hi as f64) / 2.0,
            LatencyModel::Bimodal {
                hit,
                miss,
                hit_permille,
            } => {
                let p = f64::from(hit_permille) / 1000.0;
                p * f64::from(hit) + (1.0 - p) * f64::from(miss)
            }
        }
    }

    /// Checks that the distribution can be sampled: a uniform range
    /// needs `lo <= hi`, and a page-hit probability is at most 1000‰.
    ///
    /// # Errors
    ///
    /// Returns a description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LatencyModel::Uniform { lo, hi } if lo > hi => {
                Err(format!("uniform latency lo {lo} exceeds hi {hi}"))
            }
            LatencyModel::Bimodal { hit_permille, .. } if hit_permille > 1000 => {
                Err(format!("bimodal hit_permille {hit_permille} exceeds 1000"))
            }
            _ => Ok(()),
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> u32 {
        match *self {
            LatencyModel::Fixed(l) => l,
            LatencyModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LatencyModel::Bimodal {
                hit,
                miss,
                hit_permille,
            } => {
                if rng.gen_range(0..1000) < u32::from(hit_permille) {
                    hit
                } else {
                    miss
                }
            }
        }
    }
}

/// What a BIU transaction moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Demand instruction-cache line fill.
    InstrFill,
    /// Demand data-cache line fill.
    DataFill,
    /// Stream-buffer prefetch line fill (low priority).
    Prefetch,
    /// Write-cache eviction (line out to memory).
    WriteBack,
    /// MMU write-validation round trip (no data payload).
    Validation,
}

/// Counters for the BIU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BiuStats {
    /// Demand instruction fills.
    pub instr_fills: u64,
    /// Demand data fills.
    pub data_fills: u64,
    /// Prefetch fills.
    pub prefetches: u64,
    /// Write-back transactions.
    pub write_backs: u64,
    /// Validation round trips.
    pub validations: u64,
    /// Total cycles of receive-bus occupancy.
    pub receive_busy_cycles: u64,
    /// Total cycles of transmit-bus occupancy.
    pub transmit_busy_cycles: u64,
}

impl BiuStats {
    /// Total transactions of all kinds.
    pub fn total(&self) -> u64 {
        self.instr_fills + self.data_fills + self.prefetches + self.write_backs + self.validations
    }
}

impl fmt::Display for BiuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ifills, {} dfills, {} prefetches, {} writebacks, {} validations",
            self.instr_fills, self.data_fills, self.prefetches, self.write_backs, self.validations
        )
    }
}

/// The split-transaction bus interface.
///
/// ```
/// use aurora_mem::{Biu, LatencyModel, TransferKind};
///
/// let mut biu = Biu::new(LatencyModel::Fixed(17), 32, 42);
/// let done = biu.request(0, TransferKind::DataFill);
/// // 1 transmit + 17 memory + 8 receive cycles for an 8-word line.
/// assert_eq!(done, 26);
/// // A simultaneous second fill queues behind the first on the buses.
/// let second = biu.request(0, TransferKind::DataFill);
/// assert!(second > done);
/// ```
#[derive(Debug, Clone)]
pub struct Biu {
    latency: LatencyModel,
    line_bytes: u32,
    /// Dual-edge 32-bit bus at half the core clock: 4 bytes per core cycle.
    bytes_per_cycle: u32,
    transmit_free_at: u64,
    receive_free_at: u64,
    rng: SmallRng,
    stats: BiuStats,
}

impl Biu {
    /// Creates a BIU with the given memory latency model and line size.
    /// `seed` makes the `Uniform` latency stream reproducible.
    pub fn new(latency: LatencyModel, line_bytes: u32, seed: u64) -> Biu {
        Biu {
            latency,
            line_bytes,
            bytes_per_cycle: 4,
            transmit_free_at: 0,
            receive_free_at: 0,
            rng: SmallRng::seed_from_u64(seed),
            stats: BiuStats::default(),
        }
    }

    /// Cycles to stream one line across a bus.
    fn line_cycles(&self) -> u64 {
        (self.line_bytes / self.bytes_per_cycle).max(1) as u64
    }

    /// Issues a transaction at cycle `now`, returning its completion cycle
    /// (for fills: when the whole line is on chip; for write-backs and
    /// validations: when the bus/MMU interaction is finished).
    pub fn request(&mut self, now: u64, kind: TransferKind) -> u64 {
        match kind {
            TransferKind::InstrFill => self.stats.instr_fills += 1,
            TransferKind::DataFill => self.stats.data_fills += 1,
            TransferKind::Prefetch => self.stats.prefetches += 1,
            TransferKind::WriteBack => self.stats.write_backs += 1,
            TransferKind::Validation => self.stats.validations += 1,
        }

        // Transmit: the request (plus the line payload for write-backs).
        let tx_cycles = match kind {
            TransferKind::WriteBack => 1 + self.line_cycles(),
            _ => 1,
        };
        let tx_start = now.max(self.transmit_free_at);
        let tx_end = tx_start + tx_cycles;
        self.transmit_free_at = tx_end;
        self.stats.transmit_busy_cycles = self.stats.transmit_busy_cycles.saturating_add(tx_cycles);

        match kind {
            TransferKind::WriteBack => tx_end,
            TransferKind::Validation => {
                // MMU round trip: request out, translation, response back.
                tx_end + self.latency.sample(&mut self.rng) as u64
            }
            _ => {
                let mem_done = tx_end + self.latency.sample(&mut self.rng) as u64;
                let rx_start = mem_done.max(self.receive_free_at);
                let rx_end = rx_start.saturating_add(self.line_cycles());
                self.receive_free_at = rx_end;
                self.stats.receive_busy_cycles = self
                    .stats
                    .receive_busy_cycles
                    .saturating_add(self.line_cycles());
                rx_end
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BiuStats {
        self.stats
    }

    /// Resets statistics (keeps bus state).
    pub fn reset_stats(&mut self) {
        self.stats = BiuStats::default();
    }
}

impl Snapshot for BiuStats {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.instr_fills);
        w.put_u64(self.data_fills);
        w.put_u64(self.prefetches);
        w.put_u64(self.write_backs);
        w.put_u64(self.validations);
        w.put_u64(self.receive_busy_cycles);
        w.put_u64(self.transmit_busy_cycles);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.instr_fills = r.u64()?;
        self.data_fills = r.u64()?;
        self.prefetches = r.u64()?;
        self.write_backs = r.u64()?;
        self.validations = r.u64()?;
        self.receive_busy_cycles = r.u64()?;
        self.transmit_busy_cycles = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_biu() -> Biu {
        Biu::new(LatencyModel::Fixed(17), 32, 1)
    }

    #[test]
    fn single_fill_latency() {
        let mut biu = fixed_biu();
        // 1 (tx) + 17 (memory) + 8 (32B at 4B/cycle rx) = 26.
        assert_eq!(biu.request(0, TransferKind::DataFill), 26);
        assert_eq!(biu.stats().data_fills, 1);
    }

    #[test]
    fn back_to_back_fills_queue_on_buses() {
        let mut biu = fixed_biu();
        let a = biu.request(0, TransferKind::DataFill);
        let b = biu.request(0, TransferKind::DataFill);
        let c = biu.request(0, TransferKind::DataFill);
        assert!(b > a && c > b);
        // Overlap: the second miss completes well before 2x the first
        // (split transactions overlap memory access).
        assert!(b < 2 * a, "split transactions should overlap: {a} {b}");
    }

    #[test]
    fn writebacks_only_occupy_transmit() {
        let mut biu = fixed_biu();
        let wb = biu.request(0, TransferKind::WriteBack);
        assert_eq!(wb, 9); // 1 + 8 line cycles, no memory latency charged
                           // A fill right after must wait for the transmit bus.
        let fill = biu.request(0, TransferKind::DataFill);
        assert_eq!(fill, 9 + 1 + 17 + 8);
    }

    #[test]
    fn validation_round_trip() {
        let mut biu = fixed_biu();
        assert_eq!(biu.request(0, TransferKind::Validation), 18); // 1 + 17
        assert_eq!(biu.stats().validations, 1);
    }

    #[test]
    fn uniform_latency_matches_mean() {
        let model = LatencyModel::average_17();
        assert_eq!(model.mean(), 17.0);
        let model35 = LatencyModel::average_35();
        assert_eq!(model35.mean(), 35.0);

        // Empirical mean of idle-bus fills approaches 1 + mean + 4.
        let mut biu = Biu::new(model, 32, 7);
        let n = 2000;
        let mut sum = 0u64;
        for i in 0..n {
            let now = i * 1000; // far apart: no queueing
            sum += biu.request(now, TransferKind::DataFill) - now;
        }
        let avg = sum as f64 / n as f64;
        assert!((avg - 26.0).abs() < 0.5, "avg {avg}");
    }

    #[test]
    fn bimodal_latency_mixes() {
        // 70% page hits at 11 cycles, 30% misses at 31: mean 17.
        let model = LatencyModel::Bimodal {
            hit: 11,
            miss: 31,
            hit_permille: 700,
        };
        assert!((model.mean() - 17.0).abs() < 1e-9);
        let mut biu = Biu::new(model, 32, 3);
        let mut seen_hit = false;
        let mut seen_miss = false;
        for i in 0..500u64 {
            let now = i * 1000;
            let lat = biu.request(now, TransferKind::DataFill) - now - 1 - 8;
            match lat {
                11 => seen_hit = true,
                31 => seen_miss = true,
                other => panic!("unexpected latency {other}"),
            }
        }
        assert!(seen_hit && seen_miss);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Biu::new(LatencyModel::average_35(), 32, 9);
        let mut b = Biu::new(LatencyModel::average_35(), 32, 9);
        for i in 0..100 {
            assert_eq!(
                a.request(i * 7, TransferKind::DataFill),
                b.request(i * 7, TransferKind::DataFill)
            );
        }
    }

    #[test]
    fn prefetches_counted_separately() {
        let mut biu = fixed_biu();
        biu.request(0, TransferKind::Prefetch);
        biu.request(0, TransferKind::InstrFill);
        let s = biu.stats();
        assert_eq!(s.prefetches, 1);
        assert_eq!(s.instr_fills, 1);
        assert_eq!(s.total(), 2);
    }
}
