//! Simulation statistics: cycles, CPI, and the stall-cycle breakdown of
//! paper Figure 6.

use std::fmt;
use std::ops::{Index, IndexMut};

use aurora_isa::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use aurora_mem::{BiuStats, CacheStats, MshrStats, StreamStats, WriteCacheStats};

/// The IPU stall conditions the paper attributes cycles to (§5.3), plus
/// the two FPU-coupling stalls relevant for floating-point workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Waiting for instructions (instruction-cache miss service).
    ICache,
    /// The result of a load was referenced before the LSU returned it.
    Load,
    /// The reorder buffer was full.
    RobFull,
    /// The LSU could not accept: port busy, MSHRs exhausted, or the data
    /// busses were being used to fill the cache.
    LsuBusy,
    /// The FPU instruction/load/store queue was full.
    FpQueue,
    /// Waiting for an FPU result (`mfc1`, FP condition for a branch).
    FpResult,
    /// Scoreboard interlock on a non-load integer producer (HI/LO results
    /// of multiply/divide).
    Interlock,
}

impl StallKind {
    /// All stall kinds, in Figure 6's order then the extensions.
    pub const ALL: [StallKind; 7] = [
        StallKind::ICache,
        StallKind::Load,
        StallKind::RobFull,
        StallKind::LsuBusy,
        StallKind::FpQueue,
        StallKind::FpResult,
        StallKind::Interlock,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::ICache => "ICache",
            StallKind::Load => "Load",
            StallKind::RobFull => "ROB-full",
            StallKind::LsuBusy => "LSU-busy",
            StallKind::FpQueue => "FP-queue",
            StallKind::FpResult => "FP-result",
            StallKind::Interlock => "Interlock",
        }
    }

    fn index(self) -> usize {
        match self {
            StallKind::ICache => 0,
            StallKind::Load => 1,
            StallKind::RobFull => 2,
            StallKind::LsuBusy => 3,
            StallKind::FpQueue => 4,
            StallKind::FpResult => 5,
            StallKind::Interlock => 6,
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Stall cycles attributed per [`StallKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown([u64; 7]);

impl StallBreakdown {
    /// Total stall cycles across all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates over `(kind, cycles)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StallKind, u64)> + '_ {
        StallKind::ALL.into_iter().map(|k| (k, self.0[k.index()]))
    }
}

impl Index<StallKind> for StallBreakdown {
    type Output = u64;

    fn index(&self, kind: StallKind) -> &u64 {
        // Destructuring instead of slice indexing: stall attribution runs
        // once per issue slot, and a match on the unpacked array has no
        // bounds check and no panic path.
        let [icache, load, rob, lsu, fpq, fpr, ilk] = &self.0;
        match kind {
            StallKind::ICache => icache,
            StallKind::Load => load,
            StallKind::RobFull => rob,
            StallKind::LsuBusy => lsu,
            StallKind::FpQueue => fpq,
            StallKind::FpResult => fpr,
            StallKind::Interlock => ilk,
        }
    }
}

impl IndexMut<StallKind> for StallBreakdown {
    fn index_mut(&mut self, kind: StallKind) -> &mut u64 {
        let [icache, load, rob, lsu, fpq, fpr, ilk] = &mut self.0;
        match kind {
            StallKind::ICache => icache,
            StallKind::Load => load,
            StallKind::RobFull => rob,
            StallKind::LsuBusy => lsu,
            StallKind::FpQueue => fpq,
            StallKind::FpResult => fpr,
            StallKind::Interlock => ilk,
        }
    }
}

/// Everything a simulation run produces.
///
/// Equality is field-exact, which is what replay-equivalence tests want:
/// a packed-trace replay must reproduce a streamed run bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles (including pipeline drain at the end).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Whole-pipeline stall cycles, attributed to their binding cause.
    pub stalls: StallBreakdown,
    /// Instruction-cache hits and misses.
    pub icache: CacheStats,
    /// Data-cache hits and misses (loads and stores).
    pub dcache: CacheStats,
    /// Stream-buffer probes for the instruction stream.
    pub istream: StreamStats,
    /// Stream-buffer probes for the data stream.
    pub dstream: StreamStats,
    /// Write-cache behaviour.
    pub write_cache: WriteCacheStats,
    /// MSHR file behaviour.
    pub mshr: MshrStats,
    /// Bus interface transactions.
    pub biu: BiuStats,
    /// Instructions executed in the FPU.
    pub fp_instructions: u64,
    /// FP instructions the FPU issued in pairs (dual-issue policy only).
    pub fp_dual_issues: u64,
    /// Taken-branch fetches that were folded (zero-bubble).
    pub folded_branches: u64,
    /// Taken-branch fetches that could not be folded.
    pub unfolded_branches: u64,
    /// Instructions issued as the second member of a dual-issue pair.
    pub dual_issues: u64,
}

impl SimStats {
    /// Cycles per instruction — the paper's primary metric.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.instructions as f64
    }

    /// CPI penalty contributed by one stall kind (Figure 6's y axis).
    pub fn stall_cpi(&self, kind: StallKind) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.stalls[kind] as f64 / self.instructions as f64
    }

    /// Fraction of dynamic instructions that issued as the second half of
    /// a pair (dual-issue utilisation).
    pub fn dual_issue_rate(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.dual_issues as f64 / self.instructions as f64
    }
}

impl SimStats {
    /// Serializes every counter into a standalone snapshot image: the
    /// versioned `AURACKPT` container of [`aurora_isa::SnapshotWriter`].
    /// This is the persistence format of the `aurora-serve` result store,
    /// and [`SimStats::fingerprint`] hashes it, header included, so every
    /// stats digest and every stored record depends on these bytes.
    /// Decoding with [`SimStats::from_snapshot_bytes`] reproduces the
    /// struct bit for bit, so a memoised result is indistinguishable from
    /// a fresh simulation.
    ///
    /// ```
    /// use aurora_core::SimStats;
    ///
    /// let stats = SimStats { cycles: 150, instructions: 100, ..SimStats::default() };
    /// let bytes = stats.to_snapshot_bytes();
    /// assert_eq!(SimStats::from_snapshot_bytes(&bytes).unwrap(), stats);
    /// ```
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.save(&mut w);
        w.finish()
    }

    /// Decodes a [`SimStats::to_snapshot_bytes`] image.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a bad magic, a version mismatch,
    /// truncation, or trailing bytes — arbitrary input can be fed in
    /// safely, which is what the result store's corruption recovery
    /// relies on.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<SimStats, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let mut stats = SimStats::default();
        stats.restore(&mut r)?;
        r.finish()?;
        Ok(stats)
    }

    /// A stable fingerprint of the full statistics image — every counter,
    /// not just the headline CPI. Equal fingerprints mean bit-identical
    /// stats, which is how `aurora-serve` clients verify warm-path
    /// answers against direct simulation without shipping every counter
    /// over the wire.
    pub fn fingerprint(&self) -> u64 {
        aurora_isa::fnv1a(&self.to_snapshot_bytes())
    }
}

impl Snapshot for SimStats {
    /// Every counter, in declaration order; the stall breakdown is keyed
    /// by [`StallKind::ALL`]'s order so the layout is stable even if the
    /// backing array changes representation.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(*b"STAT");
        w.put_u64(self.cycles);
        w.put_u64(self.instructions);
        for kind in StallKind::ALL {
            w.put_u64(self.stalls[kind]);
        }
        self.icache.save(w);
        self.dcache.save(w);
        self.istream.save(w);
        self.dstream.save(w);
        self.write_cache.save(w);
        self.mshr.save(w);
        self.biu.save(w);
        w.put_u64(self.fp_instructions);
        w.put_u64(self.fp_dual_issues);
        w.put_u64(self.folded_branches);
        w.put_u64(self.unfolded_branches);
        w.put_u64(self.dual_issues);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section(*b"STAT")?;
        self.cycles = r.u64()?;
        self.instructions = r.u64()?;
        for kind in StallKind::ALL {
            self.stalls[kind] = r.u64()?;
        }
        self.icache.restore(r)?;
        self.dcache.restore(r)?;
        self.istream.restore(r)?;
        self.dstream.restore(r)?;
        self.write_cache.restore(r)?;
        self.mshr.restore(r)?;
        self.biu.restore(r)?;
        self.fp_instructions = r.u64()?;
        self.fp_dual_issues = r.u64()?;
        self.folded_branches = r.u64()?;
        self.unfolded_branches = r.u64()?;
        self.dual_issues = r.u64()?;
        Ok(())
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions in {} cycles: CPI {:.3}",
            self.instructions,
            self.cycles,
            self.cpi()
        )?;
        writeln!(f, "  I$: {}", self.icache)?;
        writeln!(f, "  D$: {}", self.dcache)?;
        writeln!(f, "  I-prefetch: {}", self.istream)?;
        writeln!(f, "  D-prefetch: {}", self.dstream)?;
        writeln!(f, "  write cache: {}", self.write_cache)?;
        writeln!(f, "  MSHR: {}", self.mshr)?;
        writeln!(f, "  BIU: {}", self.biu)?;
        write!(f, "  stalls:")?;
        for (kind, cycles) in self.stalls.iter() {
            if cycles > 0 {
                write!(
                    f,
                    " {}={:.3}",
                    kind,
                    cycles as f64 / self.instructions.max(1) as f64
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_indexing() {
        let mut b = StallBreakdown::default();
        b[StallKind::Load] += 10;
        b[StallKind::ICache] += 5;
        assert_eq!(b[StallKind::Load], 10);
        assert_eq!(b.total(), 15);
        let collected: Vec<_> = b.iter().collect();
        assert_eq!(collected[0], (StallKind::ICache, 5));
        assert_eq!(collected[1], (StallKind::Load, 10));
    }

    #[test]
    fn cpi_math() {
        let stats = SimStats {
            cycles: 150,
            instructions: 100,
            ..Default::default()
        };
        assert!((stats.cpi() - 1.5).abs() < 1e-12);
        let empty = SimStats::default();
        assert_eq!(empty.cpi(), 0.0);
    }

    #[test]
    fn stall_cpi_normalises_by_instructions() {
        let mut stats = SimStats {
            cycles: 200,
            instructions: 100,
            ..Default::default()
        };
        stats.stalls[StallKind::LsuBusy] = 50;
        assert!((stats.stall_cpi(StallKind::LsuBusy) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_cpi() {
        let stats = SimStats {
            cycles: 300,
            instructions: 200,
            ..Default::default()
        };
        assert!(stats.to_string().contains("CPI 1.500"));
    }

    #[test]
    fn snapshot_bytes_round_trip_bit_identically() {
        let mut stats = SimStats {
            cycles: 12345,
            instructions: 6789,
            fp_instructions: 42,
            dual_issues: 7,
            ..Default::default()
        };
        stats.stalls[StallKind::Load] = 99;
        let bytes = stats.to_snapshot_bytes();
        let back = SimStats::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.fingerprint(), stats.fingerprint());
        // A different run fingerprint-differs.
        let other = SimStats {
            cycles: 12346,
            ..stats.clone()
        };
        assert_ne!(other.fingerprint(), stats.fingerprint());
    }

    #[test]
    fn snapshot_bytes_reject_corruption() {
        let stats = SimStats {
            cycles: 1,
            instructions: 1,
            ..Default::default()
        };
        let bytes = stats.to_snapshot_bytes();
        // Truncated tail.
        assert!(SimStats::from_snapshot_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(SimStats::from_snapshot_bytes(&long).is_err());
        // Not a snapshot at all.
        assert!(SimStats::from_snapshot_bytes(b"junk").is_err());
    }

    /// Every counter set to a distinct value, so the pinned fingerprint
    /// below covers the position of each field in the image. Every field
    /// is named (no `..Default::default()`), so a counter added later
    /// must be given a value here, and the round trip below then catches
    /// a `save` without a matching `restore`.
    fn every_counter_distinct() -> SimStats {
        let mut stalls = StallBreakdown::default();
        for (i, kind) in StallKind::ALL.into_iter().enumerate() {
            stalls[kind] = 100 + i as u64;
        }
        let cache = |base: u64| CacheStats {
            accesses: base,
            hits: base + 1,
            misses: base + 2,
            evictions: base + 3,
        };
        let stream = |base: u64| StreamStats {
            probes: base,
            hits: base + 1,
            prefetches_issued: base + 2,
            allocations: base + 3,
        };
        SimStats {
            cycles: 1_000_003,
            instructions: 700_001,
            stalls,
            icache: cache(200),
            dcache: cache(210),
            istream: stream(300),
            dstream: stream(310),
            write_cache: WriteCacheStats {
                store_accesses: 400,
                store_hits: 401,
                load_accesses: 402,
                load_hits: 403,
                store_transactions: 404,
                validations: 405,
            },
            mshr: MshrStats {
                allocations: 500,
                merges: 501,
                full_stalls: 502,
                peak_occupancy: 503,
            },
            biu: BiuStats {
                instr_fills: 600,
                data_fills: 601,
                prefetches: 602,
                write_backs: 603,
                validations: 604,
                receive_busy_cycles: 605,
                transmit_busy_cycles: 606,
            },
            fp_instructions: 41,
            fp_dual_issues: 42,
            folded_branches: 43,
            unfolded_branches: 44,
            dual_issues: 45,
        }
    }

    /// `SimStats::fingerprint` hashes the whole snapshot image, header
    /// included, and the result store persists the same bytes: a change
    /// to the header or to any field's encoding silently moves every
    /// `stats_digest` and invalidates every stored record. These values
    /// pin the format.
    #[test]
    fn snapshot_image_and_fingerprint_are_pinned() {
        let stats = every_counter_distinct();
        let bytes = stats.to_snapshot_bytes();
        assert_eq!(&bytes[..8], b"AURACKPT");
        assert_eq!(&bytes[8..12], &1u32.to_le_bytes());
        assert_eq!(bytes.len(), 388);
        assert_eq!(stats.fingerprint(), 0x144a_b58c_5899_f2ce);
        assert_eq!(SimStats::from_snapshot_bytes(&bytes).unwrap(), stats);
    }

    #[test]
    fn all_kinds_have_unique_indices() {
        let mut seen = [false; 7];
        for k in StallKind::ALL {
            assert!(!seen[k.index()], "{k} duplicated");
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
