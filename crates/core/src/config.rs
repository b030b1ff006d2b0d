//! Machine configurations: the paper's three models and every knob the
//! study varies.

use std::fmt;

use aurora_isa::Fnv1a;
use aurora_mem::LatencyModel;

/// Number of integer execution pipelines (paper §4.2: "one or two
/// execution pipes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueWidth {
    /// One instruction per cycle.
    Single,
    /// Two instructions per cycle (an aligned EVEN/ODD pair).
    Dual,
}

impl IssueWidth {
    /// Maximum instructions issued per cycle.
    pub fn width(self) -> usize {
        match self {
            IssueWidth::Single => 1,
            IssueWidth::Dual => 2,
        }
    }
}

impl fmt::Display for IssueWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IssueWidth::Single => "single",
            IssueWidth::Dual => "dual",
        })
    }
}

/// The three resource-allocation models of paper Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineModel {
    /// 1 KB I$, 16 KB D$, 2-line write cache, 2 ROB, 2 prefetch, 1 MSHR.
    Small,
    /// 2 KB I$, 32 KB D$, 4-line write cache, 6 ROB, 4 prefetch, 2 MSHR.
    Baseline,
    /// 4 KB I$, 64 KB D$, 8-line write cache, 8 ROB, 8 prefetch, 4 MSHR.
    Large,
}

impl MachineModel {
    /// All three models in Table 1 order.
    pub const ALL: [MachineModel; 3] = [
        MachineModel::Small,
        MachineModel::Baseline,
        MachineModel::Large,
    ];

    /// The model's row of Table 1 as a full machine configuration.
    pub fn config(self, issue: IssueWidth, latency: LatencyModel) -> MachineConfig {
        let (icache_kb, dcache_kb, wc_lines, rob, pf, mshr) = match self {
            MachineModel::Small => (1, 16, 2, 2, 2, 1),
            MachineModel::Baseline => (2, 32, 4, 6, 4, 2),
            MachineModel::Large => (4, 64, 8, 8, 8, 4),
        };
        MachineConfig {
            name: format!("{self}/{issue}/L{:.0}", latency.mean()),
            issue_width: issue,
            icache_bytes: icache_kb * 1024,
            dcache_bytes: dcache_kb * 1024,
            line_bytes: 32,
            write_cache_lines: wc_lines,
            rob_entries: rob,
            prefetch_buffers: pf,
            prefetch_depth: 3,
            prefetch_enabled: true,
            mshr_entries: mshr,
            memory_latency: latency,
            dcache_latency: 3,
            branch_folding: true,
            write_validation: true,
            fpu: FpuConfig::recommended(),
            seed: 0xA0707A_u64,
        }
    }
}

impl fmt::Display for MachineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MachineModel::Small => "small",
            MachineModel::Baseline => "baseline",
            MachineModel::Large => "large",
        })
    }
}

/// Floating-point issue policy (paper §5.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpIssuePolicy {
    /// In-order issue, in-order completion: no overlap between FP
    /// instructions at all.
    InOrderComplete,
    /// In-order single issue with out-of-order completion.
    OutOfOrderSingle,
    /// In-order dual issue with out-of-order completion.
    OutOfOrderDual,
}

impl fmt::Display for FpIssuePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FpIssuePolicy::InOrderComplete => "in-order",
            FpIssuePolicy::OutOfOrderSingle => "ooo-single",
            FpIssuePolicy::OutOfOrderDual => "ooo-dual",
        })
    }
}

/// Configuration of the decoupled FPU (paper §3, §5.7–§5.11).
#[derive(Debug, Clone, PartialEq)]
pub struct FpuConfig {
    /// Issue policy.
    pub issue_policy: FpIssuePolicy,
    /// Instruction queue entries between IPU and FPU.
    pub instr_queue: usize,
    /// Load data queue entries.
    pub load_queue: usize,
    /// Store/move-to-IPU data queue entries.
    pub store_queue: usize,
    /// FPU reorder buffer entries.
    pub rob_entries: usize,
    /// Add-unit latency in cycles (1–5 studied).
    pub add_latency: u32,
    /// Multiply-unit latency in cycles (1–5 studied).
    pub mul_latency: u32,
    /// Divide-unit latency in cycles (10–30 studied); `sqrt` shares it.
    pub div_latency: u32,
    /// Conversion-unit latency in cycles (1–5 studied).
    pub cvt_latency: u32,
    /// Whether the add unit is pipelined (accepts one op per cycle).
    pub add_pipelined: bool,
    /// Whether the multiply unit is pipelined. The recommended 5-cycle
    /// iterative multiplier is *not* pipelined (§5.10).
    pub mul_pipelined: bool,
    /// Result busses from the functional units to the reorder buffer.
    pub result_busses: usize,
}

impl FpuConfig {
    /// The architecture recommended by §5.11: dual issue, 5-entry
    /// instruction queue, 2-entry load queue, 6-entry reorder buffer,
    /// 3-cycle add, 5-cycle (iterative) multiply, 19-cycle divide and two
    /// result busses.
    pub fn recommended() -> FpuConfig {
        FpuConfig {
            issue_policy: FpIssuePolicy::OutOfOrderDual,
            instr_queue: 5,
            load_queue: 2,
            store_queue: 3,
            rob_entries: 6,
            add_latency: 3,
            mul_latency: 5,
            div_latency: 19,
            cvt_latency: 2,
            add_pipelined: true,
            mul_pipelined: false,
            result_busses: 2,
        }
    }
}

impl Default for FpuConfig {
    fn default() -> Self {
        FpuConfig::recommended()
    }
}

/// Parameters for SMARTS-style sampled simulation (see [`crate::sample`]).
///
/// A trace is divided into consecutive *sampling units* of
/// [`interval_ops`](SamplingConfig::interval_ops) instructions. Most of
/// each unit is fast-forwarded with functional warming; the last
/// [`warmup_ops`](SamplingConfig::warmup_ops) +
/// [`window_ops`](SamplingConfig::window_ops) instructions run through
/// the detailed model, and only the final `window_ops` are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Instructions measured in detail at the end of each sampling unit.
    pub window_ops: usize,
    /// Detailed (but unmeasured) instructions run immediately before each
    /// window to re-fill short-history state — scoreboard, ROB, queues,
    /// in-flight misses — that functional warming does not touch.
    pub warmup_ops: usize,
    /// Instructions per sampling unit. The first
    /// `interval_ops - warmup_ops - window_ops` are fast-forwarded.
    pub interval_ops: usize,
}

impl SamplingConfig {
    /// Defaults tuned on the benchmark suite: 512-instruction windows
    /// behind 384 instructions of detailed warm-up, one unit every
    /// 10752 instructions (8.3% detail). Functional warming keeps the
    /// long-history structures hot between units, so the warm-up only
    /// re-fills short-history state (scoreboard, ROB, queues, in-flight
    /// misses, busses); 384 instructions measurably suffices on the
    /// suite while 256 does not — secondary-latency misses issued just
    /// before the window still need to drain.
    pub fn recommended() -> SamplingConfig {
        SamplingConfig {
            window_ops: 512,
            warmup_ops: 384,
            interval_ops: 10752,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_ops == 0 {
            return Err("window_ops must be nonzero".to_owned());
        }
        if self.warmup_ops + self.window_ops > self.interval_ops {
            return Err(format!(
                "warmup_ops + window_ops ({}) exceed interval_ops ({})",
                self.warmup_ops + self.window_ops,
                self.interval_ops
            ));
        }
        Ok(())
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::recommended()
    }
}

impl fmt::Display for SamplingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}w+{}u / {}i",
            self.window_ops, self.warmup_ops, self.interval_ops
        )
    }
}

/// A complete machine configuration for the cycle-level simulator.
///
/// Build one from a [`MachineModel`] preset and adjust individual knobs
/// for sweeps:
///
/// ```
/// use aurora_core::{IssueWidth, MachineModel};
/// use aurora_mem::LatencyModel;
///
/// let mut cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
/// cfg.mshr_entries = 4; // Figure 7's "mshr variations" point
/// assert_eq!(cfg.icache_bytes, 2048);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable tag used in reports.
    pub name: String,
    /// Single or dual issue.
    pub issue_width: IssueWidth,
    /// On-chip instruction cache size in bytes.
    pub icache_bytes: u32,
    /// External data cache size in bytes.
    pub dcache_bytes: u32,
    /// Cache line size in bytes (32 = 8 words everywhere in the paper):
    /// a power of two holding at least one 8-byte fetch pair.
    pub line_bytes: u32,
    /// Coalescing write-cache lines.
    pub write_cache_lines: usize,
    /// IPU reorder-buffer entries.
    pub rob_entries: usize,
    /// Prefetch stream buffers (shared between I and D streams).
    pub prefetch_buffers: usize,
    /// Lines per stream buffer.
    pub prefetch_depth: usize,
    /// Whether the prefetch unit exists (Figure 5 removes it).
    pub prefetch_enabled: bool,
    /// Miss status holding registers.
    pub mshr_entries: usize,
    /// Secondary memory latency model (17- or 35-cycle average).
    pub memory_latency: LatencyModel,
    /// Pipelined external data cache latency in cycles.
    pub dcache_latency: u32,
    /// Whether the pre-decoded NEXT field folds taken branches (Figure 3).
    /// Disabling charges a fetch bubble on every taken control transfer.
    pub branch_folding: bool,
    /// Whether the write cache's page-field micro-TLB validates stores
    /// (§2.3). Disabling forces an MMU round trip for *every* store.
    pub write_validation: bool,
    /// The decoupled FPU configuration.
    pub fpu: FpuConfig,
    /// Seed for the latency distribution.
    pub seed: u64,
}

impl MachineConfig {
    /// A stable 64-bit fingerprint of every *semantic* knob — the fields
    /// that can change simulation statistics. Two configs with equal
    /// fingerprints produce bit-identical [`SimStats`](crate::SimStats)
    /// for any trace, so memoised results (the `aurora-serve` result
    /// store) key on this value.
    ///
    /// Deliberately excluded: [`name`](MachineConfig::name), a
    /// human-readable label. [`seed`](MachineConfig::seed) is hashed even
    /// under a `Fixed` latency, where it draws nothing: that over-keying is
    /// kept because dropping it would move every stored key.
    ///
    /// The fingerprint is cross-process stable ([`Fnv1a`], little-endian,
    /// fields in declaration order). Both structs are destructured without
    /// `..`, so a new field does not compile until it is hashed here; the
    /// knob suite (`tests/knob_effects.rs`) pins the preset keys and checks
    /// that every knob moves the key and the statistics it should.
    ///
    /// ```
    /// use aurora_core::{IssueWidth, MachineModel};
    /// use aurora_mem::LatencyModel;
    ///
    /// let a = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    /// let mut b = a.clone();
    /// b.name = "renamed".to_owned(); // label only — same machine
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// b.mshr_entries += 1; // a real resource change
    /// assert_ne!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let MachineConfig {
            name: _,
            issue_width,
            icache_bytes,
            dcache_bytes,
            line_bytes,
            write_cache_lines,
            rob_entries,
            prefetch_buffers,
            prefetch_depth,
            prefetch_enabled,
            mshr_entries,
            memory_latency,
            dcache_latency,
            branch_folding,
            write_validation,
            fpu:
                FpuConfig {
                    issue_policy,
                    instr_queue,
                    load_queue,
                    store_queue,
                    rob_entries: fpu_rob_entries,
                    add_latency,
                    mul_latency,
                    div_latency,
                    cvt_latency,
                    add_pipelined,
                    mul_pipelined,
                    result_busses,
                },
            seed,
        } = self;
        let mut h = Fnv1a::new();
        h.write_u8(match issue_width {
            IssueWidth::Single => 1,
            IssueWidth::Dual => 2,
        });
        h.write_u32(*icache_bytes);
        h.write_u32(*dcache_bytes);
        h.write_u32(*line_bytes);
        h.write_usize(*write_cache_lines);
        h.write_usize(*rob_entries);
        h.write_usize(*prefetch_buffers);
        h.write_usize(*prefetch_depth);
        h.write_bool(*prefetch_enabled);
        h.write_usize(*mshr_entries);
        match *memory_latency {
            LatencyModel::Fixed(l) => {
                h.write_u8(0);
                h.write_u32(l);
            }
            LatencyModel::Uniform { lo, hi } => {
                h.write_u8(1);
                h.write_u32(lo);
                h.write_u32(hi);
            }
            LatencyModel::Bimodal {
                hit,
                miss,
                hit_permille,
            } => {
                h.write_u8(2);
                h.write_u32(hit);
                h.write_u32(miss);
                h.write_u16(hit_permille);
            }
        }
        h.write_u32(*dcache_latency);
        h.write_bool(*branch_folding);
        h.write_bool(*write_validation);
        h.write_u8(match issue_policy {
            FpIssuePolicy::InOrderComplete => 0,
            FpIssuePolicy::OutOfOrderSingle => 1,
            FpIssuePolicy::OutOfOrderDual => 2,
        });
        h.write_usize(*instr_queue);
        h.write_usize(*load_queue);
        h.write_usize(*store_queue);
        h.write_usize(*fpu_rob_entries);
        h.write_u32(*add_latency);
        h.write_u32(*mul_latency);
        h.write_u32(*div_latency);
        h.write_u32(*cvt_latency);
        h.write_bool(*add_pipelined);
        h.write_bool(*mul_pipelined);
        h.write_usize(*result_busses);
        h.write_u64(*seed);
        h.finish()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.icache_bytes.is_power_of_two() || self.icache_bytes < self.line_bytes {
            return Err(format!("icache_bytes {} invalid", self.icache_bytes));
        }
        if !self.dcache_bytes.is_power_of_two() || self.dcache_bytes < self.line_bytes {
            return Err(format!("dcache_bytes {} invalid", self.dcache_bytes));
        }
        // A line holds at least one aligned 8-byte fetch pair, the
        // granule functional warming tracks.
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 8 {
            return Err(format!("line_bytes {} invalid", self.line_bytes));
        }
        for (name, v) in [
            ("write_cache_lines", self.write_cache_lines),
            ("rob_entries", self.rob_entries),
            ("mshr_entries", self.mshr_entries),
            ("fpu.instr_queue", self.fpu.instr_queue),
            ("fpu.load_queue", self.fpu.load_queue),
            ("fpu.store_queue", self.fpu.store_queue),
            ("fpu.rob_entries", self.fpu.rob_entries),
            ("fpu.result_busses", self.fpu.result_busses),
        ] {
            if v == 0 {
                return Err(format!("{name} must be nonzero"));
            }
        }
        if self.prefetch_enabled && (self.prefetch_buffers == 0 || self.prefetch_depth == 0) {
            return Err("prefetch enabled but zero buffers/depth".to_owned());
        }
        if self.dcache_latency == 0 {
            return Err("dcache_latency must be nonzero".to_owned());
        }
        self.memory_latency
            .validate()
            .map_err(|e| format!("memory_latency: {e}"))
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} issue, {}K I$/{}K D$, {}-line WC, {} ROB, {}x{} prefetch{}, {} MSHR, mem {:.0}",
            self.name,
            self.issue_width,
            self.icache_bytes / 1024,
            self.dcache_bytes / 1024,
            self.write_cache_lines,
            self.rob_entries,
            self.prefetch_buffers,
            self.prefetch_depth,
            if self.prefetch_enabled {
                ""
            } else {
                " (disabled)"
            },
            self.mshr_entries,
            self.memory_latency.mean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let s = MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17));
        assert_eq!(s.icache_bytes, 1024);
        assert_eq!(s.dcache_bytes, 16 * 1024);
        assert_eq!(s.write_cache_lines, 2);
        assert_eq!(s.rob_entries, 2);
        assert_eq!(s.prefetch_buffers, 2);
        assert_eq!(s.mshr_entries, 1);

        let b = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        assert_eq!((b.icache_bytes, b.dcache_bytes), (2048, 32768));
        assert_eq!((b.write_cache_lines, b.rob_entries), (4, 6));
        assert_eq!((b.prefetch_buffers, b.mshr_entries), (4, 2));

        let l = MachineModel::Large.config(IssueWidth::Dual, LatencyModel::Fixed(35));
        assert_eq!((l.icache_bytes, l.dcache_bytes), (4096, 65536));
        assert_eq!((l.write_cache_lines, l.rob_entries), (8, 8));
        assert_eq!((l.prefetch_buffers, l.mshr_entries), (8, 4));
    }

    #[test]
    fn presets_validate() {
        for m in MachineModel::ALL {
            for issue in [IssueWidth::Single, IssueWidth::Dual] {
                let cfg = m.config(issue, LatencyModel::average_17());
                cfg.validate().unwrap();
            }
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut cfg = MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17));
        cfg.icache_bytes = 1000;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17));
        cfg.mshr_entries = 0;
        assert!(cfg.validate().unwrap_err().contains("mshr"));

        let mut cfg = MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17));
        cfg.fpu.result_busses = 0;
        assert!(cfg.validate().is_err());

        let cfg = MachineModel::Small
            .config(IssueWidth::Single, LatencyModel::Uniform { lo: 30, hi: 10 });
        assert!(cfg.validate().unwrap_err().contains("memory_latency"));
    }

    #[test]
    fn lines_hold_at_least_one_fetch_pair() {
        let mut cfg = MachineModel::Small.config(IssueWidth::Single, LatencyModel::Fixed(17));
        for bytes in [1, 2, 4] {
            cfg.line_bytes = bytes;
            assert!(
                cfg.validate().unwrap_err().contains("line_bytes"),
                "{bytes}"
            );
        }
        for bytes in [8, 16, 32, 64] {
            cfg.line_bytes = bytes;
            assert_eq!(cfg.validate(), Ok(()), "{bytes}");
        }
    }

    #[test]
    fn recommended_fpu_matches_section_5_11() {
        let fpu = FpuConfig::recommended();
        assert_eq!(fpu.issue_policy, FpIssuePolicy::OutOfOrderDual);
        assert_eq!(fpu.instr_queue, 5);
        assert_eq!(fpu.load_queue, 2);
        assert_eq!(fpu.rob_entries, 6);
        assert_eq!(fpu.add_latency, 3);
        assert_eq!(fpu.mul_latency, 5);
        assert_eq!(fpu.div_latency, 19);
        assert_eq!(fpu.result_busses, 2);
    }

    #[test]
    fn sampling_config_validates() {
        SamplingConfig::recommended().validate().unwrap();
        let zero = SamplingConfig {
            window_ops: 0,
            ..SamplingConfig::recommended()
        };
        assert!(zero.validate().unwrap_err().contains("window"));
        let oversub = SamplingConfig {
            window_ops: 600,
            warmup_ops: 500,
            interval_ops: 1000,
        };
        assert!(oversub.validate().unwrap_err().contains("exceed"));
        // A fully-detailed degenerate config is allowed.
        SamplingConfig {
            window_ops: 500,
            warmup_ops: 500,
            interval_ops: 1000,
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn fingerprint_ignores_labels() {
        let a = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let mut b = a.clone();
        b.name = "other-label".to_owned();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let cfg = MachineModel::Large.config(IssueWidth::Single, LatencyModel::average_35());
        assert_eq!(cfg.fingerprint(), cfg.clone().fingerprint());
    }

    #[test]
    fn display_is_informative() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let s = cfg.to_string();
        assert!(s.contains("dual"));
        assert!(s.contains("2K I$"));
    }
}
