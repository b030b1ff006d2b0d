//! Parameterised statistical trace generation.
//!
//! Kernels give realistic whole-program behaviour; controlled experiments
//! (unit tests, knob sweeps, stress runs) often want a trace whose mix is a
//! *knob*. [`SyntheticConfig`] draws instruction kinds from configured
//! fractions, walks a bounded code footprint with realistic branch
//! behaviour, and mixes sequential with random data accesses over a
//! bounded working set.

use aurora_isa::{ArchReg, MemWidth, OpKind, TraceOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TEXT_BASE: u32 = 0x0040_0000;
const DATA_BASE: u32 = 0x1001_0000;

/// Knobs for the synthetic trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Trace length.
    pub instructions: u64,
    /// Fraction of integer loads.
    pub load_fraction: f64,
    /// Fraction of integer stores.
    pub store_fraction: f64,
    /// Fraction of conditional branches.
    pub branch_fraction: f64,
    /// Probability a branch is taken.
    pub branch_taken_prob: f64,
    /// Fraction of FPU arithmetic (split across add/mul/div/cvt).
    pub fp_fraction: f64,
    /// Static code footprint in bytes (distinct instruction addresses).
    pub code_footprint: u32,
    /// Data working-set size in bytes.
    pub data_working_set: u32,
    /// Probability a memory access continues a sequential stream rather
    /// than striking randomly into the working set.
    pub sequential_data_prob: f64,
    /// Probability an op consumes the previous op's destination (creates
    /// scoreboard pressure).
    pub dependency_prob: f64,
    /// RNG seed; equal seeds give byte-identical traces.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            instructions: 100_000,
            load_fraction: 0.20,
            store_fraction: 0.10,
            branch_fraction: 0.15,
            branch_taken_prob: 0.6,
            fp_fraction: 0.0,
            code_footprint: 4096,
            data_working_set: 64 * 1024,
            sequential_data_prob: 0.5,
            dependency_prob: 0.3,
            seed: 0xBEEF,
        }
    }
}

impl SyntheticConfig {
    /// Validates that the fractions form a sensible distribution.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let sum =
            self.load_fraction + self.store_fraction + self.branch_fraction + self.fp_fraction;
        if !(0.0..=1.0).contains(&sum) {
            return Err(format!("kind fractions sum to {sum}, must be <= 1"));
        }
        for (name, p) in [
            ("branch_taken_prob", self.branch_taken_prob),
            ("sequential_data_prob", self.sequential_data_prob),
            ("dependency_prob", self.dependency_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} out of [0,1]"));
            }
        }
        if self.code_footprint < 8 || !self.code_footprint.is_multiple_of(4) {
            return Err(format!("code_footprint {} invalid", self.code_footprint));
        }
        if self.data_working_set < 64 {
            return Err("data_working_set too small".to_owned());
        }
        Ok(())
    }

    /// Builds the generator iterator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SyntheticConfig::validate`]).
    pub fn generate(&self) -> Generator {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid synthetic config: {e}"));
        Generator {
            cfg: self.clone(),
            rng: SmallRng::seed_from_u64(self.seed),
            pc: TEXT_BASE,
            seq_ptr: DATA_BASE,
            emitted: 0,
            last_dst: None,
            next_reg: 8,
        }
    }

    /// Convenience: collects the whole trace.
    pub fn collect(&self) -> Vec<TraceOp> {
        self.generate().collect()
    }
}

/// Streaming iterator over a synthetic trace.
#[derive(Debug, Clone)]
pub struct Generator {
    cfg: SyntheticConfig,
    rng: SmallRng,
    pc: u32,
    seq_ptr: u32,
    emitted: u64,
    last_dst: Option<ArchReg>,
    next_reg: u8,
}

impl Generator {
    fn pick_dst(&mut self) -> ArchReg {
        let r = ArchReg::Int(self.next_reg);
        self.next_reg = 8 + (self.next_reg - 7) % 16;
        r
    }

    fn pick_src(&mut self) -> ArchReg {
        if let Some(d) = self.last_dst {
            if self.rng.gen_bool(self.cfg.dependency_prob) {
                return d;
            }
        }
        ArchReg::Int(self.rng.gen_range(8..24))
    }

    fn data_address(&mut self) -> u32 {
        if self.rng.gen_bool(self.cfg.sequential_data_prob) {
            self.seq_ptr = self.seq_ptr.wrapping_add(4);
            if self.seq_ptr >= DATA_BASE + self.cfg.data_working_set {
                self.seq_ptr = DATA_BASE;
            }
            self.seq_ptr
        } else {
            DATA_BASE + (self.rng.gen_range(0..self.cfg.data_working_set) & !3)
        }
    }

    fn advance_pc(&mut self, redirect: Option<u32>) {
        self.pc = match redirect {
            Some(t) => t,
            None => {
                let next = self.pc + 4;
                if next >= TEXT_BASE + self.cfg.code_footprint {
                    TEXT_BASE
                } else {
                    next
                }
            }
        };
    }
}

impl Iterator for Generator {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        if self.emitted >= self.cfg.instructions {
            return None;
        }
        self.emitted += 1;
        let pc = self.pc;
        let c = &self.cfg;
        let roll: f64 = self.rng.gen();
        let load_t = c.load_fraction;
        let store_t = load_t + c.store_fraction;
        let branch_t = store_t + c.branch_fraction;
        let fp_t = branch_t + c.fp_fraction;

        let mut redirect = None;
        let op = if roll < load_t {
            let ea = self.data_address();
            let dst = self.pick_dst();
            let src = self.pick_src();
            self.last_dst = Some(dst);
            TraceOp {
                pc,
                kind: OpKind::Load {
                    ea,
                    width: MemWidth::Word,
                },
                dst: Some(dst),
                src1: Some(src),
                src2: None,
            }
        } else if roll < store_t {
            let ea = self.data_address();
            let s1 = self.pick_src();
            let s2 = self.pick_src();
            self.last_dst = None;
            TraceOp {
                pc,
                kind: OpKind::Store {
                    ea,
                    width: MemWidth::Word,
                },
                dst: None,
                src1: Some(s1),
                src2: Some(s2),
            }
        } else if roll < branch_t {
            let taken = self.rng.gen_bool(c.branch_taken_prob);
            let span = c.code_footprint / 4;
            let target = TEXT_BASE + 4 * self.rng.gen_range(0..span);
            if taken {
                redirect = Some(target);
            }
            let s1 = self.pick_src();
            self.last_dst = None;
            TraceOp {
                pc,
                kind: OpKind::Branch { taken, target },
                dst: None,
                src1: Some(s1),
                src2: None,
            }
        } else if roll < fp_t {
            let kind = match self.rng.gen_range(0..10) {
                0..=3 => OpKind::FpAdd,
                4..=6 => OpKind::FpMul,
                7 => OpKind::FpDiv,
                8 => OpKind::FpCvt,
                _ => OpKind::FpMove,
            };
            let fd = 2 * self.rng.gen_range(1..8u8);
            let fs = 2 * self.rng.gen_range(1..8u8);
            let ft = 2 * self.rng.gen_range(1..8u8);
            TraceOp {
                pc,
                kind,
                dst: Some(ArchReg::Fp(fd)),
                src1: Some(ArchReg::Fp(fs)),
                src2: Some(ArchReg::Fp(ft)),
            }
        } else {
            let dst = self.pick_dst();
            let s1 = self.pick_src();
            let s2 = self.pick_src();
            self.last_dst = Some(dst);
            TraceOp {
                pc,
                kind: OpKind::IntAlu,
                dst: Some(dst),
                src1: Some(s1),
                src2: Some(s2),
            }
        };
        // Note: the synthetic stream does not model delay slots — branch
        // redirects take effect on the next instruction. The simulator's
        // delay-slot chaining tolerates this (it simply sees the "slot" at
        // the target address).
        self.advance_pc(redirect);
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.cfg.instructions - self.emitted) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_isa::TraceStats;

    #[test]
    fn fractions_are_respected() {
        let cfg = SyntheticConfig {
            instructions: 50_000,
            load_fraction: 0.25,
            store_fraction: 0.10,
            branch_fraction: 0.15,
            fp_fraction: 0.10,
            ..Default::default()
        };
        let mut stats = TraceStats::default();
        for op in cfg.generate() {
            stats.record(&op);
        }
        assert_eq!(stats.total, 50_000);
        let loads = stats.loads as f64 / stats.total as f64;
        let stores = stats.stores as f64 / stats.total as f64;
        let branches = stats.branches as f64 / stats.total as f64;
        let fp = stats.fp_ops as f64 / stats.total as f64;
        assert!((loads - 0.25).abs() < 0.02, "{loads}");
        assert!((stores - 0.10).abs() < 0.02, "{stores}");
        assert!((branches - 0.15).abs() < 0.02, "{branches}");
        assert!((fp - 0.10).abs() < 0.02, "{fp}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig {
            instructions: 1_000,
            ..Default::default()
        };
        assert_eq!(cfg.collect(), cfg.collect());
        let other = SyntheticConfig { seed: 1, ..cfg };
        assert_ne!(other.collect(), cfg.collect());
    }

    #[test]
    fn code_footprint_bounds_pcs() {
        let cfg = SyntheticConfig {
            instructions: 10_000,
            code_footprint: 1024,
            ..Default::default()
        };
        for op in cfg.generate() {
            assert!(op.pc >= TEXT_BASE && op.pc < TEXT_BASE + 1024);
            assert_eq!(op.pc % 4, 0);
        }
    }

    #[test]
    fn working_set_bounds_addresses() {
        let cfg = SyntheticConfig {
            instructions: 10_000,
            data_working_set: 4096,
            ..Default::default()
        };
        for op in cfg.generate() {
            if let Some(ea) = op.kind.effective_address() {
                assert!((DATA_BASE..DATA_BASE + 4096 + 4).contains(&ea));
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = SyntheticConfig {
            load_fraction: 0.9,
            store_fraction: 0.9,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SyntheticConfig {
            branch_taken_prob: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SyntheticConfig {
            code_footprint: 6,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn size_hint_is_exact() {
        let cfg = SyntheticConfig {
            instructions: 123,
            ..Default::default()
        };
        let gen = cfg.generate();
        assert_eq!(gen.size_hint(), (123, Some(123)));
        assert_eq!(gen.count(), 123);
    }

    #[test]
    fn dependency_prob_creates_chains() {
        let chained = SyntheticConfig {
            instructions: 20_000,
            dependency_prob: 0.9,
            branch_fraction: 0.0,
            load_fraction: 0.0,
            store_fraction: 0.0,
            ..Default::default()
        };
        let mut hits = 0;
        let mut last: Option<ArchReg> = None;
        for op in chained.generate() {
            if let (Some(prev), true) = (last, op.sources().any(|s| Some(s) == last)) {
                let _ = prev;
                hits += 1;
            }
            last = op.dst;
        }
        assert!(hits > 15_000, "{hits}");
    }
}
