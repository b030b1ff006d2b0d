//! SMARTS-style sampled simulation: detailed measurement windows over a
//! functional-warming fast-forward (Wunderlich, Wenisch, Falsafi & Hoe,
//! ISCA 2003 — applied here to the paper's trace-driven methodology).
//!
//! A captured trace is divided into consecutive *sampling units* of
//! [`SamplingConfig::interval_ops`] instructions. Within each unit the
//! simulator:
//!
//! 1. **fast-forwards** through functional warming: ops retire at
//!    near-emulator speed while I-cache tags and pre-decode, D-cache
//!    tags, write-cache lines and stream-buffer allocation keep evolving,
//!    so the long-history state a window depends on is warm;
//! 2. runs a **detailed warm-up** of [`SamplingConfig::warmup_ops`]
//!    instructions to re-fill the short-history state warming does not
//!    touch (scoreboard, ROB, FPU queues, in-flight misses, BIU busses);
//! 3. **measures** the final [`SamplingConfig::window_ops`] instructions
//!    as a delta of `(cycle, instructions)` around the window.
//!
//! Each window yields one per-unit CPI observation; the estimate is their
//! mean with a 95% confidence interval from the sample standard
//! deviation. Because the units partition the trace (systematic
//! sampling — the stratified design of SMARTS §3), phase behaviour is
//! represented in proportion to its length.
//!
//! Traces no longer than one sampling unit run fully detailed and report
//! the exact CPI with a zero-width interval.
//!
//! [`run_sampled`] walks the block form that sweeps and exact cells
//! replay, so sampled mode needs no other trace form. Its oracle,
//! [`run_sampled_digest`], walks a [`PackedTrace`](aurora_isa::PackedTrace)'s
//! records and their [`WarmDigest`]; both share the placement and
//! interval loop below and the simulator's per-event warming rule, and
//! their estimates are bit-identical.

use aurora_isa::{BlockTrace, PackedOp, WarmDigest};

use crate::config::{MachineConfig, SamplingConfig};
use crate::sim::{BlockCursor, Simulator};

/// Two-sided 95% normal quantile used for the confidence interval.
const Z_95: f64 = 1.96;

/// The result of a sampled run: a CPI estimate with its sampling error,
/// plus enough bookkeeping to compute the detail fraction and speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStats {
    /// Total instructions in the trace (fast-forwarded + detailed).
    pub instructions: u64,
    /// Instructions that ran through the detailed model (warm-ups and
    /// measured windows).
    pub detailed_instructions: u64,
    /// Measured windows contributing CPI observations.
    pub windows: usize,
    /// Mean per-window CPI — the point estimate.
    pub cpi: f64,
    /// Half-width of the 95% confidence interval on the mean CPI. Zero
    /// when the run was fully detailed or has a single window.
    pub ci_half_width: f64,
}

impl SampledStats {
    /// Fraction of the trace that ran through the detailed model.
    pub fn detail_fraction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.detailed_instructions as f64 / self.instructions as f64
    }
}

/// Runs the trace `blocks` encodes under `cfg` in sampling mode and
/// returns the CPI estimate. See the [module docs](self) for the
/// procedure. Warm-ups and windows feed their ops one at a time through
/// [`Simulator::feed`]; the stretches between them are warmed by
/// walking the block templates (`Simulator::warm_blocks`), which
/// needs nothing built beyond per-template line masks.
///
/// # Panics
///
/// Panics if `sampling` fails [`SamplingConfig::validate`] (programming
/// error, mirroring [`Simulator::new`] on an invalid machine config).
pub fn run_sampled(
    cfg: &MachineConfig,
    sampling: &SamplingConfig,
    blocks: &BlockTrace,
) -> SampledStats {
    let len = usize::try_from(blocks.len()).unwrap_or(usize::MAX);
    sample(cfg, sampling, len, || {
        BlockCursor::new(blocks, cfg.line_bytes)
    })
}

/// The oracle of [`run_sampled`]: the same estimate from the packed
/// records `ops` and a [`WarmDigest`] of them, warming through
/// [`Simulator::warm_digest`]. A digest of another line size than
/// `cfg`'s is rebuilt at `cfg`'s, so the result never depends on which
/// digest the caller held. The differential tests and
/// `aurora_benchmark`'s reference cells run it; no product path does.
///
/// # Panics
///
/// As [`run_sampled`].
pub fn run_sampled_digest(
    cfg: &MachineConfig,
    sampling: &SamplingConfig,
    ops: &[PackedOp],
    digest: &WarmDigest,
) -> SampledStats {
    sample(cfg, sampling, ops.len(), || {
        let rebuilt =
            (digest.line_bytes() != cfg.line_bytes).then(|| WarmDigest::build(ops, cfg.line_bytes));
        DigestWalk {
            ops,
            digest,
            rebuilt,
            at: 0,
        }
    })
}

/// A trace form the sampler walks forward through, one stretch at a
/// time, in trace order.
trait Walk {
    /// Runs the next `n` ops through the detailed model.
    fn detail(&mut self, sim: &mut Simulator<'_>, n: usize);
    /// Functionally warms the next `n` ops. A zero-length stretch still
    /// drains the simulator's look-ahead and clears its redirect state.
    fn warm(&mut self, sim: &mut Simulator<'_>, n: usize);
}

impl Walk for BlockCursor<'_> {
    fn detail(&mut self, sim: &mut Simulator<'_>, n: usize) {
        sim.feed_cursor(self, n);
    }

    fn warm(&mut self, sim: &mut Simulator<'_>, n: usize) {
        sim.warm_blocks(self, n);
    }
}

/// The oracle's walk: an op offset into the packed records, warming
/// through the digest.
struct DigestWalk<'a> {
    ops: &'a [PackedOp],
    digest: &'a WarmDigest,
    /// The digest at the machine's line size, when `digest` has another.
    rebuilt: Option<WarmDigest>,
    at: usize,
}

impl Walk for DigestWalk<'_> {
    fn detail(&mut self, sim: &mut Simulator<'_>, n: usize) {
        for op in &self.ops[self.at..self.at + n] {
            sim.feed(op.unpack());
        }
        self.at += n;
    }

    fn warm(&mut self, sim: &mut Simulator<'_>, n: usize) {
        let digest = self.rebuilt.as_ref().unwrap_or(self.digest);
        sim.warm_digest(digest, self.at..self.at + n);
        self.at += n;
    }
}

/// The sampled run over a `len`-op trace: window placement and the
/// interval estimate, shared by the product and the oracle. The walk is
/// made once the configs have validated.
fn sample<W: Walk>(
    cfg: &MachineConfig,
    sampling: &SamplingConfig,
    len: usize,
    walk: impl FnOnce() -> W,
) -> SampledStats {
    sampling
        .validate()
        .unwrap_or_else(|e| panic!("invalid sampling config: {e}"));
    let unit = sampling.interval_ops;
    let mut sim = Simulator::new(cfg);
    let mut walk = walk();
    if len <= unit {
        // Shorter than one sampling unit: the exact run *is* the estimate.
        walk.detail(&mut sim, len);
        let stats = sim.finish();
        return SampledStats {
            instructions: stats.instructions,
            detailed_instructions: stats.instructions,
            windows: 1,
            cpi: stats.cpi(),
            ci_half_width: 0.0,
        };
    }

    let detail = sampling.warmup_ops + sampling.window_ops;
    // Free ops around the detailed chunk within one interval.
    let slots = unit - detail;
    let mut cpis: Vec<f64> = Vec::with_capacity(len / unit.max(1) + 1);
    let mut detailed = 0u64;
    let mut i = 0usize;
    let mut k = 0u64;
    while i + unit <= len {
        // Place the detailed chunk at a per-interval offset drawn from a
        // fixed golden-ratio (Weyl) hash of the interval index. A
        // systematic placement (always at the interval's end) aliases
        // with any loop whose period divides the interval — every
        // window then lands on the same code phase and the estimate is
        // *biased*, not just noisy. The hash sequence is deterministic,
        // so runs stay exactly reproducible, while the positions are
        // incommensurate with any workload period.
        let off = ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) % (slots + 1);
        walk.warm(&mut sim, off);
        walk.detail(&mut sim, sampling.warmup_ops);
        let (c0, n0) = (sim.cycle(), sim.retired_instructions());
        walk.detail(&mut sim, sampling.window_ops);
        let (c1, n1) = (sim.cycle(), sim.retired_instructions());
        if n1 > n0 {
            cpis.push((c1 - c0) as f64 / (n1 - n0) as f64);
        }
        walk.warm(&mut sim, slots - off);
        detailed += detail as u64;
        i += unit;
        k += 1;
    }
    // The sub-unit tail is warmed, not measured: its share of the
    // estimate comes from the windows, weighted like every other
    // fast-forwarded stretch.
    walk.warm(&mut sim, len - i);

    let n = cpis.len();
    let mean = cpis.iter().sum::<f64>() / n.max(1) as f64;
    let ci = if n > 1 {
        let var = cpis.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Z_95 * (var / n as f64).sqrt()
    } else {
        0.0
    };
    SampledStats {
        instructions: len as u64,
        detailed_instructions: detailed,
        windows: n,
        cpi: mean,
        ci_half_width: ci,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IssueWidth, MachineModel};
    use crate::sim::replay;
    use aurora_isa::{ArchReg, MemWidth, OpKind, PackedTrace, TraceOp};
    use aurora_mem::LatencyModel;

    const BASE: u32 = 0x0040_0000;

    /// A loop-heavy kernel with loads, stores and taken branches whose
    /// working set alternates between two phases. The phase period is
    /// deliberately *not* a divisor of the sampling interval: systematic
    /// end-of-unit windows then land at varied phase offsets, which is
    /// what real workloads look like (a commensurate period aliases any
    /// systematic sampler — SMARTS §3.1 discusses exactly this).
    fn phased_trace(n: u32) -> PackedTrace {
        PackedTrace::from_ops((0..n).map(|i| {
            let phase = (i / 3700) % 2;
            let code = BASE + 0x100 * phase;
            let data = 0x0010_0000 + 0x8000 * phase;
            let pc = code + 4 * (i % 48);
            match i % 6 {
                0 => TraceOp {
                    pc,
                    kind: OpKind::Load {
                        ea: data + 64 * (i % 300),
                        width: MemWidth::Word,
                    },
                    dst: Some(ArchReg::Int((8 + i % 4) as u8)),
                    src1: Some(ArchReg::Int(29)),
                    src2: None,
                },
                1 => TraceOp {
                    pc,
                    kind: OpKind::Store {
                        ea: data + 32 * (i % 128),
                        width: MemWidth::Word,
                    },
                    dst: None,
                    src1: Some(ArchReg::Int(29)),
                    src2: Some(ArchReg::Int(8)),
                },
                5 => TraceOp {
                    pc,
                    kind: OpKind::Branch {
                        taken: i % 2 == 0,
                        target: code + 4 * ((i + 7) % 48),
                    },
                    dst: None,
                    src1: Some(ArchReg::Int(8)),
                    src2: None,
                },
                _ => TraceOp {
                    pc,
                    kind: OpKind::IntAlu,
                    dst: Some(ArchReg::Int((8 + i % 4) as u8)),
                    src1: Some(ArchReg::Int((8 + (i + 1) % 4) as u8)),
                    src2: None,
                },
            }
        }))
    }

    /// The product and its oracle agree bit for bit on the 15 kernels
    /// (`tests/sampled_differential.rs`); this covers the oracle's one
    /// path those kernels never take.
    #[test]
    fn oracle_rebuilds_a_digest_of_another_line_size() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let trace = phased_trace(40_000);
        let wrong = WarmDigest::build(trace.records(), 2 * cfg.line_bytes);
        let sampling = SamplingConfig::recommended();
        assert_eq!(
            run_sampled_digest(&cfg, &sampling, trace.records(), &wrong),
            run_sampled(&cfg, &sampling, &BlockTrace::lower(&trace))
        );
    }

    #[test]
    fn short_trace_runs_fully_detailed() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let trace = phased_trace(1000);
        let sampled = run_sampled(
            &cfg,
            &SamplingConfig::recommended(),
            &BlockTrace::lower(&trace),
        );
        let exact = replay(&cfg, &trace);
        assert_eq!(sampled.windows, 1);
        assert_eq!(sampled.ci_half_width, 0.0);
        assert_eq!(sampled.detailed_instructions, sampled.instructions);
        assert!((sampled.cpi - exact.cpi()).abs() < 1e-12);
    }

    #[test]
    fn sampled_cpi_tracks_ground_truth_on_steady_kernel() {
        // A steady loop kernel — the shape of the bench suite — must
        // estimate within 2% at a small detail fraction.
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::average_17());
        let trace = PackedTrace::from_ops((0..300_000u32).map(|i| {
            let pc = BASE + 4 * (i % 48);
            match i % 6 {
                0 => TraceOp {
                    pc,
                    kind: OpKind::Load {
                        ea: 0x0010_0000 + 64 * (i % 300),
                        width: MemWidth::Word,
                    },
                    dst: Some(ArchReg::Int((8 + i % 4) as u8)),
                    src1: Some(ArchReg::Int(29)),
                    src2: None,
                },
                1 => TraceOp {
                    pc,
                    kind: OpKind::Store {
                        ea: 0x0070_0000 + 32 * (i % 128),
                        width: MemWidth::Word,
                    },
                    dst: None,
                    src1: Some(ArchReg::Int(29)),
                    src2: Some(ArchReg::Int(8)),
                },
                _ => TraceOp {
                    pc,
                    kind: OpKind::IntAlu,
                    dst: Some(ArchReg::Int((8 + i % 4) as u8)),
                    src1: Some(ArchReg::Int((8 + (i + 1) % 4) as u8)),
                    src2: None,
                },
            }
        }));
        let exact = replay(&cfg, &trace).cpi();
        let sampled = run_sampled(
            &cfg,
            &SamplingConfig::recommended(),
            &BlockTrace::lower(&trace),
        );
        let err = (sampled.cpi - exact).abs() / exact;
        assert!(
            err < 0.02,
            "sampled {} vs exact {exact}: {:.2}% error",
            sampled.cpi,
            err * 100.0
        );
        assert!(sampled.windows >= 20, "windows {}", sampled.windows);
        assert!(
            sampled.detail_fraction() < 0.15,
            "detail fraction {}",
            sampled.detail_fraction()
        );
    }

    #[test]
    fn phased_workload_interval_is_honest() {
        // An adversarial workload with strong cache-thrashing phases:
        // per-window CPI is highly variable, so the point estimate may
        // wander — but the reported confidence interval must say so, and
        // truth must lie within it.
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::average_17());
        let trace = phased_trace(400_000);
        let exact = replay(&cfg, &trace).cpi();
        let sampling = SamplingConfig {
            window_ops: 256,
            warmup_ops: 256,
            interval_ops: 4096,
        };
        let sampled = run_sampled(&cfg, &sampling, &BlockTrace::lower(&trace));
        let err = (sampled.cpi - exact).abs();
        assert!(
            err < 2.0 * sampled.ci_half_width,
            "truth {exact} outside 2x CI: {} ± {}",
            sampled.cpi,
            sampled.ci_half_width
        );
        assert!(sampled.windows >= 50, "windows {}", sampled.windows);
        assert!(sampled.ci_half_width > 0.0);
    }

    #[test]
    fn estimator_is_deterministic() {
        let cfg = MachineModel::Small.config(IssueWidth::Single, LatencyModel::average_35());
        let blocks = BlockTrace::lower(&phased_trace(60_000));
        let a = run_sampled(&cfg, &SamplingConfig::recommended(), &blocks);
        let b = run_sampled(&cfg, &SamplingConfig::recommended(), &blocks);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid sampling config")]
    fn invalid_sampling_config_panics() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let bad = SamplingConfig {
            window_ops: 0,
            warmup_ops: 0,
            interval_ops: 8,
        };
        run_sampled(&cfg, &bad, &BlockTrace::lower(&phased_trace(100)));
    }

    /// Manual component-rate benchmark for functional warming: the
    /// product's block walk (its line masks included) beside the
    /// oracle's digest walk (its digest prebuilt, and its build timed
    /// apart), and the detailed per-op feed for scale, each the best of
    /// seven interleaved runs over a 4M-op trace. Run with:
    ///
    /// ```text
    /// cargo test --release -p aurora-core -- --ignored warm_component_rates --nocapture
    /// ```
    #[test]
    #[ignore = "manual benchmark; run with --release --ignored --nocapture"]
    fn warm_component_rates() {
        use std::time::Instant;
        let trace = phased_trace(4_000_000);
        let ops = trace.records();
        let blocks = BlockTrace::lower(&trace);
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let digest = WarmDigest::build(ops, cfg.line_bytes);
        let names = [
            "warm_blocks",
            "warm_digest",
            "digest build",
            "feed (detail)",
        ];
        let mut best = [f64::MAX; 4];
        // Interleaved rounds, so a slow stretch of the host does not
        // land on one component's every run.
        for _ in 0..7 {
            for (k, best) in best.iter_mut().enumerate() {
                let mut sim = Simulator::new(&cfg);
                let t = Instant::now();
                match k {
                    0 => sim.warm_blocks(&mut BlockCursor::new(&blocks, cfg.line_bytes), ops.len()),
                    1 => sim.warm_digest(&digest, 0..ops.len()),
                    2 => drop(WarmDigest::build(ops, cfg.line_bytes)),
                    _ => sim.feed_cursor(&mut BlockCursor::new(&blocks, cfg.line_bytes), ops.len()),
                }
                *best = best.min(t.elapsed().as_secs_f64());
            }
        }
        println!(
            "ops {} events {} ({:.1}%); best of 7, Mops/s:",
            ops.len(),
            digest.len(),
            100.0 * digest.len() as f64 / ops.len() as f64,
        );
        for (name, best) in names.iter().zip(best) {
            println!("{name:14} {:8.1}", ops.len() as f64 / best / 1e6);
        }
    }
}
