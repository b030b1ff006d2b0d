//! SMARTS-style sampled simulation: detailed measurement windows over a
//! functional-warming fast-forward (Wunderlich, Wenisch, Falsafi & Hoe,
//! ISCA 2003 — applied here to the paper's trace-driven methodology).
//!
//! A captured trace is divided into consecutive *sampling units* of
//! [`SamplingConfig::interval_ops`] instructions. Within each unit the
//! simulator:
//!
//! 1. **fast-forwards** through [`Simulator::warm_digest`]: ops retire at
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

use aurora_isa::{PackedOp, PackedTrace, WarmDigest};

use crate::config::{MachineConfig, SamplingConfig};
use crate::sim::Simulator;

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

/// Runs `trace` under `cfg` in sampling mode and returns the CPI
/// estimate. See the [module docs](self) for the procedure. Builds the
/// trace's [`WarmDigest`] at the machine's line size for this one run,
/// unless the trace fits in one sampling unit and runs fully detailed;
/// [`run_sampled_digest`] reuses a digest across runs.
///
/// # Panics
///
/// Panics if `sampling` fails [`SamplingConfig::validate`] (programming
/// error, mirroring [`Simulator::new`] on an invalid machine config).
pub fn run_sampled(
    cfg: &MachineConfig,
    sampling: &SamplingConfig,
    trace: &PackedTrace,
) -> SampledStats {
    run_sampled_inner(cfg, sampling, trace.records(), None)
}

/// [`run_sampled`] with a pre-built [`WarmDigest`] of `ops`, amortizing
/// the trace scan across models and repetitions (the digest depends
/// only on the trace and line granule). A digest of another line size
/// than `cfg`'s is rebuilt at `cfg`'s, so the result never depends on
/// which digest the caller held.
pub fn run_sampled_digest(
    cfg: &MachineConfig,
    sampling: &SamplingConfig,
    ops: &[PackedOp],
    digest: &WarmDigest,
) -> SampledStats {
    let digest = Some(digest).filter(|d| d.line_bytes() == cfg.line_bytes);
    run_sampled_inner(cfg, sampling, ops, digest)
}

/// The sampled run. `digest` is a [`WarmDigest`] of `ops` at
/// `cfg.line_bytes`; without one, a digest is built only once the
/// config has validated and the trace has proved longer than one
/// sampling unit, so a fully detailed run never pays for a digest it
/// would not read.
fn run_sampled_inner(
    cfg: &MachineConfig,
    sampling: &SamplingConfig,
    ops: &[PackedOp],
    digest: Option<&WarmDigest>,
) -> SampledStats {
    sampling
        .validate()
        .unwrap_or_else(|e| panic!("invalid sampling config: {e}"));
    let unit = sampling.interval_ops;
    let mut sim = Simulator::new(cfg);
    if ops.len() <= unit {
        // Shorter than one sampling unit: the exact run *is* the estimate.
        feed_ops(&mut sim, ops);
        let stats = sim.finish();
        return SampledStats {
            instructions: stats.instructions,
            detailed_instructions: stats.instructions,
            windows: 1,
            cpi: stats.cpi(),
            ci_half_width: 0.0,
        };
    }
    let built;
    let digest = match digest {
        Some(digest) => digest,
        None => {
            built = WarmDigest::build(ops, cfg.line_bytes);
            &built
        }
    };

    let detail = sampling.warmup_ops + sampling.window_ops;
    // Free ops around the detailed chunk within one interval.
    let slots = unit - detail;
    let mut cpis: Vec<f64> = Vec::with_capacity(ops.len() / unit.max(1) + 1);
    let mut detailed = 0u64;
    let mut i = 0usize;
    let mut k = 0u64;
    while i + unit <= ops.len() {
        // Place the detailed chunk at a per-interval offset drawn from a
        // fixed golden-ratio (Weyl) hash of the interval index. A
        // systematic placement (always at the interval's end) aliases
        // with any loop whose period divides the interval — every
        // window then lands on the same code phase and the estimate is
        // *biased*, not just noisy. The hash sequence is deterministic,
        // so runs stay exactly reproducible, while the positions are
        // incommensurate with any workload period.
        let off = ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) % (slots + 1);
        sim.warm_digest(digest, i..i + off);
        feed_ops(&mut sim, &ops[i + off..i + off + sampling.warmup_ops]);
        let (c0, n0) = (sim.cycle(), sim.retired_instructions());
        feed_ops(
            &mut sim,
            &ops[i + off + sampling.warmup_ops..i + off + detail],
        );
        let (c1, n1) = (sim.cycle(), sim.retired_instructions());
        if n1 > n0 {
            cpis.push((c1 - c0) as f64 / (n1 - n0) as f64);
        }
        sim.warm_digest(digest, i + off + detail..i + unit);
        detailed += detail as u64;
        i += unit;
        k += 1;
    }
    // The sub-unit tail is warmed, not measured: its share of the
    // estimate comes from the windows, weighted like every other
    // fast-forwarded stretch.
    sim.warm_digest(digest, i.min(ops.len())..ops.len());

    let n = cpis.len();
    let mean = cpis.iter().sum::<f64>() / n.max(1) as f64;
    let ci = if n > 1 {
        let var = cpis.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Z_95 * (var / n as f64).sqrt()
    } else {
        0.0
    };
    SampledStats {
        instructions: ops.len() as u64,
        detailed_instructions: detailed,
        windows: n,
        cpi: mean,
        ci_half_width: ci,
    }
}

/// Runs `ops` through the detailed model, one [`Simulator::feed`] each.
fn feed_ops(sim: &mut Simulator<'_>, ops: &[PackedOp]) {
    for op in ops.iter().map(PackedOp::unpack) {
        sim.feed(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IssueWidth, MachineModel};
    use crate::sim::replay;
    use aurora_isa::{ArchReg, MemWidth, OpKind, TraceOp};
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

    #[test]
    fn short_trace_runs_fully_detailed() {
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let trace = phased_trace(1000);
        let sampled = run_sampled(&cfg, &SamplingConfig::recommended(), &trace);
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
        let sampled = run_sampled(&cfg, &SamplingConfig::recommended(), &trace);
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
        let sampled = run_sampled(&cfg, &sampling, &trace);
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
        let trace = phased_trace(60_000);
        let a = run_sampled(&cfg, &SamplingConfig::recommended(), &trace);
        let b = run_sampled(&cfg, &SamplingConfig::recommended(), &trace);
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
        run_sampled(&cfg, &bad, &phased_trace(100));
    }

    /// Manual component-rate benchmark for the fast-forward paths. Run
    /// with:
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
        let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let rate = |ops: usize, secs: f64| ops as f64 / secs / 1e6;

        let t = Instant::now();
        let digest = WarmDigest::build(ops, cfg.line_bytes);
        let build = t.elapsed().as_secs_f64();

        let mut sim = Simulator::new(&cfg);
        let t = Instant::now();
        sim.warm_digest(&digest, 0..ops.len());
        let dig = t.elapsed().as_secs_f64();

        let mut sim = Simulator::new(&cfg);
        let t = Instant::now();
        feed_ops(&mut sim, ops);
        let feed = t.elapsed().as_secs_f64();

        println!(
            "ops {} events {} ({:.1}%)\n\
             digest build   {:8.1} Mops/s\n\
             warm_digest    {:8.1} Mops/s ({:.1} Mevents/s)\n\
             feed (detail)  {:8.1} Mops/s",
            ops.len(),
            digest.len(),
            100.0 * digest.len() as f64 / ops.len() as f64,
            rate(ops.len(), build),
            rate(ops.len(), dig),
            rate(digest.len(), dig),
            rate(ops.len(), feed),
        );
    }
}
