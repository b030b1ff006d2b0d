//! The [`Workload`] wrapper: an assembled kernel plus trace utilities.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use aurora_isa::{
    Assembler, BlockTrace, BlockTraceBuilder, EmuError, Emulator, Fnv1a, PackedTrace, Program,
    RunOutcome, TraceOp, TraceStats,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How long a kernel runs.
///
/// `Test` keeps unit tests fast; `Small` is the default used by the
/// benchmark harness (the paper itself truncated runs for the same
/// reason, §4.1); `Full` is for high-fidelity reproduction runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// A few tens of thousands of instructions.
    Test,
    /// A few hundred thousand instructions (harness default).
    #[default]
    Small,
    /// Millions of instructions.
    Full,
}

/// The number of [`Scale`]s: the width of each kernel's row in the
/// process-wide workload tables, which `scale as usize` indexes.
pub(crate) const SCALES: usize = 3;

impl Scale {
    /// Multiplier applied to each kernel's base iteration count.
    pub fn factor(self) -> u32 {
        match self {
            Scale::Test => 1,
            Scale::Small => 6,
            Scale::Full => 40,
        }
    }

    /// Instruction budget guard for the emulator.
    pub fn instruction_limit(self) -> u64 {
        match self {
            Scale::Test => 3_000_000,
            Scale::Small => 30_000_000,
            Scale::Full => 300_000_000,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
        })
    }
}

/// Error produced while building or running a workload.
#[derive(Debug, Clone)]
pub enum WorkloadError {
    /// The kernel's emulation faulted.
    Emu(EmuError),
    /// The kernel did not halt within its instruction budget.
    DidNotHalt {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Emu(e) => write!(f, "emulation fault: {e}"),
            WorkloadError::DidNotHalt { limit } => {
                write!(f, "kernel did not halt within {limit} instructions")
            }
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Emu(e) => Some(e),
            WorkloadError::DidNotHalt { .. } => None,
        }
    }
}

impl From<EmuError> for WorkloadError {
    fn from(e: EmuError) -> Self {
        WorkloadError::Emu(e)
    }
}

/// An assembled, runnable kernel.
///
/// Cheap to clone: clones share one [`Program`] behind an `Arc`, and
/// both hashes ([`content_hash`](Workload::content_hash),
/// [`trace_hash`](Workload::trace_hash)) are computed once, when the
/// workload is built. The suite kernels are built at most once per
/// process (see [`IntBenchmark::workload`](crate::IntBenchmark::workload)).
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    scale: Scale,
    program: Arc<Program>,
    content_hash: u64,
    trace_hash: u64,
}

impl Workload {
    /// Wraps an assembled program and computes its two hashes.
    pub(crate) fn new(name: &'static str, scale: Scale, program: Program) -> Workload {
        let content_hash = program_hash(&program);
        let mut h = Fnv1a::new();
        h.write_str(name);
        h.write_str(&scale.to_string());
        h.write_u64(content_hash);
        Workload {
            name,
            scale,
            program: Arc::new(program),
            content_hash,
            trace_hash: h.finish(),
        }
    }

    /// Assembles `source`, panicking with kernel context on failure
    /// (kernels are compiled-in constants; failing to assemble is a bug).
    pub(crate) fn assemble(name: &'static str, scale: Scale, source: &str) -> Workload {
        let program = Assembler::new()
            .assemble(source)
            .unwrap_or_else(|e| panic!("kernel `{name}` failed to assemble: {e}"));
        program
            .verify_delay_slots()
            .unwrap_or_else(|e| panic!("kernel `{name}`: {e}"));
        Workload::new(name, scale, program)
    }

    /// The benchmark name (e.g. `"espresso"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The scale this instance was built at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The assembled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the kernel, streaming each retired instruction into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if emulation faults or the kernel fails
    /// to halt within the scale's instruction budget.
    pub fn run_traced(&self, sink: impl FnMut(TraceOp)) -> Result<TraceStats, WorkloadError> {
        let limit = self.scale.instruction_limit();
        let mut stats = TraceStats::default();
        let mut sink = sink;
        let mut emu = Emulator::new(&self.program);
        let outcome = emu.run_traced(limit, |op| {
            stats.record(&op);
            sink(op);
        })?;
        if outcome != RunOutcome::Halted {
            return Err(WorkloadError::DidNotHalt { limit });
        }
        Ok(stats)
    }

    /// Runs the kernel once and captures the whole trace in packed form,
    /// 16 bytes per op. This is the oracle capture that the differential
    /// suites read, through `aurora-core`'s per-op `replay` and its
    /// digest sampler `run_sampled_digest`; every product path captures
    /// straight into the block form with [`Workload::capture_blocks`]
    /// instead (see [`TraceStore`](crate::TraceStore) for the memoising
    /// layer).
    ///
    /// # Errors
    ///
    /// See [`Workload::run_traced`].
    pub fn capture(&self) -> Result<PackedTrace, WorkloadError> {
        let mut trace = PackedTrace::new();
        self.run_traced(|op| trace.push(op))?;
        Ok(trace)
    }

    /// Runs the kernel once and lowers its trace to basic blocks as it
    /// retires, never holding a [`PackedTrace`]: the product form that
    /// sweeps, serve cells and sampled runs replay. Equal to
    /// `BlockTrace::lower(&self.capture()?)`.
    ///
    /// # Errors
    ///
    /// See [`Workload::run_traced`].
    pub fn capture_blocks(&self) -> Result<BlockTrace, WorkloadError> {
        let mut blocks = BlockTraceBuilder::new();
        self.run_traced(|op| blocks.push(op))?;
        Ok(blocks.finish())
    }

    /// A stable FNV-1a hash of the assembled program's content (entry
    /// point, encoded instructions and initialised data). Part of the
    /// [`TraceStore`](crate::TraceStore) memo key and of
    /// [`trace_hash`](Workload::trace_hash): two builds whose kernels
    /// differ in any way hash differently, so a stale memoised result can
    /// never be served. Computed once, when the workload is built.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// A stable fingerprint of the *dynamic trace identity* of this
    /// workload: kernel name, scale, and [`content_hash`]. Two workloads
    /// with equal trace hashes replay the same packed trace, so memoised
    /// per-trace results (the `aurora-serve` result store) key on this,
    /// across processes and builds. Computed once, when the workload is
    /// built.
    ///
    /// [`content_hash`]: Workload::content_hash
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }
}

/// The FNV-1a hash of `program`'s content: entry point, text base,
/// encoded instructions and initialised data. The one definition behind
/// [`Workload::content_hash`].
pub(crate) fn program_hash(program: &Program) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u32(program.entry());
    h.write_u32(program.text_base());
    for instr in program.instructions() {
        h.write_u32(instr.encode());
    }
    let data = program.data();
    h.write_u32(data.base);
    h.write(&data.bytes);
    h.finish()
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} static instructions)",
            self.name,
            self.scale,
            self.program.instructions().len()
        )
    }
}

/// Formats `n` pseudo-random words (from a seeded generator) as `.word`
/// directives, `per_line` values per line, each in `[0, bound)`.
pub(crate) fn words_data(seed: u64, n: usize, bound: u32, per_line: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::with_capacity(n * 8);
    for chunk_start in (0..n).step_by(per_line) {
        out.push_str("  .word ");
        let end = (chunk_start + per_line).min(n);
        for i in chunk_start..end {
            if i > chunk_start {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", rng.gen_range(0..bound.max(1)));
        }
        out.push('\n');
    }
    out
}

/// Formats `n` pseudo-random doubles in `[lo, hi)` as `.double` directives.
pub(crate) fn doubles_data(seed: u64, n: usize, lo: f64, hi: f64, per_line: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::with_capacity(n * 12);
    for chunk_start in (0..n).step_by(per_line) {
        out.push_str("  .double ");
        let end = (chunk_start + per_line).min(n);
        for i in chunk_start..end {
            if i > chunk_start {
                out.push_str(", ");
            }
            let v: f64 = rng.gen_range(lo..hi);
            let _ = write!(out, "{v:.6}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_increase() {
        assert!(Scale::Test.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
        assert!(Scale::Test.instruction_limit() < Scale::Full.instruction_limit());
    }

    #[test]
    fn workload_runs_a_trivial_kernel() {
        let w = Workload::assemble(
            "trivial",
            Scale::Test,
            ".text\n li $t0, 100\nl: addiu $t0, $t0, -1\n bgtz $t0, l\n nop\n break\n",
        );
        let trace = w.capture().unwrap();
        assert_eq!(trace.stats().total, trace.len() as u64);
        assert!(trace.stats().branches >= 100);
        assert!(w.to_string().contains("trivial"));
    }

    #[test]
    fn non_halting_kernel_reports() {
        let w = Workload::assemble("spin", Scale::Test, ".text\nx: b x\n nop\n break\n");
        match w.capture() {
            Err(WorkloadError::DidNotHalt { .. }) => {}
            other => panic!("expected DidNotHalt, got {other:?}"),
        }
    }

    #[test]
    fn words_data_is_deterministic_and_bounded() {
        let a = words_data(7, 64, 100, 16);
        let b = words_data(7, 64, 100, 16);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 4);
        for line in a.lines() {
            for v in line.trim().trim_start_matches(".word").split(',') {
                let v: u32 = v.trim().parse().unwrap();
                assert!(v < 100);
            }
        }
    }

    #[test]
    fn trace_hash_separates_name_scale_and_content() {
        let a = Workload::assemble("k", Scale::Test, ".text\n nop\n break\n");
        let same = Workload::assemble("k", Scale::Test, ".text\n nop\n break\n");
        let other_scale = Workload::assemble("k", Scale::Small, ".text\n nop\n break\n");
        let other_name = Workload::assemble("k2", Scale::Test, ".text\n nop\n break\n");
        let other_body = Workload::assemble("k", Scale::Test, ".text\n nop\n nop\n break\n");
        assert_eq!(a.trace_hash(), same.trace_hash());
        assert_ne!(a.trace_hash(), other_scale.trace_hash());
        assert_ne!(a.trace_hash(), other_name.trace_hash());
        assert_ne!(a.trace_hash(), other_body.trace_hash());
    }

    #[test]
    fn doubles_data_parses() {
        let d = doubles_data(3, 8, -1.0, 1.0, 4);
        assert_eq!(d.lines().count(), 2);
        assert!(d.contains(".double"));
    }
}
