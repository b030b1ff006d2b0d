//! Cycle-level simulator of the Aurora III superscalar GaAs microprocessor
//! from *Resource Allocation in a High Clock Rate Microprocessor*
//! (Upton, Huff, Mudge & Brown, ASPLOS 1994).
//!
//! The crate provides:
//!
//! * [`MachineConfig`] / [`MachineModel`] — the paper's small, baseline and
//!   large resource-allocation models (Table 1) plus every knob the study
//!   sweeps: issue width, cache sizes, write-cache lines, reorder-buffer
//!   entries, prefetch buffers, MSHRs, secondary memory latency and the
//!   full FPU design space ([`FpuConfig`], §5.7–§5.11),
//! * [`Simulator`] — a trace-driven cycle-level model of the IPU (fetch
//!   with pre-decoded pairs and branch folding, dual issue, scoreboard,
//!   reorder buffer, LSU with non-blocking external data cache and
//!   coalescing write cache, stream-buffer prefetching, split-transaction
//!   BIU) coupled to the decoupled FPU,
//! * [`replay_blocks`] — block replay of a lowered trace through the
//!   batched issue loop, bit-identical to the per-op oracle [`replay`],
//! * [`SimStats`] — CPI plus the stall-cycle breakdown of Figure 6 and
//!   per-structure statistics for every table in the paper,
//! * [`Observer`] — the one cycle-event recorder (issue, stall cause,
//!   miss and queue events, histograms, Perfetto export), attached with
//!   [`Simulator::enable_observer`]; block replay under an observer
//!   takes the per-op walk,
//! * [`run_sampled`] — SMARTS-style sampled simulation of the block
//!   form: detailed windows over a functional-warming fast-forward and
//!   CPI estimates with confidence intervals ([`SampledStats`]), held
//!   bit-identical to its oracle over a packed trace and its
//!   [`WarmDigest`] ([`run_sampled_digest`], [`Simulator::warm_digest`]).
//!
//! # Quick start
//!
//! ```
//! use aurora_core::{simulate_program, IssueWidth, MachineModel};
//! use aurora_isa::Assembler;
//! use aurora_mem::LatencyModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new().assemble(
//!     r#"
//!     .text
//!         li $t0, 1000
//!     loop:
//!         addiu $t0, $t0, -1
//!         bne $t0, $zero, loop
//!         nop
//!         break
//!     "#,
//! )?;
//! let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
//! let stats = simulate_program(&cfg, &program, 1_000_000)?;
//! println!("CPI = {:.3}", stats.cpi());
//! assert!(stats.cpi() > 0.4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod fpu;
pub mod obs;
mod rob;
pub mod sample;
mod sim;
mod stats;

pub use aurora_isa::WarmDigest;
pub use config::{
    FpIssuePolicy, FpuConfig, IssueWidth, MachineConfig, MachineModel, SamplingConfig,
};
pub use obs::{Histogram, ObsEvent, ObsEventKind, Observer, StallCause};
pub use rob::ReorderBuffer;
pub use sample::{run_sampled, run_sampled_digest, SampledStats};
pub use sim::{replay, replay_blocks, simulate, simulate_program, Simulator};
pub use stats::{SimStats, StallBreakdown, StallKind};

/// Version of the timing model: what the simulator computes from a
/// trace and a configuration. The `aurora-serve` result store binds it
/// in every shard header and rebuilds a shard written under another
/// value, so a persisted store never serves a cell an older model
/// computed.
///
/// Bump it in any change that moves a `SimStats` value or a sampled
/// estimate for an unchanged configuration and trace. The root
/// package's `tests/model_version.rs` pins it together with a hash of
/// the canary grid's results, so such a change fails that test until
/// both are updated.
pub const MODEL_VERSION: u32 = 1;
