//! # aurora3 — the Aurora III resource-allocation study, reproduced in Rust
//!
//! This umbrella crate re-exports the public API of the reproduction of
//! *Resource Allocation in a High Clock Rate Microprocessor* (Upton,
//! Huff, Mudge & Brown, ASPLOS 1994):
//!
//! * [`isa`] — mini-MIPS instruction set, assembler, functional emulator
//!   and the dynamic trace format,
//! * [`mem`] — caches, stream buffers, write cache, MSHRs and the BIU,
//! * [`core`] — machine configurations and the cycle-level simulator,
//! * [`workloads`] — SPEC92-like kernels and synthetic trace generation,
//! * [`cost`] — the register-bit-equivalent (RBE) area model of Table 2.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quick start
//!
//! ```
//! use aurora3::core::{replay_blocks, IssueWidth, MachineModel};
//! use aurora3::mem::LatencyModel;
//! use aurora3::workloads::{IntBenchmark, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = IntBenchmark::Compress.workload(Scale::Test);
//! let blocks = workload.capture_blocks()?;
//! let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
//! let stats = replay_blocks(&cfg, &blocks);
//! println!("{}: CPI {:.3}", workload.name(), stats.cpi());
//! # Ok(())
//! # }
//! ```

pub use aurora_core as core;
pub use aurora_cost as cost;
pub use aurora_isa as isa;
pub use aurora_mem as mem;
pub use aurora_workloads as workloads;
