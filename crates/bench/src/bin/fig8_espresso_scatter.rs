//! Figure 8: espresso's full cost/performance scatter at 17-cycle
//! latency — single-issue models plus dual-issue machines of every
//! instruction-cache size crossed with a range of memory-element
//! allocations — with the paper's annotated points A–E. Prints the
//! Figure 8 section of `EXPERIMENTS.md` at `--scale`
//! ([`aurora_bench::report::fig8`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::fig8(scale_from_args()));
}
