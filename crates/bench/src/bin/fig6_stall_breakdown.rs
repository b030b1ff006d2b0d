//! Figure 6: the CPI penalty contributed by each IPU stall condition
//! (ICache, Load, ROB-full, LSU-busy) for the three dual-issue models.
//! Prints the Figure 6 section of `EXPERIMENTS.md` at `--scale`
//! ([`aurora_bench::report::fig6`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::fig6(scale_from_args()));
}
