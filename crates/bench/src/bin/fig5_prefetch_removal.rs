//! Figure 5: the effect of removing the prefetch stream buffers from the
//! three dual-issue models, at both secondary latencies. Prints the
//! Figure 5 section of `EXPERIMENTS.md` at `--scale`
//! ([`aurora_bench::report::fig5`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::fig5(scale_from_args()));
}
