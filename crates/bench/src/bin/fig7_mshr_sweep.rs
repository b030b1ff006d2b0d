//! Figure 7: the effect of the MSHR count (the degree of non-blocking in
//! the data cache) on each model — a 1–4 sweep and the paper's standard
//! versus MSHR-variation configurations. Prints the Figure 7 section of
//! `EXPERIMENTS.md` at `--scale` ([`aurora_bench::report::fig7`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::fig7(scale_from_args()));
}
