//! Table 5 and the §5.5 write-traffic numbers: write-cache hit rates per
//! model and benchmark, and store transactions as a fraction of store
//! instructions. Prints the Table 5 section of `EXPERIMENTS.md` at
//! `--scale` ([`aurora_bench::report::tab5`]).

use aurora_bench::{harness::scale_from_args, report};

fn main() {
    print!("{}", report::tab5(scale_from_args()));
}
