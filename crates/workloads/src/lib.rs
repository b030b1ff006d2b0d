//! SPEC92-like synthetic workloads for the Aurora III study.
//!
//! The paper evaluates the architecture with the SPEC92 integer and
//! floating-point suites (§4.1). Those binaries and the authors' traces
//! are not available, so this crate provides *from-scratch kernels*, one
//! per benchmark, each written in mini-MIPS assembly and mimicking its
//! benchmark's dominant behaviour: instruction mix, working-set size,
//! branch character, store coalescing opportunity and floating-point
//! operation blend. The kernels execute on the functional
//! [`Emulator`](aurora_isa::Emulator) to produce the dynamic traces that
//! drive the cycle-level simulator.
//!
//! * [`IntBenchmark`] — espresso, li, eqntott, compress, sc, gcc,
//! * [`FpBenchmark`] — alvinn, doduc, ear, hydro2d, mdljdp2, nasa7, ora,
//!   spice2g6, su2cor,
//! * [`synthetic`] — a parameterised statistical trace generator for
//!   controlled experiments and stress tests.
//!
//! # Example
//!
//! ```
//! use aurora_workloads::{IntBenchmark, Scale};
//!
//! let espresso = IntBenchmark::Espresso.workload(Scale::Test);
//! let trace = espresso.trace().unwrap();
//! assert!(trace.stats.total > 10_000);
//! assert!(trace.stats.memory_fraction() > 0.05);
//! ```

mod floating;
mod integer;
mod store;
pub mod synthetic;
mod workload;

pub use floating::{FpBenchmark, FpLoadWidth};
pub use integer::IntBenchmark;
pub use store::TraceStore;
pub use workload::{Scale, Trace, Workload, WorkloadError};

/// Resolves a benchmark by its canonical name (`"espresso"`, `"alvinn"`,
/// …) at the given scale, searching the integer suite then the
/// floating-point suite. Returns `None` for an unknown name. This is the
/// lookup the `aurora-serve` wire protocol uses to turn workload strings
/// into kernels; floating-point benchmarks resolve to their default
/// single-word-load variant.
///
/// Resolution is a table lookup: each kernel is assembled at most once
/// per process and scale (see [`IntBenchmark::workload`] and
/// [`FpBenchmark::workload_with`]), and the returned clone shares that
/// one program and its precomputed hashes. The tables hold at most 72
/// workloads; an unknown name touches none of them, so no caller can
/// grow them.
///
/// ```
/// use aurora_workloads::{workload_by_name, Scale};
///
/// let w = workload_by_name("compress", Scale::Test).unwrap();
/// assert_eq!(w.name(), "compress");
/// assert!(workload_by_name("no-such-kernel", Scale::Test).is_none());
/// ```
pub fn workload_by_name(name: &str, scale: Scale) -> Option<Workload> {
    IntBenchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .map(|b| b.workload(scale))
        .or_else(|| {
            FpBenchmark::ALL
                .into_iter()
                .find(|b| b.name() == name)
                .map(|b| b.workload(scale))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_isa::Fnv1a;

    /// The `aurora-serve` result store keys every cell on `trace_hash`,
    /// across processes and builds: a moved value would turn every stored
    /// cell into a silent memo miss. These are the values the store has
    /// always been keyed on.
    #[test]
    fn trace_hashes_are_pinned() {
        let compress = IntBenchmark::Compress.workload(Scale::Test);
        assert_eq!(compress.trace_hash(), 0x40f7_ba3f_3904_434c);
        let int = IntBenchmark::ALL.map(|b| b.workload(Scale::Test));
        let fp = FpBenchmark::ALL.map(|b| b.workload(Scale::Test));
        let mut h = Fnv1a::new();
        for w in int.iter().chain(&fp) {
            h.write_u64(w.trace_hash());
        }
        assert_eq!(h.finish(), 0xa6b5_d3ff_8093_6fe4);
    }

    #[test]
    fn concurrent_lookups_share_one_program() {
        let barrier = std::sync::Barrier::new(4);
        let programs: Vec<Workload> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        workload_by_name("sc", Scale::Test).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(programs
            .windows(2)
            .all(|p| std::ptr::eq(p[0].program(), p[1].program())));
    }

    #[test]
    fn cached_hashes_match_a_fresh_hash_of_the_program() {
        for scale in [Scale::Test, Scale::Small] {
            let int = IntBenchmark::ALL.map(|b| (b.name(), b.workload(scale)));
            let fp = FpBenchmark::ALL.into_iter().flat_map(|b| {
                [FpLoadWidth::SingleWord, FpLoadWidth::DoubleWord]
                    .map(|width| (b.name(), b.workload_with(scale, width)))
            });
            for (name, w) in int.into_iter().chain(fp) {
                assert_eq!((w.name(), w.scale()), (name, scale));
                assert_eq!(w.content_hash(), workload::program_hash(w.program()), "{w}");
            }
            for b in FpBenchmark::ALL {
                assert_ne!(
                    b.workload(scale).content_hash(),
                    b.workload_doubleword(scale).content_hash(),
                    "{b}: the two load widths share a slot"
                );
            }
        }
    }

    #[test]
    fn unknown_name_resolves_to_none() {
        assert!(workload_by_name("no-such-kernel", Scale::Test).is_none());
        assert!(workload_by_name("", Scale::Small).is_none());
    }
}
