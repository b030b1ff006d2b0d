//! The six SPEC92-integer-like kernels (§4.1).
//!
//! Each kernel is a from-scratch mini-MIPS program that mimics its
//! benchmark's dominant behaviour rather than its semantics:
//!
//! | kernel | models | character |
//! |---|---|---|
//! | espresso | two-level logic minimisation | bit-vector AND/OR over cube arrays, data-dependent popcount loops |
//! | li | Lisp interpreter | tagged-node heap traversal (pointer chasing), cons allocation, sweep |
//! | eqntott | truth-table generation | tight lexicographic compares and swaps over large row arrays |
//! | compress | LZW compression | byte stream hashing into a large table, insert/emit on miss |
//! | sc | spreadsheet | row-major recalculation plus strided column sums |
//! | gcc | compiler | jump-table lexing, tree descent, indirect calls over many small functions |
//!
//! Real programs execute a few kilobytes of *hot* code that alternates at
//! fine grain between many small routines — that is what produces the
//! paper's ~96.5 % base-model instruction-cache hit rate. The kernels
//! reproduce it structurally: their inner loops are unrolled over
//! generated *clone routines* (each clone textually distinct), so
//! instruction fetch rotates through a footprint comparable to the 1–4 KB
//! caches under study.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::workload::{words_data, Scale, Workload, SCALES};

/// The integer benchmark suite of paper Tables 3–5 and Figures 4–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntBenchmark {
    /// Boolean-function minimiser (cube operations).
    Espresso,
    /// XLISP interpreter (pointer chasing).
    Li,
    /// Truth-table to PLA converter (sorting/comparison).
    Eqntott,
    /// LZW file compression (hashing).
    Compress,
    /// Spreadsheet recalculation.
    Sc,
    /// GNU C compiler (irregular control flow).
    Gcc,
}

impl IntBenchmark {
    /// All six benchmarks in the paper's table order.
    pub const ALL: [IntBenchmark; 6] = [
        IntBenchmark::Espresso,
        IntBenchmark::Li,
        IntBenchmark::Eqntott,
        IntBenchmark::Compress,
        IntBenchmark::Sc,
        IntBenchmark::Gcc,
    ];

    /// The benchmark's SPEC name.
    pub fn name(self) -> &'static str {
        match self {
            IntBenchmark::Espresso => "espresso",
            IntBenchmark::Li => "li",
            IntBenchmark::Eqntott => "eqntott",
            IntBenchmark::Compress => "compress",
            IntBenchmark::Sc => "sc",
            IntBenchmark::Gcc => "gcc",
        }
    }

    /// Builds the kernel at the given scale.
    ///
    /// Each (kernel, scale) is assembled at most once per process: the
    /// first call fills its slot in a fixed table of 6 × 3 workloads, and
    /// every call returns a clone of the slot's workload. Clones share
    /// one program and its precomputed hashes, so a repeated call costs
    /// a table lookup and an `Arc` clone.
    pub fn workload(self, scale: Scale) -> Workload {
        static BUILT: [[OnceLock<Workload>; SCALES]; IntBenchmark::ALL.len()] =
            [const { [const { OnceLock::new() }; SCALES] }; IntBenchmark::ALL.len()];
        BUILT[self as usize][scale as usize]
            .get_or_init(|| {
                let src = match self {
                    IntBenchmark::Espresso => espresso(scale),
                    IntBenchmark::Li => li(scale),
                    IntBenchmark::Eqntott => eqntott(scale),
                    IntBenchmark::Compress => compress(scale),
                    IntBenchmark::Sc => sc(scale),
                    IntBenchmark::Gcc => gcc(scale),
                };
                Workload::assemble(self.name(), scale, &src)
            })
            .clone()
    }
}

impl fmt::Display for IntBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a benchmark name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError(pub(crate) String);

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark `{}`", self.0)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for IntBenchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IntBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError(s.to_owned()))
    }
}

/// Formats `.byte` lines from a generator function over indices.
pub(crate) fn byte_table(n: usize, f: impl Fn(usize) -> u8) -> String {
    let mut out = String::with_capacity(n * 5);
    for start in (0..n).step_by(16) {
        out.push_str("  .byte ");
        for i in start..(start + 16).min(n) {
            if i > start {
                out.push_str(", ");
            }
            out.push_str(&f(i).to_string());
        }
        out.push('\n');
    }
    out
}

/// espresso: cube intersection + sharp over bit-vector arrays. The B and
/// OUT cubes are visited through a shuffled permutation (set operations in
/// the real program follow cover lists, not array order), and a popcount
/// histogram adds scattered single-word stores.
fn espresso(scale: Scale) -> String {
    let clones = 12;
    let group = 64; // cube-loop iterations of `clones` cubes each
    let ncubes = clones * group; // 768
    let nw = 4; // words per cube
    let cube_bytes = nw * 4;
    let iters = scale.factor();
    let a = words_data(0xE59, ncubes * nw, 0x1_0000, 12);
    let b = words_data(0xE5A, ncubes * nw, 0x1_0000, 12);
    // A shuffled permutation of cube indices.
    let mut rng = SmallRng::seed_from_u64(0xE5B);
    let mut perm: Vec<u32> = (0..ncubes as u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut perm_words = String::new();
    for chunk in perm.chunks(12) {
        perm_words.push_str("  .word ");
        perm_words.push_str(
            &chunk
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        );
        perm_words.push('\n');
    }

    // Clone routines: intersect_k and sharp_k, textually distinct. They
    // are laid out in shuffled order so consecutive *calls* are not
    // memory-sequential (real call graphs scatter the hot text).
    let mut routines = String::new();
    let layout = [7usize, 2, 10, 0, 5, 11, 3, 8, 1, 9, 4, 6];
    for &k in layout.iter().take(clones) {
        let bias = k % 3;
        routines.push_str(&format!(
            r#"
        # intersect_{k}: OUT[p] = A & B[p], histogram of biased popcount
        intersect_{k}:
            lw   $t9, 0($s6)
            sll  $t9, $t9, 4
            la   $t2, b_cubes
            addu $t2, $t2, $t9
            la   $t3, out_cubes
            addu $t3, $t3, $t9
            li   $t0, {nw}
            move $t1, $s0
            li   $v0, {bias}
        iw_loop_{k}:
            lw   $t4, 0($t1)
            lw   $t5, 0($t2)
            and  $t6, $t4, $t5
            sw   $t6, 0($t3)
        ipc_loop_{k}:
            beq  $t6, $zero, ipc_done_{k}
            nop
            addiu $t7, $t6, -1
            and  $t6, $t6, $t7
            b    ipc_loop_{k}
            addiu $v0, $v0, 1
        ipc_done_{k}:
            addiu $t1, $t1, 4
            addiu $t2, $t2, 4
            addiu $t3, $t3, 4
            addiu $t0, $t0, -1
            bgtz $t0, iw_loop_{k}
            nop
            andi $t8, $v0, 63
            sll  $t8, $t8, 2
            la   $t7, hist
            addu $t7, $t7, $t8
            lw   $t6, 0($t7)
            addiu $t6, $t6, 1
            sw   $t6, 0($t7)
            jr   $ra
            nop

        # sharp_{k}: $v0 = 1 if A & ~OUT[p] is nonempty (early exit)
        sharp_{k}:
            lw   $t9, 0($s6)
            sll  $t9, $t9, 4
            la   $t2, out_cubes
            addu $t2, $t2, $t9
            li   $t0, {nw}
            move $t1, $s0
            li   $v0, 0
        sw_loop_{k}:
            lw   $t4, 0($t1)
            lw   $t5, 0($t2)
            nor  $t6, $t5, $t5
            and  $t6, $t4, $t6
            bne  $t6, $zero, sharp_live_{k}
            nop
            addiu $t1, $t1, 4
            addiu $t2, $t2, 4
            addiu $t0, $t0, -1
            bgtz $t0, sw_loop_{k}
            nop
            jr   $ra
            nop
        sharp_live_{k}:
            li   $v0, {live}
            jr   $ra
            nop
        "#,
            live = 1 + k % 2,
        ));
    }
    // The cube loop: one unrolled group calls every clone once.
    let mut islots = String::new();
    let mut sslots = String::new();
    for k in 0..clones {
        islots.push_str(&format!(
            "            jal  intersect_{k}\n            nop\n            \
             addiu $s0, $s0, {cube_bytes}\n            addiu $s6, $s6, 4\n"
        ));
        sslots.push_str(&format!(
            "            jal  sharp_{k}\n            nop\n            \
             addu $s5, $s5, $v0\n            addiu $s0, $s0, {cube_bytes}\n            \
             addiu $s6, $s6, 4\n"
        ));
    }
    format!(
        r#"
        .data
        a_cubes:
        {a}
        b_cubes:
        {b}
        perm:
        {perm_words}
        out_cubes: .space {out_bytes}
        hist: .space 256
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s0, a_cubes
            la   $s6, perm
            li   $s3, {group}
        cube_loop:
{islots}
            addiu $s3, $s3, -1
            bgtz $s3, cube_loop
            nop
            la   $s0, a_cubes
            la   $s6, perm
            li   $s3, {group}
            li   $s5, 0
        sharp_loop:
{sslots}
            addiu $s3, $s3, -1
            bgtz $s3, sharp_loop
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        {routines}
        "#,
        out_bytes = ncubes * cube_bytes,
    )
}

/// li: tagged-node heap traversal with the step body unrolled over 24
/// textually distinct clones, plus cons allocation rotating through a
/// 64 KB new space and a sweep over the freshly allocated cells.
fn li(scale: Scale) -> String {
    let nodes = 4096usize; // 64 KB heap of 16-byte nodes
    let cons = 1024;
    let clones = 8; // hot traversal loop ~1 KB
    let groups = 768; // traversal steps = clones * groups
    let iters = scale.factor();
    let mut rng = SmallRng::seed_from_u64(0x11);
    let mut heap = String::new();
    for start in (0..nodes).step_by(4) {
        heap.push_str("  .word ");
        for i in start..(start + 4).min(nodes) {
            if i > start {
                heap.push_str(", ");
            }
            let tag = rng.gen_range(0..4u32);
            let val = rng.gen_range(0..1_000_000u32);
            let car = rng.gen_range(0..nodes as u32);
            let cdr = rng.gen_range(0..nodes as u32);
            heap.push_str(&format!("{tag}, {val}, {car}, {cdr}"));
        }
        heap.push('\n');
    }
    // A colder mark phase: 12 generated routines touching heap regions.
    let mut marks = String::new();
    for k in 0..12 {
        marks.push_str(&format!(
            r#"
        mark_{k}:
            lw   $t0, {off}($s0)
            srl  $t1, $t0, {sh}
            xor  $t0, $t0, $t1
            andi $t0, $t0, 4095
            sll  $t0, $t0, 2
            addu $t2, $s0, $t0
            lw   $t3, 0($t2)
            addiu $t3, $t3, 1
            sw   $t3, 0($t2)
            addiu $s0, $s0, 64
        "#,
            off = 4 * (k % 4),
            sh = 3 + k % 5,
        ));
    }
    // Unrolled traversal steps: each clone is one full tag dispatch.
    let mut steps = String::new();
    for k in 0..clones {
        // Vary the tag test order per clone so the code is distinct.
        let (first, second) = if k % 2 == 0 { (1, 2) } else { (2, 1) };
        steps.push_str(&format!(
            r#"
        step_{k}:
            sll  $t0, $s1, 4
            addu $t0, $s0, $t0
            lw   $t1, 0($t0)
            lw   $t2, 4($t0)
            beq  $t1, $zero, tag0_{k}
            nop
            li   $t4, {first}
            beq  $t1, $t4, tagf_{k}
            nop
            li   $t4, {second}
            beq  $t1, $t4, tags_{k}
            nop
            addiu $t2, $t2, {incr}
            sw   $t2, 4($t0)
            b    nexts_{k}
            nop
        tag0_{k}:
            addu $s5, $s5, $t2
            b    nexts_{k}
            nop
        tagf_{k}:
            xor  $s5, $s5, $t2
            b    nexts_{k}
            nop
        tags_{k}:
            lw   $s1, 8($t0)
            b    stepd_{k}
            nop
        nexts_{k}:
            lw   $s1, 12($t0)
        stepd_{k}:
        "#,
            incr = 1 + k % 3,
        ));
    }
    format!(
        r#"
        .data
        heap:
        {heap}
        newspace: .space {new_bytes}
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s0, heap
            li   $s1, 0
            li   $s2, {groups}
            li   $s5, 0
        trav:
        {steps}
            addiu $s2, $s2, -1
            bgtz $s2, trav
            nop
            # cons: bump-allocate into a rotating quarter of the new space
            andi $t0, $s7, 3
            sll  $t0, $t0, 14
            la   $s0, newspace
            addu $s0, $s0, $t0
            move $s6, $s0
            li   $s2, {cons}
            li   $t5, 0
        consl:
            sw   $t5, 12($s0)
            sw   $s5, 4($s0)
            sw   $zero, 0($s0)
            sw   $zero, 8($s0)
            move $t5, $s0
            addiu $s0, $s0, 16
            addiu $s2, $s2, -1
            bgtz $s2, consl
            nop
            # sweep: touch every freshly allocated cell's tag word
            move $s0, $s6
            li   $s2, {cons}
        sweep:
            lw   $t0, 0($s0)
            addiu $t0, $t0, 1
            sw   $t0, 0($s0)
            addiu $s0, $s0, 16
            addiu $s2, $s2, -1
            bgtz $s2, sweep
            nop
            # gc mark: a colder phase through 12 distinct routines
            la   $s0, heap
            li   $s2, 24
        gcl:
        {marks}
            addiu $s2, $s2, -1
            bgtz $s2, gcl
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
        new_bytes = 4 * cons * 16,
        marks = marks,
    )
}

/// eqntott: lexicographic compare/swap of row pairs selected through a
/// shuffled permutation (quicksort partners are not adjacent in memory),
/// with the pair loop unrolled over 16 clone routines.
fn eqntott(scale: Scale) -> String {
    let clones = 16;
    let groups = 127; // pairs per pass = clones * groups
    let nrows = 2048usize;
    let rw = 4; // words per row
    let row_bytes = rw * 4;
    let iters = 4 * scale.factor();
    let rows = words_data(0xE9, nrows * rw, u32::MAX, 10);
    let mut rng = SmallRng::seed_from_u64(0xE9A);
    let mut perm: Vec<u32> = (0..nrows as u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut perm_words = String::new();
    for chunk in perm.chunks(12) {
        perm_words.push_str("  .word ");
        perm_words.push_str(
            &chunk
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        );
        perm_words.push('\n');
    }

    let mut bodies = String::new();
    let layout = [11usize, 4, 14, 1, 8, 0, 12, 6, 2, 15, 9, 3, 13, 5, 10, 7];
    for &k in layout.iter().take(clones) {
        bodies.push_str(&format!(
            r#"
        cmp_{k}:
            lw   $t6, 0($s6)
            lw   $t7, 4($s6)
            sll  $t6, $t6, 4
            sll  $t7, $t7, 4
            la   $t1, rows
            addu $t1, $t1, $t6
            la   $t2, rows
            addu $t2, $t2, $t7
            li   $t0, {rw}
        cw_{k}:
            lw   $t3, 0($t1)
            lw   $t4, 0($t2)
            bne  $t3, $t4, cdone_{k}
            nop
            addiu $t1, $t1, 4
            addiu $t2, $t2, 4
            addiu $t0, $t0, -1
            bgtz $t0, cw_{k}
            nop
            jr   $ra
            nop
        cdone_{k}:
            sltu $t5, $t3, $t4
            bne  $t5, $zero, ceq_{k}
            nop
            addiu $s5, $s5, 1
            lw   $t6, 0($s6)
            lw   $t7, 4($s6)
            sll  $t6, $t6, 4
            sll  $t7, $t7, 4
            la   $t1, rows
            addu $t1, $t1, $t6
            la   $t2, rows
            addu $t2, $t2, $t7
            li   $t0, {rw}
        swp_{k}:
            lw   $t3, 0($t1)
            lw   $t4, 0($t2)
            sw   $t4, 0($t1)
            sw   $t3, 0($t2)
            addiu $t1, $t1, 4
            addiu $t2, $t2, 4
            addiu $t0, $t0, -1
            bgtz $t0, swp_{k}
            nop
        ceq_{k}:
            jr   $ra
            nop
        "#
        ));
    }
    let mut slots = String::new();
    for k in 0..clones {
        slots.push_str(&format!(
            "            jal  cmp_{k}\n            nop\n            addiu $s6, $s6, 4\n"
        ));
    }
    let _ = row_bytes;
    format!(
        r#"
        .data
        rows:
        {rows}
        perm:
        {perm_words}
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s6, perm
            li   $s1, {groups}
            li   $s5, 0
        cmp_loop:
{slots}
            addiu $s1, $s1, -1
            bgtz $s1, cmp_loop
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        {bodies}
        "#,
    )
}

/// compress: LZW-style hash-probe loop, unrolled over 24 clone bodies
/// with per-clone hash mixing.
fn compress(scale: Scale) -> String {
    let clones = 10;
    let groups = 1638; // chars per pass = clones * groups (~16 K)
    let hsize = 8192u32; // entries of 8 bytes: 64 KB table
    let iters = scale.factor();
    let inbytes = clones * groups;
    let input = byte_table(inbytes, {
        let mut rng = SmallRng::seed_from_u64(0xC0);
        let bytes: Vec<u8> = (0..inbytes).map(|_| rng.gen_range(0..=255)).collect();
        move |i| bytes[i]
    });
    // Cold dictionary-scrub routines (footprint without hot-loop bloat).
    let mut scrubs = String::new();
    for k in 0..12 {
        scrubs.push_str(&format!(
            r#"
        scrub_{k}:
            lw   $t0, {off}($s2)
            srl  $t1, $t0, {sh}
            subu $t0, $t0, $t1
            sw   $t0, {off}($s2)
            addiu $s2, $s2, 32
        "#,
            off = 4 * (k % 8),
            sh = 1 + k % 6,
        ));
    }
    let mut bodies = String::new();
    for k in 0..clones {
        let shift = 4 + k % 3; // hash mix varies per clone
        bodies.push_str(&format!(
            r#"
        ch_{k}:
            lbu  $t0, 0($s0)
            addiu $s0, $s0, 1
            sll  $t1, $s4, {shift}
            xor  $t1, $t1, $t0
            srl  $t5, $t1, {back}
            xor  $t1, $t1, $t5
            andi $t1, $t1, {hmask}
            sll  $t2, $t1, 3
            addu $t2, $s2, $t2
            lw   $t3, 0($t2)
            lw   $t4, 4($t2)
            bne  $t3, $s4, cmiss_{k}
            nop
            bne  $t4, $t0, cmiss_{k}
            nop
            move $s4, $t1
            b    cnext_{k}
            nop
        cmiss_{k}:
            sw   $s4, 0($s3)
            addiu $s3, $s3, 4
            sw   $s4, 0($t2)
            sw   $t0, 4($t2)
            move $s4, $t0
        cnext_{k}:
        "#,
            hmask = hsize - 1,
            back = 7 + k % 4,
        ));
    }
    format!(
        r#"
        .data
        input:
        {input}
        .align 2
        htab: .space {htab_bytes}
        outbuf: .space {out_bytes}
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s0, input
            li   $s1, {groups}
            la   $s2, htab
            la   $s3, outbuf
            li   $s4, 0
        cloop:
        {bodies}
            addiu $s1, $s1, -1
            bgtz $s1, cloop
            nop
            # cold phase: partial dictionary scrub through distinct routines
            la   $s2, htab
            li   $s1, 64
        scrub:
        {scrubs}
            addiu $s1, $s1, -1
            bgtz $s1, scrub
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
        htab_bytes = hsize * 8,
        out_bytes = inbytes * 4,
        scrubs = scrubs,
    )
}

/// sc: recalculation with 16 distinct generated cell formulas over a
/// ~96 KB grid (sequential, stream-friendly misses each pass) plus
/// strided column sums.
fn sc(scale: Scale) -> String {
    let rows = 193;
    let cols = 128;
    let clones = 16;
    let row_bytes = cols * 4;
    let iters = scale.factor();
    let grid = words_data(0x5C, rows * cols, 10_000, 12);

    // Each clone evaluates a different "formula" on (left, above).
    let mut formulas = String::new();
    for k in 0..clones {
        let op = match k % 4 {
            0 => "addu $t2, $t0, $t1",
            1 => "subu $t2, $t0, $t1",
            2 => "xor  $t2, $t0, $t1",
            _ => "or   $t2, $t0, $t1",
        };
        formulas.push_str(&format!(
            r#"
        cell_{k}:
            lw   $t0, -4($s1)
            lw   $t1, -{row_bytes}($s1)
            {op}
            sra  $t2, $t2, {shift}
            bgez $t2, cpos_{k}
            nop
            subu $t2, $zero, $t2
        cpos_{k}:
            addiu $t2, $t2, {k}
            sw   $t2, 0($s1)
            addiu $s1, $s1, 4
        "#,
            shift = 1 + k % 3,
        ));
    }
    // Min/max scan routines over 16-word segments, one per clone.
    let mut ranges = String::new();
    for k in 0..8 {
        let cmp = if k % 2 == 0 { "slt" } else { "sltu" };
        ranges.push_str(&format!(
            r#"
        rng_{k}:
            lw   $t0, 0($s1)
            lw   $t1, 4($s1)
            {cmp}  $t2, $t0, $t1
            beq  $t2, $zero, rmax_{k}
            nop
            move $t0, $t1
        rmax_{k}:
            lw   $t3, 8($s1)
            lw   $t4, 12($s1)
            {cmp}  $t5, $t3, $t4
            beq  $t5, $zero, rmin_{k}
            nop
            move $t3, $t4
        rmin_{k}:
            addu $s5, $t0, $t3
            addiu $s1, $s1, 16
        "#
        ));
    }
    format!(
        r#"
        .data
        grid:
        {grid}
        totals: .space {totals_bytes}
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s0, grid
            addiu $s1, $s0, {row_bytes}
            li   $s2, {cell_groups}
        recalc:
        {formulas}
            addiu $s2, $s2, -1
            bgtz $s2, recalc
            nop
            # strided column sums over 8 sampled columns
            li   $s3, 8
            li   $s4, 0
        colsel:
            sll  $t0, $s4, 2
            la   $t1, grid
            addu $t1, $t1, $t0
            li   $t2, {rows}
            li   $t3, 0
        colsum:
            lw   $t4, 0($t1)
            addu $t3, $t3, $t4
            addiu $t1, $t1, {row_bytes}
            addiu $t2, $t2, -1
            bgtz $t2, colsum
            nop
            la   $t5, totals
            sll  $t6, $s4, 2
            addu $t5, $t5, $t6
            sw   $t3, 0($t5)
            addiu $s4, $s4, 16
            addiu $s3, $s3, -1
            bgtz $s3, colsel
            nop
            # range pass: per-segment min/max via generated routines
            la   $s1, grid
            li   $s2, {range_groups}
        rangel:
        {ranges}
            addiu $s2, $s2, -1
            bgtz $s2, rangel
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
        cell_groups = (rows - 1) * cols / clones,
        totals_bytes = cols * 4,
        range_groups = 64,
        ranges = ranges,
    )
}

/// gcc: jump-table lexer, tree descent and indirect calls through a
/// function table of 24 generated routines — the most irregular control
/// flow in the suite.
fn gcc(scale: Scale) -> String {
    let inbytes = 6144usize;
    let tree_nodes = 1024usize;
    let nkeys = 600;
    let ncalls = 1024;
    let nfuncs = 24;
    let iters = scale.factor();

    let input = byte_table(inbytes, {
        let mut rng = SmallRng::seed_from_u64(0x6CC);
        let bytes: Vec<u8> = (0..inbytes).map(|_| rng.gen_range(0..=255)).collect();
        move |i| bytes[i]
    });
    // Character classes: skew towards identifiers like real source text.
    let ctype = byte_table(256, |c| match c % 10 {
        0..=4 => 0, // ident
        5..=6 => 1, // digit
        7..=8 => 2, // punct
        _ => 3,     // space
    });
    // A complete-binary-tree search structure: node = [val, left, right, 0].
    let mut rng = SmallRng::seed_from_u64(0x731);
    let mut tree = String::new();
    for i in 0..tree_nodes {
        let val = rng.gen_range(0..0x8000u32);
        let l = if 2 * i + 1 < tree_nodes {
            (2 * i + 1) as u32
        } else {
            0
        };
        let r = if 2 * i + 2 < tree_nodes {
            (2 * i + 2) as u32
        } else {
            0
        };
        tree.push_str(&format!("  .word {val}, {l}, {r}, 0\n"));
    }
    // Generated leaf functions with distinct bodies, reached via jalr,
    // laid out in shuffled order so round-robin calls scatter in memory.
    let mut funcs = String::new();
    let mut ftab_init = String::new();
    let layout: Vec<usize> = (0..nfuncs).map(|i| (i * 17 + 5) % nfuncs).collect();
    for &k in &layout {
        let c1 = 0x11 * (k + 1);
        let c2 = 3 + k % 6;
        funcs.push_str(&format!(
            r#"
        func{k}:
            la   $t0, globals
            lw   $t1, {off}($t0)
            sll  $t2, $t1, {sh}
            xor  $t1, $t1, $t2
            addiu $t1, $t1, {c1}
            srl  $t3, $t1, {c2}
            addu $t1, $t1, $t3
            sw   $t1, {off}($t0)
            lw   $t4, {off2}($t0)
            slt  $t5, $t4, $t1
            beq  $t5, $zero, f{k}_skip
            nop
            sw   $t1, {off2}($t0)
        f{k}_skip:
            jr   $ra
            nop
        "#,
            off = 4 * k,
            off2 = 4 * ((k + 3) % nfuncs),
            sh = 1 + (k % 4),
        ));
        ftab_init.push_str(&format!(
            "            la   $t1, func{k}\n            sw   $t1, {}($t0)\n",
            4 * k
        ));
    }
    format!(
        r#"
        .data
        src:
        {input}
        ctype:
        {ctype}
        .align 2
        tree:
        {tree}
        jtab: .space 16
        ftab: .space {ftab_bytes}
        globals: .space {globals_bytes}
        symtab: .space 65536
        obuf: .space {obuf_bytes}
        .text
        main:
            # Build the lexer jump table and function table at run time.
            la   $t0, jtab
            la   $t1, lex_ident
            sw   $t1, 0($t0)
            la   $t1, lex_digit
            sw   $t1, 4($t0)
            la   $t1, lex_punct
            sw   $t1, 8($t0)
            la   $t1, lex_space
            sw   $t1, 12($t0)
            la   $t0, ftab
{ftab_init}
            li   $s7, {iters}
        outer:
            # --- phase A: lexer with a jr-based switch ---
            la   $s0, src
            li   $s1, {inbytes}
            la   $s3, obuf
            li   $s4, 0
            li   $s5, 0
        lexloop:
            lbu  $t2, 0($s0)
            addiu $s0, $s0, 1
            la   $t3, ctype
            addu $t3, $t3, $t2
            lbu  $t4, 0($t3)
            sll  $t4, $t4, 2
            la   $t5, jtab
            addu $t5, $t5, $t4
            lw   $t6, 0($t5)
            jr   $t6
            nop
        lex_ident:
            sll  $s4, $s4, 1
            xor  $s4, $s4, $t2
            b    lex_next
            nop
        lex_digit:
            sll  $t7, $s5, 3
            sll  $t8, $s5, 1
            addu $s5, $t7, $t8
            addu $s5, $s5, $t2
            b    lex_next
            nop
        lex_punct:
            sw   $s4, 0($s3)
            addiu $s3, $s3, 4
            li   $s4, 0
            b    lex_next
            nop
        lex_space:
        lex_next:
            addiu $s1, $s1, -1
            bgtz $s1, lexloop
            nop
            # --- phase B: binary-tree descent for pseudo-random keys ---
            li   $s1, {nkeys}
            li   $s4, 12345
        btree:
            li   $t9, 1103515245
            mult $s4, $t9
            mflo $s4
            addiu $s4, $s4, 12345
            andi $t0, $s4, 0x7FFF
            li   $t1, 0
            la   $t2, tree
        bdesc:
            sll  $t3, $t1, 4
            addu $t3, $t2, $t3
            lw   $t4, 0($t3)
            beq  $t4, $t0, bfound
            nop
            slt  $t5, $t0, $t4
            beq  $t5, $zero, bright
            nop
            lw   $t1, 4($t3)
            b    bcheck
            nop
        bright:
            lw   $t1, 8($t3)
        bcheck:
            bgtz $t1, bdesc
            nop
        bfound:
            addiu $s1, $s1, -1
            bgtz $s1, btree
            nop
            # --- phase C: indirect calls through the function table ---
            li   $s1, {ncalls}
            li   $s2, 0
            li   $k0, {nfuncs}
        ccall:
            slt  $t9, $s2, $k0
            bne  $t9, $zero, cc_ok
            nop
            li   $s2, 0
        cc_ok:
            sll  $t0, $s2, 2
            la   $t1, ftab
            addu $t1, $t1, $t0
            lw   $t2, 0($t1)
            jalr $ra, $t2
            nop
            addiu $s2, $s2, 1
            addiu $s1, $s1, -1
            bgtz $s1, ccall
            nop
            # --- phase D: scattered symbol-table probes ---
            li   $s1, {nprobes}
            la   $s2, symtab
        syml:
            li   $t9, 1103515245
            mult $s4, $t9
            mflo $s4
            addiu $s4, $s4, 12345
            andi $t0, $s4, 0xFFFC
            addu $t1, $s2, $t0
            lw   $t2, 0($t1)
            addiu $t2, $t2, 1
            sw   $t2, 0($t1)
            addiu $s1, $s1, -1
            bgtz $s1, syml
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        {funcs}
        "#,
        ftab_bytes = 4 * nfuncs,
        globals_bytes = 4 * nfuncs,
        obuf_bytes = inbytes,
        nprobes = 1200,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_isa::OpKind;

    #[test]
    fn all_kernels_assemble_and_halt() {
        for b in IntBenchmark::ALL {
            let w = b.workload(Scale::Test);
            let trace = w.capture().unwrap_or_else(|e| panic!("{b}: {e}"));
            let total = trace.stats().total;
            assert!(total > 20_000, "{b}: only {total} instructions");
            assert!(
                total < 2_000_000,
                "{b}: {total} instructions is too long for Test scale"
            );
        }
    }

    #[test]
    fn kernels_have_integer_character() {
        for b in IntBenchmark::ALL {
            let trace = b.workload(Scale::Test).capture().unwrap();
            let s = trace.stats();
            assert_eq!(s.fp_ops, 0, "{b} must not use the FPU");
            let mem = s.memory_fraction();
            assert!(
                (0.05..0.60).contains(&mem),
                "{b}: memory fraction {mem:.2} out of range"
            );
            let br = s.branches as f64 / s.total as f64;
            assert!((0.03..0.40).contains(&br), "{b}: branch fraction {br:.2}");
            assert!(s.stores > 0, "{b} must store");
        }
    }

    #[test]
    fn kernels_have_realistic_code_footprints() {
        // The clone structure should give each kernel a hot footprint in
        // the same ballpark as the 1-4 KB caches under study.
        for b in IntBenchmark::ALL {
            let w = b.workload(Scale::Test);
            let bytes = w.program().text_bytes();
            assert!(
                (1200..12_000).contains(&bytes),
                "{b}: text footprint {bytes} bytes"
            );
        }
    }

    #[test]
    fn gcc_uses_indirect_jumps() {
        let trace = IntBenchmark::Gcc.workload(Scale::Test).capture().unwrap();
        let indirect = trace
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Jump { register: true, .. }))
            .count();
        assert!(indirect > 1000, "gcc should jr/jalr a lot, got {indirect}");
    }

    #[test]
    fn li_chases_pointers() {
        let trace = IntBenchmark::Li.workload(Scale::Test).capture().unwrap();
        assert!(trace.stats().loads > trace.stats().stores);
    }

    #[test]
    fn compress_misses_spread_over_table() {
        let trace = IntBenchmark::Compress
            .workload(Scale::Test)
            .capture()
            .unwrap();
        let mut lines = std::collections::HashSet::new();
        for op in &trace {
            if let OpKind::Load { ea, .. } = op.kind {
                lines.insert(ea / 32);
            }
        }
        assert!(
            lines.len() > 1000,
            "hash probes should span many lines: {}",
            lines.len()
        );
    }

    #[test]
    fn scale_increases_length() {
        let t = IntBenchmark::Eqntott
            .workload(Scale::Test)
            .capture()
            .unwrap();
        let s = IntBenchmark::Eqntott
            .workload(Scale::Small)
            .capture()
            .unwrap();
        assert!(s.len() > 3 * t.len());
    }

    #[test]
    fn names_round_trip() {
        for b in IntBenchmark::ALL {
            assert_eq!(b.name().parse::<IntBenchmark>().unwrap(), b);
        }
        assert!("bogus".parse::<IntBenchmark>().is_err());
    }
}
