//! The nine SPEC92-floating-point-like kernels (§4.1, Table 6).
//!
//! | kernel | models | character |
//! |---|---|---|
//! | alvinn | neural-net training | serial dot-product accumulation, saxpy updates |
//! | doduc | Monte-Carlo reactor sim | branchy mixed arithmetic, occasional divides |
//! | ear | cochlea model | independent second-order filters (high ILP) |
//! | hydro2d | Navier-Stokes | 4-point stencil sweeps over double grids |
//! | mdljdp2 | molecular dynamics | pairwise distances with a divide per pair |
//! | nasa7 | seven NASA kernels | dense matrix multiply (j-inner, high ILP) |
//! | ora | optical ray tracing | serial sqrt/divide chains |
//! | spice2g6 | circuit simulation | sparse gather MVM, low FP fraction |
//! | su2cor | quantum physics | complex multiply-accumulate vectors |

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::integer::ParseBenchmarkError;
use crate::workload::{doubles_data, words_data, Scale, Workload, SCALES};

/// How double-precision values move between memory and the FPU.
///
/// The paper's Table 6 / Figure 9 simulations loaded each double operand
/// with **two 32-bit loads** (§5.9); the FPU being implemented adds
/// double-word loads and stores "which should improve performance". Both
/// are available here so that claim can be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FpLoadWidth {
    /// Two `lwc1`/`swc1` per double — the paper's simulated condition.
    #[default]
    SingleWord,
    /// One `ldc1`/`sdc1` per double — the §5.9 extension.
    DoubleWord,
}

/// Rewrites every `ldc1`/`sdc1` into the equivalent `lwc1`/`swc1` pair.
///
/// Kernel delay slots never contain FP memory ops, so the 1-to-2 expansion
/// is safe.
fn expand_single_word(src: &str) -> String {
    let mut out = String::with_capacity(src.len() * 11 / 10);
    for line in src.lines() {
        let trimmed = line.trim_start();
        let (op, word_op) = if trimmed.starts_with("ldc1") {
            ("ldc1", "lwc1")
        } else if trimmed.starts_with("sdc1") {
            ("sdc1", "swc1")
        } else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let indent = &line[..line.len() - trimmed.len()];
        let rest = trimmed[op.len()..].trim();
        // Parse "$fN, off(base)" with an optional trailing comment.
        let (operands, comment) = match rest.find('#') {
            Some(i) => (rest[..i].trim(), &rest[i..]),
            None => (rest, ""),
        };
        let (freg, mem) = operands.split_once(',').expect("fp mem operands");
        let n: u8 = freg
            .trim()
            .trim_start_matches("$f")
            .parse()
            .expect("fp register");
        let mem = mem.trim();
        let open = mem.find('(').expect("mem operand");
        let off: i64 = mem[..open].parse().expect("offset");
        let base = &mem[open..];
        out.push_str(&format!("{indent}{word_op} $f{n}, {off}{base} {comment}\n"));
        out.push_str(&format!(
            "{indent}{word_op} $f{}, {}{base}\n",
            n + 1,
            off + 4
        ));
    }
    out
}

/// The floating-point benchmark suite of Table 6 and Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpBenchmark {
    /// Neural network training.
    Alvinn,
    /// Monte-Carlo simulation of a nuclear reactor.
    Doduc,
    /// Human-ear model (filter banks).
    Ear,
    /// Galactic-jet hydrodynamics.
    Hydro2d,
    /// Molecular dynamics (liquid argon).
    Mdljdp2,
    /// NASA kernel collection (matrix multiply dominant).
    Nasa7,
    /// Optical ray tracing.
    Ora,
    /// Analog circuit simulation.
    Spice2g6,
    /// Quark-gluon physics (complex arithmetic).
    Su2cor,
}

impl FpBenchmark {
    /// All nine benchmarks in the paper's Table 6 order.
    pub const ALL: [FpBenchmark; 9] = [
        FpBenchmark::Alvinn,
        FpBenchmark::Doduc,
        FpBenchmark::Ear,
        FpBenchmark::Hydro2d,
        FpBenchmark::Mdljdp2,
        FpBenchmark::Nasa7,
        FpBenchmark::Ora,
        FpBenchmark::Spice2g6,
        FpBenchmark::Su2cor,
    ];

    /// The benchmark's SPEC name.
    pub fn name(self) -> &'static str {
        match self {
            FpBenchmark::Alvinn => "alvinn",
            FpBenchmark::Doduc => "doduc",
            FpBenchmark::Ear => "ear",
            FpBenchmark::Hydro2d => "hydro2d",
            FpBenchmark::Mdljdp2 => "mdljdp2",
            FpBenchmark::Nasa7 => "nasa7",
            FpBenchmark::Ora => "ora",
            FpBenchmark::Spice2g6 => "spice2g6",
            FpBenchmark::Su2cor => "su2cor",
        }
    }

    /// Builds the kernel at the given scale under the paper's simulated
    /// condition: each double operand moves as two 32-bit loads/stores.
    pub fn workload(self, scale: Scale) -> Workload {
        self.workload_with(scale, FpLoadWidth::SingleWord)
    }

    /// Builds the kernel using double-word FP loads/stores — the §5.9
    /// improvement the implemented FPU supports.
    pub fn workload_doubleword(self, scale: Scale) -> Workload {
        self.workload_with(scale, FpLoadWidth::DoubleWord)
    }

    /// Builds the kernel with an explicit [`FpLoadWidth`].
    ///
    /// Each (kernel, width, scale) is assembled at most once per
    /// process: the first call fills its slot in a fixed table of
    /// 9 × 2 × 3 workloads, and every call returns a clone of the slot's
    /// workload. Clones share one program and its precomputed hashes, so
    /// a repeated call costs a table lookup and an `Arc` clone.
    pub fn workload_with(self, scale: Scale, width: FpLoadWidth) -> Workload {
        static BUILT: [[[OnceLock<Workload>; SCALES]; 2]; FpBenchmark::ALL.len()] =
            [const { [const { [const { OnceLock::new() }; SCALES] }; 2] }; FpBenchmark::ALL.len()];
        BUILT[self as usize][width as usize][scale as usize]
            .get_or_init(|| {
                let src = match self {
                    FpBenchmark::Alvinn => alvinn(scale),
                    FpBenchmark::Doduc => doduc(scale),
                    FpBenchmark::Ear => ear(scale),
                    FpBenchmark::Hydro2d => hydro2d(scale),
                    FpBenchmark::Mdljdp2 => mdljdp2(scale),
                    FpBenchmark::Nasa7 => nasa7(scale),
                    FpBenchmark::Ora => ora(scale),
                    FpBenchmark::Spice2g6 => spice2g6(scale),
                    FpBenchmark::Su2cor => su2cor(scale),
                };
                let src = match width {
                    FpLoadWidth::SingleWord => expand_single_word(&src),
                    FpLoadWidth::DoubleWord => src,
                };
                Workload::assemble(self.name(), scale, &src)
            })
            .clone()
    }
}

impl fmt::Display for FpBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FpBenchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FpBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError(s.to_owned()))
    }
}

/// alvinn: forward dot products with a serial accumulator, then saxpy
/// weight updates. Little instruction-level parallelism by construction.
fn alvinn(scale: Scale) -> String {
    let inputs = 64;
    let outputs = 32;
    let epochs = 3 * scale.factor();
    let w = doubles_data(0xA1, inputs * outputs, -1.0, 1.0, 6);
    let x = doubles_data(0xA2, inputs, -1.0, 1.0, 6);
    format!(
        r#"
        .data
        .align 3
        weights:
        {w}
        xvec:
        {x}
        yvec: .space {y_bytes}
        consts: .double 0.01
        .text
        main:
            la   $t0, consts
            ldc1 $f20, 0($t0)       # learning rate
            li   $s7, {epochs}
        epoch:
            # ---- forward: y[j] = sum_i x[i] * W[j][i] ----
            la   $s0, weights
            la   $s2, yvec
            li   $s3, {outputs}
        fwd_out:
            la   $s1, xvec
            li   $s4, {inputs}
            sub.d $f4, $f4, $f4     # acc = 0
        fwd_in:
            ldc1 $f6, 0($s1)
            ldc1 $f8, 0($s0)
            mul.d $f10, $f6, $f8
            add.d $f4, $f4, $f10    # serial accumulation chain
            addiu $s1, $s1, 8
            addiu $s0, $s0, 8
            addiu $s4, $s4, -1
            bgtz $s4, fwd_in
            nop
            sdc1 $f4, 0($s2)
            addiu $s2, $s2, 8
            addiu $s3, $s3, -1
            bgtz $s3, fwd_out
            nop
            # ---- backward: W[j][i] += lr * y[j] * x[i] ----
            la   $s0, weights
            la   $s2, yvec
            li   $s3, {outputs}
        bwd_out:
            ldc1 $f12, 0($s2)
            mul.d $f14, $f12, $f20  # delta
            la   $s1, xvec
            li   $s4, {inputs}
        bwd_in:
            ldc1 $f6, 0($s1)
            ldc1 $f8, 0($s0)
            mul.d $f10, $f6, $f14
            add.d $f8, $f8, $f10
            sdc1 $f8, 0($s0)
            addiu $s1, $s1, 8
            addiu $s0, $s0, 8
            addiu $s4, $s4, -1
            bgtz $s4, bwd_in
            nop
            addiu $s2, $s2, 8
            addiu $s3, $s3, -1
            bgtz $s3, bwd_out
            nop
            addiu $s7, $s7, -1
            bgtz $s7, epoch
            nop
            break
        "#,
        y_bytes = outputs * 8,
    )
}

/// doduc: branchy Monte-Carlo style arithmetic with table lookups and
/// occasional divides.
fn doduc(scale: Scale) -> String {
    let n = 8000;
    let iters = scale.factor();
    let xsect = doubles_data(0xD0D, 512, 0.1, 4.0, 6);
    format!(
        r#"
        .data
        .align 3
        consts: .double 4.656612873e-10, 0.3, 1.0, 2.5
        xsect:
        {xsect}
        .text
        main:
            la   $t0, consts
            ldc1 $f20, 0($t0)       # LCG scale
            ldc1 $f22, 8($t0)       # branch threshold
            ldc1 $f24, 16($t0)      # 1.0
            ldc1 $f26, 24($t0)      # 2.5
            sub.d $f8, $f8, $f8     # accumulator
            li   $s4, 987654321
            li   $s7, {iters}
        outer:
            li   $s1, {n}
        mc_loop:
            li   $t9, 1103515245
            mult $s4, $t9
            mflo $s4
            addiu $s4, $s4, 12345
            mtc1 $s4, $f4
            cvt.d.w $f4, $f4
            mul.d $f4, $f4, $f20    # u in (-1, 1)
            abs.d $f4, $f4          # u in [0, 1)
            c.lt.d $f4, $f22
            bc1t mc_rare
            nop
            # common path: cross-section table lookup + multiply-add blend
            srl  $t0, $s4, 8
            andi $t0, $t0, 511
            sll  $t0, $t0, 3
            la   $t1, xsect
            addu $t1, $t1, $t0
            ldc1 $f12, 0($t1)
            mul.d $f6, $f4, $f12
            add.d $f6, $f6, $f24
            mul.d $f10, $f6, $f4
            add.d $f8, $f8, $f10
            b    mc_next
            nop
        mc_rare:
            # rare path: a divide (cross-section lookup flavour)
            add.d $f6, $f4, $f24
            div.d $f10, $f26, $f6
            add.d $f8, $f8, $f10
        mc_next:
            addiu $s1, $s1, -1
            bgtz $s1, mc_loop
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
    )
}

/// ear: a bank of independent second-order filters — high ILP.
fn ear(scale: Scale) -> String {
    let filters = 32;
    let samples = 64;
    let iters = 4 * scale.factor();
    let a = doubles_data(0xEA1, filters, 0.1, 0.9, 6);
    let b = doubles_data(0xEA2, filters, 0.05, 0.5, 6);
    let x = doubles_data(0xEA3, samples, -1.0, 1.0, 6);
    format!(
        r#"
        .data
        .align 3
        coef_a:
        {a}
        coef_b:
        {b}
        signal:
        {x}
        state: .space {state_bytes}
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s0, signal
            li   $s1, {samples}
        sample:
            ldc1 $f4, 0($s0)        # x[n]
            la   $s2, coef_a
            la   $s3, coef_b
            la   $s4, state
            li   $s5, {filters}
        filt:
            ldc1 $f6, 0($s2)        # a[f]
            ldc1 $f8, 0($s4)        # y1[f]
            ldc1 $f12, 0($s3)       # b[f]
            mul.d $f10, $f6, $f4    # a*x   (independent across filters)
            mul.d $f14, $f12, $f8   # b*y1
            add.d $f16, $f10, $f14  # stage-1 output
            mul.d $f18, $f16, $f6   # stage-2 pole
            mul.d $f2, $f8, $f12    # stage-2 zero
            add.d $f16, $f18, $f2
            sub.d $f16, $f16, $f10  # stage-2 output
            sdc1 $f16, 0($s4)
            addiu $s2, $s2, 8
            addiu $s3, $s3, 8
            addiu $s4, $s4, 8
            addiu $s5, $s5, -1
            bgtz $s5, filt
            nop
            addiu $s0, $s0, 8
            addiu $s1, $s1, -1
            bgtz $s1, sample
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
        state_bytes = filters * 8,
    )
}

/// hydro2d: 4-point stencil sweeps between two double grids.
fn hydro2d(scale: Scale) -> String {
    let rows = 48;
    let cols = 48;
    let sweeps = 3 * scale.factor();
    let g = doubles_data(0x42D, rows * cols, 0.0, 10.0, 6);
    let row_bytes = cols * 8;
    format!(
        r#"
        .data
        .align 3
        grid_a:
        {g}
        grid_b: .space {grid_bytes}
        consts: .double 0.25
        .text
        main:
            la   $t0, consts
            ldc1 $f20, 0($t0)
            la   $s0, grid_a        # src
            la   $s1, grid_b        # dst
            li   $s7, {sweeps}
        sweep:
            # interior points, row-major
            addiu $s2, $s0, {first_interior}
            addiu $s3, $s1, {first_interior}
            li   $s4, {int_rows}
        row:
            li   $s5, {int_cols}
        col:
            ldc1 $f4, -8($s2)           # left
            ldc1 $f6, 8($s2)            # right
            ldc1 $f8, -{row_bytes}($s2) # up
            ldc1 $f10, {row_bytes}($s2) # down
            ldc1 $f2, 0($s2)            # centre
            add.d $f12, $f4, $f6        # flux terms
            add.d $f14, $f8, $f10
            mul.d $f18, $f12, $f20      # weighted fluxes
            mul.d $f22, $f14, $f20
            add.d $f16, $f18, $f22
            mul.d $f24, $f2, $f20       # centre damping
            add.d $f16, $f16, $f24
            sub.d $f16, $f16, $f2       # delta form
            sdc1 $f16, 0($s3)
            addiu $s2, $s2, 8
            addiu $s3, $s3, 8
            addiu $s5, $s5, -1
            bgtz $s5, col
            nop
            addiu $s2, $s2, 16      # skip boundary pair
            addiu $s3, $s3, 16
            addiu $s4, $s4, -1
            bgtz $s4, row
            nop
            # swap src and dst for the next sweep
            move $t0, $s0
            move $s0, $s1
            move $s1, $t0
            addiu $s7, $s7, -1
            bgtz $s7, sweep
            nop
            break
        "#,
        grid_bytes = rows * cols * 8,
        first_interior = row_bytes + 8,
        int_rows = rows - 2,
        int_cols = cols - 2,
    )
}

/// mdljdp2: pairwise distance computation with one divide per pair.
fn mdljdp2(scale: Scale) -> String {
    let particles = 256;
    let neighbours = 8;
    let iters = 2 * scale.factor();
    let px = doubles_data(0x3D1, particles, 0.5, 100.0, 6);
    let py = doubles_data(0x3D2, particles, 0.5, 100.0, 6);
    let pz = doubles_data(0x3D3, particles, 0.5, 100.0, 6);
    format!(
        r#"
        .data
        .align 3
        pos_x:
        {px}
        pos_y:
        {py}
        pos_z:
        {pz}
        force: .space {force_bytes}
        consts: .double 1.0
        .text
        main:
            la   $t0, consts
            ldc1 $f24, 0($t0)       # 1.0 for 1/r^2
            li   $s7, {iters}
        step:
            la   $s0, pos_x
            la   $s1, pos_y
            la   $s2, pos_z
            la   $s3, force
            li   $s4, {outer_count}
        particle:
            li   $s5, {neighbours}
            move $t0, $s0
            move $t1, $s1
            move $t2, $s2
            ldc1 $f4, 0($s0)        # xi
            ldc1 $f6, 0($s1)        # yi
            ldc1 $f8, 0($s2)        # zi
            ldc1 $f28, 0($s3)       # f accumulator
        pair:
            ldc1 $f10, 8($t0)       # xj
            ldc1 $f12, 8($t1)
            ldc1 $f14, 8($t2)
            sub.d $f10, $f4, $f10   # dx
            sub.d $f12, $f6, $f12
            sub.d $f14, $f8, $f14
            mul.d $f10, $f10, $f10
            mul.d $f12, $f12, $f12
            mul.d $f14, $f14, $f14
            add.d $f16, $f10, $f12
            add.d $f16, $f16, $f14  # r^2
            div.d $f18, $f24, $f16  # 1/r^2 (f24 set below)
            mul.d $f18, $f18, $f18  # 1/r^4 flavour
            add.d $f28, $f28, $f18
            addiu $t0, $t0, 8
            addiu $t1, $t1, 8
            addiu $t2, $t2, 8
            addiu $s5, $s5, -1
            bgtz $s5, pair
            nop
            sdc1 $f28, 0($s3)
            addiu $s0, $s0, 8
            addiu $s1, $s1, 8
            addiu $s2, $s2, 8
            addiu $s3, $s3, 8
            addiu $s4, $s4, -1
            bgtz $s4, particle
            nop
            addiu $s7, $s7, -1
            bgtz $s7, step
            nop
            break
        "#,
        force_bytes = particles * 8,
        outer_count = particles - neighbours - 1,
    )
}

/// nasa7: dense matrix multiply in dot-product form — the accumulator
/// lives in a register across the k loop, with a Frobenius-norm side
/// accumulation (the suite mixes several kernels), giving the high
/// FP-density, high-ILP profile of the real program.
fn nasa7(scale: Scale) -> String {
    let n = 24;
    let iters = scale.factor();
    let a = doubles_data(0x7A, n * n, -2.0, 2.0, 6);
    let b = doubles_data(0x7B, n * n, -2.0, 2.0, 6);
    format!(
        r#"
        .data
        .align 3
        mat_a:
        {a}
        mat_b:
        {b}
        mat_c: .space {c_bytes}
        .text
        main:
            li   $s7, {iters}
        mm:
            la   $s0, mat_a
            la   $s6, mat_c
            li   $s1, {n}           # i loop
            sub.d $f26, $f26, $f26  # norm accumulator
        iloop:
            la   $s2, mat_b
            li   $s3, {n}           # j loop
        jloop:
            move $t0, $s0           # &a[i][0]
            move $t1, $s2           # &b[0][j]
            li   $s5, {n}           # k loop
            sub.d $f8, $f8, $f8     # c accumulator in a register
        kloop:
            ldc1 $f4, 0($t0)        # a[i][k]
            ldc1 $f6, 0($t1)        # b[k][j]
            mul.d $f10, $f4, $f6
            add.d $f8, $f8, $f10    # c += a*b
            mul.d $f12, $f10, $f10
            add.d $f26, $f26, $f12  # norm += (a*b)^2
            addiu $t0, $t0, 8
            addiu $t1, $t1, {row_bytes}
            addiu $s5, $s5, -1
            bgtz $s5, kloop
            nop
            sdc1 $f8, 0($s6)
            addiu $s6, $s6, 8
            addiu $s2, $s2, 8       # next column of b
            addiu $s3, $s3, -1
            bgtz $s3, jloop
            nop
            addiu $s0, $s0, {row_bytes}
            addiu $s1, $s1, -1
            bgtz $s1, iloop
            nop
            addiu $s7, $s7, -1
            bgtz $s7, mm
            nop
            break
        "#,
        c_bytes = n * n * 8,
        row_bytes = n * 8,
    )
}

/// ora: ray-surface intersection with serial sqrt/divide chains.
fn ora(scale: Scale) -> String {
    let n = 2500;
    let iters = scale.factor();
    let rays = doubles_data(0x0AA, 512, 0.1, 2.0, 6);
    format!(
        r#"
        .data
        .align 3
        rays:
        {rays}
        consts: .double 1.0, 0.5, 4.0
        .text
        main:
            la   $t0, consts
            ldc1 $f20, 0($t0)       # 1.0
            ldc1 $f22, 8($t0)       # 0.5
            ldc1 $f24, 16($t0)      # 4.0
            sub.d $f28, $f28, $f28  # accumulated path length
            li   $s7, {iters}
        outer:
            la   $s0, rays
            li   $s1, {n}
            li   $s2, 0             # ray table cursor
        ray:
            andi $t0, $s2, 511
            sll  $t0, $t0, 3
            la   $t1, rays
            addu $t1, $t1, $t0
            ldc1 $f4, 0($t1)        # direction component d
            mul.d $f6, $f4, $f4     # b = d*d
            mul.d $f8, $f6, $f24    # scaled
            sub.d $f10, $f8, $f20   # disc = 4 d^2 - 1
            c.lt.d $f10, $f22
            bc1t miss_ray
            nop
            sqrt.d $f12, $f10       # serial: sqrt ...
            add.d $f14, $f12, $f6
            div.d $f16, $f20, $f14  # ... feeding a divide
            add.d $f28, $f28, $f16
        miss_ray:
            addiu $s2, $s2, 1
            addiu $s1, $s1, -1
            bgtz $s1, ray
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
    )
}

/// spice2g6: sparse gather matrix-vector product — memory-bound, low FP
/// fraction.
fn spice2g6(scale: Scale) -> String {
    let rows = 512;
    let nnz_per_row = 5;
    let xs = 1024;
    let iters = 4 * scale.factor();
    let nnz = rows * nnz_per_row;
    let colidx = words_data(0x5B1, nnz, xs as u32, 12);
    let vals = doubles_data(0x5B2, nnz, -1.0, 1.0, 6);
    let x = doubles_data(0x5B3, xs, -5.0, 5.0, 6);
    format!(
        r#"
        .data
        colidx:
        {colidx}
        .align 3
        vals:
        {vals}
        xvec:
        {x}
        yvec: .space {y_bytes}
        .text
        main:
            li   $s7, {iters}
        mvm:
            la   $s0, colidx
            la   $s1, vals
            la   $s2, yvec
            li   $s3, {rows}
        rowl:
            li   $s4, {nnz_per_row}
            sub.d $f4, $f4, $f4     # acc
        nzl:
            lw   $t0, 0($s0)        # column index
            sll  $t0, $t0, 3
            la   $t1, xvec
            addu $t1, $t1, $t0
            ldc1 $f6, 0($t1)        # x[col] gather
            ldc1 $f8, 0($s1)        # A value
            mul.d $f10, $f6, $f8
            add.d $f4, $f4, $f10
            addiu $s0, $s0, 4
            addiu $s1, $s1, 8
            addiu $s4, $s4, -1
            bgtz $s4, nzl
            nop
            sdc1 $f4, 0($s2)
            addiu $s2, $s2, 8
            addiu $s3, $s3, -1
            bgtz $s3, rowl
            nop
            addiu $s7, $s7, -1
            bgtz $s7, mvm
            nop
            break
        "#,
        y_bytes = rows * 8,
    )
}

/// su2cor: complex multiply-accumulate over interleaved re/im vectors.
fn su2cor(scale: Scale) -> String {
    let n = 512;
    let iters = 8 * scale.factor();
    let a = doubles_data(0x521, 2 * n, -1.0, 1.0, 6);
    let b = doubles_data(0x522, 2 * n, -1.0, 1.0, 6);
    format!(
        r#"
        .data
        .align 3
        vec_a:
        {a}
        vec_b:
        {b}
        vec_c: .space {c_bytes}
        .text
        main:
            li   $s7, {iters}
        outer:
            la   $s0, vec_a
            la   $s1, vec_b
            la   $s2, vec_c
            li   $s3, {n}
        cmul:
            ldc1 $f4, 0($s0)        # ar
            ldc1 $f6, 8($s0)        # ai
            ldc1 $f8, 0($s1)        # br
            ldc1 $f10, 8($s1)       # bi
            mul.d $f12, $f4, $f8    # ar*br
            mul.d $f14, $f6, $f10   # ai*bi
            mul.d $f16, $f4, $f10   # ar*bi
            mul.d $f18, $f6, $f8    # ai*br
            sub.d $f12, $f12, $f14  # cr
            add.d $f16, $f16, $f18  # ci
            sdc1 $f12, 0($s2)
            sdc1 $f16, 8($s2)
            addiu $s0, $s0, 16
            addiu $s1, $s1, 16
            addiu $s2, $s2, 16
            addiu $s3, $s3, -1
            bgtz $s3, cmul
            nop
            addiu $s7, $s7, -1
            bgtz $s7, outer
            nop
            break
        "#,
        c_bytes = 2 * n * 8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_isa::OpKind;

    #[test]
    fn all_kernels_assemble_and_halt() {
        for b in FpBenchmark::ALL {
            let w = b.workload(Scale::Test);
            let trace = w.capture().unwrap_or_else(|e| panic!("{b}: {e}"));
            assert!(
                trace.stats().total > 20_000,
                "{b}: only {} instructions",
                trace.stats().total
            );
        }
    }

    #[test]
    fn kernels_have_floating_point_character() {
        for b in FpBenchmark::ALL {
            let trace = b.workload(Scale::Test).capture().unwrap();
            let s = trace.stats();
            let fp = s.fp_fraction();
            assert!(fp > 0.08, "{b}: fp fraction {fp:.3} too low");
            assert!(s.fp_loads > 0, "{b} must load FP data");
            assert!(
                s.fp_stores > 0 || b == FpBenchmark::Doduc || b == FpBenchmark::Ora,
                "{b} should store FP data"
            );
        }
    }

    #[test]
    fn ora_uses_sqrt_and_divide() {
        let trace = FpBenchmark::Ora.workload(Scale::Test).capture().unwrap();
        let sqrts = trace.iter().filter(|o| o.kind == OpKind::FpSqrt).count();
        let divs = trace.iter().filter(|o| o.kind == OpKind::FpDiv).count();
        assert!(sqrts > 500, "sqrts {sqrts}");
        assert!(divs > 500, "divs {divs}");
    }

    #[test]
    fn mdljdp2_divides_per_pair() {
        let trace = FpBenchmark::Mdljdp2
            .workload(Scale::Test)
            .capture()
            .unwrap();
        let divs = trace.iter().filter(|o| o.kind == OpKind::FpDiv).count();
        assert!(divs > 1000, "divs {divs}");
    }

    #[test]
    fn alvinn_is_serial_nasa7_is_parallel() {
        // Structural check: alvinn's adds form one chain per dot product
        // (every FpAdd writes the same accumulator), while nasa7's adds
        // write many different registers over a window.
        let alvinn = FpBenchmark::Alvinn.workload(Scale::Test).capture().unwrap();
        let distinct: std::collections::HashSet<_> = alvinn
            .iter()
            .filter(|o| o.kind == OpKind::FpAdd)
            .take(64)
            .map(|o| o.dst)
            .collect();
        assert!(
            distinct.len() <= 2,
            "alvinn accumulators: {}",
            distinct.len()
        );
    }

    #[test]
    fn spice_has_low_fp_fraction() {
        let spice = FpBenchmark::Spice2g6
            .workload(Scale::Test)
            .capture()
            .unwrap();
        let nasa = FpBenchmark::Nasa7.workload(Scale::Test).capture().unwrap();
        assert!(spice.stats().fp_fraction() < nasa.stats().fp_fraction());
    }

    #[test]
    fn doduc_branches_on_fp_condition() {
        let trace = FpBenchmark::Doduc.workload(Scale::Test).capture().unwrap();
        let cmps = trace.iter().filter(|o| o.kind == OpKind::FpCmp).count();
        assert!(cmps > 5000, "compares {cmps}");
    }

    #[test]
    fn names_round_trip() {
        for b in FpBenchmark::ALL {
            assert_eq!(b.name().parse::<FpBenchmark>().unwrap(), b);
        }
    }
}
