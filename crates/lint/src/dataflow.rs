//! Intraprocedural integer range analysis powering L010.
//!
//! A non-relational interval domain (`[lo, hi]` over `i128`) abstract-
//! interprets each function body: `let` bindings and assignments update
//! the environment, dominating comparisons refine it, and every
//! `+`/`-`/`*` whose operands carry a cycle/count unit name is checked
//! against `u64` bounds. The lattice makes two deliberate imprecision
//! trade-offs, both documented in `docs/LINTS.md`:
//!
//! - **Operand headroom.** An unknown `u64` rvalue is modelled as
//!   `[0, 2^62]`, not `[0, 2^64-1]`: two bits of headroom mean a single
//!   add of two unknowns (`tx_start + tx_cycles`) does not fire, while a
//!   chain of four unknown adds — or any unknown multiply — still does.
//!   Simulator horizon arithmetic lives comfortably inside 2^62 cycles
//!   (146 years at 1 GHz); values that approach it got there by wrapping.
//! - **Accumulator widening.** The target of a compound assignment
//!   through a field, index or deref (`self.stat += x`) is modelled as
//!   the full `[0, 2^64-1]`: the analysis cannot bound how many times a
//!   persistent accumulator has already been bumped, so cross-call
//!   accumulation must saturate to be provably wrap-free.
//!
//! Subtractions additionally consult an order-fact set harvested from
//! dominating guards: inside `if i >= cap { .. }` the fact `i >= cap`
//! proves `i - cap`. `saturating_*`/`checked_*`/`wrapping_*` calls and
//! `as` casts on either operand silence the check (the cast marks an
//! explicit conversion).

use crate::ast::{BinOp, Block, Expr, LetStmt, PFn, Stmt};

/// An inclusive integer interval. The analysis saturates at the `i128`
/// rails, which both sit far outside the `u64` range being proven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub lo: i128,
    pub hi: i128,
}

const U64_MAX: i128 = u64::MAX as i128;

/// Unknown one-shot operand: `[0, 2^62]` (headroom trade-off above).
const OPERAND_TOP: Interval = Interval { lo: 0, hi: 1 << 62 };

/// Unknown persistent accumulator: the full `u64` range.
const ACCUM_TOP: Interval = Interval { lo: 0, hi: U64_MAX };

/// Collection lengths are bounded by the address space.
const LEN_TOP: Interval = Interval { lo: 0, hi: 1 << 48 };

impl Interval {
    pub fn exact(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(o.hi),
            hi: self.hi.saturating_sub(o.lo),
        }
    }

    fn mul(self, o: Interval) -> Interval {
        let products = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval {
            lo: products.iter().copied().min().unwrap_or(0),
            hi: products.iter().copied().max().unwrap_or(0),
        }
    }

    fn clamp_u64(self) -> Interval {
        Interval {
            lo: self.lo.clamp(0, U64_MAX),
            hi: self.hi.clamp(0, U64_MAX),
        }
    }

    pub fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    pub fn contains(self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Analyze one function; returns `(description, line)` for every
/// arithmetic op on a unit-named operand that could wrap a `u64`.
/// Summary-free form: every call evaluates to `OPERAND_TOP`.
pub fn arith_risks(f: &PFn) -> Vec<(String, u32)> {
    arith_risks_with(f, &|_, _| None).risks
}

/// A callee-summary oracle: maps a call site's `(callee name, line)` to
/// the joined return interval of its resolved targets, or `None` for "no
/// summary" (the call evaluates to `OPERAND_TOP`, the summary-free model).
pub type Oracle<'a> = &'a dyn Fn(&str, u32) -> Option<Interval>;

/// Per-function result of the range analysis: the L010 risks plus the
/// function's own return interval, which feeds the interprocedural
/// summary fixpoint. `ret` is `None` when the function does not return a
/// bare integer type or no return path could be bounded.
pub struct FnFlow {
    pub risks: Vec<(String, u32)>,
    pub ret: Option<Interval>,
}

/// Like [`arith_risks`], but call results are refined through `oracle`
/// and the function's own return interval is collected.
pub fn arith_risks_with(f: &PFn, oracle: Oracle<'_>) -> FnFlow {
    let mut flow = Flow::new(oracle);
    // Walk the top-level statements without the usual block scope pop so
    // the environment is still live when the tail expression is evaluated
    // for the return summary.
    for s in &f.body {
        flow.visit_stmt(s);
    }
    let collect_ret = is_bare_int(&f.ret);
    if collect_ret {
        if let Some(Stmt::Expr(tail)) = f.body.last() {
            if !matches!(tail, Expr::Return(_)) {
                let iv = flow.eval(tail);
                flow.note_ret(iv);
            }
        }
    }
    FnFlow {
        risks: flow.risks,
        ret: if collect_ret { flow.ret } else { None },
    }
}

/// Return summaries are only collected for functions returning a bare
/// integer: wrapped returns (`Option<u64>`, structs) evaluate to top at
/// the caller anyway once unwrapped.
fn is_bare_int(ty: &str) -> bool {
    matches!(
        ty,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

struct Flow<'a> {
    /// Lexically scoped `name -> interval` for `let`-bound locals.
    env: Vec<(String, Interval)>,
    /// Order facts `lhs >= rhs` (textual keys) from dominating guards.
    facts: Vec<(String, String)>,
    risks: Vec<(String, u32)>,
    /// Callee return summaries (interprocedural mode).
    oracle: Oracle<'a>,
    /// Join of every `return`/tail value seen so far. Joining values from
    /// nested closures is a deliberate (sound, widening-only) imprecision.
    ret: Option<Interval>,
}

impl<'a> Flow<'a> {
    fn new(oracle: Oracle<'a>) -> Flow<'a> {
        Flow {
            env: Vec::new(),
            facts: Vec::new(),
            risks: Vec::new(),
            oracle,
            ret: None,
        }
    }

    fn note_ret(&mut self, iv: Interval) {
        self.ret = Some(match self.ret {
            Some(prev) => prev.join(iv),
            None => iv,
        });
    }
    fn lookup(&self, name: &str) -> Option<Interval> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, iv)| iv)
    }

    fn set(&mut self, name: &str, iv: Interval) {
        if let Some(slot) = self.env.iter_mut().rev().find(|(n, _)| n == name) {
            slot.1 = iv;
        } else {
            self.env.push((name.to_string(), iv));
        }
        // The old value's order facts no longer hold.
        self.facts
            .retain(|(a, b)| !key_mentions(a, name) && !key_mentions(b, name));
    }

    fn has_fact(&self, ge: &str, than: &str) -> bool {
        self.facts.iter().any(|(a, b)| a == ge && b == than)
    }

    fn visit_block(&mut self, b: &Block) {
        let mark = self.env.len();
        for s in b {
            self.visit_stmt(s);
        }
        self.env.truncate(mark);
    }

    fn visit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let(l) => self.visit_let(l),
            Stmt::Expr(e) => self.visit_expr(e),
        }
    }

    fn visit_let(&mut self, l: &LetStmt) {
        let iv = match &l.init {
            Some(init) => {
                self.visit_expr(init);
                self.eval(init)
            }
            None => OPERAND_TOP,
        };
        if let Some(else_b) = &l.else_block {
            self.visit_block(else_b);
        }
        for b in &l.bindings {
            let bound = if b.whole && b.peel == 0 {
                iv
            } else {
                OPERAND_TOP
            };
            self.env.push((b.name.clone(), bound));
        }
    }

    /// Walk an expression, checking arithmetic and tracking assignments.
    fn visit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Binary { op, lhs, rhs, line } => {
                self.visit_expr(lhs);
                self.visit_expr(rhs);
                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
                    let lv = self.eval(lhs);
                    self.check(*op, lhs, lv, rhs, *line);
                }
            }
            Expr::Assign { op, lhs, rhs, line } => {
                self.visit_expr(rhs);
                if let Some(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul)) = op {
                    // A compound assignment through a field/index/deref
                    // is a persistent accumulator: widen to ACCUM_TOP.
                    let lv = if is_place_projection(lhs) {
                        ACCUM_TOP
                    } else {
                        self.eval(lhs)
                    };
                    self.check(*op, lhs, lv, rhs, *line);
                }
                if let Some(name) = local_name(lhs) {
                    let rv = self.eval(rhs);
                    let new = match op {
                        None => rv,
                        Some(BinOp::Add) => self.eval(lhs).add(rv),
                        Some(BinOp::Sub) => self.eval(lhs).sub(rv),
                        Some(BinOp::Mul) => self.eval(lhs).mul(rv),
                        Some(_) => OPERAND_TOP,
                    };
                    self.set(&name, new);
                } else if let Some(k) = expr_key(lhs) {
                    // Writing through a projection invalidates its facts.
                    self.facts.retain(|(a, b)| a != &k && b != &k);
                }
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                self.visit_expr(cond);
                let base = self.env.clone();
                let fact_mark = self.facts.len();
                let refined = self.refine_from(cond, true);
                self.visit_block(then);
                self.facts.truncate(fact_mark);
                self.unrefine(refined);
                // Run the else branch from the pre-then environment, then
                // join: after the `if`, a local holds the hull of what the
                // two paths assigned.
                let then_env = std::mem::replace(&mut self.env, base);
                if let Some(els) = else_ {
                    let refined = self.refine_from(cond, false);
                    self.visit_expr(els);
                    self.facts.truncate(fact_mark);
                    self.unrefine(refined);
                }
                for (slot, (name, iv)) in self.env.iter_mut().zip(&then_env) {
                    if slot.0 == *name {
                        slot.1 = slot.1.join(*iv);
                    }
                }
            }
            Expr::While { cond, body, .. } => {
                let fact_mark = self.facts.len();
                let refined = match cond {
                    Some(c) => {
                        self.visit_expr(c);
                        self.refine_from(c, true)
                    }
                    None => Vec::new(),
                };
                self.widen_assigned(body);
                self.visit_block(body);
                self.facts.truncate(fact_mark);
                self.unrefine(refined);
            }
            Expr::For { iter, body, .. } => {
                self.visit_expr(iter);
                self.widen_assigned(body);
                self.visit_block(body);
            }
            Expr::Match { scrutinee, arms } => {
                self.visit_expr(scrutinee);
                for arm in arms {
                    let fact_mark = self.facts.len();
                    if let Some(g) = &arm.guard {
                        self.visit_expr(g);
                    }
                    self.visit_expr(&arm.body);
                    self.facts.truncate(fact_mark);
                }
            }
            Expr::Block(b) => self.visit_block(b),
            Expr::Closure { body, .. } => self.visit_expr(body),
            Expr::Call { args, .. } => {
                for a in args {
                    self.visit_expr(a);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                self.visit_expr(recv);
                for a in args {
                    self.visit_expr(a);
                }
            }
            Expr::Field { base, .. } => self.visit_expr(base),
            Expr::Index { base, index, .. } => {
                self.visit_expr(base);
                self.visit_expr(index);
            }
            Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => self.visit_expr(i),
            Expr::Cast { expr, .. } => self.visit_expr(expr),
            Expr::StructLit { fields, rest, .. } => {
                for (_, v) in fields {
                    self.visit_expr(v);
                }
                if let Some(r) = rest {
                    self.visit_expr(r);
                }
            }
            Expr::ArrayLit { elems, .. } | Expr::Tuple { elems, .. } => {
                for e in elems {
                    self.visit_expr(e);
                }
            }
            Expr::Return(v) => {
                if let Some(v) = v {
                    self.visit_expr(v);
                    let iv = self.eval(v);
                    self.note_ret(iv);
                }
            }
            Expr::Range { lo, hi } => {
                for e in [lo, hi].into_iter().flatten() {
                    self.visit_expr(e);
                }
            }
            // Macro args compile away (debug_assert!) or format; their
            // arithmetic is not release-path cycle math.
            Expr::Macro { .. } => {}
            Expr::Lit(_)
            | Expr::Num { .. }
            | Expr::SelfVal(_)
            | Expr::Path { .. }
            | Expr::Opaque(_) => {}
        }
    }

    /// Check one `+`/`-`/`*` whose lhs interval is pre-computed (the
    /// compound-assign path widens it).
    fn check(&mut self, op: BinOp, lhs: &Expr, lv: Interval, rhs: &Expr, line: u32) {
        // A cast on either side is the explicit conversion escape hatch.
        if is_cast(lhs) || is_cast(rhs) {
            return;
        }
        let l_unit = arith_name(lhs).filter(|n| is_unit_name(n));
        let r_unit = arith_name(rhs).filter(|n| is_unit_name(n));
        if l_unit.is_none() && r_unit.is_none() {
            return;
        }
        let rv = self.eval(rhs);
        let safe = match op {
            BinOp::Add => lv.hi.saturating_add(rv.hi) <= U64_MAX,
            BinOp::Mul => lv.hi.saturating_mul(rv.hi) <= U64_MAX,
            BinOp::Sub => {
                lv.lo.saturating_sub(rv.hi) >= 0
                    || match (expr_key(lhs), expr_key(rhs)) {
                        (Some(a), Some(b)) => self.has_fact(&a, &b),
                        _ => false,
                    }
            }
            _ => true,
        };
        if !safe {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                _ => "*",
            };
            let name = l_unit.or(r_unit).unwrap_or_default();
            self.risks.push((format!("`{name}` (`{sym}`)"), line));
        }
    }

    /// Evaluate an expression to an interval (no side effects).
    fn eval(&self, e: &Expr) -> Interval {
        match e {
            Expr::Num { val, .. } => Interval::exact(*val),
            Expr::Path { segs, .. } => match segs.as_slice() {
                [single] => self.lookup(single).unwrap_or(OPERAND_TOP),
                _ => OPERAND_TOP,
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.eval(lhs);
                let r = self.eval(rhs);
                match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div if l.lo >= 0 && r.lo >= 1 => Interval {
                        lo: l.lo / r.hi.max(1),
                        hi: l.hi / r.lo,
                    },
                    BinOp::Rem if l.lo >= 0 && r.lo >= 1 => Interval {
                        lo: 0,
                        hi: r.hi.saturating_sub(1),
                    },
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Cmp => {
                        Interval { lo: 0, hi: 1 }
                    }
                    _ => OPERAND_TOP,
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                let r = self.eval(recv);
                let a0 = args.first().map(|a| self.eval(a));
                match (name.as_str(), a0) {
                    ("saturating_add", Some(a)) => r.add(a).clamp_u64(),
                    ("saturating_sub", Some(a)) => r.sub(a).clamp_u64(),
                    ("saturating_mul", Some(a)) => r.mul(a).clamp_u64(),
                    ("min", Some(a)) => Interval {
                        lo: r.lo.min(a.lo),
                        hi: r.hi.min(a.hi),
                    },
                    ("max", Some(a)) => Interval {
                        lo: r.lo.max(a.lo),
                        hi: r.hi.max(a.hi),
                    },
                    ("len", _) => LEN_TOP,
                    _ => (self.oracle)(name, *line).unwrap_or(OPERAND_TOP),
                }
            }
            Expr::Call { callee, line, .. } => match callee.as_ref() {
                Expr::Path { segs, .. } => segs
                    .last()
                    .and_then(|n| (self.oracle)(n, *line))
                    .unwrap_or(OPERAND_TOP),
                _ => OPERAND_TOP,
            },
            Expr::Cast { expr, .. } => self.eval(expr).clamp_u64(),
            Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => self.eval(i),
            Expr::Block(b) => match b.last() {
                Some(Stmt::Expr(last)) => self.eval(last),
                _ => OPERAND_TOP,
            },
            _ => OPERAND_TOP,
        }
    }

    /// Harvest refinements from a guard for the branch where it is
    /// `taken` (then) or not (else). Returns env entries to restore.
    fn refine_from(&mut self, cond: &Expr, taken: bool) -> Vec<(String, Interval)> {
        let mut restored = Vec::new();
        if let Expr::Binary { op, lhs, rhs, .. } = cond {
            // Normalize to a `ge >= than` order fact.
            let pair = match (op, taken) {
                (BinOp::Gt | BinOp::Ge, true) | (BinOp::Lt | BinOp::Le, false) => Some((lhs, rhs)),
                (BinOp::Lt | BinOp::Le, true) | (BinOp::Gt | BinOp::Ge, false) => Some((rhs, lhs)),
                _ => None,
            };
            if let Some((ge, than)) = pair {
                if let (Some(a), Some(b)) = (expr_key(ge), expr_key(than)) {
                    self.facts.push((a, b));
                }
                // Numeric refinement for `x > 3`-style guards.
                if let (Some(name), Expr::Num { val, .. }) = (local_name(ge), than.as_ref()) {
                    let strict = matches!(op, BinOp::Gt | BinOp::Lt) == taken;
                    if let Some(old) = self.lookup(&name) {
                        restored.push((name.clone(), old));
                        let lo = old.lo.max(val.saturating_add(i128::from(strict)));
                        self.set(
                            &name,
                            Interval {
                                lo,
                                hi: old.hi.max(lo),
                            },
                        );
                    }
                }
            }
        }
        restored
    }

    fn unrefine(&mut self, restored: Vec<(String, Interval)>) {
        for (name, iv) in restored {
            self.set(&name, iv);
        }
    }

    /// Before a loop body, forget everything the body assigns.
    fn widen_assigned(&mut self, body: &Block) {
        let mut names = Vec::new();
        collect_assigned(body, &mut names);
        for n in names {
            self.set(&n, OPERAND_TOP);
        }
    }
}

/// A cycle- or count-named operand: `cycle(s)`, `count`, or a
/// `_cycle`/`_cycles`/`_count`/`_counts` suffix.
fn is_unit_name(name: &str) -> bool {
    ["cycle", "cycles", "count"].contains(&name)
        || ["_cycle", "_cycles", "_count", "_counts"]
            .iter()
            .any(|suffix| name.ends_with(suffix))
}

fn is_cast(e: &Expr) -> bool {
    match e {
        Expr::Cast { .. } => true,
        Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => is_cast(i),
        _ => false,
    }
}

/// The place a compound assignment persists into, if it is a
/// field/index/deref projection rather than a plain local.
fn is_place_projection(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Field { .. } | Expr::Index { .. } | Expr::Unary(_) | Expr::MutBorrow(_)
    )
}

fn local_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => match segs.as_slice() {
            [single] => Some(single.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// The unit-carrying name of an arithmetic operand.
fn arith_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => segs.last().cloned(),
        Expr::Field { name, .. } => Some(name.clone()),
        Expr::MethodCall { name, .. } => Some(name.clone()),
        Expr::Call { callee, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } => segs.last().cloned(),
            _ => None,
        },
        Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => arith_name(i),
        _ => None,
    }
}

/// A textual identity for order facts: stable for locals, `self` fields
/// and pure-looking method results within one function body.
fn expr_key(e: &Expr) -> Option<String> {
    match e {
        Expr::SelfVal(_) => Some("self".to_string()),
        Expr::Path { segs, .. } => Some(segs.join("::")),
        Expr::Field { base, name, .. } => Some(format!("{}.{}", expr_key(base)?, name)),
        Expr::MethodCall {
            recv, name, args, ..
        } if args.is_empty() => Some(format!("{}.{}()", expr_key(recv)?, name)),
        Expr::Num { val, .. } => Some(val.to_string()),
        Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => expr_key(i),
        _ => None,
    }
}

fn key_mentions(key: &str, name: &str) -> bool {
    key.split(['.', ':'])
        .any(|part| part == name || part.strip_suffix("()").map(|p| p == name).unwrap_or(false))
}

fn collect_assigned(b: &Block, out: &mut Vec<String>) {
    for s in b {
        match s {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    collect_assigned_expr(init, out);
                }
            }
            Stmt::Expr(e) => collect_assigned_expr(e, out),
        }
    }
}

fn collect_assigned_expr(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Assign { lhs, rhs, .. } => {
            if let Some(n) = local_name(lhs) {
                out.push(n);
            }
            collect_assigned_expr(rhs, out);
        }
        Expr::Block(b) => collect_assigned(b, out),
        Expr::If { then, else_, .. } => {
            collect_assigned(then, out);
            if let Some(e) = else_ {
                collect_assigned_expr(e, out);
            }
        }
        Expr::While { body, .. } | Expr::For { body, .. } => collect_assigned(body, out),
        Expr::Match { arms, .. } => {
            for a in arms {
                collect_assigned_expr(&a.body, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn risks(body: &str) -> Vec<(String, u32)> {
        let src = format!("fn t(&mut self) {{ {body} }}");
        let parsed = parse_file(&lex(&src));
        arith_risks(&parsed.fns[0])
    }

    #[test]
    fn single_unknown_add_has_headroom() {
        assert!(risks("let end_cycle = start + busy_cycles;").is_empty());
    }

    #[test]
    fn field_accumulator_add_fires() {
        let r = risks("self.busy_cycles += tx_cycles;");
        assert_eq!(r.len(), 1, "{r:?}");
    }

    #[test]
    fn saturating_accumulator_is_silent() {
        assert!(risks("self.busy_cycles = self.busy_cycles.saturating_add(tx_cycles);").is_empty());
    }

    #[test]
    fn unproven_sub_fires_and_guard_proves_it() {
        assert_eq!(risks("let d = ready_cycle - now;").len(), 1);
        assert!(risks("if ready_cycle >= now { let d = ready_cycle - now; }").is_empty());
        assert!(risks("if now < ready_cycle { let d = ready_cycle - now; }").is_empty());
        // The else branch of `<` inverts to `>=`.
        assert!(risks("if ready_cycle < now { } else { let d = ready_cycle - now; }").is_empty());
    }

    #[test]
    fn guard_does_not_leak_out_of_its_branch() {
        assert_eq!(
            risks("if ready_cycle >= now { } let d = ready_cycle - now;").len(),
            1
        );
    }

    #[test]
    fn unknown_mul_fires_and_cast_silences() {
        assert_eq!(risks("let area = page_count * span;").len(), 1);
        assert!(risks("let area = page_count as u128 * span;").is_empty());
    }

    #[test]
    fn literal_ranges_are_tracked_through_locals() {
        assert!(risks("let base_cycles = 4; let c = base_cycles * 8;").is_empty());
        assert!(risks("let n_count = 3; let m = n_count + 1; let k = m - 1;").is_empty());
    }

    #[test]
    fn assignment_invalidates_an_order_fact() {
        let r = risks("if end_cycle >= base { end_cycle = fresh; let d = end_cycle - base; }");
        assert_eq!(r.len(), 1, "{r:?}");
    }

    /// Soundness: on randomly generated straight-line `let` chains, the
    /// computed interval always contains the concrete evaluation. The
    /// generator is a hand-rolled LCG (the lint crate takes no deps).
    #[test]
    fn random_straight_line_snippets_are_soundly_bounded() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i128
        };
        for trial in 0..200 {
            let mut src = String::from("fn t() { let v0 = ");
            let mut concrete: Vec<i128> = Vec::new();
            let seed = next() % 1000;
            src.push_str(&format!("{seed}; "));
            concrete.push(seed);
            let vars = 2 + (next() % 6) as usize;
            for i in 1..=vars {
                let a = (next() as usize) % i;
                let op = next() % 3;
                let lit = 1 + next() % 50;
                let (expr, val) = match op {
                    0 => (format!("v{a} + {lit}"), concrete[a].saturating_add(lit)),
                    1 => (
                        format!("v{a}.saturating_sub({lit})"),
                        concrete[a].saturating_sub(lit).clamp(0, U64_MAX),
                    ),
                    _ => (format!("v{a} * {lit}"), concrete[a].saturating_mul(lit)),
                };
                src.push_str(&format!("let v{i} = {expr}; "));
                concrete.push(val);
            }
            // Bind a probe so the final env can be checked through eval.
            src.push('}');
            let parsed = parse_file(&lex(&src));
            let mut flow = Flow::new(&|_, _| None);
            for (i, s) in parsed.fns[0].body.iter().enumerate() {
                flow.visit_stmt(s);
                let Stmt::Let(l) = s else { continue };
                let name = &l.bindings[0].name;
                let iv = flow.lookup(name).expect("bound var");
                assert!(
                    iv.contains(concrete[i]),
                    "trial {trial}: {src}\n  {name} = {} not in [{}, {}]",
                    concrete[i],
                    iv.lo,
                    iv.hi
                );
            }
        }
    }

    #[test]
    fn callee_summary_bounds_a_call_and_ret_is_collected() {
        let src = "fn t() -> u64 { let base_cycles = leaf_cycles(); base_cycles * 8 }";
        let parsed = parse_file(&lex(src));
        let bare = arith_risks_with(&parsed.fns[0], &|_, _| None);
        assert_eq!(bare.risks.len(), 1, "summary-free call widens to top");
        let oracle =
            |name: &str, _line: u32| (name == "leaf_cycles").then_some(Interval { lo: 0, hi: 7 });
        let with = arith_risks_with(&parsed.fns[0], &oracle);
        assert!(with.risks.is_empty(), "{:?}", with.risks);
        assert_eq!(with.ret, Some(Interval { lo: 0, hi: 56 }));
    }

    #[test]
    fn return_statements_join_into_the_summary() {
        let src = "fn t(n: u64) -> u64 { if n > 9 { return 100; } 3 }";
        let parsed = parse_file(&lex(src));
        let fl = arith_risks_with(&parsed.fns[0], &|_, _| None);
        assert_eq!(fl.ret, Some(Interval { lo: 3, hi: 100 }));
    }

    #[test]
    fn interval_join_is_a_hull() {
        let a = Interval { lo: 1, hi: 3 };
        let b = Interval { lo: 7, hi: 9 };
        assert_eq!(a.join(b), Interval { lo: 1, hi: 9 });
    }
}
