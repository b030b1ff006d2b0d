//! Taint propagation for L015: untrusted input reaching size-shaped
//! sinks.
//!
//! The domain is a bitmask per value: bit *i* means "may derive from
//! parameter *i* of the enclosing function", and [`ROOT_BIT`] means "may
//! derive from the return value of a function that (transitively)
//! returns untrusted input". One walker serves two modes:
//!
//! - **Summary mode** ([`ret_taint_of`]): seed each parameter with its
//!   own bit and collect the join of all return paths — the
//!   parameter→return flow mask the deep phase keeps per function.
//! - **Detection mode** ([`run`] with a non-zero `live` mask): seed the
//!   parameters the interprocedural worklist marked tainted, record
//!   every catalogued sink a live-tainted value reaches, and report the
//!   join of return masks so the caller can propagate "returns
//!   untrusted" upward.
//!
//! The analysis tracks *magnitude* taint, which is what the catalogued
//! sinks (allocation sizes, indices, loop bounds, cell-count products)
//! consume. That choice drives the sanitizer set: a dominating upper
//! bound (`t < LIMIT`, `t.len() <= LIMIT` with an early return,
//! `.min(limit)`, `.clamp(..)`) or a range-validating `validate()?`
//! clears a value, because a bounded magnitude cannot over-allocate.
//! Deliberate imprecisions (documented in `docs/LINTS.md`): taint does
//! not follow receiver fields into a callee's `self`, match arms join
//! without per-arm refinement, and a guard's limit expression is assumed
//! clean unless it visibly mentions a tainted local.

use crate::ast::{BinOp, Block, Expr, PFn, Stmt};

/// Flags a value derived from the return of a function that returns
/// untrusted input, independent of any parameter of the current fn.
pub const ROOT_BIT: u64 = 1 << 63;

/// Parameters beyond this index share the last bit.
const MAX_PARAM_BIT: usize = 62;

/// The bit representing parameter `i`.
pub fn param_bit(i: usize) -> u64 {
    1u64 << i.min(MAX_PARAM_BIT)
}

/// Interprocedural call model. Returns `Some(mask)` when the call site
/// resolves to workspace functions with known summaries (the mask is the
/// result's taint), or `None` when unresolved — the walker then falls
/// back to "any tainted input taints the result". Implementations also
/// observe argument masks to drive worklist propagation.
pub trait CallModel {
    fn call(&mut self, name: &str, line: u32, recv: u64, args: &[u64]) -> Option<u64>;
}

/// The model with no interprocedural knowledge.
pub struct OpaqueCalls;

impl CallModel for OpaqueCalls {
    fn call(&mut self, _: &str, _: u32, _: u64, _: &[u64]) -> Option<u64> {
        None
    }
}

/// One catalogued sink reached by a live-tainted value.
#[derive(Debug, Clone)]
pub struct SinkHit {
    /// What kind of sink, human-readable ("allocation size", ...).
    pub what: &'static str,
    pub line: u32,
}

/// Result of walking one function body.
pub struct TaintOut {
    /// Join of every `return`/tail-expression mask.
    pub ret: u64,
    /// Sinks reached by live-tainted values (empty in summary mode).
    pub sinks: Vec<SinkHit>,
}

/// Walk `f` with `param_masks` seeding the parameters (index-aligned
/// with `f.params`, missing entries clean). `live` selects which bits
/// count as tainted when recording sinks; pass `0` to skip sink
/// detection entirely (summary mode).
pub fn run(f: &PFn, param_masks: &[u64], live: u64, model: &mut dyn CallModel) -> TaintOut {
    let mut tf = TaintFlow {
        env: Vec::new(),
        model,
        live,
        sinks: Vec::new(),
        ret: 0,
    };
    for (i, p) in f.params.iter().enumerate() {
        let m = param_masks.get(i).copied().unwrap_or(0);
        tf.env.push((p.name.clone(), m));
    }
    let mut tail = 0u64;
    for s in &f.body {
        tail = tf.visit_stmt(s);
    }
    if let Some(Stmt::Expr(e)) = f.body.last() {
        if !matches!(e, Expr::Return(_)) {
            tf.ret |= tail;
        }
    }
    TaintOut {
        ret: tf.ret,
        sinks: tf.sinks,
    }
}

/// Parameter→return flow summary: bit *i* set when parameter *i* may
/// flow into the return value.
pub fn ret_taint_of(f: &PFn, model: &mut dyn CallModel) -> u64 {
    let masks: Vec<u64> = (0..f.params.len()).map(param_bit).collect();
    run(f, &masks, 0, model).ret & !ROOT_BIT
}

/// Container methods that fold their arguments' taint into the receiver.
const GROWS_RECV: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
];

struct TaintFlow<'a> {
    env: Vec<(String, u64)>,
    model: &'a mut dyn CallModel,
    live: u64,
    sinks: Vec<SinkHit>,
    ret: u64,
}

impl<'a> TaintFlow<'a> {
    fn lookup(&self, name: &str) -> u64 {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
            .unwrap_or(0)
    }

    fn set(&mut self, name: &str, m: u64) {
        if let Some(slot) = self.env.iter_mut().rev().find(|(n, _)| n == name) {
            slot.1 = m;
        } else {
            self.env.push((name.to_string(), m));
        }
    }

    fn or_into(&mut self, name: &str, m: u64) {
        let old = self.lookup(name);
        self.set(name, old | m);
    }

    fn hit(&mut self, what: &'static str, mask: u64, line: u32) {
        if mask & self.live != 0 {
            self.sinks.push(SinkHit { what, line });
        }
    }

    /// Visit a block in its own scope; returns the tail expression mask.
    fn visit_block(&mut self, b: &Block) -> u64 {
        let mark = self.env.len();
        let mut tail = 0u64;
        for s in b {
            tail = self.visit_stmt(s);
        }
        self.env.truncate(mark);
        tail
    }

    fn visit_stmt(&mut self, s: &Stmt) -> u64 {
        match s {
            Stmt::Let(l) => {
                let m = match &l.init {
                    Some(init) => self.eval(init),
                    None => 0,
                };
                if let Some(else_b) = &l.else_block {
                    self.visit_block(else_b);
                }
                // A tainted initializer taints every binding its pattern
                // introduces, whole or not: destructuring attacker data
                // yields attacker data.
                for b in &l.bindings {
                    self.env.push((b.name.clone(), m));
                }
                0
            }
            Stmt::Expr(e) => self.eval(e),
        }
    }

    /// Evaluate an expression's taint mask. Side-effectful: updates the
    /// environment, records sinks, joins return masks. Each expression
    /// node is visited exactly once.
    fn eval(&mut self, e: &Expr) -> u64 {
        match e {
            Expr::Lit(_) | Expr::Num { .. } | Expr::SelfVal(_) | Expr::Opaque(_) => 0,
            Expr::Path { segs, .. } => match segs.as_slice() {
                [single] => self.lookup(single),
                _ => 0,
            },
            Expr::Field { base, .. } => self.eval(base),
            Expr::Call { callee, args, line } => {
                let argm: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                let name = match callee.as_ref() {
                    Expr::Path { segs, .. } => segs.last().map(String::as_str).unwrap_or(""),
                    _ => "",
                };
                if name == "with_capacity" {
                    self.hit(
                        "allocation size (`with_capacity`)",
                        argm.first().copied().unwrap_or(0),
                        *line,
                    );
                }
                let fallback = argm.iter().fold(0, |a, &b| a | b);
                match self.model.call(name, *line, 0, &argm) {
                    Some(m) => m,
                    None => fallback,
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                let rm = self.eval(recv);
                let argm: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                let joined = argm.iter().fold(0, |a, &b| a | b);
                match name.as_str() {
                    "reserve" | "reserve_exact" => {
                        self.hit(
                            "allocation size (`reserve`)",
                            argm.first().copied().unwrap_or(0),
                            *line,
                        );
                    }
                    "with_capacity" => {
                        self.hit(
                            "allocation size (`with_capacity`)",
                            argm.first().copied().unwrap_or(0),
                            *line,
                        );
                    }
                    _ => {}
                }
                // `stream.read_to_string(&mut body)` fills `body` with
                // whatever the tainted reader produces.
                if name.starts_with("read") && rm != 0 {
                    for a in args {
                        if let Expr::MutBorrow(inner) = a {
                            if let Expr::Path { segs, .. } = inner.as_ref() {
                                if let [single] = segs.as_slice() {
                                    self.or_into(&single.clone(), rm);
                                }
                            }
                        }
                    }
                }
                if GROWS_RECV.contains(&name.as_str()) && joined != 0 {
                    if let Expr::Path { segs, .. } = recv.as_ref() {
                        if let [single] = segs.as_slice() {
                            self.or_into(&single.clone(), joined);
                        }
                    }
                }
                match name.as_str() {
                    // The result is bounded above by the argument: a
                    // clean limit sanitizes the receiver.
                    "min" => argm.first().copied().unwrap_or(0),
                    "clamp" => argm.get(1).copied().unwrap_or(0),
                    _ => match self.model.call(name, *line, rm, &argm) {
                        Some(m) => m | rm,
                        None => rm | joined,
                    },
                }
            }
            Expr::Index { base, index, line } => {
                let bm = self.eval(base);
                let im = self.eval(index);
                self.hit("slice index", im, *line);
                bm | im
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let lm = self.eval(lhs);
                let rm = self.eval(rhs);
                if matches!(op, BinOp::Mul) && lm & self.live != 0 && rm & self.live != 0 {
                    self.sinks.push(SinkHit {
                        what: "cell-count multiplication",
                        line: *line,
                    });
                }
                lm | rm
            }
            Expr::Assign { op, lhs, rhs, .. } => {
                let rm = self.eval(rhs);
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if let [single] = segs.as_slice() {
                        let name = single.clone();
                        if op.is_some() {
                            self.or_into(&name, rm);
                        } else {
                            self.set(&name, rm);
                        }
                    }
                }
                0
            }
            Expr::Cast { expr, .. } => self.eval(expr),
            Expr::Unary(i) | Expr::MutBorrow(i) => self.eval(i),
            Expr::Try(i) => {
                let m = self.eval(i);
                // `x.validate()?` — a range-validating parse is a
                // sanitizer: execution only continues if `x` passed.
                if let Expr::MethodCall { recv, name, .. } = i.as_ref() {
                    if name.starts_with("validate") {
                        if let Some(t) = sanitize_target(recv) {
                            self.set(&t, 0);
                        }
                    }
                }
                m
            }
            Expr::Macro { name, args, line } => {
                let argm: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                // `vec![elem; n]` — the parser splits the repeat form
                // into exactly two argument slots.
                if name == "vec" && argm.len() == 2 {
                    self.hit("buffer length (`vec![_; n]`)", argm[1], *line);
                }
                argm.iter().fold(0, |a, &b| a | b)
            }
            Expr::StructLit { fields, rest, .. } => {
                let mut m = 0;
                for (_, v) in fields {
                    m |= self.eval(v);
                }
                if let Some(r) = rest {
                    m |= self.eval(r);
                }
                m
            }
            Expr::ArrayLit { elems, .. } | Expr::Tuple { elems, .. } => {
                elems.iter().map(|e| self.eval(e)).fold(0, |a, b| a | b)
            }
            Expr::Block(b) => self.visit_block(b),
            Expr::Closure { body, .. } => self.eval(body),
            Expr::If {
                bindings,
                cond,
                then,
                else_,
            } => self.visit_if(bindings, cond, then, else_.as_deref()),
            Expr::Match { scrutinee, arms } => {
                let sm = self.eval(scrutinee);
                let mut m = 0;
                for arm in arms {
                    let mark = self.env.len();
                    for b in &arm.bindings {
                        self.env.push((b.name.clone(), sm));
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g);
                    }
                    m |= self.eval(&arm.body);
                    self.env.truncate(mark);
                }
                m
            }
            Expr::While { cond, body, .. } => {
                if let Some(c) = cond {
                    self.eval(c);
                }
                // Two passes reach a fixpoint for masks a loop iteration
                // feeds back into itself (masks only grow).
                self.visit_block(body);
                self.visit_block(body);
                0
            }
            Expr::For {
                bindings,
                iter,
                body,
            } => {
                let im = self.eval(iter);
                if let Expr::Range { hi: Some(h), .. } = iter.as_ref() {
                    self.hit("loop bound", self.peek(h), h.line());
                }
                let mark = self.env.len();
                for b in bindings {
                    self.env.push((b.name.clone(), im));
                }
                self.visit_block(body);
                self.visit_block(body);
                self.env.truncate(mark);
                0
            }
            Expr::Return(v) => {
                if let Some(v) = v {
                    let m = self.eval(v);
                    self.ret |= m;
                }
                0
            }
            Expr::Range { lo, hi } => {
                let mut m = 0;
                for e in [lo, hi].into_iter().flatten() {
                    m |= self.eval(e);
                }
                m
            }
        }
    }

    fn visit_if(
        &mut self,
        bindings: &[crate::ast::Binding],
        cond: &Expr,
        then: &Block,
        else_: Option<&Expr>,
    ) -> u64 {
        let cm = self.eval(cond);
        let san_then = self.sanitized_by(cond, true);
        let mut san_else = self.sanitized_by(cond, false);
        // `if let Err(_) = x.validate(..) { ..return.. }` — falling
        // through means validation passed.
        if let Expr::MethodCall { recv, name, .. } = cond {
            if name.starts_with("validate") {
                if let Some(t) = sanitize_target(recv) {
                    san_else.push(t);
                }
            }
        }
        let base = self.env.clone();
        for t in &san_then {
            self.set(t, 0);
        }
        let mark = self.env.len();
        for b in bindings {
            self.env.push((b.name.clone(), cm));
        }
        let tm = {
            let m = self.visit_block(then);
            self.env.truncate(mark);
            m
        };
        let then_env = std::mem::replace(&mut self.env, base);
        for t in &san_else {
            self.set(t, 0);
        }
        let em = match else_ {
            Some(e) => self.eval(e),
            None => 0,
        };
        // A branch that cannot fall through contributes no state: the
        // early-return guard `if t > LIMIT { return err }` leaves `t`
        // sanitized on the only surviving path.
        if block_terminates(then) {
            return em;
        }
        if matches!(else_, Some(Expr::Block(b)) if block_terminates(b)) {
            self.env = then_env;
            return tm;
        }
        for (slot, (name, m)) in self.env.iter_mut().zip(&then_env) {
            if slot.0 == *name {
                slot.1 |= m;
            }
        }
        tm | em
    }

    /// Locals a comparison guard upper-bounds when `cond` is `taken`,
    /// provided the limit side does not itself look tainted.
    fn sanitized_by(&self, cond: &Expr, taken: bool) -> Vec<String> {
        let Expr::Binary { op, lhs, rhs, .. } = cond else {
            return Vec::new();
        };
        let (bounded, limit) = match (op, taken) {
            (BinOp::Lt | BinOp::Le, true) | (BinOp::Gt | BinOp::Ge, false) => (lhs, rhs),
            (BinOp::Gt | BinOp::Ge, true) | (BinOp::Lt | BinOp::Le, false) => (rhs, lhs),
            _ => return Vec::new(),
        };
        if self.peek(limit) & self.live != 0 {
            return Vec::new();
        }
        sanitize_target(bounded).into_iter().collect()
    }

    /// Pure (no side effects) approximation of an expression's mask,
    /// for guard-limit checks. Unknown shapes read as clean.
    fn peek(&self, e: &Expr) -> u64 {
        match e {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [single] => self.lookup(single),
                _ => 0,
            },
            Expr::Field { base, .. } => self.peek(base),
            Expr::MethodCall { recv, .. } => self.peek(recv),
            Expr::Index { base, index, .. } => self.peek(base) | self.peek(index),
            Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => self.peek(i),
            Expr::Cast { expr, .. } => self.peek(expr),
            Expr::Binary { lhs, rhs, .. } => self.peek(lhs) | self.peek(rhs),
            _ => 0,
        }
    }
}

/// The local a size guard bounds: `t`, `t.len()`, `(&t).len()`.
fn sanitize_target(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => match segs.as_slice() {
            [single] => Some(single.clone()),
            _ => None,
        },
        Expr::MethodCall { recv, name, .. } if name == "len" => sanitize_target(recv),
        Expr::Unary(i) | Expr::MutBorrow(i) | Expr::Try(i) => sanitize_target(i),
        _ => None,
    }
}

/// True when a block's last statement unconditionally leaves the
/// function.
fn block_terminates(b: &Block) -> bool {
    matches!(b.last(), Some(Stmt::Expr(Expr::Return(_))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn sinks(src: &str) -> Vec<SinkHit> {
        let parsed = parse_file(&lex(src));
        let f = &parsed.fns[0];
        let masks: Vec<u64> = (0..f.params.len()).map(param_bit).collect();
        let live = masks.iter().fold(0, |a, &b| a | b);
        run(f, &masks, live, &mut OpaqueCalls).sinks
    }

    #[test]
    fn tainted_capacity_fires_and_min_sanitizes() {
        let hits = sinks("fn t(n: usize) { let v: Vec<u8> = Vec::with_capacity(n); }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].what.contains("with_capacity"));
        assert!(sinks(
            "fn t(n: usize) { let k = n.min(64); let v: Vec<u8> = Vec::with_capacity(k); }"
        )
        .is_empty());
    }

    #[test]
    fn early_return_guard_sanitizes_the_fallthrough() {
        let src = "fn t(n: usize) -> Result<(), E> {\n\
                   if n > MAX { return Err(e()); }\n\
                   let v: Vec<u8> = Vec::with_capacity(n); Ok(())\n}";
        assert!(sinks(src).is_empty());
        let unguarded = "fn t(n: usize) -> Result<(), E> {\n\
                   if n == MAX { return Err(e()); }\n\
                   let v: Vec<u8> = Vec::with_capacity(n); Ok(())\n}";
        assert_eq!(sinks(unguarded).len(), 1);
    }

    #[test]
    fn len_guard_sanitizes_the_collection() {
        let src = "fn t(items: Vec<u64>) -> Result<(), E> {\n\
                   if items.len() > MAX { return Err(e()); }\n\
                   let v: Vec<u8> = Vec::with_capacity(items.len()); Ok(())\n}";
        assert!(sinks(src).is_empty());
    }

    #[test]
    fn index_loop_bound_and_product_sinks() {
        assert_eq!(
            sinks("fn t(i: usize, xs: &[u8]) { let b = xs[i]; }").len(),
            1
        );
        assert_eq!(
            sinks("fn t(n: u64) { for k in 0..n { work(k); } }").len(),
            1
        );
        assert_eq!(
            sinks("fn t(a: u64, b: u64) { let cells = a * b; }").len(),
            1
        );
        // One tainted side only: not a cell-count product.
        assert!(sinks("fn t(a: u64) { let cells = a * GRID; }").is_empty());
    }

    #[test]
    fn read_into_mut_borrow_taints_the_buffer() {
        let src = "fn t(stream: UnixStream) {\n\
                   let mut body = String::new();\n\
                   stream.read_to_string(&mut body);\n\
                   let v: Vec<u8> = Vec::with_capacity(body.len());\n}";
        assert_eq!(sinks(src).len(), 1);
    }

    #[test]
    fn validate_question_mark_sanitizes_receiver() {
        let src = "fn t(s: Sampling) -> Result<(), E> {\n\
                   s.validate()?;\n\
                   let v: Vec<u8> = Vec::with_capacity(s.windows); Ok(())\n}";
        assert!(sinks(src).is_empty());
    }

    #[test]
    fn ret_taint_tracks_param_flow() {
        let parsed = parse_file(&lex(
            "fn pick(a: u64, b: u64, c: u64) -> u64 { if cond { a } else { c } }",
        ));
        let m = ret_taint_of(&parsed.fns[0], &mut OpaqueCalls);
        assert_eq!(m, param_bit(0) | param_bit(2));
    }

    #[test]
    fn pushed_elements_taint_the_collection() {
        let src = "fn t(n: u64) -> Vec<u64> { let mut out = Vec::new(); out.push(n); out }";
        let parsed = parse_file(&lex(src));
        let m = ret_taint_of(&parsed.fns[0], &mut OpaqueCalls);
        assert_eq!(m, param_bit(0));
    }
}
