//! The statement/expression tree produced by [`parser`](crate::parser).
//!
//! This is not a general-purpose Rust AST: it models exactly the shapes
//! the rule engine consumes — calls, method calls with receiver chains,
//! indexing, macros, closures, casts, field accesses and binary
//! arithmetic — and collapses everything else into [`Expr::Opaque`].
//! Patterns are reduced to the bindings they introduce (plus how many
//! `Some`/`Ok` layers wrap them), which is all the local type
//! environment needs.

/// A binary operator the rules care about. Everything else (shifts,
/// bit-ops, logical ops) parses but is represented as `Other` so operand
/// walks still recurse. Ordered comparisons keep their direction so the
/// range analysis can refine intervals from dominating guards; `==`/`!=`
/// collapse to `Cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Cmp,
    Other,
}

/// One binding introduced by a pattern.
#[derive(Debug, Clone)]
pub struct Binding {
    pub name: String,
    /// How many `Some(..)` / `Ok(..)` layers wrapped the binding: each
    /// peels one `Option`/`Result` off the scrutinee's type.
    pub peel: u8,
    /// True when the binding covers the whole matched value (so its type
    /// is the scrutinee's, modulo `peel`); false for positional bindings
    /// out of tuples/slices/struct patterns, whose types we do not track.
    pub whole: bool,
}

/// A `let` statement (also used for the headers of `if let`/`while let`).
#[derive(Debug, Clone)]
pub struct LetStmt {
    pub bindings: Vec<Binding>,
    /// Explicit `: Type` annotation, normalized (see `parser::join_type`).
    pub ty: Option<String>,
    pub init: Option<Expr>,
    pub else_block: Option<Block>,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub enum Stmt {
    Let(LetStmt),
    Expr(Expr),
}

pub type Block = Vec<Stmt>;

/// One `match` arm: the bindings its pattern introduces plus its body.
#[derive(Debug, Clone)]
pub struct Arm {
    pub bindings: Vec<Binding>,
    pub guard: Option<Expr>,
    pub body: Expr,
}

#[derive(Debug, Clone)]
pub enum Expr {
    /// Literal (bool, or a stripped string/char, or a numeric literal
    /// whose value did not parse).
    Lit(u32),
    /// An integer literal with its value (underscores and type suffixes
    /// stripped), feeding the range analysis.
    Num {
        val: i128,
        line: u32,
    },
    /// `self` as a value.
    SelfVal(u32),
    /// A (possibly multi-segment) path used as a value: `x`,
    /// `OpKind::IntAlu`, `std::mem::take`.
    Path {
        segs: Vec<String>,
        line: u32,
    },
    /// `base.field` / `base.0`.
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    /// `callee(args)` where callee is usually a `Path`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    /// `recv.name(args)`.
    MethodCall {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    /// `&e`, `*e`, `-e`, `!e`.
    Unary(Box<Expr>),
    /// `&mut e` — kept distinct from [`Expr::Unary`] because handing out
    /// a mutable borrow of a field is a write, not a read, for the
    /// dead-counter rule (L003).
    MutBorrow(Box<Expr>),
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    /// `lhs = rhs` or `lhs op= rhs` (`op` is `None` for plain `=`).
    Assign {
        op: Option<BinOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    /// `expr as Type` (type normalized).
    Cast {
        expr: Box<Expr>,
        ty: String,
        line: u32,
    },
    /// `name!(...)`. `args` holds the parsed argument expressions when
    /// the token soup inside parsed cleanly as a comma-separated list;
    /// otherwise the macro is opaque (its tokens were skipped).
    Macro {
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `|params| body` / `move |params| body`. Parameter names feed the
    /// caller-signature closure-typing heuristic.
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
        line: u32,
    },
    /// `Path { field: expr, .., ..rest }`.
    StructLit {
        path: Vec<String>,
        fields: Vec<(String, Expr)>,
        rest: Option<Box<Expr>>,
        line: u32,
    },
    /// `[a, b, c]` or `[elem; n]`.
    ArrayLit {
        elems: Vec<Expr>,
        line: u32,
    },
    /// `(a, b)`; a 1-tuple is a parenthesized expression.
    Tuple {
        elems: Vec<Expr>,
        line: u32,
    },
    Block(Block),
    If {
        /// Present for `if let PAT = scrutinee`.
        bindings: Vec<Binding>,
        cond: Box<Expr>,
        then: Block,
        else_: Option<Box<Expr>>,
    },
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
    },
    /// `while` / `while let` / `loop`.
    While {
        bindings: Vec<Binding>,
        cond: Option<Box<Expr>>,
        body: Block,
    },
    For {
        bindings: Vec<Binding>,
        iter: Box<Expr>,
        body: Block,
    },
    Return(Option<Box<Expr>>),
    /// `expr?`.
    Try(Box<Expr>),
    /// `a..b` / `a..=b` (operands kept for recursion).
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    /// Something the tolerant parser skipped (`break`, `continue`,
    /// unsupported syntax). Never contributes facts.
    Opaque(u32),
}

impl Expr {
    pub fn line(&self) -> u32 {
        match self {
            Expr::Lit(l) | Expr::SelfVal(l) | Expr::Opaque(l) => *l,
            Expr::Num { line, .. } => *line,
            Expr::Path { line, .. }
            | Expr::Field { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Index { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Closure { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::ArrayLit { line, .. }
            | Expr::Tuple { line, .. } => *line,
            Expr::Unary(e) | Expr::MutBorrow(e) | Expr::Try(e) => e.line(),
            Expr::Block(b) => b.first().map(stmt_line).unwrap_or(0),
            Expr::If { cond, .. } => cond.line(),
            Expr::Match { scrutinee, .. } => scrutinee.line(),
            Expr::While { body, .. } => body.first().map(stmt_line).unwrap_or(0),
            Expr::For { iter, .. } => iter.line(),
            Expr::Return(e) => e.as_ref().map(|e| e.line()).unwrap_or(0),
            Expr::Range { lo, hi } => lo.as_ref().or(hi.as_ref()).map(|e| e.line()).unwrap_or(0),
        }
    }
}

fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Let(l) => l.line,
        Stmt::Expr(e) => e.line(),
    }
}

/// One function parameter with its normalized type.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: String,
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct PFn {
    pub name: String,
    /// The `impl`/`trait` Self type for methods, `None` for free fns.
    pub self_ty: Option<String>,
    pub decl_line: u32,
    pub end_line: u32,
    /// Inside a `#[cfg(test)]` module or annotated `#[test]`.
    pub in_test: bool,
    pub params: Vec<Param>,
    /// Normalized return type ("" when the fn returns unit).
    pub ret: String,
    pub body: Block,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<PFn>,
}
