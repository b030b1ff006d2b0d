//! Per-file analysis facts: the IR between the parser and the cross-file
//! graph/rule phases.
//!
//! Facts are extracted from one file's AST *without* any cross-file
//! information. Receiver types are recorded as *chain descriptors* —
//! `self.f:obs.m:as_deref_mut.some` — that the graph phase resolves
//! against the workspace symbol index.
//!
//! Chain grammar (space-free, `.`-separated):
//! - start: `self` | `t:<Type>` | `fn:<name>` | `?`
//! - segments: `f:<field>` | `m:<method>` | `idx` | `elem` | `some`
//!
//! `some` unwraps one `Option`/`Result`/smart-pointer layer; `elem`
//! takes a container's element type; `idx` is `elem` introduced by `[]`.
//! Spaces inside type strings are escaped as `~`, keeping descriptors
//! space-free.

use crate::ast::{Binding, Block, Expr, LetStmt, PFn, Stmt};
use crate::lexer::FieldDef;

/// Allocation-prone method names (mirrors the v1 rule set).
pub const ALLOC_METHODS: &[&str] = &[
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
];
pub const ALLOC_MACROS: &[&str] = &["format", "vec"];
pub const ALLOC_TYPES: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];
pub const ALLOC_PATH_HEADS: &[&str] = &["Box", "Vec", "VecDeque", "String"];
pub const ALLOC_PATH_TAILS: &[&str] = &["new", "with_capacity", "from"];
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Free-function names that imply filesystem traffic (L013).
const BLOCKING_FREE_FNS: &[&str] = &[
    "read_to_string",
    "read_dir",
    "create_dir_all",
    "remove_file",
    "canonicalize",
];

/// Macros that write to stdio, a shared lock (L013).
const BLOCKING_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// A call site recorded for graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallFact {
    /// `name(...)` — a bare path call.
    Free { name: String, line: u32 },
    /// `Type::name(...)`.
    Qualified { ty: String, name: String, line: u32 },
    /// `recv.name(...)` with the receiver's chain descriptor.
    Method {
        chain: String,
        name: String,
        line: u32,
    },
}

impl CallFact {
    pub fn line(&self) -> u32 {
        match self {
            CallFact::Free { line, .. }
            | CallFact::Qualified { line, .. }
            | CallFact::Method { line, .. } => *line,
        }
    }

    pub fn name(&self) -> &str {
        match self {
            CallFact::Free { name, .. }
            | CallFact::Qualified { name, .. }
            | CallFact::Method { name, .. } => name,
        }
    }
}

/// A rule-relevant event observed in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// L001 candidate: allocating method/macro/type/constructor.
    Alloc { what: String, line: u32 },
    /// L002 candidate: `unwrap`/`expect`/panicking macro.
    Panic { what: String, line: u32 },
    /// L002 candidate + potential `Index` impl edge: `base[...]`.
    IndexOp { chain: String, line: u32 },
    /// L010 candidate: unchecked `+`/`-`/`*` on a cycle/count-unit
    /// operand the range analysis could not prove safe.
    Arith { what: String, line: u32 },
    /// L013 candidate: a call that can block (file I/O, `Mutex::lock`,
    /// a channel wait, a thread `join()`, `thread::sleep`, stdio macros).
    Blocking { what: String, line: u32 },
}

/// Facts for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFacts {
    pub name: String,
    /// Implementing type for methods (trait impls resolve to the type).
    pub self_ty: String,
    pub decl_line: u32,
    pub end_line: u32,
    pub in_test: bool,
    /// Normalized return type ("" for unit).
    pub ret: String,
    /// Parameter types in declaration order ("" for `self`); the taint
    /// summaries size their parameter masks from it.
    pub params: Vec<String>,
    pub calls: Vec<CallFact>,
    pub events: Vec<Event>,
}

impl FnFacts {
    /// `Type::name` or bare `name` for free functions.
    pub fn qual_name(&self) -> String {
        if self.self_ty.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.self_ty, self.name)
        }
    }
}

/// Facts for one file. Pure function of the file's content.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    pub fns: Vec<FnFacts>,
    /// `(name, decl line, fields)` for every struct in the file.
    pub structs: Vec<(String, u32, Vec<FieldDef>)>,
    /// Field names read (not assignment targets) anywhere in the file.
    pub field_reads: Vec<String>,
}

/// Extract facts from a parsed file.
pub fn extract(parsed: &[PFn], structs: Vec<(String, u32, Vec<FieldDef>)>) -> FileFacts {
    let mut file = FileFacts {
        structs,
        ..FileFacts::default()
    };
    let mut reads: Vec<String> = Vec::new();
    for f in parsed {
        let mut ex = Extractor {
            env: Vec::new(),
            out: FnFacts {
                name: f.name.clone(),
                self_ty: f.self_ty.clone().unwrap_or_default(),
                decl_line: f.decl_line,
                end_line: f.end_line,
                in_test: f.in_test,
                ret: f.ret.clone(),
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                ..FnFacts::default()
            },
            reads: &mut reads,
        };
        // Parameters seed the type environment.
        for p in &f.params {
            if !p.name.is_empty() && p.name != "self" && !p.ty.is_empty() {
                ex.env.push((p.name.clone(), format!("t:{}", esc(&p.ty))));
            }
        }
        ex.visit_block(&f.body);
        // Note: `Event::Arith` is *not* produced here. L010's interval
        // analysis consumes callee return summaries, so it runs in the
        // interprocedural deep phase (`summary.rs`), which merges its
        // events into the in-memory facts after the fixpoint.
        file.fns.push(ex.out);
    }
    reads.sort();
    reads.dedup();
    file.field_reads = reads;
    file
}

/// Escape spaces for the chain format.
pub fn esc(s: &str) -> String {
    s.replace(' ', "~")
}

/// Undo [`esc`].
pub fn unesc(s: &str) -> String {
    s.replace('~', " ")
}

struct Extractor<'a> {
    /// Lexically-scoped `name -> chain` bindings.
    env: Vec<(String, String)>,
    out: FnFacts,
    reads: &'a mut Vec<String>,
}

impl<'a> Extractor<'a> {
    fn lookup(&self, name: &str) -> Option<&str> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
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
            Stmt::Expr(e) => self.visit_expr(e, false),
        }
    }

    fn visit_let(&mut self, l: &LetStmt) {
        if let Some(init) = &l.init {
            self.visit_expr(init, false);
        }
        if let Some(else_b) = &l.else_block {
            self.visit_block(else_b);
        }
        // Type annotations mentioning Hash*/BTree* containers count as
        // allocation-type usage, like the v1 token scan did.
        if let Some(ty) = &l.ty {
            if let Some(t) = ALLOC_TYPES.iter().find(|t| mentions_type(ty, t)) {
                self.out.events.push(Event::Alloc {
                    what: (*t).to_string(),
                    line: l.line,
                });
            }
        }
        let base_chain = match (&l.ty, &l.init) {
            (Some(ty), _) if !ty.is_empty() => format!("t:{}", esc(ty)),
            (_, Some(init)) => self.chain_of(init),
            _ => "?".to_string(),
        };
        self.bind(&l.bindings, &base_chain);
    }

    fn bind(&mut self, bindings: &[Binding], scrut_chain: &str) {
        for b in bindings {
            let chain = if b.whole && scrut_chain != "?" {
                let mut c = scrut_chain.to_string();
                for _ in 0..b.peel {
                    c.push_str(".some");
                }
                c
            } else {
                "?".to_string()
            };
            self.env.push((b.name.clone(), chain));
        }
    }

    fn visit_expr(&mut self, e: &Expr, assign_target: bool) {
        match e {
            Expr::Lit(_) | Expr::Num { .. } | Expr::SelfVal(_) | Expr::Opaque(_) => {}
            Expr::Path { segs, line } => {
                if let Some(t) = segs.iter().find(|s| ALLOC_TYPES.contains(&s.as_str())) {
                    self.out.events.push(Event::Alloc {
                        what: t.clone(),
                        line: *line,
                    });
                }
            }
            Expr::Field { base, name, .. } => {
                // Assignment context propagates into the base: writing
                // `self.a.b` writes (into) field `a` as well.
                self.visit_expr(base, assign_target);
                if !assign_target {
                    self.reads.push(name.clone());
                }
            }
            Expr::Call { callee, args, line } => {
                self.visit_expr(callee, false);
                self.record_call(callee, *line);
                for a in args {
                    self.visit_expr(a, false);
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                self.visit_expr(recv, false);
                let chain = self.chain_of(recv);
                if ALLOC_METHODS.contains(&name.as_str()) {
                    self.out.events.push(Event::Alloc {
                        what: format!(".{name}()"),
                        line: *line,
                    });
                }
                if PANIC_METHODS.contains(&name.as_str()) {
                    self.out.events.push(Event::Panic {
                        what: format!(".{name}()"),
                        line: *line,
                    });
                }
                self.out.calls.push(CallFact::Method {
                    chain,
                    name: name.clone(),
                    line: *line,
                });
                if let Some(what) = blocking_method(name, args.len()) {
                    self.out.events.push(Event::Blocking {
                        what: what.to_string(),
                        line: *line,
                    });
                }
                for a in args {
                    self.visit_expr(a, false);
                }
            }
            Expr::Index { base, index, line } => {
                self.visit_expr(base, assign_target);
                self.visit_expr(index, false);
                self.out.events.push(Event::IndexOp {
                    chain: self.chain_of(base),
                    line: *line,
                });
            }
            Expr::Unary(inner) => self.visit_expr(inner, assign_target),
            Expr::MutBorrow(inner) => self.visit_expr(inner, true),
            Expr::Binary { lhs, rhs, .. } => {
                self.visit_expr(lhs, false);
                self.visit_expr(rhs, false);
            }
            Expr::Assign { lhs, rhs, .. } => {
                self.visit_expr(lhs, true);
                self.visit_expr(rhs, false);
            }
            Expr::Cast { expr, .. } => self.visit_expr(expr, false),
            Expr::Macro { name, args, line } => {
                if ALLOC_MACROS.contains(&name.as_str()) {
                    self.out.events.push(Event::Alloc {
                        what: format!("{name}!"),
                        line: *line,
                    });
                }
                if BLOCKING_MACROS.contains(&name.as_str()) {
                    self.out.events.push(Event::Blocking {
                        what: format!("{name}! (stdio lock)"),
                        line: *line,
                    });
                }
                if PANIC_MACROS.contains(&name.as_str()) {
                    self.out.events.push(Event::Panic {
                        what: format!("{name}!"),
                        line: *line,
                    });
                }
                // debug_assert* compiles out of release builds: its args
                // are still visited (calls create edges) but the macro
                // itself is not a panic site.
                for a in args {
                    self.visit_expr(a, false);
                }
            }
            Expr::Closure { params, body, .. } => {
                // Closure params are untyped: they shadow outer bindings.
                let mark = self.env.len();
                for p in params {
                    self.env.push((p.clone(), "?".to_string()));
                }
                self.visit_expr(body, false);
                self.env.truncate(mark);
            }
            Expr::StructLit {
                path,
                fields,
                rest,
                line,
            } => {
                if let Some(head) = path.last() {
                    if ALLOC_TYPES.contains(&head.as_str()) {
                        self.out.events.push(Event::Alloc {
                            what: head.clone(),
                            line: *line,
                        });
                    }
                    for (_, v) in fields {
                        self.visit_expr(v, false);
                    }
                }
                if let Some(r) = rest {
                    self.visit_expr(r, false);
                }
            }
            Expr::ArrayLit { elems, .. } | Expr::Tuple { elems, .. } => {
                for e in elems {
                    self.visit_expr(e, false);
                }
            }
            Expr::Block(b) => self.visit_block(b),
            Expr::If {
                bindings,
                cond,
                then,
                else_,
            } => {
                self.visit_expr(cond, false);
                let mark = self.env.len();
                let scrut = self.chain_of(cond);
                self.bind(bindings, &scrut);
                self.visit_block(then);
                self.env.truncate(mark);
                if let Some(e) = else_ {
                    self.visit_expr(e, false);
                }
            }
            Expr::Match { scrutinee, arms } => {
                self.visit_expr(scrutinee, false);
                let scrut = self.chain_of(scrutinee);
                for arm in arms {
                    let mark = self.env.len();
                    self.bind(&arm.bindings, &scrut);
                    if let Some(g) = &arm.guard {
                        self.visit_expr(g, false);
                    }
                    self.visit_expr(&arm.body, false);
                    self.env.truncate(mark);
                }
            }
            Expr::While {
                bindings,
                cond,
                body,
            } => {
                let mark = self.env.len();
                if let Some(c) = cond {
                    self.visit_expr(c, false);
                    let scrut = self.chain_of(c);
                    self.bind(bindings, &scrut);
                }
                self.visit_block(body);
                self.env.truncate(mark);
            }
            Expr::For {
                bindings,
                iter,
                body,
            } => {
                self.visit_expr(iter, false);
                let iter_chain = self.chain_of(iter);
                let mark = self.env.len();
                let elem = if iter_chain == "?" {
                    "?".to_string()
                } else {
                    format!("{iter_chain}.elem")
                };
                self.bind(bindings, &elem);
                self.visit_block(body);
                self.env.truncate(mark);
            }
            Expr::Return(v) => {
                if let Some(v) = v {
                    self.visit_expr(v, false);
                }
            }
            Expr::Try(inner) => self.visit_expr(inner, false),
            Expr::Range { lo, hi } => {
                if let Some(l) = lo {
                    self.visit_expr(l, false);
                }
                if let Some(h) = hi {
                    self.visit_expr(h, false);
                }
            }
        }
    }

    /// Record the call edge for a `Call` node.
    fn record_call(&mut self, callee: &Expr, line: u32) {
        if let Expr::Path { segs, .. } = callee {
            if let Some(what) = blocking_call(segs) {
                self.out.events.push(Event::Blocking { what, line });
            }
            match segs.as_slice() {
                [single] => {
                    // A local variable holding a closure is not a named
                    // call target.
                    if self.lookup(single).is_none() {
                        self.out.calls.push(CallFact::Free {
                            name: single.clone(),
                            line,
                        });
                    }
                }
                [.., ty, name] if starts_upper(ty) => {
                    if let Some(t) = [ty.as_str()].iter().find(|t| ALLOC_PATH_HEADS.contains(*t)) {
                        if ALLOC_PATH_TAILS.contains(&name.as_str()) {
                            self.out.events.push(Event::Alloc {
                                what: format!("{t}::{name}"),
                                line,
                            });
                        }
                    }
                    if ALLOC_TYPES.contains(&ty.as_str())
                        && ALLOC_PATH_TAILS.contains(&name.as_str())
                    {
                        self.out.events.push(Event::Alloc {
                            what: format!("{ty}::{name}"),
                            line,
                        });
                    }
                    self.out.calls.push(CallFact::Qualified {
                        ty: ty.clone(),
                        name: name.clone(),
                        line,
                    });
                }
                [.., name] => {
                    self.out.calls.push(CallFact::Free {
                        name: name.clone(),
                        line,
                    });
                }
                [] => {}
            }
        }
    }

    /// Compute the chain descriptor for an expression used as a receiver.
    fn chain_of(&self, e: &Expr) -> String {
        match e {
            Expr::SelfVal(_) => "self".to_string(),
            Expr::Path { segs, .. } => match segs.as_slice() {
                [single] => match self.lookup(single) {
                    Some(c) => c.to_string(),
                    None if starts_upper(single) => format!("t:{}", esc(single)),
                    None => "?".to_string(),
                },
                [.., ty, _last] if starts_upper(ty) => format!("t:{}", esc(ty)),
                [.., last] if starts_upper(last) => format!("t:{}", esc(last)),
                _ => "?".to_string(),
            },
            Expr::Field { base, name, .. } => {
                if name.contains('.') {
                    return "?".to_string(); // `tuple.0.1` — untracked
                }
                seg(self.chain_of(base), &format!("f:{name}"))
            }
            Expr::MethodCall { recv, name, .. } => seg(self.chain_of(recv), &format!("m:{name}")),
            Expr::Call { callee, .. } => match callee.as_ref() {
                Expr::Path { segs, .. } => match segs.as_slice() {
                    [single] => format!("fn:{single}"),
                    [.., ty, name] if starts_upper(ty) => {
                        seg(format!("t:{}", esc(ty)), &format!("m:{name}"))
                    }
                    [.., name] => format!("fn:{name}"),
                    [] => "?".to_string(),
                },
                _ => "?".to_string(),
            },
            Expr::Index { base, .. } => seg(self.chain_of(base), "idx"),
            Expr::Unary(inner) | Expr::MutBorrow(inner) => self.chain_of(inner),
            Expr::Try(inner) => seg(self.chain_of(inner), "some"),
            Expr::Cast { ty, .. } => format!("t:{}", esc(ty)),
            Expr::StructLit { path, .. } => path
                .last()
                .map(|h| format!("t:{}", esc(h)))
                .unwrap_or_else(|| "?".to_string()),
            _ => "?".to_string(),
        }
    }
}

fn seg(base: String, s: &str) -> String {
    if base == "?" {
        base
    } else {
        format!("{base}.{s}")
    }
}

/// A blocking method call, by name and argument count (L013): a lock, a
/// channel wait, or a thread handle's `join()`. Only a zero-argument
/// `join` waits: `path.join("x")` and `parts.join(",")` take one.
fn blocking_method(name: &str, args: usize) -> Option<&'static str> {
    match (name, args) {
        ("lock", _) => Some("Mutex::lock"),
        ("recv", _) => Some("Receiver::recv (channel wait)"),
        ("recv_timeout", _) => Some("Receiver::recv_timeout (channel wait)"),
        ("join", 0) => Some("JoinHandle::join (thread wait)"),
        _ => None,
    }
}

/// A blocking filesystem, stdio or sleep call, by path (L013).
fn blocking_call(segs: &[String]) -> Option<String> {
    match segs {
        [.., thread, name] if thread == "thread" && name == "sleep" => {
            Some("thread::sleep".to_string())
        }
        [.., ty, name]
            if (ty == "File" && (name == "open" || name == "create"))
                || (ty == "OpenOptions" && name == "new") =>
        {
            Some(format!("{ty}::{name} (file I/O)"))
        }
        [.., fs, name] if fs == "fs" => Some(format!("fs::{name} (file I/O)")),
        [.., io, name] if io == "io" && (name == "stdin" || name == "stdout") => {
            Some(format!("io::{name} (stdio)"))
        }
        [.., name] if BLOCKING_FREE_FNS.contains(&name.as_str()) => {
            Some(format!("{name} (file I/O)"))
        }
        _ => None,
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().map(|c| c.is_uppercase()).unwrap_or(false)
}

/// True if the type string mentions `name` as a path segment.
fn mentions_type(ty: &str, name: &str) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|seg| seg == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{all_structs, lex};
    use crate::parser::parse_file;

    fn facts(src: &str) -> FileFacts {
        let toks = lex(src);
        let parsed = parse_file(&toks);
        extract(&parsed.fns, all_structs(&toks))
    }

    fn fn_facts<'a>(f: &'a FileFacts, name: &str) -> &'a FnFacts {
        f.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn params_seed_typed_chains() {
        let f = facts("fn sweep(cfg: &mut MachineConfig) { cfg.validate(); }");
        let calls = &fn_facts(&f, "sweep").calls;
        assert!(calls.iter().any(|c| matches!(
            c,
            CallFact::Method { chain, name, .. }
            if name == "validate" && chain == "t:&mut~MachineConfig"
        )));
    }

    #[test]
    fn self_field_method_chains() {
        let f = facts(
            "impl Simulator { fn feed(&mut self) { if let Some(o) = self.obs.as_deref_mut() { o.record(1); } } }",
        );
        let calls = &fn_facts(&f, "feed").calls;
        assert!(calls.iter().any(|c| matches!(
            c,
            CallFact::Method { chain, name, .. }
            if name == "record" && chain == "self.f:obs.m:as_deref_mut.some"
        )));
    }

    #[test]
    fn alloc_and_panic_events() {
        let f = facts(
            "fn hot(v: &[u8]) -> Vec<u8> { let s = format!(\"x\"); let b = Box::new(3); v.to_vec() }",
        );
        let ev = &fn_facts(&f, "hot").events;
        let allocs: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                Event::Alloc { what, .. } => Some(what.as_str()),
                _ => None,
            })
            .collect();
        assert!(allocs.contains(&"format!"));
        assert!(allocs.contains(&"Box::new"));
        assert!(allocs.contains(&".to_vec()"));
    }

    #[test]
    fn debug_assert_is_not_a_panic_site_but_args_still_count() {
        let f = facts("fn hot(&self) { debug_assert!(self.check_invariant()); }");
        let ff = fn_facts(&f, "hot");
        assert!(ff.events.iter().all(|e| !matches!(e, Event::Panic { .. })));
        assert!(ff.calls.iter().any(|c| c.name() == "check_invariant"));
    }

    #[test]
    fn assignment_targets_are_not_reads() {
        let f = facts("fn f(&mut self) { self.dead = 1; self.live += self.other; }");
        assert!(!f.field_reads.contains(&"dead".to_string()));
        // Compound assignment target counts as a write, not a read.
        assert!(!f.field_reads.contains(&"live".to_string()));
        assert!(f.field_reads.contains(&"other".to_string()));
    }

    #[test]
    fn index_events_record_base_chain() {
        let f = facts("impl Sim { fn f(&mut self, k: K) { self.stats.stalls[k] += 1; } }");
        let ev = &fn_facts(&f, "f").events;
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::IndexOp { chain, .. } if chain == "self.f:stats.f:stalls"
        )));
    }
}
