//! Workspace call graph: symbol index, receiver-chain resolution, and
//! reachability from declared roots.
//!
//! Resolution is heuristic by design (no type inference engine): a
//! method call resolves through the receiver's *chain descriptor* — the
//! `self.f:obs.m:as_deref_mut.some` strings recorded by
//! [`facts`] — against struct field types and method
//! return types harvested from the whole workspace. When the receiver
//! cannot be typed, the call falls back to name matching scoped
//! same-file → same-crate → workspace-unique, *except* for well-known
//! std method names, which never resolve to workspace functions by name
//! alone. The `// lint:extern` pragma marks a line's calls as
//! deliberately unresolvable (dynamic dispatch, function pointers).
//!
//! Over-approximation (an edge that does not exist at runtime) costs a
//! spurious hot function, which is visible and fixable; *under*-
//! approximation would silently skip real hot code — so ties err toward
//! adding edges.

use std::collections::{HashMap, HashSet};

use crate::facts::{self, CallFact, Event, FileFacts};

/// Identifies a function: (file index, index into that file's `fns`).
pub type FnId = (usize, usize);

/// Method names resolved as type-preserving std calls when the receiver
/// type is not a workspace type with a matching method.
const STD_IDENTITY: &[&str] = &[
    "as_ref",
    "as_mut",
    "as_deref",
    "as_deref_mut",
    "borrow",
    "borrow_mut",
    "by_ref",
    "clone",
    "cloned",
    "copied",
    "iter",
    "iter_mut",
    "into_iter",
    "take",
    "to_owned",
];

/// Method names that unwrap one `Option`/`Result`/smart-pointer layer.
const STD_UNWRAP: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
];

/// Common std method names: calls on *untyped* receivers with these
/// names never fall back to workspace name matching (a `.len()` on an
/// unknown receiver must not pull `PackedTrace::len` into the graph).
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_slice",
    "as_str",
    "bytes",
    "chain",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "cmp",
    "collect",
    "compare_exchange",
    "compare_exchange_weak",
    "contains",
    "contains_key",
    "copy_from_slice",
    "count",
    "count_ones",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "extend",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_sub",
    "fetch_xor",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "inspect",
    "is_empty",
    "is_err",
    "is_nan",
    "is_none",
    "is_ok",
    "is_power_of_two",
    "is_some",
    "join",
    "keys",
    "last",
    "leading_zeros",
    "len",
    "lines",
    "load",
    "lock",
    "map",
    "map_or",
    "map_or_else",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "next_power_of_two",
    "nth",
    "ok",
    "ok_or",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "peekable",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "pow",
    "product",
    "push",
    "push_back",
    "push_front",
    "read",
    "read_exact",
    "remove",
    "replace",
    "retain",
    "rev",
    "rem_euclid",
    "rotate_left",
    "rotate_right",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "set",
    "signum",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "spawn",
    "split",
    "split_at",
    "splitn",
    "starts_with",
    "step_by",
    "store",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "take_while",
    "then",
    "then_some",
    "to_be_bytes",
    "to_le_bytes",
    "to_string",
    "to_vec",
    "trailing_zeros",
    "trim",
    "try_from",
    "try_into",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "write",
    "write_all",
    "zip",
];

pub struct Graph<'a> {
    pub files: &'a [(String, FileFacts)],
    /// Crate name per file (`crates/<name>/...` → `<name>`, else "").
    crates: Vec<String>,
    /// (self type, method name) → definitions, tests excluded.
    methods: HashMap<(String, String), Vec<FnId>>,
    /// Free fn name → definitions, tests excluded.
    free: HashMap<String, Vec<FnId>>,
    /// Any non-test fn by bare name (fallback resolution).
    by_name: HashMap<String, Vec<FnId>>,
    /// Struct name → (file, struct index) definitions.
    structs: HashMap<String, Vec<(usize, usize)>>,
    /// `// lint:extern`-marked (file, line) pairs: calls there resolve
    /// to nothing on purpose.
    extern_lines: HashSet<(usize, u32)>,
}

impl<'a> Graph<'a> {
    pub fn new(files: &'a [(String, FileFacts)], extern_lines: HashSet<(usize, u32)>) -> Graph<'a> {
        let crates = files.iter().map(|(rel, _)| crate_of(rel)).collect();
        let mut methods: HashMap<(String, String), Vec<FnId>> = HashMap::new();
        let mut free: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut structs: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (fi, (_, facts)) in files.iter().enumerate() {
            for (si, (name, _, _)) in facts.structs.iter().enumerate() {
                structs.entry(name.clone()).or_default().push((fi, si));
            }
            for (ki, f) in facts.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id = (fi, ki);
                if f.self_ty.is_empty() {
                    free.entry(f.name.clone()).or_default().push(id);
                } else {
                    methods
                        .entry((f.self_ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        Graph {
            files,
            crates,
            methods,
            free,
            by_name,
            structs,
            extern_lines,
        }
    }

    pub fn fn_facts(&self, id: FnId) -> &'a facts::FnFacts {
        &self.files[id.0].1.fns[id.1]
    }

    pub fn rel(&self, id: FnId) -> &'a str {
        &self.files[id.0].0
    }

    /// Resolve a root declaration ("name" or "Type::name") within a file.
    pub fn find_root(&self, file_suffix: &str, root: &str) -> Vec<FnId> {
        let (want_ty, want_name) = match root.split_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, root),
        };
        let mut out = Vec::new();
        for (fi, (rel, facts)) in self.files.iter().enumerate() {
            if !path_matches(rel, file_suffix) {
                continue;
            }
            for (ki, f) in facts.fns.iter().enumerate() {
                if f.in_test || f.name != want_name {
                    continue;
                }
                if let Some(t) = want_ty {
                    if f.self_ty != t {
                        continue;
                    }
                }
                out.push((fi, ki));
            }
        }
        out
    }

    /// Resolve a chain descriptor to a concrete type string.
    fn resolve_type(&self, chain: &str, file: usize, self_ty: &str) -> Option<String> {
        let mut parts = chain.split('.');
        let start = parts.next()?;
        let mut cur: String = if start == "self" {
            if self_ty.is_empty() {
                return None;
            }
            self_ty.to_string()
        } else if let Some(t) = start.strip_prefix("t:") {
            facts::unesc(t)
        } else if let Some(f) = start.strip_prefix("fn:") {
            let ids = self.resolve_free(f, file);
            let ret = ids
                .first()
                .map(|id| self.fn_facts(*id).ret.clone())
                .unwrap_or_default();
            if ret.is_empty() {
                return None;
            }
            ret
        } else {
            return None;
        };
        for segm in parts {
            let ty = peel_refs(&cur);
            cur = if let Some(fname) = segm.strip_prefix("f:") {
                self.field_type(head(ty), fname, file)?
            } else if let Some(mname) = segm.strip_prefix("m:") {
                self.method_result(ty, mname, file)?
            } else if segm == "idx" || segm == "elem" {
                elem_type(ty)?
            } else if segm == "some" {
                unwrap_wrapper(ty).to_string()
            } else {
                return None;
            };
        }
        Some(cur)
    }

    fn field_type(&self, ty_head: &str, fname: &str, file: usize) -> Option<String> {
        let defs = self.structs.get(ty_head)?;
        let pick = defs
            .iter()
            .find(|(fi, _)| self.crates[*fi] == self.crates[file])
            .or_else(|| defs.first())?;
        let (fi, si) = *pick;
        self.files[fi].1.structs[si]
            .2
            .iter()
            .find(|f| f.name == fname)
            .map(|f| f.ty.clone())
    }

    fn method_result(&self, ty: &str, mname: &str, file: usize) -> Option<String> {
        // Workspace methods take priority over the std tables so types
        // like `PackedTrace::len` keep their declared signatures.
        if let Some(ids) = self.methods.get(&(head(ty).to_string(), mname.to_string())) {
            if let Some(id) = ids
                .iter()
                .find(|id| self.crates[id.0] == self.crates[file])
                .or_else(|| ids.first())
            {
                let ret = &self.fn_facts(*id).ret;
                if !ret.is_empty() {
                    return Some(ret.clone());
                }
                return None;
            }
        }
        if STD_IDENTITY.contains(&mname) {
            return Some(ty.to_string());
        }
        if STD_UNWRAP.contains(&mname) {
            return Some(unwrap_wrapper(ty).to_string());
        }
        None
    }

    fn resolve_free(&self, name: &str, file: usize) -> Vec<FnId> {
        scope_pick(self.free.get(name), file, &self.crates)
    }

    /// Resolve one call fact into callee candidates.
    pub fn resolve_call(&self, call: &CallFact, id: FnId) -> Vec<FnId> {
        let file = id.0;
        if self.extern_lines.contains(&(file, call.line())) {
            return Vec::new();
        }
        let caller = self.fn_facts(id);
        match call {
            CallFact::Free { name, .. } => self.resolve_free(name, file),
            CallFact::Qualified { ty, name, .. } => {
                let ty = if ty == "Self" { &caller.self_ty } else { ty };
                scope_pick(
                    self.methods.get(&(ty.clone(), name.clone())),
                    file,
                    &self.crates,
                )
            }
            CallFact::Method { chain, name, .. } => {
                match self.resolve_type(chain, file, &caller.self_ty) {
                    Some(ty) => scope_pick(
                        self.methods
                            .get(&(head(peel_refs(&ty)).to_string(), name.clone())),
                        file,
                        &self.crates,
                    ),
                    None => {
                        if STD_METHODS.contains(&name.as_str())
                            || STD_IDENTITY.contains(&name.as_str())
                            || STD_UNWRAP.contains(&name.as_str())
                        {
                            return Vec::new();
                        }
                        // Untyped fallback: same file, then same crate,
                        // then workspace if unambiguous.
                        let cands = self.by_name.get(name.as_str());
                        scope_pick(cands, file, &self.crates)
                    }
                }
            }
        }
    }

    /// All outgoing edges of `id`: resolved calls plus `Index`/`IndexMut`
    /// impls reached through `[]` sugar.
    pub fn callees(&self, id: FnId) -> Vec<FnId> {
        let f = self.fn_facts(id);
        let mut out = Vec::new();
        for c in &f.calls {
            out.extend(self.resolve_call(c, id));
        }
        for ev in &f.events {
            if let Event::IndexOp { chain, line } = ev {
                if self.extern_lines.contains(&(id.0, *line)) {
                    continue;
                }
                if let Some(ty) = self.resolve_type(chain, id.0, &f.self_ty) {
                    let h = head(peel_refs(&ty)).to_string();
                    for m in ["index", "index_mut"] {
                        out.extend(scope_pick(
                            self.methods.get(&(h.clone(), m.to_string())),
                            id.0,
                            &self.crates,
                        ));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS from `roots`; returns each reached fn's discovery parent
    /// (roots map to themselves).
    pub fn reach(&self, roots: &[FnId]) -> HashMap<FnId, FnId> {
        let mut parent: HashMap<FnId, FnId> = HashMap::new();
        let mut queue: Vec<FnId> = Vec::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push(r);
            }
        }
        let mut qi = 0usize;
        while qi < queue.len() {
            let cur = queue[qi];
            qi += 1;
            for next in self.callees(cur) {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(cur);
                    queue.push(next);
                }
            }
        }
        parent
    }

    /// Root→leaf chain of qualified names for a reached fn.
    pub fn chain_to(&self, parent: &HashMap<FnId, FnId>, id: FnId) -> Vec<String> {
        let mut rev = vec![id];
        let mut cur = id;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.iter()
            .map(|id| self.fn_facts(*id).qual_name())
            .collect()
    }
}

/// Scoped candidate pick: same file, else same crate, else all-if-same-
/// crate-unique, else workspace-wide only when unambiguous.
fn scope_pick(cands: Option<&Vec<FnId>>, file: usize, crates: &[String]) -> Vec<FnId> {
    let cands = match cands {
        Some(c) => c,
        None => return Vec::new(),
    };
    let same_file: Vec<FnId> = cands.iter().copied().filter(|id| id.0 == file).collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<FnId> = cands
        .iter()
        .copied()
        .filter(|id| crates[id.0] == crates[file])
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    let distinct: HashSet<&str> = cands.iter().map(|id| crates[id.0].as_str()).collect();
    if distinct.len() == 1 {
        return cands.clone();
    }
    Vec::new()
}

/// `crates/<name>/...` → `<name>`; anything else shares one scope.
pub fn crate_of(rel: &str) -> String {
    let rel = rel.replace('\\', "/");
    let mut it = rel.split('/');
    if it.next() == Some("crates") {
        if let Some(name) = it.next() {
            return name.to_string();
        }
    }
    String::new()
}

/// Path suffix match on `/`-separated components.
pub fn path_matches(rel: &str, suffix: &str) -> bool {
    let rel = rel.replace('\\', "/");
    rel == suffix || rel.ends_with(&format!("/{suffix}"))
}

/// Strip reference/`mut`/`impl`/`dyn`/smart-pointer wrappers.
pub fn peel_refs(mut t: &str) -> &str {
    loop {
        let before = t;
        t = t.trim();
        if let Some(r) = t.strip_prefix('&') {
            t = r;
            continue;
        }
        for kw in ["mut", "impl", "dyn"] {
            if let Some(r) = t.strip_prefix(kw) {
                if r.starts_with(' ')
                    || r.starts_with('&')
                    || r.starts_with('[')
                    || r.starts_with(char::is_uppercase)
                {
                    t = r.trim_start();
                }
            }
        }
        for w in ["Box", "Rc", "Arc", "Cell", "RefCell"] {
            if let Some(inner) = generic_inner(t, w) {
                t = inner;
            }
        }
        if t == before {
            return t;
        }
    }
}

/// For `Head<inner>` (exactly, trailing `>` matched) return `inner`.
fn generic_inner<'s>(t: &'s str, head: &str) -> Option<&'s str> {
    let rest = t.strip_prefix(head)?;
    let rest = rest.strip_prefix('<')?;
    if !t.ends_with('>') {
        return None;
    }
    // The prefix's `<` must match the final `>`.
    let inner = &rest[..rest.len() - 1];
    let mut depth = 0i32;
    for c in inner.chars() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            _ => {}
        }
    }
    Some(inner)
}

/// The head identifier of a type: last path segment before any generics.
pub fn head(t: &str) -> &str {
    let t = t.trim();
    let end = t
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(t.len());
    let path = &t[..end];
    path.rsplit("::").next().unwrap_or(path)
}

/// The element type of a slice/array/Vec/VecDeque.
fn elem_type(t: &str) -> Option<String> {
    let t = peel_refs(t);
    if let Some(rest) = t.strip_prefix('[') {
        let end = rest.find([';', ']']).unwrap_or(rest.len());
        return Some(rest[..end].trim().to_string());
    }
    for w in ["Vec", "VecDeque"] {
        if let Some(inner) = generic_inner(t, w) {
            return Some(first_generic_arg(inner));
        }
    }
    None
}

/// Unwrap one `Option<T>`/`Result<T, E>` layer (path-prefixed `Result`s
/// included); other types pass through unchanged.
fn unwrap_wrapper(t: &str) -> &str {
    let t = peel_refs(t);
    if let Some(inner) = generic_inner(t, "Option") {
        return peel_refs(inner);
    }
    // `Result<T, E>` / `io::Result<T>` / `std::io::Result<T>`.
    if let Some(at) = t.find("Result<") {
        let prefix_ok = at == 0 || t[..at].ends_with("::");
        if prefix_ok && t.ends_with('>') {
            let inner = &t[at + "Result<".len()..t.len() - 1];
            let first = first_arg_slice(inner);
            return peel_refs(first);
        }
    }
    t
}

fn first_arg_slice(inner: &str) -> &str {
    let mut depth = 0i32;
    for (i, c) in inner.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => return inner[..i].trim(),
            _ => {}
        }
    }
    inner.trim()
}

fn first_generic_arg(inner: &str) -> String {
    first_arg_slice(inner).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{all_structs, lex};
    use crate::parser::parse_file;

    fn mk(files: &[(&str, &str)]) -> Vec<(String, FileFacts)> {
        files
            .iter()
            .map(|(rel, src)| {
                let toks = lex(src);
                let parsed = parse_file(&toks);
                (
                    rel.to_string(),
                    facts::extract(&parsed.fns, all_structs(&toks)),
                )
            })
            .collect()
    }

    fn find(g: &Graph, name: &str) -> FnId {
        for (fi, (_, f)) in g.files.iter().enumerate() {
            for (ki, fnf) in f.fns.iter().enumerate() {
                if fnf.name == name {
                    return (fi, ki);
                }
            }
        }
        panic!("no fn {name}")
    }

    #[test]
    fn type_peeling() {
        assert_eq!(peel_refs("&mut MachineConfig"), "MachineConfig");
        assert_eq!(peel_refs("&Option<Box<Observer>>"), "Option<Box<Observer>>");
        assert_eq!(peel_refs("Box<Observer>"), "Observer");
        assert_eq!(head("io::Result<PackedTrace>"), "Result");
        assert_eq!(unwrap_wrapper("Option<Box<Observer>>"), "Observer");
        assert_eq!(unwrap_wrapper("io::Result<PackedTrace>"), "PackedTrace");
        assert_eq!(elem_type("&[PackedOp]").as_deref(), Some("PackedOp"));
        assert_eq!(elem_type("Vec<TraceOp>").as_deref(), Some("TraceOp"));
    }

    #[test]
    fn transitive_resolution_across_files() {
        let files = mk(&[
            (
                "crates/core/src/sim.rs",
                "pub struct Simulator { obs: Option<Box<Observer>>, trace: PackedTrace }\n\
                 impl Simulator { pub fn feed(&mut self) {\n\
                   if let Some(o) = self.obs.as_deref_mut() { o.record(1); }\n\
                   for op in self.trace.records() { op.unpack(); }\n\
                 } }",
            ),
            (
                "crates/core/src/obs.rs",
                "pub struct Observer { n: u64 }\nimpl Observer { pub fn record(&mut self, x: u64) { self.n += x; } }",
            ),
            (
                "crates/isa/src/packed.rs",
                "pub struct PackedOp { pc: u32 }\npub struct PackedTrace { ops: Vec<PackedOp> }\n\
                 impl PackedTrace { pub fn records(&self) -> &[PackedOp] { &self.ops } }\n\
                 impl PackedOp { pub fn unpack(&self) -> u32 { self.pc } }",
            ),
        ]);
        let g = Graph::new(&files, HashSet::new());
        let feed = find(&g, "feed");
        let reach = g.reach(&[feed]);
        let record = find(&g, "record");
        let unpack = find(&g, "unpack");
        assert!(reach.contains_key(&record), "record not reached");
        assert!(reach.contains_key(&unpack), "unpack not reached");
        // `op.unpack()` sits lexically inside `feed`, so the shortest
        // parent chain is the direct edge — `records` is a separate edge.
        let chain = g.chain_to(&reach, unpack);
        assert_eq!(
            chain,
            vec![
                "Simulator::feed".to_string(),
                "PackedOp::unpack".to_string()
            ]
        );
        let rec_chain = g.chain_to(&reach, record);
        assert_eq!(
            rec_chain,
            vec![
                "Simulator::feed".to_string(),
                "Observer::record".to_string()
            ]
        );
    }

    #[test]
    fn std_names_do_not_resolve_on_unknown_receivers() {
        let files = mk(&[
            (
                "crates/a/src/x.rs",
                "fn f(q: Mystery) { q.len(); }",
            ),
            (
                "crates/isa/src/packed.rs",
                "pub struct PackedTrace { ops: Vec<u8> }\nimpl PackedTrace { pub fn len(&self) -> usize { self.ops.len() } }",
            ),
        ]);
        let g = Graph::new(&files, HashSet::new());
        let f = find(&g, "f");
        assert!(g.callees(f).is_empty());
    }

    #[test]
    fn lint_extern_cuts_edges() {
        let files = mk(&[(
            "crates/a/src/x.rs",
            "fn root() { helper(); }\nfn helper() {}",
        )]);
        let mut externs = HashSet::new();
        externs.insert((0usize, 1u32)); // the `helper()` call line
        let g = Graph::new(&files, externs);
        let root = find(&g, "root");
        assert!(g.callees(root).is_empty());
        let g2 = Graph::new(&files, HashSet::new());
        assert_eq!(g2.callees(find(&g2, "root")).len(), 1);
    }

    #[test]
    fn index_sugar_reaches_user_index_impls() {
        let files = mk(&[(
            "crates/core/src/stats.rs",
            "pub struct Breakdown { v: [u64; 7] }\npub struct Stats { pub stalls: Breakdown }\n\
             impl Index<Kind> for Breakdown { fn index(&self, k: Kind) -> &u64 { &self.v } }\n\
             pub struct Sim { stats: Stats }\n\
             impl Sim { fn hot(&mut self, k: Kind) -> u64 { self.stats.stalls[k] } }",
        )]);
        let g = Graph::new(&files, HashSet::new());
        let hot = find(&g, "hot");
        let index = find(&g, "index");
        assert!(g.callees(hot).contains(&index));
    }

    #[test]
    fn closure_body_calls_belong_to_enclosing_fn() {
        let files = mk(&[(
            "crates/mem/src/stream.rs",
            "pub struct Biu;\nimpl Biu { pub fn request(&mut self) {} }\n\
             pub struct Sim { biu: Biu }\n\
             impl Sim { fn hot(&mut self) { let biu = &mut self.biu; deepen(|_l| { biu.request(); }); } }\n\
             fn deepen(f: impl FnMut(u32)) {}",
        )]);
        let g = Graph::new(&files, HashSet::new());
        let hot = find(&g, "hot");
        let req = find(&g, "request");
        assert!(g.callees(hot).contains(&req), "{:?}", g.callees(hot));
    }
}
