//! The rule engine. Every rule consumes the per-file [`crate::facts`] plus
//! the workspace [`Graph`]; suppression is applied by the caller (`lib.rs`),
//! which also owns the pragma-hygiene rules L000/L009.

use std::collections::HashMap;

use crate::config::{HotFile, LintConfig};
use crate::facts::Event;
use crate::graph::{head, path_matches, peel_refs, FnId, Graph};
use crate::{Finding, Workspace};

pub fn run_all(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let graph = Graph::new(&ws.files, ws.extern_lines());
    let mut out = Vec::new();
    hot_path_rules(ws, cfg, &graph, &mut out);
    dead_counters(ws, cfg, &mut out);
    pool_blocking(ws, cfg, &graph, &mut out);
    untrusted_flows(ws, cfg, &graph, &mut out);
    out
}

fn finding(file: &str, line: u32, rule: &'static str, msg: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule,
        msg,
    }
}

// ---------------------------------------------------------------- L001/L002

/// Resolve the roots declared in `[[hot]]` or `[[pool]]` sections,
/// reporting config drift (missing file or root) as `rule` findings;
/// `file_kind`/`root_kind` name the section in those messages.
fn declared_roots(
    ws: &Workspace,
    g: &Graph,
    entries: &[HotFile],
    rule: &'static str,
    file_kind: &str,
    root_kind: &str,
    out: &mut Vec<Finding>,
) -> Vec<FnId> {
    let mut roots = Vec::new();
    for entry in entries {
        if !ws
            .files
            .iter()
            .any(|(rel, _)| path_matches(rel, &entry.file))
        {
            out.push(finding(
                &entry.file,
                0,
                rule,
                format!("{file_kind} file declared in lint.toml was not found in the workspace"),
            ));
            continue;
        }
        for root in &entry.roots {
            let ids = g.find_root(&entry.file, root);
            if ids.is_empty() {
                out.push(finding(
                    &entry.file,
                    0,
                    rule,
                    format!(
                        "{root_kind} root `{root}` declared in lint.toml does not exist in this \
                         file — update lint.toml"
                    ),
                ));
            }
            roots.extend(ids);
        }
    }
    roots
}

fn hot_roots(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) -> Vec<FnId> {
    declared_roots(ws, g, &cfg.hot, "L001", "hot-path", "hot", out)
}

/// Human-readable provenance for a transitively-hot function.
fn via(g: &Graph, parent: &HashMap<FnId, FnId>, id: FnId) -> String {
    let chain = g.chain_to(parent, id);
    if chain.len() <= 1 {
        "declared hot root".to_string()
    } else {
        format!("hot via {}", chain.join(" -> "))
    }
}

fn hot_path_rules(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) {
    let roots = hot_roots(ws, cfg, g, out);
    if roots.is_empty() {
        return;
    }
    let parent = g.reach(&roots);
    let mut ids: Vec<FnId> = parent.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let f = g.fn_facts(id);
        let rel = g.rel(id);
        let prov = via(g, &parent, id);
        let qual = f.qual_name();
        for ev in &f.events {
            match ev {
                Event::Alloc { what, line } => out.push(finding(
                    rel,
                    *line,
                    "L001",
                    format!("`{what}` allocates inside `{qual}` ({prov})"),
                )),
                Event::Panic { what, line } => out.push(finding(
                    rel,
                    *line,
                    "L002",
                    format!(
                        "`{what}` can panic inside `{qual}` ({prov}) — use an infallible \
                         pattern or a reasoned pragma"
                    ),
                )),
                Event::IndexOp { line, .. } => out.push(finding(
                    rel,
                    *line,
                    "L002",
                    format!(
                        "slice index without `get` inside `{qual}` ({prov}) — indexing panics \
                         on out-of-bounds"
                    ),
                )),
                Event::Arith { what, line } => out.push(finding(
                    rel,
                    *line,
                    "L010",
                    format!(
                        "unchecked arithmetic on {what} inside `{qual}` ({prov}) can wrap in a \
                         release build — use `saturating_*`/`checked_*`, or guard the operands \
                         so the range analysis can prove the result fits"
                    ),
                )),
                _ => {}
            }
        }
    }
}

/// The `--graph` dump: every hot function with its root→leaf chain.
pub fn graph_report(ws: &Workspace, cfg: &LintConfig) -> String {
    let g = Graph::new(&ws.files, ws.extern_lines());
    let mut sink = Vec::new();
    let roots = hot_roots(ws, cfg, &g, &mut sink);
    let parent = g.reach(&roots);
    let mut ids: Vec<FnId> = parent.keys().copied().collect();
    ids.sort_unstable();
    let mut out = format!(
        "hot set: {} function(s) reachable from {} root(s)\n",
        ids.len(),
        roots.len()
    );
    for id in ids {
        let f = g.fn_facts(id);
        let chain = g.chain_to(&parent, id);
        let prov = if chain.len() <= 1 {
            "(root)".to_string()
        } else {
            chain.join(" -> ")
        };
        out.push_str(&format!(
            "{}:{}: {}  {}\n",
            g.rel(id),
            f.decl_line,
            f.qual_name(),
            prov
        ));
    }
    for s in sink {
        out.push_str(&format!("warning: {}\n", s.msg));
    }
    out
}

// -------------------------------------------------------------------- L013

/// L013: nothing reachable from a `[[pool]]` root may block.
fn pool_blocking(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) {
    let roots = declared_roots(ws, g, &cfg.pool, "L013", "pool", "pool", out);
    if roots.is_empty() {
        return;
    }
    let parent = g.reach(&roots);
    let mut ids: Vec<FnId> = parent.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let f = g.fn_facts(id);
        let chain = g.chain_to(&parent, id);
        let prov = if chain.len() <= 1 {
            "declared pool root".to_string()
        } else {
            format!("in pool loop via {}", chain.join(" -> "))
        };
        for ev in &f.events {
            if let Event::Blocking { what, line } = ev {
                out.push(finding(
                    g.rel(id),
                    *line,
                    "L013",
                    format!(
                        "`{what}` can block inside `{}` ({prov}) — a stalled worker idles its \
                         core for the whole sweep; hoist the call out of the drain loop or \
                         hand it to a dedicated thread",
                        f.qual_name()
                    ),
                ));
            }
        }
    }
}

// -------------------------------------------------------------------- L003

fn dead_counters(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let stats = &cfg.stats;
    if stats.file.is_empty() {
        return;
    }
    if ws.facts_of(&stats.file).is_none() {
        out.push(finding(
            &stats.file,
            0,
            "L003",
            "stats file declared in lint.toml was not found".to_string(),
        ));
        return;
    }
    // Resolve the transitive closure of counter structs: every pub field of
    // the root structs, recursing into struct-typed fields defined anywhere
    // in the workspace.
    let mut worklist: Vec<(String, String)> = stats
        .structs
        .iter()
        .map(|s| (stats.file.clone(), s.clone()))
        .collect();
    let mut visited: Vec<String> = Vec::new();
    while let Some((def_file, struct_name)) = worklist.pop() {
        if visited.contains(&struct_name) {
            continue;
        }
        visited.push(struct_name.clone());
        let Some(facts) = ws.facts_of(&def_file) else {
            continue;
        };
        let Some((_, _, fields)) = facts.structs.iter().find(|(n, _, _)| *n == struct_name) else {
            out.push(finding(
                &def_file,
                0,
                "L003",
                format!("struct `{struct_name}` declared in lint.toml was not found"),
            ));
            continue;
        };
        for field in fields.iter().filter(|f| f.public) {
            if let Some((sub_file, sub_name)) = resolve_struct(ws, &field.ty) {
                worklist.push((sub_file, sub_name));
            }
            let read = ws.files.iter().any(|(rel, other)| {
                *rel != def_file
                    && *rel != stats.file
                    && stats.read_scope.iter().any(|p| in_scope(rel, p))
                    && other.field_reads.contains(&field.name)
            });
            if !read {
                out.push(finding(
                    &def_file,
                    field.line,
                    "L003",
                    format!(
                        "dead counter: `{struct_name}.{}` is never read outside its defining \
                         file — surface it in a report or remove it",
                        field.name
                    ),
                ));
            }
        }
    }
}

/// If `ty` names a struct with named fields somewhere in the workspace,
/// return (defining file, struct name).
fn resolve_struct(ws: &Workspace, ty: &str) -> Option<(String, String)> {
    let h = head(peel_refs(ty));
    if h.is_empty() || h.chars().next().is_some_and(|c| c.is_lowercase()) {
        return None;
    }
    for (rel, facts) in &ws.files {
        if let Some((name, _, fields)) = facts.structs.iter().find(|(n, _, _)| n == h) {
            if !fields.is_empty() {
                return Some((rel.clone(), name.clone()));
            }
        }
    }
    None
}

fn in_scope(rel: &str, prefix: &str) -> bool {
    rel == prefix || rel.starts_with(&format!("{prefix}/"))
}

// -------------------------------------------------------------------- L015

/// L015: package the taint pass's findings. The flow analysis itself runs
/// in the deep phase (`summary.rs`) because it needs parsed bodies, which
/// the rule engine does not keep; here we only re-emit its results and
/// report `[[untrusted]]` config drift the same way L001 does for [[hot]].
fn untrusted_flows(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) {
    for u in &cfg.untrusted {
        if !ws.files.iter().any(|(rel, _)| path_matches(rel, &u.file)) {
            out.push(finding(
                &u.file,
                0,
                "L015",
                "untrusted file declared in lint.toml was not found in the workspace".to_string(),
            ));
            continue;
        }
        for root in &u.roots {
            if g.find_root(&u.file, root).is_empty() {
                out.push(finding(
                    &u.file,
                    0,
                    "L015",
                    format!(
                        "untrusted root `{root}` declared in lint.toml does not exist in this \
                         file — update lint.toml"
                    ),
                ));
            }
        }
    }
    for (file, line, msg) in &ws.taints {
        out.push(finding(file, *line, "L015", msg.clone()));
    }
}

// ----------------------------------------------------------------- explain

pub const RULES: &[(&str, &str, &str)] = &[
    (
        "L000",
        "malformed suppression pragma",
        "Every `lint:allow(L0xx): <reason>` comment pragma must name at least one rule id of the \
         form L0xx and carry a non-empty reason after `):`. A pragma without a reason is \
         itself a finding: unexplained suppressions rot just like dead counters. Malformed \
         pragmas never suppress anything.",
    ),
    (
        "L001",
        "allocation in a hot-path function",
        "The simulator's per-op loop must stay allocation-free: `clone()`, `to_vec()`, \
         `format!`, `vec!`, stable sorts, heap collections (HashMap & friends) and \
         `Vec::new`-style constructors are banned inside the hot set. The hot set is computed \
         *transitively*: lint.toml's [[hot]] sections declare only the roots (e.g. \
         `Simulator::feed`), and every workspace function reachable from them through \
         the call graph — including methods reached through field chains, `Index` impls \
         reached through `[]`, and calls made inside closures — inherits the constraint. Each \
         diagnostic names the call chain that made the function hot. Amortized growth of \
         capacity-stable buffers (`push` onto a Vec that reaches steady state) is deliberately \
         out of scope. Suppress only with a reason explaining why the allocation is bounded.",
    ),
    (
        "L002",
        "panic path in a hot-path function",
        "`unwrap()`, `expect()`, `panic!`-family macros and slice indexing without `get` \
         are banned in the hot set (computed transitively from the lint.toml roots, like \
         L001 — the diagnostic names the call chain). The release profile uses panic=abort, \
         so any of these turns a model bug into a lost sweep. `debug_assert!` is exempt: it \
         compiles out of release builds. Convert to an infallible pattern (`if let`, \
         `get().copied().unwrap_or(..)`) or, where the invariant is real and locally \
         provable, add `// lint:allow(L002): <why it cannot fire>`.",
    ),
    (
        "L003",
        "dead counter",
        "Every pub field of the stats structs (SimStats and the per-unit stats structs it \
         aggregates) must be read somewhere outside its defining file — a report, a golden \
         table, or a test. A counter that is accumulated but never consumed is model drift \
         waiting to happen: it silently stops meaning what its name says. Reads are any \
         `.field` use that is not a plain or compound assignment target.",
    ),
    (
        "L009",
        "stale suppression pragma",
        "A `lint:allow(L0xx): reason` pragma whose rule no longer fires on its target line \
         or function is an error. Stale allows are silent rule holes: the code they excused \
         was fixed or moved, but the pragma keeps suppressing — so a *new* violation at the \
         same site would be invisible. Delete the pragma (or drop the rule id that no longer \
         fires from its list). L009 cannot itself be suppressed.",
    ),
    (
        "L010",
        "unchecked cycle/count arithmetic that can wrap",
        "Release builds wrap silently, so `+`/`-`/`*` on cycle- or count-named u64 values \
         inside the hot set must be provably in range. A per-function interval analysis \
         abstract-interprets each body: literals and locals carry exact ranges, unknown \
         one-shot operands get [0, 2^62] (one add of two unknowns is safe by construction; \
         a chain of four is not), and the target of a compound assignment through a field or \
         index is widened to the full u64 range — a persistent accumulator's history is \
         unbounded across calls. Subtraction is proven by ranges or by a dominating \
         `>=`/`>` guard on the same operands; `saturating_*`/`checked_*`/`wrapping_*` \
         methods and an explicit `as` cast on either operand silence the rule. See \
         docs/LINTS.md for the full lattice and its deliberate imprecisions.",
    ),
    (
        "L013",
        "blocking call reachable from a pool worker loop",
        "Everything reachable from the worker-loop roots declared in lint.toml's [[pool]] \
         sections must not block: file I/O (`File::open`, `fs::*`, `read_to_string`), \
         `Mutex::lock`, channel waits (`recv`, `recv_timeout`), a thread `join()`, \
         `thread::sleep` and stdio macros (`println!` takes the stdout lock) stall a \
         work-stealing worker and idle its core for the rest of the sweep. The diagnostic \
         names the call chain from the pool root. Hoist the blocking call out of the drain \
         loop, buffer output per worker, or hand the work to a dedicated thread.",
    ),
    (
        "L015",
        "untrusted data reaches an allocation or indexing sink unsanitized",
        "Functions declared under lint.toml's [[untrusted]] sections return (or receive, for \
         handlers) attacker-controlled bytes: socket reads and the JSON/protocol parse entry \
         points. A workspace-wide taint pass follows those values through locals, struct \
         construction, returns, and call edges — each function gets a parameter-to-return \
         flow summary, so taint crosses function boundaries in both directions — and fires \
         when a tainted value reaches a *size-shaped* sink with no dominating sanitizer: \
         `with_capacity`/`reserve` amounts, `vec![_; n]` lengths, slice indices, loop bounds, \
         and multiplications of two tainted magnitudes (cell-count arithmetic). Sanitizers \
         are comparisons against a limit that exit the tainted path, `.min(..)`/`.clamp(..)`, \
         and validated constructors (`x.validate()?`). The diagnostic names the source: the \
         declared root, or the call chain the taint rode in on. Fix by bounding the value \
         where it enters, not by suppressing the sink.",
    ),
];

pub fn explain(rule: &str) -> Option<String> {
    RULES
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(id, title, body)| format!("{id}: {title}\n\n{body}\n"))
}
