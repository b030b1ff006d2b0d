//! The rule engine. Every rule consumes the per-file [`crate::facts`] plus
//! the workspace [`Graph`]; suppression is applied by the caller (`lib.rs`),
//! which also owns the pragma-hygiene rules L000/L009.

use std::collections::{HashMap, HashSet};

use crate::config::LintConfig;
use crate::facts::{CallFact, Event, FileFacts, FnFacts};
use crate::graph::{head, path_matches, peel_refs, FnId, Graph};
use crate::{Finding, Workspace};

pub fn run_all(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let graph = Graph::new(&ws.files, ws.extern_lines());
    let mut out = Vec::new();
    hot_path_rules(ws, cfg, &graph, &mut out);
    dead_counters(ws, cfg, &mut out);
    config_coverage(ws, cfg, &graph, &mut out);
    determinism(ws, cfg, &graph, &mut out);
    unit_mixing(ws, cfg, &mut out);
    crate::concurrency::run(ws, cfg, &graph, &mut out);
    checkpoint_drift(ws, cfg, &mut out);
    untrusted_flows(ws, cfg, &graph, &mut out);
    wire_drift(ws, cfg, &mut out);
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

/// Resolve the configured hot roots, reporting config drift (missing file
/// or root) as L001 findings.
fn hot_roots(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) -> Vec<FnId> {
    let mut roots = Vec::new();
    for hot in &cfg.hot {
        if !ws.files.iter().any(|(rel, _)| path_matches(rel, &hot.file)) {
            out.push(finding(
                &hot.file,
                0,
                "L001",
                "hot-path file declared in lint.toml was not found in the workspace".to_string(),
            ));
            continue;
        }
        for root in &hot.roots {
            let ids = g.find_root(&hot.file, root);
            if ids.is_empty() {
                out.push(finding(
                    &hot.file,
                    0,
                    "L001",
                    format!(
                        "hot root `{root}` declared in lint.toml does not exist in this file — \
                         update lint.toml"
                    ),
                ));
            }
            roots.extend(ids);
        }
    }
    roots
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

// -------------------------------------------------------------------- L004

fn config_coverage(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) {
    let cov = &cfg.config_coverage;
    if cov.file.is_empty() {
        return;
    }
    let Some(cfg_facts) = ws.facts_of(&cov.file) else {
        out.push(finding(
            &cov.file,
            0,
            "L004",
            "config file declared in lint.toml was not found".to_string(),
        ));
        return;
    };
    let Some((_, _, fields)) = cfg_facts
        .structs
        .iter()
        .find(|(n, _, _)| *n == cov.struct_name)
    else {
        out.push(finding(
            &cov.file,
            0,
            "L004",
            format!(
                "struct `{}` declared in lint.toml was not found",
                cov.struct_name
            ),
        ));
        return;
    };
    for field in fields.iter().filter(|f| f.public) {
        // An access counts only when the receiver *resolves to the knob
        // struct itself* — a same-named field on an unrelated struct does
        // not. Setting a knob in a sweep is exercising it just as much as
        // a report reading it.
        let used = ws.files.iter().enumerate().any(|(fi, (rel, facts))| {
            cov.used_in.iter().any(|p| in_scope(rel, p))
                && facts.fns.iter().any(|f| {
                    f.accesses.iter().any(|a| {
                        a.field == field.name
                            && g.resolve_type(&a.chain, fi, &f.self_ty)
                                .is_some_and(|ty| head(peel_refs(&ty)) == cov.struct_name)
                    })
                })
        });
        if !used {
            out.push(finding(
                &cov.file,
                field.line,
                "L004",
                format!(
                    "config knob `{}.{}` is never referenced by {} — add it to a sweep or \
                     report, or remove it",
                    cov.struct_name,
                    field.name,
                    cov.used_in.join(", ")
                ),
            ));
        }
    }
}

// -------------------------------------------------------------------- L007

/// Containers whose iteration order is nondeterministic across runs.
const HASH_CONTAINERS: &[&str] = &["HashMap", "HashSet"];

fn determinism(ws: &Workspace, cfg: &LintConfig, g: &Graph, out: &mut Vec<Finding>) {
    if cfg.determinism_files.is_empty() {
        return;
    }
    let mut roots = Vec::new();
    for file in &cfg.determinism_files {
        if !ws.files.iter().any(|(rel, _)| path_matches(rel, file)) {
            out.push(finding(
                file,
                0,
                "L007",
                "determinism file declared in lint.toml was not found".to_string(),
            ));
            continue;
        }
        roots.extend(g.fns_in_file(file));
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
                Event::Nondet { what, line } => out.push(finding(
                    rel,
                    *line,
                    "L007",
                    format!(
                        "{what} inside `{qual}` ({prov}) — replay must be bit-identical across \
                         runs; thread a seed or counter through instead"
                    ),
                )),
                Event::HashIter { chain, line } => {
                    let Some(ty) = g.resolve_type(chain, id.0, &f.self_ty) else {
                        continue;
                    };
                    let h = head(peel_refs(&ty));
                    if HASH_CONTAINERS.contains(&h) {
                        out.push(finding(
                            rel,
                            *line,
                            "L007",
                            format!(
                                "iteration over `{h}` has nondeterministic order inside `{qual}` \
                                 ({prov}) — use a BTreeMap/Vec or sort before iterating"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

// -------------------------------------------------------------------- L008

fn unit_mixing(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if cfg.units_files.is_empty() {
        return;
    }
    for (rel, facts) in &ws.files {
        if !cfg.units_files.iter().any(|p| in_scope(rel, p)) {
            continue;
        }
        for f in facts.fns.iter().filter(|f| !f.in_test) {
            for ev in &f.events {
                if let Event::UnitMix { cyc, cnt, line } = ev {
                    out.push(finding(
                        rel,
                        *line,
                        "L008",
                        format!(
                            "`{cyc}` (cycles) combined with `{cnt}` (a count) in `{}` — unit \
                             mixing; make the conversion explicit with a cast or rename the \
                             non-cycle operand",
                            f.qual_name()
                        ),
                    ));
                }
            }
        }
    }
}

// -------------------------------------------------------------------- L014

/// Does `f` participate in the snapshot codec on the given side? Either
/// its signature mentions the writer/reader type, or it constructs one.
fn codec_side(f: &FnFacts, marker: &str) -> bool {
    f.params.iter().any(|t| t.contains(marker))
        || f.calls.iter().any(
            |c| matches!(c, CallFact::Qualified { ty, name, .. } if ty == marker && name == "new"),
        )
}

/// Every field a fn touches on `self` (any access / write accesses only).
fn self_fields(f: &FnFacts, writes_only: bool) -> HashSet<&str> {
    f.accesses
        .iter()
        .filter(|a| a.chain == "self" && (!writes_only || a.write))
        .map(|a| a.field.as_str())
        .collect()
}

/// L014: cross-check each Snapshot save/restore pair against the fields
/// the two sides actually touch. A field save serializes but restore never
/// mentions — or restore writes but save never serialized — is drift: the
/// snapshot byte stream and the struct disagree.
///
/// "Touched" is asymmetric on purpose: the save side counts *any* access
/// (serializing `self.tags.len()` covers `tags`), while the restore side
/// fires only on *writes* for the never-saved direction — restore reading
/// `self.cfg.instr_queue` to size a buffer is a bound, not state.
fn checkpoint_drift(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Finding>) {
    for (rel, facts) in &ws.files {
        let mut pairs: HashMap<&str, (Option<&FnFacts>, Option<&FnFacts>)> = HashMap::new();
        for f in facts
            .fns
            .iter()
            .filter(|f| !f.in_test && !f.self_ty.is_empty())
        {
            if f.name == "save" && codec_side(f, &cfg.checkpoint.writer) {
                pairs.entry(&f.self_ty).or_default().0 = Some(f);
            }
            if f.name == "restore" && codec_side(f, &cfg.checkpoint.reader) {
                pairs.entry(&f.self_ty).or_default().1 = Some(f);
            }
        }
        let mut tys: Vec<&&str> = pairs.keys().collect();
        tys.sort();
        for ty in tys {
            let (Some(save), Some(restore)) = pairs[*ty] else {
                continue;
            };
            // Trait declarations and types defined elsewhere have no
            // struct layout here to check against.
            let Some((_, _, fields)) = facts.structs.iter().find(|(n, _, _)| n == *ty) else {
                continue;
            };
            let saved = self_fields(save, false);
            let restored_any = self_fields(restore, false);
            let restored_writes = self_fields(restore, true);
            for field in fields {
                let name = field.name.as_str();
                if saved.contains(name) && !restored_any.contains(name) {
                    out.push(finding(
                        rel,
                        field.line,
                        "L014",
                        format!(
                            "checkpoint drift in `{ty}`: `{name}` is serialized by \
                             `{}` but `{}` never touches it — a restored machine silently \
                             keeps its pre-restore `{name}`",
                            save.qual_name(),
                            restore.qual_name()
                        ),
                    ));
                } else if restored_writes.contains(name) && !saved.contains(name) {
                    out.push(finding(
                        rel,
                        field.line,
                        "L014",
                        format!(
                            "checkpoint drift in `{ty}`: `{name}` is written by \
                             `{}` but `{}` never serializes it — restore consumes or resets \
                             state the checkpoint does not carry",
                            restore.qual_name(),
                            save.qual_name()
                        ),
                    ));
                }
            }
        }
    }
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

// -------------------------------------------------------------------- L016

/// Match a `"name"` / `"Type::name"` spec from lint.toml against one fn.
fn fn_spec_matches(f: &FnFacts, spec: &str) -> bool {
    match spec.split_once("::") {
        Some((ty, name)) => f.self_ty == ty && f.name == name,
        None => f.name == spec,
    }
}

/// Wire keys of one polarity used inside the named functions of a file.
fn keys_in_fns(facts: &FileFacts, specs: &[String], write: bool) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for f in facts
        .fns
        .iter()
        .filter(|f| specs.iter().any(|s| fn_spec_matches(f, s)))
    {
        for (w, key, line) in &facts.wire_keys {
            if *w == write && *line >= f.decl_line && *line <= f.end_line {
                out.push((key.clone(), *line));
            }
        }
    }
    out
}

/// L016: writer/reader wire-format drift. For `kind = "json"` every key
/// the readers look up must be emitted by some writer; for `kind =
/// "record"` the struct fields the writer serializes (reads) and the
/// reader reconstructs (writes through a struct literal) must be the
/// same set. The json direction is deliberately one-sided — writers may
/// emit keys a particular reader ignores — while the record check is
/// symmetric because a length-prefixed binary record has no way to skip
/// a field it does not understand.
fn wire_drift(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Finding>) {
    for pair in &cfg.wire {
        let writer = ws.facts_of(&pair.writer_file);
        let reader = ws.facts_of(&pair.reader_file);
        for (file, facts) in [(&pair.writer_file, writer), (&pair.reader_file, reader)] {
            if facts.is_none() {
                out.push(finding(
                    file,
                    0,
                    "L016",
                    "wire file declared in lint.toml was not found in the workspace".to_string(),
                ));
            }
        }
        let (Some(writer), Some(reader)) = (writer, reader) else {
            continue;
        };
        for (file, facts, specs) in [
            (&pair.writer_file, writer, &pair.writers),
            (&pair.reader_file, reader, &pair.readers),
        ] {
            for spec in specs.iter() {
                if !facts.fns.iter().any(|f| fn_spec_matches(f, spec)) {
                    out.push(finding(
                        file,
                        0,
                        "L016",
                        format!(
                            "wire function `{spec}` declared in lint.toml was not found — \
                             update lint.toml"
                        ),
                    ));
                }
            }
        }
        match pair.kind.as_str() {
            "json" => {
                let written: HashSet<String> = keys_in_fns(writer, &pair.writers, true)
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let mut reads = keys_in_fns(reader, &pair.readers, false);
                reads.sort();
                reads.dedup();
                for (key, line) in reads {
                    if !written.contains(&key) {
                        out.push(finding(
                            &pair.reader_file,
                            line,
                            "L016",
                            format!(
                                "wire-format drift: reader looks up key `\"{key}\"` that no \
                                 writer in `{}` ever emits — the lookup will always miss",
                                pair.writer_file
                            ),
                        ));
                    }
                }
            }
            "record" => {
                let wfns: Vec<&FnFacts> = writer
                    .fns
                    .iter()
                    .filter(|f| pair.writers.iter().any(|s| fn_spec_matches(f, s)))
                    .collect();
                let rfns: Vec<&FnFacts> = reader
                    .fns
                    .iter()
                    .filter(|f| pair.readers.iter().any(|s| fn_spec_matches(f, s)))
                    .collect();
                let serialized: HashSet<&str> = wfns
                    .iter()
                    .flat_map(|f| f.accesses.iter())
                    .map(|a| a.field.as_str())
                    .collect();
                for sname in &pair.structs {
                    let def = [(&pair.writer_file, writer), (&pair.reader_file, reader)]
                        .into_iter()
                        .find_map(|(file, facts)| {
                            facts
                                .structs
                                .iter()
                                .find(|(n, _, _)| n == sname)
                                .map(|s| (file, s))
                        });
                    let Some((def_file, (_, _, fdefs))) = def else {
                        out.push(finding(
                            &pair.writer_file,
                            0,
                            "L016",
                            format!(
                                "wire struct `{sname}` declared in lint.toml was not found in \
                                 the writer or reader file — update lint.toml"
                            ),
                        ));
                        continue;
                    };
                    let lit_chain = format!("t:{sname}");
                    let reconstructed: HashSet<&str> = rfns
                        .iter()
                        .flat_map(|f| f.accesses.iter())
                        .filter(|a| a.write && a.chain == lit_chain)
                        .map(|a| a.field.as_str())
                        .collect();
                    for fd in fdefs {
                        let name = fd.name.as_str();
                        if serialized.contains(name) && !reconstructed.contains(name) {
                            out.push(finding(
                                def_file,
                                fd.line,
                                "L016",
                                format!(
                                    "wire-format drift in `{sname}`: `{name}` is serialized \
                                     by the writer but the reader never reconstructs it — \
                                     decoded records silently drop the field"
                                ),
                            ));
                        } else if reconstructed.contains(name) && !serialized.contains(name) {
                            out.push(finding(
                                def_file,
                                fd.line,
                                "L016",
                                format!(
                                    "wire-format drift in `{sname}`: the reader fills `{name}` \
                                     but the writer never serializes it — the value is invented \
                                     at decode time, not carried on the wire"
                                ),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
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
         `Simulator::feed_packed`), and every workspace function reachable from them through \
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
        "L004",
        "unexercised config knob",
        "Every pub field of MachineConfig must be referenced by aurora-bench's sweep/report \
         code. A knob nothing sweeps or prints is a knob whose effect on the model is \
         unvalidated — exactly the silent-drift failure mode the gem5 methodology papers \
         warn about. Accesses are matched *by receiver type*, not by field name alone: a \
         same-named field on an unrelated struct does not count, while a knob set through a \
         typed closure parameter does. Setting a knob in a sweep counts as exercising it.",
    ),
    (
        "L007",
        "nondeterminism reachable from the replay core",
        "Replaying the same packed trace with the same config must produce bit-identical \
         results: the capture-once/replay-many methodology, the differential equivalence \
         tests, and every experiment in docs/EXPERIMENTS.md all assume it. Everything \
         reachable from the functions in lint.toml's [determinism] files therefore must not: \
         iterate a HashMap/HashSet (randomized seed → randomized order), read the wall clock \
         (`Instant::now`, `SystemTime::now`), construct a `DefaultHasher`/`RandomState`, or \
         observe a pointer address as an integer (`as *const _ as usize`). Thread a seed, a \
         cycle counter, or an ordered container through instead. The diagnostic names the \
         call chain from the replay core to the offending function.",
    ),
    (
        "L008",
        "cycle/count unit mixing",
        "Adding a cycle-valued expression (`*_cycle`, `*_cycles`) to a count-valued one \
         (`*_count`, `.len()`) with `+`/`-`/`+=`/`-=` is almost always a latency-accounting \
         bug — the sums type-check because both sides are u64. An explicit `as` cast on \
         either operand marks the conversion site as intentional and silences the rule, as \
         does renaming the operand to say what unit it actually carries. Checked in the \
         files listed under lint.toml's [units] section.",
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
        "L011",
        "lock-order inversion cycle",
        "Every `.lock()` taken while another guard is live contributes a directed edge to a \
         workspace-wide lock-order graph; calls made under a lock import the callee's \
         transitive acquisitions as edges too. A cycle means two threads can each hold one \
         lock and wait for the other — a deadlock that needs no misfortune beyond \
         scheduling. The diagnostic prints the cycle and names every acquisition site on \
         it. Locks are identified by label (`Type.field`, `fn::local`, `path::STATIC`), so \
         same-named statics in different modules alias — an over-approximation that errs \
         toward reporting. Fix by picking one global acquisition order; explicit `drop()` \
         of a guard mid-block is not modelled, so early drops need a reasoned pragma.",
    ),
    (
        "L012",
        "suspicious atomic ordering",
        "Two shapes fire, both on the same atomic target (matched by label, \
         workspace-wide): (1) a store/load ordering mismatch — a Release/SeqCst store \
         observed by a Relaxed load (or an Acquire/SeqCst load of a Relaxed store) does \
         not synchronize, so data published before the store may not be visible after the \
         load; (2) an all-Relaxed flag whose stores and loads cross a spawn boundary — if \
         the flag guards non-atomic data, readers can see the flag flip without the data. \
         Targets used only through read-modify-write ops (`fetch_add` counters, \
         `compare_exchange` state machines) are never flagged: Relaxed is the correct \
         ordering for a pure counter.",
    ),
    (
        "L013",
        "blocking call reachable from a pool worker loop",
        "Everything reachable from the worker-loop roots declared in lint.toml's [[pool]] \
         sections must not block: file I/O (`File::open`, `fs::*`, `read_to_string`), \
         `Mutex::lock`, and stdio macros (`println!` takes the stdout lock) stall a \
         work-stealing worker and idle its core for the rest of the sweep. The diagnostic \
         names the call chain from the pool root. Hoist the blocking call out of the drain \
         loop, buffer output per worker, or hand the work to a dedicated thread.",
    ),
    (
        "L014",
        "checkpoint save/restore field drift",
        "For every type whose `save`/`restore` signature uses the Snapshot codec \
         (SnapshotWriter/SnapshotReader, configurable under [checkpoint] in lint.toml), \
         the two sides must touch the same fields: a field save serializes but restore \
         never mentions keeps whatever value it had before the restore, and a field \
         restore writes but save never serialized consumes bytes the image does not \
         carry. The codec persists `SimStats` in the aurora-serve result store and is \
         what `SimStats::fingerprint` hashes, so either kind of drift corrupts stored \
         results or moves every stats digest. Reads count as coverage on the restore side \
         (sizing a buffer from `self.cfg` is a bound, not state), and state a snapshot \
         deliberately leaves out belongs in a named helper called outside restore, not in \
         the restore body — see the snapshot codec checklist in docs/LINTS.md.",
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
    (
        "L016",
        "wire-format drift between a writer/reader pair",
        "Each [[wire]] pair in lint.toml names writer and reader functions that must agree on \
         a wire format, the way L014's save/restore check works for the Snapshot codec. \
         `kind = \"json\"` cross-checks string keys: every key a reader looks up \
         (`get`/`remove`/`contains_key`) must be emitted by some writer — a misspelled or \
         renamed key otherwise fails silently at the first decode. `kind = \"record\"` \
         cross-checks binary record layouts field-by-field: the struct fields the writer \
         serializes and the fields the reader's struct literal reconstructs must be the same \
         set, because a length-prefixed record cannot skip a field it does not understand. \
         The json direction is one-sided by design (writers may emit keys a given reader \
         ignores); the record check is symmetric.",
    ),
];

pub fn explain(rule: &str) -> Option<String> {
    RULES
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(id, title, body)| format!("{id}: {title}\n\n{body}\n"))
}
