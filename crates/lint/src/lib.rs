//! `aurora-lint` — a static analyzer for the aurora workspace. Its one
//! dependency is the workspace's own `aurora-json`, which prints its
//! JSON and SARIF reports.
//!
//! The simulator's correctness rests on invariants that ordinary tests
//! cannot see: the hot loop must stay allocation- and panic-free, every
//! counter the model accumulates must be consumed by a report, every config
//! knob must be exercised by a sweep, replay must be deterministic, and
//! cycle values must not silently mix with counts. This crate parses the
//! workspace source with a hand-rolled recursive-descent parser (no `syn` —
//! tier-1 builds offline), builds a workspace-wide call graph, and enforces
//! those invariants as lint rules L000–L009 (L005, the trace-format
//! fingerprint, is retired: no trace outlives the process that captured
//! it; L006, narrowing casts in the trace codec, moved to clippy's
//! `cast_possible_truncation` family, denied in the codec files). Rules
//! L010–L016 run deeper passes over the same graph: interval dataflow for
//! wrapping arithmetic, lock-order and atomic-ordering checks, blocking
//! calls in pool workers, snapshot codec drift, taint from the
//! service's socket boundary, and wire-format drift.
//!
//! The pipeline has two phases:
//!
//! 1. **Per-file**: each file is lexed and parsed once; the
//!    [`ast::ParsedFile`] stays in the [`Workspace`] for the deep phase,
//!    and [`facts::extract`] derives a [`facts::FileFacts`] from it —
//!    call sites with receiver *chain descriptors*, rule-relevant events,
//!    struct layouts.
//! 2. **Workspace**: [`graph::Graph`] resolves chains against the symbol
//!    index, computes reachability from the hot roots declared in
//!    `lint.toml`, [`summary::deep_phase`] runs the interprocedural
//!    passes over the parsed bodies, and [`rules`] walks the result.
//!
//! Findings are suppressed inline with `// lint:allow(L0xx): <reason>`;
//! the reason is mandatory, and a pragma without one is itself a finding
//! (L000), while a pragma that no longer suppresses anything is an error
//! too (L009). `// lint:extern` marks a line's calls as deliberately
//! unresolvable (dynamic dispatch). See `docs/LINTS.md` for the catalogue.

pub mod ast;
pub mod concurrency;
pub mod config;
pub mod dataflow;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;
pub mod summary;
pub mod taint;

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use ast::ParsedFile;
use config::LintConfig;
use facts::FileFacts;

/// An inline `lint:allow(L0xx, ...): reason` comment suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    pub line: u32,
    /// The first non-comment line at or below the pragma: the code the
    /// pragma is attached to (continuation comment lines are skipped, so a
    /// pragma may wrap across several `//` lines).
    pub target_line: u32,
    pub rules: Vec<String>,
    /// False when the mandatory `: reason` part is missing or empty.
    pub reason_ok: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {} {}", self.file, self.line, self.rule, self.msg)
    }
}

pub struct Report {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
    pub files_scanned: usize,
}

pub struct Workspace {
    pub root: PathBuf,
    /// `(rel path, facts)`, sorted by path string — the slice
    /// [`graph::Graph`] borrows, so file indices here are the graph's file
    /// indices, and [`Workspace::idx`] binary-searches it.
    pub files: Vec<(String, FileFacts)>,
    /// Each file's parse, index-aligned with `files` (and its functions
    /// with `FileFacts::fns`): the deep phase walks these bodies.
    pub parsed: Vec<ParsedFile>,
    /// Index-aligned with `files`.
    pub pragmas: Vec<Vec<Pragma>>,
    /// Index-aligned with `files`.
    pub externs: Vec<Vec<u32>>,
    /// L015 findings produced by the taint worklist: `(file, line,
    /// message)` — see [`summary`].
    pub taints: Vec<(String, u32, String)>,
}

impl Workspace {
    pub fn idx(&self, rel: &str) -> Option<usize> {
        self.files
            .binary_search_by(|(r, _)| r.as_str().cmp(rel))
            .ok()
    }

    pub fn facts_of(&self, rel: &str) -> Option<&FileFacts> {
        self.idx(rel).map(|i| &self.files[i].1)
    }

    /// All `(file index, line)` pairs marked `// lint:extern`.
    pub fn extern_lines(&self) -> HashSet<(usize, u32)> {
        let mut out = HashSet::new();
        for (fi, lines) in self.externs.iter().enumerate() {
            for &l in lines {
                out.insert((fi, l));
            }
        }
        out
    }
}

/// Analyze the workspace rooted at `root` (the directory holding
/// `lint.toml`). Returns the post-suppression report.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let cfg = LintConfig::load(&root.join("lint.toml")).map_err(|e| e.to_string())?;
    analyze_with(root, &cfg)
}

pub fn analyze_with(root: &Path, cfg: &LintConfig) -> Result<Report, String> {
    let mut ws = load_workspace(root, cfg)?;
    summary::deep_phase(&mut ws, cfg);
    let raw = rules::run_all(&ws, cfg);
    Ok(apply_pragmas(&ws, raw))
}

/// Read, lex and parse every `.rs` file under `root` not excluded by the
/// config, once each, on the calling thread.
pub fn load_workspace(root: &Path, cfg: &LintConfig) -> Result<Workspace, String> {
    let mut paths = Vec::new();
    collect_rs(root, root, &cfg.exclude, &mut paths)?;
    // `idx` binary-searches by string, and `PathBuf` order differs from
    // string order (`lint-x` sorts after `lint/` component-wise, before it
    // as a string).
    let mut rels: Vec<(String, PathBuf)> =
        paths.into_iter().map(|p| (rel_path(root, &p), p)).collect();
    rels.sort_by(|a, b| a.0.cmp(&b.0));
    let mut ws = Workspace {
        root: root.to_path_buf(),
        files: Vec::with_capacity(rels.len()),
        parsed: Vec::with_capacity(rels.len()),
        pragmas: Vec::with_capacity(rels.len()),
        externs: Vec::with_capacity(rels.len()),
        taints: Vec::new(),
    };
    for (rel, path) in rels {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let toks = lexer::lex(&src);
        let parsed = parser::parse_file(&toks);
        let mut facts = facts::extract(&parsed.fns, lexer::all_structs(&toks));
        facts.wire_keys = lexer::wire_keys(&src);
        let code_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        ws.pragmas.push(scan_pragmas(&src, &code_lines));
        ws.externs.push(scan_externs(&src, &code_lines));
        ws.files.push((rel, facts));
        ws.parsed.push(parsed);
    }
    Ok(ws)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        if exclude
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            collect_rs(root, &path, exclude, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan source comments for suppression pragmas. Comments are located by a
/// string-literal-aware walk ([`lexer::comment_lines`]) so that prose which
/// merely *mentions* the pragma syntax inside a string (an explain text, a
/// fixture embedded in a raw literal) never registers as a suppression.
/// `code_lines` holds the line of every token of `src`, in order.
pub fn scan_pragmas(src: &str, code_lines: &[u32]) -> Vec<Pragma> {
    let comments = lexer::comment_lines(src);
    let mut out = Vec::new();
    for (line, text) in comments {
        // The pragma must be the comment's leading content.
        let body = text.trim_start_matches(['/', '!']).trim_start();
        if !body.starts_with("lint:allow(") {
            continue;
        }
        // The pragma attaches to the first following line that carries code,
        // so a long reason may wrap across several comment lines.
        let target_line = code_lines
            .iter()
            .copied()
            .find(|&l| l > line)
            .unwrap_or(line);
        let after = &body["lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            out.push(Pragma {
                line,
                target_line,
                rules: Vec::new(),
                reason_ok: false,
            });
            continue;
        };
        let ids: Vec<String> = after[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let well_formed_ids = !ids.is_empty()
            && ids.iter().all(|id| {
                id.len() == 4 && id.starts_with('L') && id[1..].chars().all(|c| c.is_ascii_digit())
            });
        let rest = after[close + 1..].trim_start();
        let reason_ok = well_formed_ids && rest.starts_with(':') && !rest[1..].trim().is_empty();
        out.push(Pragma {
            line,
            target_line,
            rules: ids,
            reason_ok,
        });
    }
    out
}

/// Scan for `// lint:extern` markers: a trailing marker applies to its own
/// line, a standalone comment line applies to the next non-comment line.
/// Calls on a marked line resolve to no graph edges — the escape hatch for
/// dynamic dispatch and function pointers the resolver cannot follow.
/// `code_lines` is as for [`scan_pragmas`].
pub fn scan_externs(src: &str, code_lines: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for (line, text) in lexer::comment_lines(src) {
        let body = text.trim_start_matches(['/', '!']).trim_start();
        if !body.starts_with("lint:extern") {
            continue;
        }
        // A trailing marker (the comment shares its line with code) applies
        // to its own line; a standalone comment to the next code line.
        let target = if code_lines.binary_search(&line).is_ok() {
            line
        } else {
            code_lines
                .iter()
                .copied()
                .find(|&l| l > line)
                .unwrap_or(line)
        };
        out.push(target);
    }
    out
}

/// Fold pragmas into the raw findings: well-formed pragmas suppress
/// matching findings, malformed ones become L000 findings, and well-formed
/// pragmas that suppressed *nothing* become L009 findings (stale allows
/// rot just like dead counters — they silently disable a rule at a site
/// that no longer needs it). L000/L009 are produced after suppression and
/// therefore cannot themselves be allowed away.
///
/// A pragma applies to findings on its own line and on its target line —
/// the first non-comment line below it. When the target line declares a
/// `fn` item, the named rules are suppressed for that entire function
/// body.
fn apply_pragmas(ws: &Workspace, raw: Vec<Finding>) -> Report {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut used: HashSet<(usize, usize, String)> = HashSet::new();
    for f in raw {
        let mut covered = false;
        if let Some(fi) = ws.idx(&f.file) {
            for (pi, p) in ws.pragmas[fi].iter().enumerate() {
                if p.reason_ok
                    && p.rules.iter().any(|r| r == f.rule)
                    && pragma_covers(&ws.files[fi].1, p, f.line)
                {
                    used.insert((fi, pi, f.rule.to_string()));
                    covered = true;
                }
            }
        }
        if covered {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    for (fi, (rel, _)) in ws.files.iter().enumerate() {
        for (pi, p) in ws.pragmas[fi].iter().enumerate() {
            if !p.reason_ok {
                findings.push(Finding {
                    file: rel.clone(),
                    line: p.line,
                    rule: "L000",
                    msg: "suppression pragma is malformed or missing its mandatory `: <reason>`"
                        .to_string(),
                });
                continue;
            }
            for r in &p.rules {
                if !used.contains(&(fi, pi, r.clone())) {
                    findings.push(Finding {
                        file: rel.clone(),
                        line: p.line,
                        rule: "L009",
                        msg: format!(
                            "stale pragma: `lint:allow({r})` suppresses nothing — {r} no longer \
                             fires on its target; delete the pragma or drop {r} from it"
                        ),
                    });
                }
            }
        }
    }
    findings.sort();
    // One diagnostic per (file, line, rule): distinct events on the same
    // line (e.g. an allocating constructor seen through two extractors)
    // collapse into the lexicographically-first message.
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    Report {
        findings,
        suppressed,
        files_scanned: ws.files.len(),
    }
}

fn pragma_covers(facts: &FileFacts, p: &Pragma, line: u32) -> bool {
    if p.line == line || p.target_line == line {
        return true;
    }
    // Function-level coverage: the pragma's target line is the `fn`
    // declaration itself, and the finding is inside that function's body.
    facts
        .fns
        .iter()
        .any(|s| s.decl_line == p.target_line && line >= s.decl_line && line <= s.end_line)
}

/// Walk upward from `start` to the nearest directory containing `lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
