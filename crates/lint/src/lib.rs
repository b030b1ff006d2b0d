//! `aurora-lint` — a zero-dependency static analyzer for the aurora
//! workspace.
//!
//! The simulator's correctness rests on invariants that ordinary tests
//! cannot see: the hot loop must stay allocation- and panic-free, every
//! counter the model accumulates must be consumed by a report, every config
//! knob must be exercised by a sweep, the packed trace layout must never
//! drift without a `TRACE_FORMAT_VERSION` bump, replay must be
//! deterministic, and cycle values must not silently mix with counts. This
//! crate parses the workspace source with a hand-rolled recursive-descent
//! parser (no `syn` — tier-1 builds offline), builds a workspace-wide call
//! graph, and enforces those invariants as lint rules L000–L009. Rules
//! L010–L016 run deeper passes over the same graph: interval dataflow for
//! wrapping arithmetic, lock-order and atomic-ordering checks, blocking
//! calls in pool workers, checkpoint codec drift, taint from the
//! service's socket boundary, and wire-format drift.
//!
//! The pipeline has two phases:
//!
//! 1. **Per-file** (pure, cacheable, parallel): lex → parse →
//!    [`facts::extract`] produces a [`facts::FileFacts`] — call sites with
//!    receiver *chain descriptors*, rule-relevant events, struct layouts.
//! 2. **Workspace** (always fresh): [`graph::Graph`] resolves chains
//!    against the symbol index, computes reachability from the hot roots
//!    declared in `lint.toml`, and [`rules`] walks the result.
//!
//! Findings are suppressed inline with `// lint:allow(L0xx): <reason>`;
//! the reason is mandatory, and a pragma without one is itself a finding
//! (L000), while a pragma that no longer suppresses anything is an error
//! too (L009). `// lint:extern` marks a line's calls as deliberately
//! unresolvable (dynamic dispatch). See `docs/LINTS.md` for the catalogue.

pub mod ast;
pub mod cache;
pub mod concurrency;
pub mod config;
pub mod dataflow;
pub mod facts;
pub mod fix;
pub mod graph;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;
pub mod summary;
pub mod taint;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cache::Cache;
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
    /// Files served from the incremental cache this run.
    pub cache_hits: usize,
}

/// Everything derived from one file's content. A pure function of the
/// source text, which is what makes it safe to cache by content hash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileAnalysis {
    pub facts: FileFacts,
    pub pragmas: Vec<Pragma>,
    /// Lines carrying a `// lint:extern` marker.
    pub externs: Vec<u32>,
    /// Interprocedural results, valid for the dependency hash they
    /// carry. `None` until the deep phase has run for this file.
    pub deep: Option<summary::DeepFacts>,
}

/// Lex, parse and extract facts from one file's source.
pub fn analyze_source(src: &str) -> FileAnalysis {
    let toks = lexer::lex(src);
    let parsed = parser::parse_file(&toks);
    let mut facts = facts::extract(
        &parsed.fns,
        lexer::all_structs(&toks),
        lexer::numeric_consts(&toks),
    );
    facts.wire_keys = lexer::wire_keys(src);
    FileAnalysis {
        facts,
        pragmas: scan_pragmas(src),
        externs: scan_externs(src),
        deep: None,
    }
}

pub struct Workspace {
    pub root: PathBuf,
    /// `(rel path, facts)`, sorted by path — the slice [`graph::Graph`]
    /// borrows, so file indices here are the graph's file indices.
    pub files: Vec<(String, FileFacts)>,
    /// Index-aligned with `files`.
    pub pragmas: Vec<Vec<Pragma>>,
    /// Index-aligned with `files`.
    pub externs: Vec<Vec<u32>>,
    /// Raw source text, index-aligned with `files` — the deep phase
    /// re-parses function bodies from it.
    pub srcs: Vec<String>,
    /// Cached interprocedural results, index-aligned with `files`;
    /// refreshed in place by [`summary::deep_phase`].
    pub deeps: Vec<Option<summary::DeepFacts>>,
    /// L015 findings produced by the taint worklist: `(file, line,
    /// message)`. Always recomputed fresh — see [`summary`].
    pub taints: Vec<(String, u32, String)>,
    /// Files served from the incremental cache when loading.
    pub cache_hits: usize,
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
/// `lint.toml`). Returns the post-suppression report. No cache: tests and
/// library callers always see fresh facts.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let cfg = LintConfig::load(&root.join("lint.toml")).map_err(|e| e.to_string())?;
    analyze_with(root, &cfg, None)
}

pub fn analyze_with(
    root: &Path,
    cfg: &LintConfig,
    mut cache: Option<&mut Cache>,
) -> Result<Report, String> {
    let mut ws = load_workspace_cached(root, cfg, cache.as_deref_mut())?;
    summary::deep_phase(&mut ws, cfg, cache);
    let raw = rules::run_all(&ws, cfg);
    Ok(apply_pragmas(&ws, raw))
}

/// Load and analyze every `.rs` file under `root` not excluded by the
/// config.
pub fn load_workspace(root: &Path, cfg: &LintConfig) -> Result<Workspace, String> {
    load_workspace_cached(root, cfg, None)
}

/// Like [`load_workspace`], reusing cached per-file analyses for files
/// whose content is unchanged (mtime+size fast path, FNV hash slow path).
pub fn load_workspace_cached(
    root: &Path,
    cfg: &LintConfig,
    mut cache: Option<&mut Cache>,
) -> Result<Workspace, String> {
    let mut paths = Vec::new();
    collect_rs(root, root, &cfg.exclude, &mut paths)?;
    let mut done: Vec<(String, FileAnalysis)> = Vec::new();
    let mut jobs: Vec<(String, String, cache::Stamp)> = Vec::new();
    let mut src_of: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for path in paths {
        let rel = rel_path(root, &path);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let stamp = cache::Stamp::of(&path, &src);
        if let Some(c) = cache.as_deref_mut() {
            if let Some(hit) = c.lookup(&rel, &stamp) {
                src_of.insert(rel.clone(), src);
                done.push((rel, hit));
                continue;
            }
        }
        src_of.insert(rel.clone(), src.clone());
        jobs.push((rel, src, stamp));
    }
    let cache_hits = done.len();
    let parsed = parse_parallel(&jobs);
    if let Some(c) = cache {
        for ((rel, _, stamp), (_, analysis)) in jobs.iter().zip(&parsed) {
            c.insert(rel.clone(), stamp.clone(), analysis.clone());
        }
    }
    done.extend(parsed);
    done.sort_by(|a, b| a.0.cmp(&b.0));
    let mut ws = Workspace {
        root: root.to_path_buf(),
        files: Vec::with_capacity(done.len()),
        pragmas: Vec::with_capacity(done.len()),
        externs: Vec::with_capacity(done.len()),
        srcs: Vec::with_capacity(done.len()),
        deeps: Vec::with_capacity(done.len()),
        taints: Vec::new(),
        cache_hits,
    };
    for (rel, a) in done {
        ws.srcs.push(src_of.remove(&rel).unwrap_or_default());
        ws.files.push((rel, a.facts));
        ws.pragmas.push(a.pragmas);
        ws.externs.push(a.externs);
        ws.deeps.push(a.deep);
    }
    Ok(ws)
}

/// Run [`analyze_source`] over the cache-miss files, fanning out across
/// threads. Results come back in job order: the caller pairs each one
/// with its job's cache stamp by position.
fn parse_parallel(jobs: &[(String, String, cache::Stamp)]) -> Vec<(String, FileAnalysis)> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(jobs.len());
    if workers <= 1 {
        return jobs
            .iter()
            .map(|(rel, src, _)| (rel.clone(), analyze_source(src)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, String, FileAnalysis)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((rel, src, _)) = jobs.get(i) else {
                    break;
                };
                let a = analyze_source(src);
                out.lock()
                    .expect("analysis mutex")
                    .push((i, rel.clone(), a));
            });
        }
    });
    // Workers finish in completion order, not job order.
    let mut out = out.into_inner().expect("analysis mutex");
    out.sort_unstable_by_key(|(i, ..)| *i);
    out.into_iter().map(|(_, rel, a)| (rel, a)).collect()
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
    out.sort();
    Ok(())
}

/// Scan source comments for suppression pragmas. Comments are located by a
/// string-literal-aware walk ([`lexer::comment_lines`]) so that prose which
/// merely *mentions* the pragma syntax inside a string (an explain text, a
/// fixture embedded in a raw literal) never registers as a suppression.
pub fn scan_pragmas(src: &str) -> Vec<Pragma> {
    let comments = lexer::comment_lines(src);
    let code_lines: Vec<u32> = lexer::lex(src).iter().map(|t| t.line).collect();
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
pub fn scan_externs(src: &str) -> Vec<u32> {
    let code_lines: Vec<u32> = lexer::lex(src).iter().map(|t| t.line).collect();
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
        cache_hits: ws.cache_hits,
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

/// The incremental-cache key: lint.toml's content hash folded with the
/// rule-set version, so editing configuration or upgrading the analyzer
/// invalidates every cached per-file verdict instead of serving stale ones.
pub fn cache_key(config_text: &str) -> u64 {
    fnv1a64(config_text.as_bytes()) ^ rules::RULE_SET_VERSION.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// FNV-1a 64-bit — used for both the trace-format fingerprint and the
/// facts-cache content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
