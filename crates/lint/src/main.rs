//! `aurora-lint` CLI.
//!
//! ```text
//! aurora-lint                 # analyze the workspace, exit 1 on findings
//! aurora-lint --format sarif  # machine-readable findings on stdout
//! aurora-lint --graph         # dump the transitive hot set with chains
//! aurora-lint --explain L002  # print the rationale for a rule
//! aurora-lint --fingerprint   # print the trace-format record file contents
//! aurora-lint --root <dir>    # analyze a different workspace root
//! aurora-lint --no-cache      # ignore target/aurora-lint.cache
//! aurora-lint --fix           # rewrite stale/malformed pragmas in place
//! aurora-lint --fix --dry-run # print the rewrites as a diff instead
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use aurora_lint::cache::Cache;
use aurora_lint::config::LintConfig;
use aurora_lint::{analyze_with, cache_key, find_root, fix, load_workspace, output, rules};

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut fingerprint = false;
    let mut canonical = false;
    let mut list = false;
    let mut graph = false;
    let mut no_cache = false;
    let mut apply_fix = false;
    let mut dry_run = false;
    let mut format = Format::Text;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--fix" => apply_fix = true,
            "--dry-run" => dry_run = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => return usage("--root needs a path"),
                }
            }
            "--explain" => {
                i += 1;
                match args.get(i) {
                    Some(r) => explain = Some(r.clone()),
                    None => return usage("--explain needs a rule id (e.g. L002)"),
                }
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    _ => return usage("--format needs one of: text, json, sarif"),
                };
            }
            "--fingerprint" => fingerprint = true,
            "--canonical" => canonical = true,
            "--list" => list = true,
            "--graph" => graph = true,
            "--no-cache" => no_cache = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if let Some(rule) = explain {
        return match rules::explain(&rule) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("aurora-lint: unknown rule `{rule}`");
                ExitCode::FAILURE
            }
        };
    }
    if list {
        for (id, title, _) in rules::RULES {
            println!("{id}  {title}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(r) => r,
        None => {
            eprintln!("aurora-lint: no lint.toml found between here and the filesystem root");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match LintConfig::load(&root.join("lint.toml")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("aurora-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if fingerprint || canonical {
        let ws = match load_workspace(&root, &cfg) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("aurora-lint: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match rules::compute_fingerprint(&ws, &cfg) {
            Ok(fp) => {
                if canonical {
                    // Debug view: the exact string the fingerprint hashes,
                    // for diffing when a drift finding looks surprising.
                    println!("{}", fp.canonical);
                    return ExitCode::SUCCESS;
                }
                println!("# Structural fingerprint of the packed trace format.");
                println!("# Re-record with `cargo run -p aurora-lint -- --fingerprint` whenever");
                println!("# the PackedOp layout or codec constants change, and bump");
                println!("# TRACE_FORMAT_VERSION alongside it. See docs/LINTS.md (L005).");
                println!("version = {}", fp.version.unwrap_or(0));
                println!("fingerprint = {:#018x}", fp.hash);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("aurora-lint: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if graph {
        let ws = match load_workspace(&root, &cfg) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("aurora-lint: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", rules::graph_report(&ws, &cfg));
        return ExitCode::SUCCESS;
    }

    let cache_path = root.join("target/aurora-lint.cache");
    let key = std::fs::read_to_string(root.join("lint.toml"))
        .map(|t| cache_key(&t))
        .unwrap_or(0);
    let mut cache = if no_cache {
        None
    } else {
        Some(Cache::load(&cache_path, key))
    };
    let report = match analyze_with(&root, &cfg, cache.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aurora-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(c) = &cache {
        c.save(&cache_path);
    }

    if apply_fix {
        let edits = match fix::plan(&root, &report.findings) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("aurora-lint: {e}");
                return ExitCode::FAILURE;
            }
        };
        if dry_run {
            print!("{}", fix::render_diff(&edits));
            eprintln!(
                "aurora-lint --fix --dry-run: {} edit(s) planned",
                edits.len()
            );
            return ExitCode::SUCCESS;
        }
        return match fix::apply(&root, &edits) {
            Ok(files) => {
                eprintln!(
                    "aurora-lint --fix: applied {} edit(s) across {files} file(s); re-run to \
                     verify",
                    edits.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("aurora-lint: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Machine formats own stdout; the human summary moves to stderr so a
    // redirect captures a clean document either way.
    match format {
        Format::Json => print!("{}", output::render_json(&report)),
        Format::Sarif => print!("{}", output::render_sarif(&report)),
        Format::Text => {
            for f in &report.findings {
                println!("{f}");
            }
        }
    }
    let summary = |to_stderr: bool, msg: String| {
        if to_stderr {
            eprintln!("{msg}");
        } else {
            println!("{msg}");
        }
    };
    let machine = format != Format::Text;
    if report.findings.is_empty() {
        summary(
            machine,
            format!(
                "aurora-lint: clean — {} files scanned, {} finding(s) suppressed by pragma",
                report.files_scanned, report.suppressed
            ),
        );
        ExitCode::SUCCESS
    } else {
        summary(
            machine,
            format!(
                "aurora-lint: {} finding(s) across {} files ({} suppressed); \
                 run `aurora-lint --explain <rule>` for rationale",
                report.findings.len(),
                report.files_scanned,
                report.suppressed
            ),
        );
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("aurora-lint: {err}");
    }
    eprintln!(
        "usage: aurora-lint [--root <dir>] [--format text|json|sarif] [--graph]\n\
         \x20                  [--explain L0xx] [--fingerprint] [--list] [--no-cache]\n\
         \x20                  [--fix [--dry-run]]\n\
         \n\
         Parses the workspace rooted at the nearest lint.toml, builds the\n\
         cross-crate call graph, and enforces the hot-path, dead-counter,\n\
         config-coverage, trace-format, determinism and unit-safety\n\
         invariants. Hot-path and determinism rules propagate transitively\n\
         from the roots declared in lint.toml. Exits non-zero when any\n\
         unsuppressed finding remains."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
