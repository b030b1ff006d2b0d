//! `aurora-lint` CLI.
//!
//! ```text
//! aurora-lint                 # analyze the workspace, exit 1 on findings
//! aurora-lint --format sarif  # machine-readable findings on stdout
//! aurora-lint --graph         # dump the transitive hot set with chains
//! aurora-lint --explain L002  # print the rationale for a rule
//! aurora-lint --root <dir>    # analyze a different workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use aurora_lint::config::LintConfig;
use aurora_lint::{analyze_with, find_root, load_workspace, output, rules};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut list = false;
    let mut graph = false;
    let mut sarif = false;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
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
                sarif = match args.get(i).map(String::as_str) {
                    Some("text") => false,
                    Some("sarif") => true,
                    _ => return usage("--format needs one of: text, sarif"),
                };
            }
            "--list" => list = true,
            "--graph" => graph = true,
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

    let report = match analyze_with(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aurora-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    // SARIF owns stdout; the human summary moves to stderr so a redirect
    // captures a clean document.
    if sarif {
        println!("{}", output::sarif_report(&report));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
    }
    let summary = |to_stderr: bool, msg: String| {
        if to_stderr {
            eprintln!("{msg}");
        } else {
            println!("{msg}");
        }
    };
    if report.findings.is_empty() {
        summary(
            sarif,
            format!(
                "aurora-lint: clean — {} files scanned, {} finding(s) suppressed by pragma",
                report.files_scanned, report.suppressed
            ),
        );
        ExitCode::SUCCESS
    } else {
        summary(
            sarif,
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
        "usage: aurora-lint [--root <dir>] [--format text|sarif] [--graph]\n\
         \x20                  [--explain L0xx] [--list]\n\
         \n\
         Parses the workspace rooted at the nearest lint.toml, builds the\n\
         cross-crate call graph, and enforces the hot-path, dead-counter,\n\
         pool-blocking and untrusted-input invariants.\n\
         Hot-path and pool rules propagate transitively from the roots\n\
         declared in lint.toml. Exits non-zero when any unsuppressed\n\
         finding remains."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
