//! Incremental-cache soundness: editing a *callee* must invalidate the
//! transitive *callers'* deep results, even though the callers' own files
//! are byte-identical and their shallow facts are served from the cache.
//!
//! The regression scenario: `root.rs` adds `leaf_cycles() + base_cycles`
//! where `leaf_cycles` lives in `leaf.rs`. With the leaf returning 3 the
//! sum has headroom and L010 stays silent. We warm the cache, then edit
//! only `leaf.rs` to return u64::MAX and re-run *with the same cache* —
//! the root-file L010 finding must appear (the call-graph dependency
//! hash caught the callee edit) while the unchanged `root.rs` still
//! counts as a cache hit (the cache was consulted, not bypassed).

use std::path::{Path, PathBuf};

use aurora_lint::cache::{Cache, Stamp};
use aurora_lint::config::LintConfig;
use aurora_lint::{analyze_source, analyze_with, cache_key};

const LINT_TOML: &str = r#"exclude = []

[[hot]]
file = "root.rs"
roots = ["tally_root"]
"#;

const ROOT_RS: &str = r#"pub fn tally_root(base_cycles: u64) -> u64 {
    bridge_cycles(base_cycles)
}

fn bridge_cycles(base_cycles: u64) -> u64 {
    leaf_cycles() + base_cycles
}
"#;

const LEAF_BENIGN: &str = "pub fn leaf_cycles() -> u64 {\n    3\n}\n";

const LEAF_SENTINEL: &str = "pub fn leaf_cycles() -> u64 {\n    18_446_744_073_709_551_615\n}\n";

fn write_workspace(dir: &Path, leaf_body: &str) {
    std::fs::create_dir_all(dir).expect("create workspace dir");
    std::fs::write(dir.join("lint.toml"), LINT_TOML).expect("write lint.toml");
    std::fs::write(dir.join("root.rs"), ROOT_RS).expect("write root.rs");
    std::fs::write(dir.join("leaf.rs"), leaf_body).expect("write leaf.rs");
}

fn run_cached(dir: &Path, cache_path: &Path, key: u64) -> (aurora_lint::Report, Cache) {
    let cfg = LintConfig::load(&dir.join("lint.toml")).expect("parse lint.toml");
    let mut cache = Cache::load(cache_path, key);
    let report = analyze_with(dir, &cfg, Some(&mut cache)).expect("analysis succeeds");
    (report, cache)
}

#[test]
fn callee_edit_invalidates_transitive_caller() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aurora-lint-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_workspace(&dir, LEAF_BENIGN);
    let cache_path = dir.join("aurora-lint.cache");
    let key = cache_key(LINT_TOML);

    // Warm run: leaf returns 3, the sum has headroom, nothing fires.
    let (warm, cache) = run_cached(&dir, &cache_path, key);
    assert!(
        warm.findings.is_empty(),
        "benign workspace must be clean, got:\n{}",
        warm.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    cache.save(&cache_path);
    assert!(cache_path.exists(), "warm cache must persist");

    // Edit ONLY the leaf: root.rs stays byte-identical.
    std::fs::write(dir.join("leaf.rs"), LEAF_SENTINEL).expect("edit leaf.rs");

    // Re-run with the warm cache — no --no-cache escape hatch.
    let (cold, _) = run_cached(&dir, &cache_path, key);
    assert!(
        cold.cache_hits > 0,
        "unchanged root.rs must be served from the cache (got 0 hits)"
    );
    let fired = cold
        .findings
        .iter()
        .any(|f| f.file == "root.rs" && f.rule == "L010");
    assert!(
        fired,
        "callee edit must resurface the caller's L010 finding, got:\n{}",
        cold.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The inverse property: with *no* edits, a second run over the warm
/// cache reproduces the identical report — the dep-hash must not spuriously
/// invalidate, and cached deep facts must round-trip findings faithfully.
#[test]
fn warm_rerun_is_stable_and_fully_cached() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aurora-lint-cache-stable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Seed with the sentinel so the report is non-trivial.
    write_workspace(&dir, LEAF_SENTINEL);
    let cache_path = dir.join("aurora-lint.cache");
    let key = cache_key(LINT_TOML);

    let (first, cache) = run_cached(&dir, &cache_path, key);
    assert!(
        first
            .findings
            .iter()
            .any(|f| f.file == "root.rs" && f.rule == "L010"),
        "sentinel workspace must fire L010 in root.rs"
    );
    cache.save(&cache_path);

    let (second, _) = run_cached(&dir, &cache_path, key);
    assert_eq!(second.cache_hits, 2, "both .rs files must hit the cache");
    let render = |r: &aurora_lint::Report| {
        r.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        render(&first),
        render(&second),
        "cached re-run must reproduce the report verbatim"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Files parsed in parallel must be cached under their own names. The
/// parse workers finish in completion order, not path order, and an
/// entry keyed by one file but holding another's facts makes every
/// later warm run report declared roots and structs as missing. Large
/// and small files alternate so that on any multi-core host a small
/// file finishes before the large one claimed ahead of it. (With one
/// core there is a single worker and the order cannot go wrong.)
#[test]
fn parallel_parse_caches_each_file_under_its_own_name() {
    const ORDER_TOML: &str = "exclude = []\n\n[[hot]]\nfile = \"f00.rs\"\nroots = [\"f0_0\"]\n";
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aurora-lint-cache-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workspace dir");
    std::fs::write(dir.join("lint.toml"), ORDER_TOML).expect("write lint.toml");
    let files: Vec<String> = (0..16).map(|i| format!("f{i:02}.rs")).collect();
    for (i, name) in files.iter().enumerate() {
        let fns = if i % 2 == 0 { 400 } else { 1 };
        let body: String = (0..fns)
            .map(|j| format!("pub fn f{i}_{j}() -> u32 {{\n    {j}\n}}\n"))
            .collect();
        std::fs::write(dir.join(name), body).expect("write source file");
    }
    let cache_path = dir.join("aurora-lint.cache");
    let key = cache_key(ORDER_TOML);

    let (first, cache) = run_cached(&dir, &cache_path, key);
    cache.save(&cache_path);
    let (second, mut warm) = run_cached(&dir, &cache_path, key);
    assert_eq!(
        second.cache_hits,
        files.len(),
        "every file must hit the cache"
    );
    let render = |r: &aurora_lint::Report| {
        r.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert!(render(&first).is_empty(), "{:?}", render(&first));
    assert_eq!(
        render(&first),
        render(&second),
        "warm run must match the cold run"
    );
    for name in &files {
        let path = dir.join(name);
        let src = std::fs::read_to_string(&path).expect("read source file");
        let cached = warm
            .lookup(name, &Stamp::of(&path, &src))
            .expect("file is cached");
        assert_eq!(
            cached.facts,
            analyze_source(&src).facts,
            "{name} is cached with another file's facts"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
