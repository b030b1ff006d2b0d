//! End-to-end self-test: run the analyzer over `tests/fixtures` — a mini
//! workspace with one deliberate violation per rule, each marked by a
//! `FIRE: L00x` comment on the offending line — and assert the report
//! matches the markers exactly: every rule fires where expected, nothing
//! extra fires, the reasoned pragma suppresses, and the reasonless
//! pragma is itself an L000 finding.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use aurora_json::Json;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

type Key = (String, u32, String);

fn collect_markers(root: &Path, dir: &Path, out: &mut BTreeSet<Key>) {
    for entry in std::fs::read_dir(dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_markers(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("under fixtures root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = std::fs::read_to_string(&path).expect("read fixture");
            for (idx, line) in src.lines().enumerate() {
                if let Some(pos) = line.find("FIRE: ") {
                    let rule = line[pos + "FIRE: ".len()..]
                        .split_whitespace()
                        .next()
                        .expect("rule id after FIRE:");
                    out.insert((rel.clone(), (idx + 1) as u32, rule.to_string()));
                }
            }
        }
    }
}

#[test]
fn every_rule_fires_exactly_where_marked() {
    let root = fixtures_root();
    let report = aurora_lint::analyze(&root).expect("fixture analysis succeeds");
    let got: BTreeSet<Key> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.to_string()))
        .collect();
    let mut expected = BTreeSet::new();
    collect_markers(&root, &root, &mut expected);
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert_eq!(got, expected, "actual findings:\n{}", rendered.join("\n"));
    // No two distinct findings may collapse onto one marker.
    assert_eq!(
        report.findings.len(),
        expected.len(),
        "{}",
        rendered.join("\n")
    );
    // Every rule in the catalogue — the pragma-hygiene rules included —
    // is represented; retired ids are not in the catalogue.
    for (rule, _, _) in aurora_lint::rules::RULES {
        assert!(
            expected.iter().any(|(_, _, r)| r == rule),
            "{rule} is not covered by any fixture marker"
        );
    }
}

/// Acceptance: only `root_fn` is declared in the fixture lint.toml, yet
/// the allocation in `leaf_alloc` — two calls down — fires L001 and the
/// diagnostic names the full root→leaf chain.
#[test]
fn transitive_finding_reports_the_call_chain() {
    let report = aurora_lint::analyze(&fixtures_root()).expect("fixture analysis succeeds");
    let leaf = report
        .findings
        .iter()
        .find(|f| f.file == "hot.rs" && f.rule == "L001" && f.msg.contains("leaf_alloc"))
        .expect("the leaf_alloc allocation fires");
    assert!(
        leaf.msg.contains("hot via root_fn -> mid_fn -> leaf_alloc"),
        "chain missing from message: {}",
        leaf.msg
    );
}

/// The SARIF output must parse as JSON, carry the whole rule catalogue so
/// viewers can render rule metadata, and hold one result per finding.
#[test]
fn sarif_output_is_well_formed() {
    let report = aurora_lint::analyze(&fixtures_root()).expect("fixture analysis succeeds");
    let sarif = aurora_lint::output::sarif_report(&report).to_string();
    let sarif = Json::parse(&sarif).expect("SARIF is well-formed JSON");
    assert_eq!(sarif.get("version").and_then(Json::as_str), Some("2.1.0"));
    let run = &sarif.get("runs").and_then(Json::as_array).expect("runs")[0];
    let rule_ids: Vec<&str> = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Json::as_array)
        .expect("runs[0].tool.driver.rules")
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    let catalogue: Vec<&str> = aurora_lint::rules::RULES
        .iter()
        .map(|(id, _, _)| *id)
        .collect();
    assert_eq!(rule_ids, catalogue);
    let results = run
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), report.findings.len());
}

#[test]
fn reasoned_pragma_suppresses() {
    let report = aurora_lint::analyze(&fixtures_root()).expect("fixture analysis succeeds");
    // Exactly one finding (the unwrap in `suppressed_fn`) is covered by the
    // one well-formed pragma in hot.rs; the reasonless pragma suppresses
    // nothing and instead shows up as L000 (asserted by marker above).
    assert_eq!(report.suppressed, 1);
}

#[test]
fn explain_covers_every_rule() {
    for (id, _, _) in aurora_lint::rules::RULES {
        let text = aurora_lint::rules::explain(id).expect("explain text exists");
        assert!(
            text.starts_with(id),
            "{id} explanation must lead with its id"
        );
    }
    assert!(aurora_lint::rules::explain("L999").is_none());
}

/// The semantic rules carry their context: L010 names the chain that
/// made `unchecked_product` hot, and L013 names the pool chain.
#[test]
fn semantic_findings_carry_their_chains() {
    let report = aurora_lint::analyze(&fixtures_root()).expect("fixture analysis succeeds");
    let find = |file: &str, rule: &str| {
        report
            .findings
            .iter()
            .find(|f| f.file == file && f.rule == rule)
            .unwrap_or_else(|| panic!("expected a {rule} finding in {file}"))
    };
    let product = report
        .findings
        .iter()
        .find(|f| f.rule == "L010" && f.msg.contains("unchecked_product"))
        .expect("the transitive product fires");
    assert!(
        product
            .msg
            .contains("hot via arith_root -> unchecked_product"),
        "chain missing from message: {}",
        product.msg
    );
    let blocking = find("pool.rs", "L013");
    assert!(
        blocking
            .msg
            .contains("in pool loop via fixture_drain -> step -> log_progress"),
        "pool chain missing from message: {}",
        blocking.msg
    );
}

/// The shipped tree must be clean: this is the same gate ci.sh runs, kept
/// here too so a plain `cargo test` catches new violations early.
#[test]
fn shipped_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root two levels up");
    let report = aurora_lint::analyze(root).expect("workspace analysis succeeds");
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
