//! Machine-readable output: `--format sarif`.
//!
//! The document is a [`Json`] value printed by the workspace's one JSON
//! writer (`aurora-json`): compact, with sorted object keys.

use aurora_json::{obj, Json};

use crate::rules::RULES;
use crate::{Finding, Report};

fn string(s: &str) -> Json {
    Json::Str(s.to_owned())
}

/// A SARIF `message`-shaped object: `{"text": s}`.
fn text(s: &str) -> Json {
    obj([("text", string(s))])
}

/// The `--format sarif` document: SARIF 2.1.0 with the full rule catalogue
/// in `tool.driver.rules` and one `result` per finding.
pub fn sarif_report(report: &Report) -> Json {
    let rules = RULES
        .iter()
        .map(|(id, title, body)| {
            obj([
                ("id", string(id)),
                ("shortDescription", text(title)),
                ("fullDescription", text(body)),
            ])
        })
        .collect();
    let result = |f: &Finding| {
        let rule_index = RULES
            .iter()
            .position(|(id, _, _)| *id == f.rule)
            .unwrap_or(0);
        let location = obj([(
            "physicalLocation",
            obj([
                ("artifactLocation", obj([("uri", string(&f.file))])),
                (
                    "region",
                    obj([("startLine", Json::Num(f64::from(f.line.max(1))))]),
                ),
            ]),
        )]);
        obj([
            ("ruleId", string(f.rule)),
            ("ruleIndex", Json::Num(rule_index as f64)),
            ("level", string("error")),
            ("message", text(&f.msg)),
            ("locations", Json::Arr(vec![location])),
        ])
    };
    let driver = obj([
        ("name", string("aurora-lint")),
        ("informationUri", string("docs/LINTS.md")),
        ("rules", Json::Arr(rules)),
    ]);
    let run = obj([
        ("tool", obj([("driver", driver)])),
        (
            "results",
            Json::Arr(report.findings.iter().map(result).collect()),
        ),
    ]);
    obj([
        (
            "$schema",
            string(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
                 Schemata/sarif-schema-2.1.0.json",
            ),
        ),
        ("version", string("2.1.0")),
        ("runs", Json::Arr(vec![run])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            findings: vec![
                Finding {
                    file: "crates/core/src/sim.rs".to_string(),
                    line: 42,
                    rule: "L001",
                    msg: "`vec!` allocates inside `Simulator::feed` (declared hot root)"
                        .to_string(),
                },
                Finding {
                    file: "crates/isa/src/codec.rs".to_string(),
                    line: 0,
                    rule: "L002",
                    msg: "tricky \"quotes\" and \\ backslashes\nnewline".to_string(),
                },
            ],
            suppressed: 3,
            files_scanned: 17,
        }
    }

    /// Prints `doc` and parses the text back, as a consumer would.
    fn reparse(doc: &Json) -> Json {
        Json::parse(&doc.to_string()).expect("document parses")
    }

    #[test]
    fn sarif_output_is_well_formed_and_complete() {
        let doc = reparse(&sarif_report(&sample_report()));
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &doc.get("runs").and_then(Json::as_array).unwrap()[0];
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(
            driver.get("name").and_then(Json::as_str),
            Some("aurora-lint")
        );
        let ids: Vec<&str> = driver
            .get("rules")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|r| r.get("id").and_then(Json::as_str))
            .collect();
        let catalogue: Vec<&str> = RULES.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, catalogue);
        let results = run.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        let start_line = |r: &Json| {
            r.get("locations").and_then(Json::as_array).unwrap()[0]
                .get("physicalLocation")
                .and_then(|p| p.get("region"))
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_u64)
        };
        assert_eq!(start_line(&results[0]), Some(42));
        assert_eq!(start_line(&results[1]), Some(1), "line 0 must clamp to 1");
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let empty = Report {
            findings: vec![],
            suppressed: 0,
            files_scanned: 0,
        };
        let sarif = reparse(&sarif_report(&empty));
        let run = &sarif.get("runs").and_then(Json::as_array).unwrap()[0];
        assert_eq!(run.get("results").and_then(Json::as_array), Some(&[][..]));
    }
}
