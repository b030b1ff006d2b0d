//! Machine-readable output: `--format json` and `--format sarif`.
//!
//! Both writers are hand-rolled (the crate is zero-dependency by design);
//! [`json_well_formed`] is a full JSON grammar scanner used by the
//! selftests to prove the emitted documents parse.

use crate::rules::RULES;
use crate::Report;

/// Minimal JSON string escaping per RFC 8259.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `--format json` document: a flat findings array plus run totals.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&f.file),
            f.line,
            f.rule,
            esc(&f.msg)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"suppressed\": {},\n  \"files_scanned\": {}\n}}\n",
        report.suppressed, report.files_scanned
    ));
    out
}

/// The `--format sarif` document: SARIF 2.1.0 with the full rule catalogue
/// in `tool.driver.rules` and one `result` per finding.
pub fn render_sarif(report: &Report) -> String {
    let mut out = String::from(concat!(
        "{\n",
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/",
        "Schemata/sarif-schema-2.1.0.json\",\n",
        "  \"version\": \"2.1.0\",\n",
        "  \"runs\": [{\n",
        "    \"tool\": {\"driver\": {\n",
        "      \"name\": \"aurora-lint\",\n",
        "      \"informationUri\": \"docs/LINTS.md\",\n",
        "      \"rules\": ["
    ));
    for (i, (id, title, body)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"fullDescription\": {{\"text\": \"{}\"}}}}",
            esc(title),
            esc(body)
        ));
    }
    out.push_str("\n      ]\n    }},\n    \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|(id, _, _)| *id == f.rule)
            .unwrap_or(0);
        out.push_str(&format!(
            "\n      {{\"ruleId\": \"{}\", \"ruleIndex\": {rule_index}, \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": \
             {}}}}}}}]}}",
            f.rule,
            esc(&f.msg),
            esc(&f.file),
            f.line.max(1)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}\n");
    out
}

// --------------------------------------------------------------- validation

/// Scan `s` as a complete JSON document (RFC 8259 grammar). Returns a
/// byte-offset diagnostic on the first violation. Used by the selftests to
/// prove the SARIF/JSON writers emit parseable output without pulling in a
/// JSON dependency.
pub fn json_well_formed(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *i)),
        None => Err(format!("unexpected end of input at byte {i}")),
    }
}

fn literal(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}"));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '"'
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        *i += 1;
                        for _ in 0..4 {
                            if !b.get(*i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {i}"));
                            }
                            *i += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits_start = *i;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
    }
    if *i == digits_start {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("bad fraction at byte {i}"));
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("bad exponent at byte {i}"));
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Report};

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
                    rule: "L006",
                    msg: "tricky \"quotes\" and \\ backslashes\nnewline".to_string(),
                },
            ],
            suppressed: 3,
            files_scanned: 17,
        }
    }

    #[test]
    fn json_output_is_well_formed() {
        let doc = render_json(&sample_report());
        json_well_formed(&doc).expect("json parses");
        assert!(doc.contains("\"rule\": \"L001\""));
        assert!(doc.contains("\"suppressed\": 3"));
    }

    #[test]
    fn sarif_output_is_well_formed_and_complete() {
        let doc = render_sarif(&sample_report());
        json_well_formed(&doc).expect("sarif parses");
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"aurora-lint\""));
        // Every catalogue rule is present, findings carry clamped lines.
        for (id, _, _) in RULES {
            assert!(doc.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
        }
        assert!(doc.contains("\"startLine\": 1"), "line 0 must clamp to 1");
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let empty = Report {
            findings: vec![],
            suppressed: 0,
            files_scanned: 0,
        };
        json_well_formed(&render_json(&empty)).unwrap();
        json_well_formed(&render_sarif(&empty)).unwrap();
    }

    #[test]
    fn scanner_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1} extra",
            "\"unterminated",
            "{\"a\" 1}",
            "01x",
            "nul",
        ] {
            assert!(json_well_formed(bad).is_err(), "{bad:?} should fail");
        }
        for good in ["{}", "[]", "[1, -2.5e3, \"x\\u00e9\", true, null]", "0"] {
            assert!(json_well_formed(good).is_ok(), "{good:?} should pass");
        }
    }
}
